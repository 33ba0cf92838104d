"""Search machinery for the refinement methods without closed-form fits.

Four parts:

* exact enumeration - non-trivial bipartitions and set partitions of the
  parent set (for SICI structures), the latter via restricted growth
  strings.

* the exact simple-canonical-model search. Its space of deterministic
  combination functions is the set of row bipartitions, and its fit is a
  two-block median fit of the P(Y=0) column, so the optimum is a contiguous
  split of that column in sorted order: ``scm_exact`` scores the n - 1 splits.
  ``scm_bruteforce`` scans every bipartition with a vectorised
  median/absolute-deviation kernel and serves as its oracle.

* batched exact coordinate descent for ICI and SICI. ICI is US-SICI with
  singleton parent blocks, searched alone by ``optimize_ici`` and within the
  SICI sweep as ``SiciSweep.ici``; each such search is one
  ``optimize_sici_partition`` call, which holds the guards. The child is
  binary, so each row's P(Y=1) is affine in every block's mechanism
  parameters, and each row reads one parameter per block. With everything else
  fixed, a parameter's least-absolute-deviation optimum is an exact weighted
  median (the coordinate step of Wu & Lange, "Coordinate descent algorithms
  for lasso penalized regression", Ann. Appl. Stat. 2008). A sweep first
  applies each start's best improving single-bit combiner flip until none
  improves, then refits the blocks in order; a block's refit builds the other
  blocks' joint once per configuration of the parents outside the block, not
  once per row. The objective has kinks where plain coordinate descent
  stalls, so many seeded random starts run at once on the last axis of the
  ``refine`` mechanism-product kernel's (configurations, rows, starts)
  arrays; starts at a fixed point leave the batch. Identical
  seed and config give bitwise-identical results. The sweep runs its
  partitions serially.

* a seeded genetic algorithm over a mixed encoding (``ga_optimize``): binary
  tournament selection, uniform crossover (rate 0.8), elitism 5%, per-gene
  mutation (rate 0.3) with a Gaussian step whose scale is drawn
  log-uniformly between 1e-4 and 0.1, combiner genes resampled uniformly.
  None of the searches here calls it; it stays while the benchmark's tracer
  (``perfbench/tracing.py``) wraps it by name.

The mechanism configuration (0, ..., 0) is pinned to child state 0: any
non-trivial deterministic combiner can be brought to that form by flipping
mechanism polarities, so the pinning halves the search space without losing
any representable model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .cpt import Cpt
from .errors import SearchSpaceError, ValidationError
from .refine import (
    ApproxResult,
    IciSpec,
    ScmSpec,
    SiciSpec,
    _binary_states,
    _block_rows,
    _check_covers,
    _mech_joint,
    _require_binary,
    canonical_partition,
    evaluate_spec,
)

ProgressFn = Callable[[int, float], None]

# The most parent blocks an ICI/SICI search takes: a combiner has 2^blocks entries.
# Over binary parents one batch of 300 starts took 5.6 s at 7 blocks and 80.5 s at 8
# (2-core machine), and 20 starts of at most 5 sweeps 4.3 s at 8 and 55.8 s at 9, about
# x13 per block: a default search of 10 batches takes minutes at 8 and hours from 9.
_MAX_BLOCKS = 8
# The most float64 values a search batch's own state may hold: population x (rows +
# the blocks' configurations + 2^blocks). 2^26 values are 512 MiB; 300 starts of
# Anxiety's ICI hold 14,700, and 300 over 8 binary parents about 160,000.
_MAX_BATCH_VALUES = 1 << 26

# per-mutation Gaussian scale is 10**uniform(log10 range): mostly small
# polishing steps with occasional large exploratory ones
_MUTATION_SCALE_LOG10 = (-4.0, -1.0)
_MUTATION_PROB = 0.3
_ELITISM_FRAC = 0.05
_CROSSOVER_PROB = 0.8


@dataclass(frozen=True)
class GaConfig:
    """Search budget of the ICI and SICI searches (and of ``ga_optimize``).

    For the coordinate descent, ``restarts`` is the number of batches,
    ``population`` the number of random starts in each batch, and
    ``max_generations`` the cap on sweeps per batch; batch r is seeded with
    ``seed`` + r. ``stall_limit`` bounds generations without improvement in
    ``ga_optimize`` only; the descent stops a batch after the first sweep
    that lowers its best score by less than 1e-5.
    """

    population: int = 300
    max_generations: int = 2000
    stall_limit: int = 50
    seed: int = 0
    restarts: int = 10

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValidationError("population must be >= 2")
        if self.stall_limit < 1:
            raise ValidationError("stall_limit must be >= 1")
        if self.max_generations < 1:
            raise ValidationError("max_generations must be >= 1")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


@dataclass(frozen=True)
class GenomeShape:
    """Gene layout: (combiner_configs - 1) combiner genes then ``reals`` genes.

    Mechanism configuration 0 is pinned to child state 0 and carries no gene.
    The child is binary: a combiner gene of at least 0.5 maps to state 1.
    """

    combiner_configs: int
    reals: int

    @property
    def n_genes(self) -> int:
        return (self.combiner_configs - 1) + self.reals

    def decode(self, vector: np.ndarray) -> "Genome":
        vector = np.asarray(vector, dtype=np.float64)
        n_comb = self.combiner_configs - 1
        labels = (vector[:n_comb] >= 0.5).astype(int)
        return Genome((0, *labels.tolist()), vector[n_comb:].copy())


@dataclass(frozen=True, eq=False)
class Genome:
    """Decoded candidate: child-state label per mechanism config plus probability genes."""

    integer_part: tuple[int, ...]
    real_part: np.ndarray


@dataclass(frozen=True, eq=False)
class SearchResult:
    """A search's best spec and score; ``fit`` is that spec's fitted approximation
    (None for the raw genome ``ga_optimize`` returns). ``generations_run``
    counts GA generations or descent sweeps, summed over restarts, and
    ``evaluations`` the candidate scores computed."""

    best_spec: object
    best_score: float
    evaluations: int
    seed_used: int
    generations_run: int
    fit: ApproxResult | None = None


@dataclass(frozen=True, eq=False)
class SiciSweep:
    """Per-partition search results (enumeration order) plus the global best."""

    results: tuple[SearchResult, ...]
    best: SearchResult

    @property
    def ici(self) -> SearchResult:
        """The result of the partition into singletons, as an :class:`IciSpec` search."""
        singles = (r for r in self.results if max(map(len, r.best_spec.parent_partition)) == 1)
        return _as_ici(next(singles))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_bipartitions(
    item_count: int,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All unordered non-trivial 2-block partitions of range(item_count).

    Item 0 is fixed in the first block so each unordered bipartition appears
    exactly once; the count is 2^(item_count - 1) - 1.
    """
    if not 2 <= item_count <= 30:
        raise SearchSpaceError(f"item_count must be in [2, 30], got {item_count}")
    items = range(1, item_count)
    for mask in range(1, 1 << (item_count - 1)):
        block_b = tuple(r for r in items if (mask >> (r - 1)) & 1)
        block_a = (0, *(r for r in items if not (mask >> (r - 1)) & 1))
        yield block_a, block_b


def enumerate_set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All set partitions of range(n) via restricted growth strings.

    Yields Bell(n) partitions, blocks ordered by first appearance, no
    duplicates.
    """
    if not 1 <= n <= _MAX_BLOCKS:
        raise SearchSpaceError(f"n must be in [1, {_MAX_BLOCKS}], got {n}")
    a = [0] * n

    def rec(i: int, n_blocks: int):
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(n_blocks)]
            for j in range(n):
                blocks[a[j]].append(j)
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(n_blocks + 1):
            a[i] = b
            yield from rec(i + 1, n_blocks + (1 if b == n_blocks else 0))

    yield from rec(1, 1)


# ---------------------------------------------------------------------------
# Exact SCM search
# ---------------------------------------------------------------------------


def scm_exact(truth: Cpt) -> SearchResult:
    """Exact SCM optimum from the n - 1 contiguous splits of the sorted P(Y=0) column.

    The SCM fit is a two-block median fit of that column, and optimal 1-D
    k-median clusters are contiguous in sorted order (Gronlund et al.,
    arXiv 1701.07204), so some sorted split is optimal over every bipartition
    :func:`scm_bruteforce` scans. A sorted segment's absolute deviation from
    its median is the sum of its upper half minus the sum of its lower half,
    so prefix sums score all splits at once in O(n log n). Ties break towards
    the smallest lower block; the block holding row 0 is labelled 0.
    """
    _require_binary(truth.child, "the SCM objective")
    n = truth.n_rows
    if n < 2:
        raise ValidationError(f"the SCM needs at least 2 rows to split, got {n}")
    order = np.argsort(truth.rows[:, 0], kind="stable")
    prefix = np.concatenate(([0.0], np.cumsum(truth.rows[order, 0])))
    k = np.arange(1, n)  # size of the lower block
    lo_half, hi_half = k // 2, (n - k) // 2
    lower = (prefix[k] - prefix[k - lo_half]) - prefix[lo_half]
    upper = (prefix[n] - prefix[n - hi_half]) - (prefix[k + hi_half] - prefix[k])
    split = int(np.argmin(lower + upper)) + 1
    assignment = np.zeros(n, dtype=np.int64)
    assignment[order[split:]] = 1
    spec = ScmSpec((assignment ^ assignment[0]).tolist())
    # report the score from the exact refit so it matches re-scoring bitwise
    fit = evaluate_spec(truth, spec)
    return SearchResult(spec, fit.score, n - 1, 0, 0, fit)


_SCM_CHUNK = 1 << 18


def scm_bruteforce(truth: Cpt, on_progress: ProgressFn | None = None) -> SearchResult:
    """Exact optimum over every non-trivial row bipartition of a binary-child CPT.

    The reference oracle for :func:`scm_exact`. Scans all 2^(rows-1) - 1
    bipartitions with a vectorised kernel: for a sorted value list, the
    absolute deviation of a block from its median is the sum of the block's
    upper half minus its lower half, which turns the per-block fit into one
    signed dot product. Ties break towards the smallest partition index, so
    results are independent of chunking.
    """
    n = truth.n_rows
    if n > 30:
        raise SearchSpaceError(f"{n} rows means 2^{n - 1} bipartitions; use scm_exact instead")
    _require_binary(truth.child, "brute-force SCM search")
    v = truth.rows[:, 0]
    order = np.argsort(v, kind="stable").astype(np.int64)
    v_sorted = v[order]

    total = (1 << (n - 1)) - 1
    best_score = np.inf
    best_mask = 0
    start = 1
    while start <= total:
        stop = min(start + _SCM_CHUNK, total + 1)
        masks = np.arange(start, stop, dtype=np.int64) << 1  # row 0 stays in block A
        member = ((masks[:, None] >> order[None, :]) & 1).astype(np.int32)
        score = _lad_scores(member, v_sorted) + _lad_scores(1 - member, v_sorted)
        i = int(np.argmin(score))
        if score[i] < best_score:
            best_score = float(score[i])
            best_mask = int(masks[i])
        start = stop
        if on_progress is not None:
            on_progress(stop - 1, best_score)

    assignment = tuple((best_mask >> r) & 1 for r in range(n))
    spec = ScmSpec(assignment)
    # report the score from the exact refit so it matches re-scoring bitwise
    fit = evaluate_spec(truth, spec)
    return SearchResult(spec, fit.score, total, 0, 0, fit)


def _lad_scores(member: np.ndarray, v_sorted: np.ndarray) -> np.ndarray:
    """Sum of |v - median| over each row's selected subset of sorted values."""
    k = member.sum(axis=1)
    ranks = member.cumsum(axis=1)
    sgn = np.sign(2 * ranks - (k + 1)[:, None]) * member
    return sgn.astype(np.float64) @ v_sorted


# ---------------------------------------------------------------------------
# Genetic algorithm
# ---------------------------------------------------------------------------


def ga_optimize(
    batch_fitness: Callable[[np.ndarray], np.ndarray],
    shape: GenomeShape,
    config: GaConfig,
    on_progress: ProgressFn | None = None,
) -> SearchResult:
    """Minimise a fitness over the mixed encoding; best of ``config.restarts`` runs.

    ``batch_fitness`` maps a (population, n_genes) matrix to a score vector.
    Restart r is seeded with config.seed + r; identical seed and config give
    bitwise-identical results.
    """
    best_score = np.inf
    best_vec: np.ndarray | None = None
    best_seed = config.seed
    evaluations = 0
    generations = 0
    for r in range(config.restarts):
        seed = config.seed + r
        score, vec, gens, evals = _ga_single_run(
            batch_fitness, shape, config, seed, evaluations, on_progress
        )
        evaluations += evals
        generations += gens
        if score < best_score:
            best_score = score
            best_vec = vec
            best_seed = seed
    return SearchResult(shape.decode(best_vec), best_score, evaluations, best_seed, generations)


def _ga_single_run(
    batch_fitness: Callable[[np.ndarray], np.ndarray],
    shape: GenomeShape,
    config: GaConfig,
    seed: int,
    evals_before: int,
    on_progress: ProgressFn | None,
) -> tuple[float, np.ndarray, int, int]:
    rng = np.random.default_rng(seed)
    pop_size = config.population
    n_genes = shape.n_genes
    n_comb = shape.combiner_configs - 1
    is_comb = np.arange(n_genes) < n_comb

    pop = rng.random((pop_size, n_genes))
    scores = batch_fitness(pop)
    evals = pop_size
    i = int(np.argmin(scores))
    best_score = float(scores[i])
    best_vec = pop[i].copy()

    n_elite = min(pop_size, math.ceil(_ELITISM_FRAC * pop_size))
    n_off = pop_size - n_elite
    stall = 0
    gen = 0
    for gen in range(1, config.max_generations + 1):
        idx = np.argsort(scores, kind="stable")
        elites, elite_scores = pop[idx[:n_elite]], scores[idx[:n_elite]]

        cand = rng.integers(0, pop_size, size=(2, n_off, 2))
        parents = []
        for side in range(2):
            c0, c1 = cand[side, :, 0], cand[side, :, 1]
            parents.append(np.where(scores[c0] <= scores[c1], c0, c1))
        pa, pb = pop[parents[0]], pop[parents[1]]

        do_cross = rng.random(n_off) < _CROSSOVER_PROB
        take_b = rng.random((n_off, n_genes)) < 0.5
        children = np.where(do_cross[:, None] & take_b, pb, pa)

        mutate = rng.random((n_off, n_genes)) < _MUTATION_PROB
        scale = 10.0 ** rng.uniform(*_MUTATION_SCALE_LOG10, size=(n_off, n_genes))
        perturbed = np.clip(children + scale * rng.normal(size=(n_off, n_genes)), 0.0, 1.0)
        resampled = rng.random((n_off, n_genes))
        children = np.where(mutate, np.where(is_comb[None, :], resampled, perturbed), children)

        child_scores = batch_fitness(children)
        evals += n_off
        pop = np.vstack([elites, children])
        scores = np.concatenate([elite_scores, child_scores])

        i = int(np.argmin(scores))
        if scores[i] < best_score:
            best_score = float(scores[i])
            best_vec = pop[i].copy()
            stall = 0
        else:
            stall += 1
        if on_progress is not None:
            on_progress(evals_before + evals, best_score)
        if stall >= config.stall_limit:
            break
    return best_score, best_vec, gen, evals


# ---------------------------------------------------------------------------
# ICI / SICI search: batched exact coordinate descent
# ---------------------------------------------------------------------------

# A sweep must lower its batch's best sum-TVD by at least this much, or the
# batch stops. Near a local optimum the descent converges linearly: on small
# network nodes each sweep's gain was 0.3-0.5 times the last, so a
# strict-decrease rule ran on to gains of 1e-16, 20-40 sweeps where about 10
# bring the gain under 1e-5, far below the 4 decimals the reports print. Over
# seeds 1-10 of the benchmark's network pool that tail made the total sweep
# count vary by 16% (interquartile range over median); with this floor, 4%.
_MIN_SWEEP_GAIN = 1e-5

# Batch set-up and every sweep take starts in chunks of at most this many elements
# of the (2^m, rows, starts) joint: one chunk for every Anxiety and network batch of
# 300 (at most 16 x 24 x 300). Set-up of 300 starts over 8 binary parents,
# ``_MAX_BLOCKS``, peaks at 3.8 MiB (tracemalloc), 301 MiB built whole.
_DESCENT_CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True, eq=False)
class _Structure:
    """A US-SICI structure over a binary-child truth CPT, as the descent reads it.

    A row's index is the sum of its block-b part and the part of the parents
    outside block b, so every group of ``by_config[b]`` lists the rows of one
    block-b configuration in the same order of the other parents'
    configurations: the order of group 0. Block b's refit works in that
    (configs_b, others, ...) layout, where ``rest_rows[b]``, ``t_grouped[b]`` and
    ``position[b]`` hold what it reads.
    """

    t_yes: np.ndarray  # (rows, 1) target P(Y = 1)
    rows: np.ndarray  # per block, each row's configuration index (``_block_rows``)
    by_config: list[np.ndarray]  # per block, the rows in order of that index
    sizes: tuple[int, ...]  # per block, the number of configurations
    # per block b, each other block's configuration index (blocks in order) for each
    # configuration of the parents outside b
    rest_rows: list[list[np.ndarray]]
    t_grouped: list[np.ndarray]  # per block b, t_yes in (configs_b, others, 1) layout
    position: list[np.ndarray]  # per block b, each row's flat index in that layout

    @classmethod
    def of(cls, truth: Cpt, partition: Sequence[Sequence[int]]) -> "_Structure":
        cards = truth.parent_cards
        t_yes = truth.rows[:, 1:]
        rows = _block_rows(cards, partition)
        by_config = [np.argsort(r, kind="stable") for r in rows]
        sizes = tuple(math.prod(cards[i] for i in block) for block in partition)
        rest_rows = []
        for b, (order, size) in enumerate(zip(by_config, sizes)):
            first = order[: len(order) // size]  # the rows of block-b configuration 0
            rest_rows.append([r[first] for c, r in enumerate(rows) if c != b])
        t_grouped = [t_yes[order].reshape(size, -1, 1) for order, size in zip(by_config, sizes)]
        position = [np.argsort(order) for order in by_config]
        return cls(t_yes, rows, by_config, sizes, rest_rows, t_grouped, position)


@dataclass(eq=False)
class _Starts:
    """A batch of descent states, one start per column. ``p_yes`` is each start's model P(Y = 1)
    per row and ``score`` its sum of |p_yes - t_yes|, as the last step that moved it computed."""

    mech: list[np.ndarray]  # per block, (configs_b, starts) P(M_b = 1 | configuration)
    comb: np.ndarray  # (2^m, starts) child state per mechanism configuration, 0.0 or 1.0
    p_yes: np.ndarray  # (rows, starts)
    score: np.ndarray  # (starts,)

    def take(self, idx: np.ndarray) -> "_Starts":
        """The starts ``idx`` as a batch of their own, copied in C order."""
        cols = [x.take(idx, axis=-1) for x in (*self.mech, self.comb, self.p_yes, self.score)]
        return _Starts(cols[:-3], *cols[-3:])

    def put(self, idx: np.ndarray, chunk: "_Starts") -> np.ndarray:
        """Write ``chunk`` back to the starts ``idx``; True where a start's state changed."""
        moved = np.zeros(len(idx), dtype=bool)
        pairs = zip([*self.mech, self.comb, self.p_yes], [*chunk.mech, chunk.comb, chunk.p_yes])
        for old, new in pairs:
            # compare bits, so that 0.0 and -0.0 differ
            moved |= (old[:, idx].view(np.int64) != new.view(np.int64)).any(axis=0)
            old[:, idx] = new
        self.score[idx] = chunk.score
        return moved


def _wide(idx: np.ndarray) -> np.ndarray:
    """``idx`` with a lone start held twice: numpy sums a (rows, 1) array pairwise, not
    in order, so a lone start would score in other bits than in a batch."""
    return np.repeat(idx, 2) if len(idx) == 1 else idx


def _joint(structure: _Structure, mech: Sequence[np.ndarray]) -> np.ndarray:
    """(2^m, rows, starts) mechanism-configuration probabilities."""
    return _mech_joint([_binary_states(m) for m in mech], structure.rows)


def _chunks(structure: _Structure, idx: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``idx`` in chunks within ``_DESCENT_CHUNK_ELEMENTS``, each with its :func:`_wide` columns."""
    width = max(1, _DESCENT_CHUNK_ELEMENTS // len(structure.t_yes) // (1 << len(structure.sizes)))
    for lo in range(0, idx.size, width):
        part = idx[lo : lo + width]
        yield part, _wide(part)


def _random_starts(structure: _Structure, rng: np.random.Generator, n: int) -> _Starts:
    """Uniform mechanism probabilities and combiner bits; configuration 0 maps to state 0.
    Each start is drawn as a row, then transposed, so a seed's starts keep their draw order."""
    mech = [np.ascontiguousarray(rng.random((n, size)).T) for size in structure.sizes]
    comb = np.zeros((1 << len(mech), n))
    comb[1:] = rng.integers(0, 2, size=(n, len(comb) - 1)).T
    p_yes = np.empty((len(structure.t_yes), n))
    for idx, cols in _chunks(structure, np.arange(n)):
        joint = _joint(structure, [m.take(cols, axis=1) for m in mech])
        p_yes[:, idx] = (joint * comb.take(cols, axis=1)[:, None, :]).sum(axis=0)[:, : idx.size]
    return _Starts(mech, comb, p_yes, np.abs(p_yes - structure.t_yes).sum(axis=0))


def _flip_combiner(structure: _Structure, starts: _Starts) -> int:
    """Apply each start's best improving single-bit combiner flip until none improves.

    Every flip of every still-improving start is scored at once; configuration 0
    stays pinned. ``starts`` holds at least two columns (see :func:`_wide`).
    ``moves`` holds each flippable configuration's signed change to a start's
    P(Y = 1): its mass times 1 - 2 * comb, which is +-1, so the product is exact
    and a flip only negates its entry. A candidate is p + move, the bits of
    p + sign * mass. Returns the number of candidate scores computed.
    """
    # (2^m - 1, rows, active starts); a lone start's column broadcasts over its two
    moves = _joint(structure, starts.mech)[1:]
    moves *= 1.0 - 2.0 * starts.comb[1:, None, :]
    active = np.arange(len(starts.score))
    evaluations = 0
    while active.size:
        p = starts.p_yes.take(_wide(active), axis=1)
        # |p + move - t| per candidate, built in one buffer
        dev = np.add(moves, p)
        dev -= structure.t_yes
        scores = np.add.reduce(np.abs(dev, out=dev), axis=1)
        evaluations += len(scores) * active.size
        at = np.arange(active.size)
        j = scores.argmin(axis=0)[at]
        best = scores[j, at]
        improves = best < starts.score[active]
        at, j, active = at[improves], j[improves], active[improves]
        starts.comb[j + 1, active] = 1.0 - starts.comb[j + 1, active]
        # the candidate's P(Y = 1) again, in the bits it was scored with
        starts.p_yes[:, active] = p[:, at] + moves[j, :, at].T
        starts.score[active] = best[improves]
        moves[j, :, at] = -moves[j, :, at]
        if at.size < improves.size:
            moves = moves.take(at, axis=2)
    return evaluations


def _fit_block(structure: _Structure, starts: _Starts, b: int) -> int:
    """Refit block b's mechanism probabilities exactly, every other parameter fixed.

    Each row reads one parameter theta of block b, and its P(Y = 1) is
    a * theta + d, where a and d come from the other blocks' joint and the
    combiner's two halves over block b's mechanism state. Both depend on the
    row only through the parents outside block b, so they are built once per
    configuration of those parents and read in the (configs_b, others, starts)
    layout of :class:`_Structure`. The parameters separate, and each one's
    least-absolute-deviation optimum over [0, 1] is the lower weighted median
    of clip((t - d) / a, 0, 1), weights |a|, over the rows that read it: each
    group is sorted stably, and flat indices (configuration, rank, start) gather
    the sorted weights. Their prefix sums are the sequential adds of a
    cumulative sum, made one rank at a time over every group while the ranks
    are few against the groups, and by ``cumsum`` group by group otherwise:
    the same adds, so the same bits. The lower median's rank is the number of
    ranks whose doubled prefix weight is still below the group's total: the
    weights are >= 0, so the doubled prefix never falls and that count is the
    first rank where it reaches the total. ``np.clip`` keeps a z of -0.0
    (t == d, a < 0) as it is, as the refit in row order did. A parameter read
    only by rows with a = 0 keeps its value; a start keeps its old block if the
    refit would raise its score. P(Y = 1) returns to row order before it is
    scored, so every element and sum is the one a refit in row order computes.
    Returns the number of candidate scores computed.
    """
    n = starts.score.size
    t = structure.t_grouped[b]
    rest = [_binary_states(m) for c, m in enumerate(starts.mech) if c != b]
    joint = _mech_joint(rest, structure.rest_rows[b])
    halves = starts.comb.reshape(-1, 2, 1 << b, n)
    off = halves[:, 0].reshape(-1, 1, n)
    on = halves[:, 1].reshape(-1, 1, n)
    # (others, starts); with b the only block the joint is the (1, 1) empty product
    d = np.add.reduce(joint * off, axis=0)
    a = np.add.reduce(joint * (on - off), axis=0)
    z = np.divide(t - d, a, out=np.zeros((*t.shape[:2], n)), where=a != 0)
    np.clip(z, 0.0, 1.0, out=z)

    order = z.argsort(axis=1, kind="stable")
    # every group reads the same weights: rank k of group c gathers |a| at order * n + s
    cum = np.abs(a).take(order * n + np.arange(n))
    # one add per rank costs about as much as cumsum's pass over 64 groups: the adds win
    # on network nodes (2-9 ranks, 600-2700 groups), cumsum on Anxiety's 12-rank blocks
    # (600 groups) and on ICI over 5 or more binary parents (16-128 ranks, 4-256 groups)
    if (cum.shape[1] - 1) * 64 < cum.shape[0] * n:
        for k in range(1, cum.shape[1]):
            np.add(cum[:, k - 1], cum[:, k], out=cum[:, k])
    else:
        cum = cum.cumsum(axis=1)
    total = cum[:, -1]
    lower = np.add.reduce(2.0 * cum < total[:, None, :], axis=1)
    # base[c, s]: the flat index of group c's first element for start s
    base = np.arange(0, z.size, z.shape[1] * n).reshape(-1, 1) + np.arange(n)
    median = z.take(order.take(lower * n + base) * n + base)
    theta = np.where(total > 0.0, median, starts.mech[b])

    p_yes = (a * theta[:, None, :] + d).reshape(-1, n).take(structure.position[b], axis=0)
    score = np.add.reduce(np.abs(p_yes - structure.t_yes), axis=0)
    take = score <= starts.score
    np.copyto(starts.mech[b], theta, where=take)
    np.copyto(starts.p_yes, p_yes, where=take)
    np.copyto(starts.score, score, where=take)
    return n


def _sweep(structure: _Structure, starts: _Starts) -> int:
    """The combiner flips, then each block's refit in order; returns candidate scores computed."""
    flips = _flip_combiner(structure, starts)
    return flips + sum(_fit_block(structure, starts, b) for b in range(len(structure.sizes)))


def _descend(
    structure: _Structure,
    config: GaConfig,
    seed: int,
    evals_before: int,
    on_progress: ProgressFn | None,
) -> tuple[_Starts, int, int]:
    """One batch of ``config.population`` starts, seeded with ``seed``, swept to a stop.

    Each step reads only a start's own column, so a start that a sweep leaves
    unchanged is at a fixed point and leaves the batch; the rest are swept in
    chunks of at most ``_DESCENT_CHUNK_ELEMENTS``. Neither changes a result. The
    batch stops after the first sweep that lowers its best score by less than
    ``_MIN_SWEEP_GAIN``, or after ``config.max_generations`` sweeps. Returns
    (final states, sweeps, candidate scores computed).
    """
    starts = _random_starts(structure, np.random.default_rng(seed), config.population)
    evaluations = config.population
    live = np.arange(config.population)
    best = float(starts.score.min())
    sweeps = 0
    # with every start fixed no later sweep could change anything
    while sweeps < config.max_generations and live.size:
        sweeps += 1
        moving = []
        for idx, cols in _chunks(structure, live):
            chunk = starts.take(cols)
            # a lone start held twice is swept twice; count it once
            evaluations += _sweep(structure, chunk) * idx.size // cols.size
            moving.append(idx[starts.put(cols, chunk)[: idx.size]])
        live = np.concatenate(moving)
        swept = float(starts.score.min())
        if on_progress is not None:
            on_progress(evals_before + evaluations, swept)
        if not swept < best - _MIN_SWEEP_GAIN:
            break
        best = swept
    return starts, sweeps, evaluations


def optimize_sici_partition(
    truth: Cpt,
    partition: Sequence[Sequence[int]],
    config: GaConfig,
    on_progress: ProgressFn | None = None,
) -> SearchResult:
    """Coordinate-descent search of one US-SICI structure: combiner and mechanism tables.

    Restart r is one batch of ``config.population`` random starts seeded with
    config.seed + r; the best over all batches wins (the first on ties).
    ``on_progress`` receives (candidate scores so far, the batch's best)
    after each sweep. The result carries the best spec's re-scored fit, so
    its score equals what :func:`evaluate_spec` gives for that spec bitwise.
    Every ICI and SICI search runs here, so it holds their guards: a binary
    child and a partition that covers the parents in at least two blocks
    (ValidationError, ShapeMismatchError), at most ``_MAX_BLOCKS`` blocks and a
    batch state of at most ``_MAX_BATCH_VALUES`` values (SearchSpaceError).
    One block is the full CPT behind a deterministic combiner, which the
    descent cannot fit: each sweep flips the combiner before it refits the
    mechanism, so a start that maps every mechanism state to 0 stays there.
    """
    _require_binary(truth.child, "the SICI objective")
    part = canonical_partition(partition)
    if len(part) > _MAX_BLOCKS:
        raise SearchSpaceError(f"{len(part)} parent blocks, more than the {_MAX_BLOCKS} supported")
    _check_covers(part, len(truth.parents))
    if len(part) < 2:
        raise ValidationError(f"an ICI/SICI search needs at least 2 parent blocks, got {len(part)}")
    structure = _Structure.of(truth, part)
    values = config.population * (len(structure.t_yes) + sum(structure.sizes) + (1 << len(part)))
    if values > _MAX_BATCH_VALUES:
        raise SearchSpaceError(
            f"a batch of {config.population} starts holds {values} values, "
            f"more than the {_MAX_BATCH_VALUES} supported"
        )
    best: tuple[float, _Starts, int, int] | None = None
    evaluations = sweeps = 0
    for r in range(config.restarts):
        seed = config.seed + r
        starts, n_sweeps, n_evals = _descend(structure, config, seed, evaluations, on_progress)
        evaluations += n_evals
        sweeps += n_sweeps
        i = int(np.argmin(starts.score))
        if best is None or starts.score[i] < best[0]:
            best = (float(starts.score[i]), starts, i, seed)
    _, starts, i, seed = best
    spec = SiciSpec(
        part, [m[:, i] for m in starts.mech], combiner=starts.comb[:, i].astype(np.int64).tolist()
    )
    fit = evaluate_spec(truth, spec)
    return SearchResult(spec, fit.score, evaluations, seed, sweeps, fit)


def optimize_ici(truth: Cpt, config: GaConfig) -> SearchResult:
    """Coordinate-descent search of the ICI model: one binary mechanism per parent.

    It searches US-SICI with every parent in a block of its own: a combiner
    over the 2^n mechanism configurations (configuration 0 pinned to child
    state 0) and one probability per parent state.
    """
    singletons = tuple((i,) for i in range(len(truth.parents)))
    return _as_ici(optimize_sici_partition(truth, singletons, config))


def _as_ici(result: SearchResult) -> SearchResult:
    """A singleton-partition SICI search result with its spec as an :class:`IciSpec`."""
    sici: SiciSpec = result.best_spec
    return replace(result, best_spec=IciSpec(sici.mech_cpts, sici.combiner))


def optimize_sici(
    truth: Cpt, config: GaConfig, on_progress: Callable[[int, int, float], None] | None = None
) -> SiciSweep:
    """Search every multi-block parent partition; best per partition and overall.

    The single-block partition is skipped (it brings no parameter saving).
    Partitions run one after another; partition p gets seeds config.seed +
    p * config.restarts + (0 .. restarts-1). ``on_progress`` receives
    (partitions done, partitions total, best score) after each partition.
    """
    n = len(truth.parents)
    if n < 2:
        raise ValidationError(f"the SICI sweep needs at least 2 parents, got {n}")
    if n > _MAX_BLOCKS:
        raise SearchSpaceError(f"partition sweep over {n} parents is not supported")
    partitions = [p for p in enumerate_set_partitions(n) if len(p) > 1]
    results: list[SearchResult] = []
    best: SearchResult | None = None
    for pi, part in enumerate(partitions):
        result = optimize_sici_partition(
            truth, part, replace(config, seed=config.seed + pi * config.restarts)
        )
        results.append(result)
        if best is None or result.best_score < best.best_score:
            best = result
        if on_progress is not None:
            on_progress(len(results), len(partitions), best.best_score)
    return SiciSweep(tuple(results), best)
