"""Search machinery for the refinement methods without closed-form fits.

Three layers:

* exact enumeration - non-trivial bipartitions and set partitions of the
  parent set (for SICI structures), the latter via restricted growth
  strings.

* the exact simple-canonical-model search. Its space of deterministic
  combination functions is the set of row bipartitions, and its fit is a
  two-block median fit of the P(Y=0) column, so the optimum is a contiguous
  split of that column in sorted order: ``scm_exact`` scores the n - 1 splits.
  ``scm_bruteforce`` scans every bipartition with a vectorised
  median/absolute-deviation kernel and serves as its oracle.

* a seeded genetic algorithm over a mixed encoding: combiner genes in
  [0, 1) decode to child-state labels per mechanism configuration, the
  remaining genes are the mechanism probabilities themselves. Selection is
  binary tournament, crossover uniform (rate 0.8), elitism 5%, mutation
  per-gene (rate 0.3): probability genes get a Gaussian step whose scale is
  drawn log-uniformly between 1e-4 and 0.1 (the heavy tail of small steps
  is what lets runs polish optima to the 1e-3 level; a fixed 0.1 scale
  stalls around 1e-2), combiner genes resample uniformly. Identical seed
  and config give bitwise-identical results. ``ga_optimize`` takes one
  batch fitness that scores a whole (population, genes) matrix per call.
  For ICI and SICI it is the forward pass of the spec evaluators in
  ``refine`` (the same mechanism-product kernel) run over the population at
  once; ICI is searched and evaluated as US-SICI with singleton parent
  blocks. The SICI sweep runs its partitions one after another in one
  process.

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
    canonical_partition,
    evaluate_spec,
    scm_fit,
)

ProgressFn = Callable[[int, float], None]

# per-mutation Gaussian scale is 10**uniform(log10 range): mostly small
# polishing steps with occasional large exploratory ones
_MUTATION_SCALE_LOG10 = (-4.0, -1.0)
_MUTATION_PROB = 0.3
_ELITISM_FRAC = 0.05
_CROSSOVER_PROB = 0.8


@dataclass(frozen=True)
class GaConfig:
    """Genetic-algorithm hyperparameters; defaults follow the benchmark setup."""

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
    (None for the raw genome ``ga_optimize`` returns)."""

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
    if not 1 <= n <= 12:
        raise SearchSpaceError(f"n must be in [1, 12], got {n}")
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
    if truth.child.cardinality != 2:
        raise ValidationError("the SCM objective requires a binary child")
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
    fit = scm_fit(truth, spec)
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
    if truth.child.cardinality != 2:
        raise ValidationError("brute-force SCM search requires a binary child")
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
    fit = scm_fit(truth, spec)
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
# ICI / SICI objectives
# ---------------------------------------------------------------------------


def _partition_batch_fitness(
    truth: Cpt, partition: Sequence[Sequence[int]]
) -> tuple[Callable[[np.ndarray], np.ndarray], GenomeShape, tuple[int, ...]]:
    """Vectorised sum-TVD objective for a US-SICI structure on a binary child.

    Returns (batch fitness over a population matrix, genome shape, block
    sizes of the real-gene segments in block order). The per-block gather and
    mechanism products are the ones the spec evaluators use, taken over the
    population at once.
    """
    cards = truth.parent_cards
    rows = _block_rows(cards, partition)
    block_sizes = tuple(math.prod(cards[i] for i in block) for block in partition)
    splits = np.cumsum(block_sizes)[:-1]
    t_yes = truth.rows[:, 1]
    n_mconf = 1 << len(partition)
    n_comb = n_mconf - 1

    def batch(pop: np.ndarray) -> np.ndarray:
        tables = [_binary_states(p1) for p1 in np.split(pop[:, n_comb:], splits, axis=1)]
        joint = _mech_joint(tables, rows)
        to_yes = np.concatenate(
            [np.zeros((pop.shape[0], 1)), (pop[:, :n_comb] >= 0.5).astype(np.float64)], axis=1
        )
        p_yes = np.einsum("prj,pj->pr", joint, to_yes)
        return np.abs(p_yes - t_yes[None, :]).sum(axis=1)

    shape = GenomeShape(n_mconf, sum(block_sizes))
    return batch, shape, block_sizes


def optimize_sici_partition(
    truth: Cpt,
    partition: Sequence[Sequence[int]],
    config: GaConfig,
    on_progress: ProgressFn | None = None,
) -> SearchResult:
    """GA search of one US-SICI structure: combiner and mechanism tables jointly.

    The result carries the best spec's re-scored fit, so its score equals
    what :func:`evaluate_spec` gives for that spec bitwise.
    """
    if truth.child.cardinality != 2:
        raise ValidationError("the SICI objective requires a binary child")
    part = canonical_partition(partition)
    if not part:
        raise ValidationError("the SICI objective needs at least one parent")
    _check_covers(part, len(truth.parents))
    batch, shape, block_sizes = _partition_batch_fitness(truth, part)
    result = ga_optimize(batch, shape, config, on_progress=on_progress)
    genome = result.best_spec
    mech = np.split(genome.real_part, np.cumsum(block_sizes)[:-1])
    spec = SiciSpec(part, mech, combiner=genome.integer_part)
    fit = evaluate_spec(truth, spec)
    return replace(result, best_spec=spec, best_score=fit.score, fit=fit)


def optimize_ici(
    truth: Cpt, config: GaConfig, on_progress: ProgressFn | None = None
) -> SearchResult:
    """GA search of the ICI model: one binary mechanism per parent.

    The genome holds 2^n - 1 combiner genes (configuration 0 pinned to child
    state 0) and one probability per parent state.
    """
    n = len(truth.parents)
    if n > 12:
        raise SearchSpaceError(f"{n} parents means 2^{n} combiner entries; not supported")
    singletons = tuple((i,) for i in range(n))
    result = optimize_sici_partition(truth, singletons, config, on_progress)
    sici: SiciSpec = result.best_spec
    return replace(result, best_spec=IciSpec(sici.mech_cpts, sici.combiner))


def optimize_sici(
    truth: Cpt, config: GaConfig, on_progress: Callable[[int, int, float], None] | None = None
) -> SiciSweep:
    """GA search over every multi-block parent partition; best per partition and overall.

    The single-block partition is skipped (it brings no parameter saving).
    Partitions run one after another; partition p gets seeds config.seed +
    p * config.restarts + (0 .. restarts-1). ``on_progress`` receives
    (partitions done, partitions total, best score) after each partition.
    """
    n = len(truth.parents)
    if n < 2:
        raise ValidationError(f"the SICI sweep needs at least 2 parents, got {n}")
    if n > 12:
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
