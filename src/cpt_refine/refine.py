"""The five structural refinement methods for CPT approximation.

Three of the methods act by forcing groups of CPT rows to share one child
distribution, which the core module can then fit optimally with medians.
Each grouping is an integer label per row (rows with equal labels share):

* pruning      - drop one parent; rows agreeing on the remaining parents group.
* divorcing    - route a subset of parents through a deterministic logic gate;
                 rows agreeing on (gate output, remaining parents) group.
* SCM          - a single deterministic intermediate node over all parents;
                 any bipartition of the rows is admissible.

``prune_best`` and ``divorce_best`` search the first two exhaustively. The
divorce search scores the (gate, binarization) candidates of one parent
subset together, reading every group's median from one sort of the truth
and fitting each distinct grouping once, and only its winner is expanded
into a CPT. ``evaluate_spec`` is the one path from any spec to a reported
fit (a grouping spec's row labels are fitted, expanded and scored once),
and every search reports it for its winner.

The remaining two are causal-interaction models evaluated forward from a
small set of mechanism parameters; their rows are generally all distinct and
there is no closed-form fit (the optimizer module searches them):

* ICI          - one stochastic mechanism per parent combined by a
                 deterministic function into the child (noisy-OR is the
                 classic special case).
* SICI         - ICI generalised so blocks of parents share one mechanism.
                 The upper-stochastic (US) variant keeps a deterministic
                 combiner; the double-stochastic (DS) variant replaces it
                 with a stochastic lower table p(y | mechanisms). Mechanisms
                 may have k states.

One ``SiciSpec`` describes the whole family: ``IciSpec`` is its shorthand
for singleton blocks with a combiner, and PICI (noisy-average among them) is
DS-SICI with singleton blocks. One evaluator, ``sici_evaluate``, serves them
all by reading a combiner f as its indicator lower table p(y | m) = [f(m) = y].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cpt import (
    Cpt,
    Variable,
    _median_pair_params,
    _median_pairs,
    _sorted_columns,
    config_table,
    expand_grouped,
    fit_grouping,
    param_count,
    score_sum_tvd,
)
from .errors import ShapeMismatchError, ValidationError

GATES = ("AND", "OR", "XOR")


# ---------------------------------------------------------------------------
# Method specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PruneSpec:
    """Drop the edge from parent ``parent`` to the child."""

    parent: int


@dataclass(frozen=True)
class DivorceSpec:
    """Route ``divorced`` parents through one deterministic logic gate.

    ``binarization`` holds, per divorced parent, the set of its state
    indices that map to gate input 1 (every other state maps to 0). It must
    be a proper nonempty subset of the parent's states.
    """

    divorced: tuple[int, ...]
    gate: str
    binarization: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "divorced", tuple(int(i) for i in self.divorced))
        object.__setattr__(
            self, "binarization", tuple(tuple(sorted(int(s) for s in b)) for b in self.binarization)
        )
        if self.gate not in GATES:
            raise ValidationError(f"gate must be one of {GATES}, got {self.gate!r}")
        if len(self.divorced) < 2:
            raise ValidationError("divorce needs at least 2 parents")
        if len(set(self.divorced)) != len(self.divorced):
            raise ValidationError("divorced parents must be distinct")
        if len(self.binarization) != len(self.divorced):
            raise ValidationError("need one binarization per divorced parent")


@dataclass(frozen=True)
class ScmSpec:
    """Assignment of every CPT row (parent configuration) to block 0 or 1."""

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))
        if any(a not in (0, 1) for a in self.assignment):
            raise ValidationError("assignment entries must be 0 or 1")
        if len(set(self.assignment)) != 2:
            raise ValidationError("bipartition must have two nonempty blocks")


@dataclass(frozen=True)
class SiciSpec:
    """Blocks of parents share mechanisms, joined by a combiner or a lower table.

    ``parent_partition`` is a partition of parent indices; parents in one
    block feed one mechanism. ``mech_cpts[b]`` is block b's mechanism table
    over the block's joint configurations c, indexed mixed-radix over the
    block's parents (sorted ascending, first fastest). It is either the
    binary shorthand, one P(mechanism_b = 1 | c) per configuration, or one
    distribution over the mechanism's k_b states per configuration.

    Exactly one of ``combiner`` (deterministic, the US variant) and
    ``lower_cpt`` (stochastic p(y | mechanisms), the DS variant) must be
    given; both are indexed over the prod k_b mechanism configurations,
    mechanism 0 fastest. With every parent in a block of its own, a combiner
    gives ICI (:class:`IciSpec`) and a lower table PICI, noisy-average
    included.

    The blocks are stored in canonical order (see :func:`canonical_partition`);
    blocks given in another order take their mechanism tables with them, and
    the combiner or lower table is re-indexed to match, so the spec describes
    the same model.
    """

    parent_partition: tuple[tuple[int, ...], ...]
    mech_cpts: tuple[tuple, ...]
    combiner: tuple[int, ...] | None = None
    lower_cpt: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        blocks = [tuple(sorted(int(i) for i in b)) for b in self.parent_partition]
        part = canonical_partition(blocks)
        # order[k]: the given block that is canonical block k
        order = sorted(range(len(blocks)), key=blocks.__getitem__)
        object.__setattr__(self, "parent_partition", part)
        tables = [_prob_table(v, "mechanism") for v in self.mech_cpts]
        if (self.combiner is None) == (self.lower_cpt is None):
            raise ValidationError("exactly one of combiner / lower_cpt must be given")
        if len(tables) != len(part):
            raise ValidationError("need one mechanism table per parent block")
        mech_cards = [2 if t.ndim == 1 else t.shape[1] for t in tables]
        if self.combiner is not None:
            table = np.array([int(y) for y in self.combiner], dtype=np.int64)
        else:
            table = _prob_table(self.lower_cpt, "lower")
            if table.ndim != 2:
                raise ValidationError("lower table needs one row per mechanism configuration")
        n_configs = math.prod(mech_cards)
        if len(table) != n_configs:
            raise ValidationError(f"need entries for all {n_configs} mechanism configurations")
        table = _reorder_mechanisms(table, mech_cards, order)
        object.__setattr__(self, "mech_cpts", tuple(_as_tuples(tables[b]) for b in order))
        field = "combiner" if self.combiner is not None else "lower_cpt"
        object.__setattr__(self, field, _as_tuples(table))

    def state_tables(self) -> list[np.ndarray]:
        """Per block, the (k_b, configs_b) table of P(mechanism_b = s | configuration)."""
        tables = [np.array(t, dtype=np.float64) for t in self.mech_cpts]
        return [_binary_states(t) if t.ndim == 1 else t.T for t in tables]


class IciSpec(SiciSpec):
    """ICI: one mechanism per parent plus a deterministic combiner.

    Shorthand for the :class:`SiciSpec` with every parent in a block of its
    own. ``mech_cpts[i]`` is parent i's mechanism table (for a binary
    mechanism, P(mechanism_i = 1 | parent_i = s) per state s) and
    ``combiner`` assigns a child state to each mechanism configuration,
    mechanism 0 fastest.
    """

    def __init__(self, mech_cpts: Sequence, combiner: Sequence[int]) -> None:
        singletons = tuple((i,) for i in range(len(mech_cpts)))
        super().__init__(singletons, mech_cpts, combiner=combiner)


def _prob_table(table, what: str) -> np.ndarray:
    """A 1-D or 2-D table of probabilities; each row of a 2-D table is a distribution."""
    try:
        arr = np.array(table, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} table must be a rectangular array of numbers") from None
    if arr.ndim not in (1, 2):
        raise ValidationError(f"{what} table must be 1-D or 2-D, got {arr.ndim} dimensions")
    # written so that NaN, which fails every comparison, is rejected too
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValidationError(f"{what} probabilities must lie in [0, 1]")
    if arr.ndim == 2 and np.any(np.abs(arr.sum(axis=1) - 1.0) > 1e-9):
        raise ValidationError(f"{what} table rows must sum to 1")
    return arr


def _reorder_mechanisms(
    table: np.ndarray, mech_cards: Sequence[int], order: Sequence[int]
) -> np.ndarray:
    """Re-index a table over mechanism configurations (mechanism 0 fastest) so that
    mechanism k of the result is mechanism ``order[k]`` of ``table``."""
    m = len(mech_cards)
    # C order puts mechanism b on axis m - 1 - b
    grid = table.reshape(*reversed(mech_cards), *table.shape[1:])
    axes = [m - 1 - order[m - 1 - i] for i in range(m)]
    return grid.transpose(*axes, *range(m, grid.ndim)).reshape(table.shape)


def _as_tuples(arr: np.ndarray) -> tuple:
    return tuple(map(tuple, arr.tolist())) if arr.ndim == 2 else tuple(arr.tolist())


def _binary_states(p1: np.ndarray) -> np.ndarray:
    """(2, ...) state tables [P(M = 0), P(M = 1)] from P(M = 1) values."""
    out = np.empty((2, *p1.shape))
    np.subtract(1.0, p1, out=out[0])
    out[1] = p1
    return out


RefinementSpec = PruneSpec | DivorceSpec | ScmSpec | SiciSpec


@dataclass(frozen=True, eq=False)
class ApproxResult:
    """An expanded full-shape approximate CPT with its score and parameter count."""

    cpt: Cpt
    score: float
    free_params: int


def canonical_partition(blocks: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Sort members within blocks and blocks by their smallest member."""
    out = tuple(sorted(tuple(sorted(int(i) for i in b)) for b in blocks))
    seen: set[int] = set()
    for b in out:
        if not b:
            raise ValidationError("empty block in parent partition")
        for i in b:
            if i in seen:
                raise ValidationError(f"parent {i} appears in two blocks")
            seen.add(i)
    return out


# ---------------------------------------------------------------------------
# Grouping constructors: pruning and divorcing
# ---------------------------------------------------------------------------


def prune_groups(parent_cards: Sequence[int], spec: PruneSpec) -> np.ndarray:
    """Row group labels induced by pruning one parent.

    Rows sharing a partial configuration over the remaining parents fall in
    one group, so there are prod(cards)/cards[p] groups of size cards[p].
    """
    cards = tuple(int(c) for c in parent_cards)
    if not 0 <= spec.parent < len(cards):
        raise ValidationError(f"parent index {spec.parent} out of range")
    keep = [i for i in range(len(cards)) if i != spec.parent]
    return _block_config_index(config_table(cards), keep, cards)


def divorce_groups(parent_cards: Sequence[int], spec: DivorceSpec) -> np.ndarray:
    """Row group labels induced by divorcing a parent subset through a logic gate.

    Rows sharing the gate output on the binarized divorced parents and the
    partial configuration over the remaining parents share a group; the
    label is the gate output plus twice the remaining parents' index.
    """
    cards = tuple(int(c) for c in parent_cards)
    for i, b in zip(spec.divorced, spec.binarization):
        if not 0 <= i < len(cards):
            raise ValidationError(f"parent index {i} out of range")
        if not b or len(set(b)) >= cards[i] or any(not 0 <= s < cards[i] for s in b):
            raise ValidationError(
                f"binarization for parent {i} must be a proper nonempty subset of its states"
            )
    states = config_table(cards)
    ones = sum(np.isin(states[:, i], b) for i, b in zip(spec.divorced, spec.binarization))
    gate = _gate_outputs(ones, len(spec.divorced))[GATES.index(spec.gate)]
    remaining = [i for i in range(len(cards)) if i not in spec.divorced]
    return gate + 2 * _block_config_index(states, remaining, cards)


def _gate_outputs(ones: np.ndarray, n_inputs: int) -> np.ndarray:
    """Each gate's output, in ``GATES`` order, where ``ones`` of ``n_inputs`` inputs read 1."""
    return np.stack([ones == n_inputs, ones > 0, ones % 2 == 1])


def default_binarization(
    parents: Sequence[Variable],
    divorced: Sequence[int],
    overrides: dict[int, Sequence[int]] | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Binarization tuple for a divorce spec: state 1 maps to gate input 1
    for binary parents unless overridden; wider parents must be overridden.
    An override lists some but not all states, each once, of a divorced
    parent. Errors name the parent."""
    overrides = overrides or {}
    stray = [parents[i].name for i in overrides if i not in divorced]
    if stray:
        raise ValidationError(f"binarization given for parent {stray[0]}, which is not divorced")
    out = []
    for i in divorced:
        name, card = parents[i].name, parents[i].cardinality
        if i not in overrides and card != 2:
            raise ValidationError(f"parent {name} has {card} states; "
                                  "choose which map to gate input 1")
        b = tuple(sorted(int(s) for s in overrides.get(i, (1,))))
        if not 0 < len(set(b)) == len(b) < card:
            raise ValidationError(f"parent {name} must map some but not all of its states "
                                  "to gate input 1, each once")
        out.append(b)
    return tuple(out)


def _binarizations(card: int) -> list[tuple[int, ...]]:
    """A parent's binarizations in search order: the proper nonempty subsets of
    range(card), smallest first, lexicographic."""
    return [b for size in range(1, card) for b in itertools.combinations(range(card), size)]


# ---------------------------------------------------------------------------
# Fitted searches over the grouping methods
# ---------------------------------------------------------------------------


def prune_best(truth: Cpt) -> tuple[PruneSpec, ApproxResult]:
    """Best single-parent prune under sum-TVD; ties go to the lowest index."""
    if len(truth.parents) < 2:
        raise ValidationError("pruning needs at least 2 parents")
    specs = map(PruneSpec, range(len(truth.parents)))
    # min keeps the first of equal scores
    return min(((s, evaluate_spec(truth, s)) for s in specs), key=lambda fit: fit[1].score)


def divorce_best(truth: Cpt, block_size: int = 2) -> tuple[DivorceSpec, ApproxResult]:
    """Exhaustive search over divorces of ``block_size`` parents (2 up to all of them).

    Searches every parent subset of that size, every gate, and every proper
    binarization of each divorced parent. The candidates of one subset are
    scored at once by :func:`_divorce_subset_scores`, which reads every
    group's median as :func:`fit_grouping` does and fits each distinct
    grouping once (see :func:`_divorce_plan`). Ties break lexicographically
    on (parent subset, gate, binarization): subsets, gates and subsets of
    states are taken in sorted order and only strict improvements are kept,
    so the winner is the first, fitted candidate of its grouping. Only the
    winner is expanded into a CPT.
    """
    n = len(truth.parents)
    if n < 2:
        raise ValidationError(f"divorcing needs at least 2 parents, got {n}")
    if not 2 <= block_size <= n:
        raise ValidationError(f"block size must be in [2, {n}], got {block_size}")
    cards = truth.parent_cards
    states = config_table(cards)
    columns = _sorted_columns(truth.rows)
    plans: dict[tuple[int, ...], _DivorcePlan] = {}  # by the divorced parents' state counts
    best: tuple[float, tuple[int, ...], int] | None = None
    for subset in itertools.combinations(range(n), block_size):
        sub_cards = tuple(cards[i] for i in subset)
        plan = plans.get(sub_cards)
        if plan is None:
            plan = plans[sub_cards] = _divorce_plan(sub_cards)
        scores = _divorce_subset_scores(truth, subset, states, columns, plan)
        f = int(np.argmin(scores))
        if best is None or scores[f] < best[0]:
            best = (scores[f], subset, int(plan.fitted[f]))
    _, subset, c = best
    choices = [_binarizations(cards[i]) for i in subset]
    gate, *picks = np.unravel_index(c, (len(GATES), *map(len, choices)))
    spec = DivorceSpec(subset, GATES[gate], [ch[j] for ch, j in zip(choices, picks)])
    return spec, evaluate_spec(truth, spec)


@dataclass(frozen=True)
class _DivorcePlan:
    """Which divorces of a subset to fit, from its parents' state counts alone.

    ``fitted`` holds, ascending, the search-order index of the first
    candidate of each distinct grouping, and ``patterns[f]`` that
    candidate's gate output per subset configuration.
    """

    fitted: np.ndarray
    patterns: np.ndarray


def _divorce_plan(sub_cards: tuple[int, ...]) -> _DivorcePlan:
    """The candidates of a divorce of parents with these state counts, and which to fit.

    Candidates are in search order: gate outermost, then the binarizations
    of ``itertools.product`` over :func:`_binarizations` of each divorced
    parent. Two candidates group the rows alike exactly when their gate
    outputs over the subset configurations agree up to negation, so each
    output is keyed with its first bit cleared and the first candidate of
    each key is fitted. Every other candidate comes later than the first of
    its key and scores the same, as the same per-row differences summed in
    the same order, or fails as it does.
    """
    sub_states = config_table(sub_cards)
    ones = np.zeros(len(sub_states), dtype=np.uint8)  # per candidate, inputs that read 1
    for j, c in enumerate(sub_cards):
        member = np.array([[s in b for s in range(c)] for b in _binarizations(c)], dtype=np.uint8)
        ones = ones[..., None, :] + member[:, sub_states[:, j]]
    outputs = _gate_outputs(ones, len(sub_cards)).reshape(-1, len(sub_states))
    # packed, one void scalar per candidate; np.unique sorts stably, so it returns first indices
    packed = np.packbits(outputs ^ outputs[:, :1], axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    fitted = np.sort(np.unique(keys, return_index=True)[1])
    return _DivorcePlan(fitted, outputs[fitted])


# Candidates of one subset are scored in chunks of at most this many
# (candidate, row, child state) elements, which bounds each working array to
# 64 KiB whatever the subset's candidate count: the largest, the median read's
# int64 sort permutation and the float differences, hold 2^13 x 8 B. That stays
# under the size at which glibc's malloc maps fresh pages for a block (128 KiB
# by default), so every chunk reuses heap memory. At 2^15 elements the divorce
# search of a 200-row table with a 3-state child took about 2000 minor page
# faults per call, 10-15% of its time spent in the kernel zeroing pages; at
# 2^13 it takes none, at about the same speed.
_DIVORCE_CHUNK_ELEMENTS = 1 << 13


def _divorce_subset_scores(
    truth: Cpt,
    subset: tuple[int, ...],
    states: np.ndarray,
    columns: tuple[np.ndarray, np.ndarray],
    plan: _DivorcePlan,
) -> np.ndarray:
    """Sum-TVD of each of the plan's fitted divorces of ``subset``, in ``plan.fitted``
    order, bitwise equal to fitting each alone.

    ``states`` is ``config_table`` of the truth's parents, ``columns``
    :func:`_sorted_columns` of its rows and ``plan`` :func:`_divorce_plan` of
    the subset's state counts. A candidate groups the rows by
    remaining-parent configuration and gate value, label 2 * rem + gate.
    Each chunk of candidates reads its groups' median pairs and turns them
    into distributions by the two steps :func:`fit_grouping` takes. The
    score sums the (rows, states) differences in canonical row order, as
    :func:`score_sum_tvd` does.
    """
    cards = truth.parent_cards
    n_rows, k = truth.rows.shape
    remaining = [i for i in range(len(cards)) if i not in subset]
    rem = _block_config_index(states, remaining, cards)
    sub = _block_config_index(states, subset, cards)
    n_fitted, n_sub = plan.patterns.shape
    n_rem = n_rows // n_sub

    scores = np.empty(n_fitted)
    step = max(1, _DIVORCE_CHUNK_ELEMENTS // (n_rows * k))
    for start in range(0, n_fitted, step):
        gate_out = plan.patterns[start:start + step]  # (candidates, subset configurations)
        n_cand = len(gate_out)
        labels = 2 * rem + gate_out[:, sub]
        n1 = gate_out.sum(axis=1)
        counts = np.tile(np.stack((n_sub - n1, n1), axis=1), n_rem)
        params = _median_pair_params(*_median_pairs(*columns, labels, counts))
        labels += 2 * n_rem * np.arange(n_cand)[:, None]
        diff = np.abs(truth.rows - np.take(params.reshape(-1, k), labels, axis=0))
        scores[start:start + n_cand] = 0.5 * diff.reshape(n_cand, -1).sum(axis=1)
    return scores


# ---------------------------------------------------------------------------
# Causal-interaction evaluators
# ---------------------------------------------------------------------------


def _require_binary(child: Variable, what: str) -> None:
    if child.cardinality != 2:
        raise ValidationError(
            f"{what} requires a binary child; {child.name} has {child.cardinality} states"
        )


def noisy_or(inhibition: Sequence[float]) -> IciSpec:
    """Classic noisy-OR as an ICI spec over binary parents.

    ``inhibition[i]`` is the probability that parent i's active state is
    inhibited; an inactive parent can never trigger its mechanism. The
    combiner is OR over the mechanisms.
    """
    probs = [float(p) for p in inhibition]
    if any(not 0.0 <= p <= 1.0 for p in probs):
        raise ValidationError("inhibition probabilities must lie in [0, 1]")
    n = len(probs)
    mech = tuple((0.0, 1.0 - p) for p in probs)
    combiner = tuple(0 if j == 0 else 1 for j in range(1 << n))
    return IciSpec(mech, combiner)


def noisy_or_closed_form(
    child: Variable, parents: Sequence[Variable], inhibition: Sequence[float]
) -> Cpt:
    """Noisy-OR via its product closed form: P(Y=0 | x) = prod over active parents of p_i."""
    _require_binary(child, "noisy-OR")
    cards = tuple(p.cardinality for p in parents)
    if any(c != 2 for c in cards):
        raise ValidationError("noisy-OR requires binary parents")
    states = config_table(cards)
    probs = np.asarray(list(inhibition), dtype=np.float64)
    p0 = np.where(states == 1, probs[None, :], 1.0).prod(axis=1)
    return Cpt(child, tuple(parents), np.stack([p0, 1.0 - p0], axis=1))


def pici_evaluate(
    child: Variable, parents: Sequence[Variable], mech_cpts: Sequence, lower_cpt: np.ndarray
) -> Cpt:
    """Forward-evaluate a PICI model: DS-SICI with every parent in a block of its own.

    p(y | x) = sum over all mechanism configurations m of
    p(y | m) * prod_i P(m_i | x_i). ``mech_cpts[i]`` is parent i's mechanism
    table in either form :class:`SiciSpec` takes: a P(M=1 | x) vector for a
    binary mechanism, or one row per parent state for a k-state mechanism
    (the noisy-average model gives mechanisms the child's state space).
    """
    parents = tuple(parents)
    if len(mech_cpts) != len(parents):
        raise ShapeMismatchError("need one mechanism table per parent")
    singletons = tuple((i,) for i in range(len(parents)))
    return sici_evaluate(child, parents, SiciSpec(singletons, mech_cpts, lower_cpt=lower_cpt))


def noisy_average_lower(n_mechs: int, card: int) -> np.ndarray:
    """Lower table of the noisy-average model: p(y | m) = |{i : m_i = y}| / n.

    Mechanisms share the child's state space, so the table has card^n rows.
    """
    mech_states = config_table([card] * n_mechs)
    return np.stack(
        [(mech_states == y).sum(axis=1) / n_mechs for y in range(card)], axis=1
    )


def _block_config_index(
    states: np.ndarray, block: Sequence[int], cards: Sequence[int]
) -> np.ndarray:
    """Mixed-radix index of each row's joint configuration over one parent block."""
    idx = np.zeros(states.shape[0], dtype=np.int64)
    stride = 1
    for i in block:
        idx += states[:, i] * stride
        stride *= cards[i]
    return idx


def _block_rows(cards: Sequence[int], partition: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """Per parent block, each CPT row's configuration index within the block."""
    states = config_table(cards)
    return [_block_config_index(states, block, cards) for block in partition]


def _mech_joint(tables: Sequence[np.ndarray], rows: Sequence[np.ndarray]) -> np.ndarray:
    """Joint mechanism-configuration probabilities per CPT row.

    ``tables[b]`` is block b's (k_b, configs_b, ...) state table holding
    P(M_b = s | configuration) for each state s, and ``rows[b]`` the index
    :func:`_block_rows` gives for block b; trailing axes, such as a batch of
    search starts, broadcast. Returns a (prod k_b, n_rows, ...) array built by
    successive outer products, configurations indexed mixed-radix with
    mechanism 0 fastest. Every element is the same product, in the same
    order, whatever the trailing axes, so each start of a batch gets the bits
    it would get alone. With no blocks (a root node) it is the (1, 1) array
    of the single empty configuration.
    """
    if not tables:
        return np.ones((1, 1))
    # np.take keeps C order, which fixes the summation order of later row sums. All
    # blocks are gathered before the first product: gathering each just before its
    # product took 15% more minor page faults per Anxiety ICI search (restarts=2) in a
    # fresh process on a 2-vCPU Linux VM.
    out, *rest = [np.take(t, r, axis=1) for t, r in zip(tables, rows)]
    for p in rest:
        joint = p[:, None] * out[None, :]
        out = joint.reshape(-1, *joint.shape[2:])
    return out


def _check_covers(partition: Sequence[Sequence[int]], n_parents: int) -> None:
    if sorted(i for b in partition for i in b) != list(range(n_parents)):
        raise ShapeMismatchError("parent partition must cover exactly the parents")


def sici_evaluate(child: Variable, parents: Sequence[Variable], spec: SiciSpec) -> Cpt:
    """Forward-evaluate a causal-interaction model (ICI, US/DS-SICI, PICI).

    p(y | x) = sum over mechanism configurations m of
    p(y | m) * prod_b P(m_b | x's configuration within block b). A
    deterministic combiner f is read as its indicator lower table
    p(y | m) = [f(m) = y].
    """
    if spec.combiner is not None:
        _require_binary(child, "a deterministic combiner")
        if any(not 0 <= y < child.cardinality for y in spec.combiner):
            raise ValidationError("combiner assigns an unknown child state")
        lower = np.eye(child.cardinality)[list(spec.combiner)]
    else:
        lower = np.array(spec.lower_cpt)
        if lower.shape[1] != child.cardinality:
            raise ShapeMismatchError("lower table needs one column per child state")
    cards = tuple(p.cardinality for p in parents)
    _check_covers(spec.parent_partition, len(parents))
    tables = spec.state_tables()
    for block, table in zip(spec.parent_partition, tables):
        size = math.prod(cards[i] for i in block)
        if table.shape[1] != size:
            raise ShapeMismatchError(
                f"mechanism table for block {block} has {table.shape[1]} entries, want {size}"
            )
    joint = _mech_joint(tables, _block_rows(cards, spec.parent_partition))
    # a product of the transposed view itself would differ in the last bits
    return Cpt(child, tuple(parents), np.ascontiguousarray(joint.T) @ lower)


# ---------------------------------------------------------------------------
# Parameter accounting and the one fit path of every spec
# ---------------------------------------------------------------------------


def param_savings(
    spec: RefinementSpec, parent_cards: Sequence[int], child_card: int
) -> tuple[int, int]:
    """Free-parameter count of a refinement and its saving vs the full CPT.

    Counts generalise the all-binary formulas by taking products of block
    cardinalities: a k-state mechanism over a parent block costs k - 1 free
    parameters per joint configuration of the block, and a lower table
    child_card - 1 per mechanism configuration.
    """
    cards = tuple(int(c) for c in parent_cards)
    full = param_count(cards, child_card)
    if isinstance(spec, PruneSpec):
        free = (math.prod(cards) // cards[spec.parent]) * (child_card - 1)
    elif isinstance(spec, DivorceSpec):
        remaining = [c for i, c in enumerate(cards) if i not in spec.divorced]
        free = 2 * math.prod(remaining) * (child_card - 1)
    elif isinstance(spec, ScmSpec):
        free = 2 * (child_card - 1)
    elif isinstance(spec, SiciSpec):
        mech_cards = [len(t) for t in spec.state_tables()]
        free = sum(
            math.prod(cards[i] for i in b) * (k - 1)
            for b, k in zip(spec.parent_partition, mech_cards)
        )
        if spec.lower_cpt is not None:
            free += math.prod(mech_cards) * (child_card - 1)
    else:
        raise ValidationError(f"unknown spec type {type(spec).__name__}")
    return free, full - free


def _row_labels(truth: Cpt, spec: RefinementSpec) -> np.ndarray:
    """The row grouping of a prune, divorce or SCM spec: one integer label per CPT row."""
    if isinstance(spec, PruneSpec):
        return prune_groups(truth.parent_cards, spec)
    if isinstance(spec, DivorceSpec):
        return divorce_groups(truth.parent_cards, spec)
    if isinstance(spec, ScmSpec):
        if len(spec.assignment) != truth.n_rows:
            raise ShapeMismatchError(
                f"assignment covers {len(spec.assignment)} rows, CPT has {truth.n_rows}"
            )
        return np.asarray(spec.assignment)
    raise ValidationError(f"unknown spec type {type(spec).__name__}")


def evaluate_spec(truth: Cpt, spec: RefinementSpec) -> ApproxResult:
    """Expand any refinement spec against a truth CPT and score it.

    Grouping methods (prune / divorce / SCM) are median-fitted to the truth;
    parametric models (ICI / SICI) are evaluated forward from their stored
    parameters.
    """
    if isinstance(spec, SiciSpec):
        approx = sici_evaluate(truth.child, truth.parents, spec)
    else:
        approx = expand_grouped(truth, fit_grouping(truth, _row_labels(truth, spec)))
    free, _ = param_savings(spec, truth.parent_cards, truth.child.cardinality)
    return ApproxResult(approx, score_sum_tvd(truth, approx), free)
