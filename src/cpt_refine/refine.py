"""The five structural refinement methods for CPT approximation.

Three of the methods act by forcing groups of CPT rows to share one child
distribution, which the core module can then fit optimally with medians.
Each grouping is an integer label per row (rows with equal labels share):

* pruning      - drop one parent; rows agreeing on the remaining parents group.
* divorcing    - route a subset of parents through a deterministic logic gate;
                 rows agreeing on (gate output, remaining parents) group.
* SCM          - a single deterministic intermediate node over all parents;
                 any bipartition of the rows is admissible.

The remaining two are causal-interaction models evaluated forward from a
small set of mechanism parameters; their rows are generally all distinct and
there is no closed-form fit (the optimizer module searches them):

* ICI          - one stochastic binary mechanism per parent combined by a
                 deterministic function into the child (noisy-OR is the
                 classic special case).
* SICI         - ICI generalised so blocks of parents share one mechanism.
                 The upper-stochastic (US) variant keeps a deterministic
                 combiner; the double-stochastic (DS) variant replaces it
                 with a stochastic lower table p(y | mechanisms). Mechanisms
                 may have k states. PICI (noisy-average among them) is
                 DS-SICI with singleton blocks, and ICI is US-SICI with
                 singleton blocks: one ``SiciSpec`` describes the family.
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
class IciSpec:
    """One binary mechanism per parent plus a deterministic combiner.

    ``mech_cpts[i][s]`` is P(mechanism_i = 1 | parent_i = s). ``combiner``
    assigns a child state to each of the 2^n mechanism configurations,
    indexed mixed-radix with mechanism 0 varying fastest.
    """

    mech_cpts: tuple[tuple[float, ...], ...]
    combiner: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "mech_cpts", tuple(tuple(float(p) for p in v) for v in self.mech_cpts)
        )
        object.__setattr__(self, "combiner", tuple(int(y) for y in self.combiner))
        for v in self.mech_cpts:
            if any(not 0.0 <= p <= 1.0 for p in v):
                raise ValidationError("mechanism probabilities must lie in [0, 1]")
        if len(self.combiner) != 1 << len(self.mech_cpts):
            raise ValidationError(
                f"combiner must cover all {1 << len(self.mech_cpts)} mechanism configurations"
            )


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
    mechanism 0 fastest. PICI, noisy-average included, is DS-SICI with every
    parent in a block of its own.

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
        """Per block, the (configs_b, k_b) table of P(mechanism_b = s | configuration)."""
        tables = [np.array(t, dtype=np.float64) for t in self.mech_cpts]
        return [_binary_states(t) if t.ndim == 1 else t for t in tables]


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
    """(..., 2) state tables [P(M = 0), P(M = 1)] from P(M = 1) values."""
    return np.stack([1.0 - p1, p1], axis=-1)


RefinementSpec = PruneSpec | DivorceSpec | ScmSpec | IciSpec | SiciSpec


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
    bits = np.stack(
        [np.isin(states[:, i], b) for i, b in zip(spec.divorced, spec.binarization)], axis=1
    )
    if spec.gate == "AND":
        gate = bits.all(axis=1)
    elif spec.gate == "OR":
        gate = bits.any(axis=1)
    else:
        gate = bits.sum(axis=1) % 2
    remaining = [i for i in range(len(cards)) if i not in spec.divorced]
    return gate + 2 * _block_config_index(states, remaining, cards)


def default_binarization(
    parent_cards: Sequence[int],
    divorced: Sequence[int],
    overrides: dict[int, Sequence[int]] | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Binarization tuple for a divorce spec: state 1 maps to gate input 1
    for binary parents unless overridden; wider parents must be overridden."""
    overrides = overrides or {}
    out = []
    for i in divorced:
        if i in overrides:
            out.append(tuple(sorted(int(s) for s in overrides[i])))
        elif parent_cards[i] == 2:
            out.append((1,))
        else:
            raise ValidationError(
                f"parent {i} has {parent_cards[i]} states; choose which map to gate input 1"
            )
    return tuple(out)


def _proper_subsets(card: int):
    """Proper nonempty subsets of range(card), smallest first, lexicographic."""
    for size in range(1, card):
        yield from itertools.combinations(range(card), size)


# ---------------------------------------------------------------------------
# Fitted searches over the grouping methods
# ---------------------------------------------------------------------------


def _fit_and_score(truth: Cpt, labels: np.ndarray) -> tuple[Cpt, float]:
    approx = expand_grouped(truth, fit_grouping(truth, labels))
    return approx, score_sum_tvd(truth, approx)


def prune_best(truth: Cpt) -> tuple[PruneSpec, ApproxResult]:
    """Best single-parent prune under sum-TVD; ties go to the lowest index."""
    if len(truth.parents) < 2:
        raise ValidationError("pruning needs at least 2 parents")
    best: tuple[PruneSpec, ApproxResult] | None = None
    for p in range(len(truth.parents)):
        spec = PruneSpec(p)
        approx, score = _fit_and_score(truth, prune_groups(truth.parent_cards, spec))
        if best is None or score < best[1].score:
            free, _ = param_savings(spec, truth.parent_cards, truth.child.cardinality)
            best = (spec, ApproxResult(approx, score, free))
    return best


def divorce_best(truth: Cpt, block_size: int = 2) -> tuple[DivorceSpec, ApproxResult]:
    """Exhaustive search over divorces of ``block_size`` parents.

    Searches every parent subset of that size, every gate, and every proper
    binarization of each divorced parent. Ties break lexicographically on
    (parent subset, gate, binarization) because subsets, gates and subsets
    of states are iterated in sorted order and only strict improvements are
    kept.
    """
    n = len(truth.parents)
    if not 2 <= block_size < n:
        raise ValidationError(f"block size must be in [2, {n - 1}], got {block_size}")
    cards = truth.parent_cards
    best: tuple[DivorceSpec, ApproxResult] | None = None
    for subset in itertools.combinations(range(n), block_size):
        for gate in GATES:
            for binar in itertools.product(*(_proper_subsets(cards[i]) for i in subset)):
                spec = DivorceSpec(subset, gate, binar)
                approx, score = _fit_and_score(truth, divorce_groups(cards, spec))
                if best is None or score < best[1].score:
                    free, _ = param_savings(spec, cards, truth.child.cardinality)
                    best = (spec, ApproxResult(approx, score, free))
    return best


def scm_fit(truth: Cpt, spec: ScmSpec) -> ApproxResult:
    """Median-fit the two row blocks of a simple-canonical-model bipartition."""
    if len(spec.assignment) != truth.n_rows:
        raise ShapeMismatchError(
            f"assignment covers {len(spec.assignment)} rows, CPT has {truth.n_rows}"
        )
    approx, score = _fit_and_score(truth, np.asarray(spec.assignment))
    free, _ = param_savings(spec, truth.parent_cards, truth.child.cardinality)
    return ApproxResult(approx, score, free)


# ---------------------------------------------------------------------------
# Causal-interaction evaluators
# ---------------------------------------------------------------------------


def _require_binary(child: Variable) -> None:
    if child.cardinality != 2:
        raise ValidationError("deterministic-combiner models require a binary child")


def _mech_config_products(tables: Sequence[np.ndarray]) -> np.ndarray:
    """Joint mechanism-configuration probabilities per row.

    ``tables[b]`` has shape (..., n_rows, k_b) holding P(M_b = s | row) for
    each state s; leading axes, such as a batch of search starts, broadcast.
    Returns a (..., n_rows, prod k_b) array built by successive outer
    products, configurations indexed mixed-radix with mechanism 0 fastest.
    With no mechanisms (a root node) it is the (1, 1) array of the single
    empty configuration.
    """
    if not tables:
        return np.ones((1, 1))
    out = tables[0]
    for p in tables[1:]:
        joint = p[..., :, None] * out[..., None, :]
        out = joint.reshape(*joint.shape[:-2], -1)
    return out


def ici_evaluate(child: Variable, parents: Sequence[Variable], spec: IciSpec) -> Cpt:
    """Forward-evaluate an ICI model into a full-shape CPT.

    p(y | x) = sum over mechanism configurations m with f(m) = y of
    prod_i P(m_i | x_i). ICI is US-SICI with every parent in a block of its
    own, and is evaluated as such.
    """
    parents = tuple(parents)
    if len(spec.mech_cpts) != len(parents):
        raise ShapeMismatchError("need one mechanism table per parent")
    singletons = tuple((i,) for i in range(len(parents)))
    return us_sici_evaluate(child, parents, SiciSpec(singletons, spec.mech_cpts, spec.combiner))


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
    _require_binary(child)
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
    return ds_sici_evaluate(child, parents, SiciSpec(singletons, mech_cpts, lower_cpt=lower_cpt))


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

    ``tables[b]`` is block b's (..., configs_b, k_b) state table and
    ``rows[b]`` the index :func:`_block_rows` gives for block b.
    """
    # np.take keeps C order, which fixes the summation order of later row sums
    return _mech_config_products([np.take(t, r, axis=-2) for t, r in zip(tables, rows)])


def _check_covers(partition: Sequence[Sequence[int]], n_parents: int) -> None:
    if sorted(i for b in partition for i in b) != list(range(n_parents)):
        raise ShapeMismatchError("parent partition must cover exactly the parents")


def _sici_joint(spec: SiciSpec, parents: Sequence[Variable]) -> np.ndarray:
    """(n_rows, prod k_b) mechanism-configuration probabilities of a SICI spec."""
    cards = tuple(p.cardinality for p in parents)
    _check_covers(spec.parent_partition, len(parents))
    tables = spec.state_tables()
    for block, table in zip(spec.parent_partition, tables):
        size = math.prod(cards[i] for i in block)
        if len(table) != size:
            raise ShapeMismatchError(
                f"mechanism table for block {block} has {len(table)} entries, want {size}"
            )
    return _mech_joint(tables, _block_rows(cards, spec.parent_partition))


def us_sici_evaluate(child: Variable, parents: Sequence[Variable], spec: SiciSpec) -> Cpt:
    """Forward-evaluate an upper-stochastic SICI model.

    p(y | x) = sum over mechanism configurations m with f(m) = y of
    prod_b P(m_b | x's configuration within block b).
    """
    _require_binary(child)
    if spec.combiner is None:
        raise ValidationError("US variant needs a combiner; this spec has a lower table")
    if any(not 0 <= y < child.cardinality for y in spec.combiner):
        raise ValidationError("combiner assigns an unknown child state")
    joint = _sici_joint(spec, parents)
    comb = np.asarray(spec.combiner)
    rows = np.stack([joint[:, comb == y].sum(axis=1) for y in range(child.cardinality)], axis=1)
    return Cpt(child, tuple(parents), rows)


def ds_sici_evaluate(child: Variable, parents: Sequence[Variable], spec: SiciSpec) -> Cpt:
    """Forward-evaluate a double-stochastic SICI model.

    p(y | x) = sum over all mechanism configurations m of
    p(y | m) * prod_b P(m_b | x's configuration within block b).
    """
    if spec.lower_cpt is None:
        raise ValidationError("DS variant needs a lower table; this spec has a combiner")
    lower = np.array(spec.lower_cpt)
    if lower.shape[1] != child.cardinality:
        raise ShapeMismatchError("lower table needs one column per child state")
    joint = _sici_joint(spec, parents)
    return Cpt(child, tuple(parents), joint @ lower)


# ---------------------------------------------------------------------------
# Parameter accounting
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
    elif isinstance(spec, IciSpec):
        free = sum(cards)
    elif isinstance(spec, SiciSpec):
        mech_cards = [t.shape[1] for t in spec.state_tables()]
        free = sum(
            math.prod(cards[i] for i in b) * (k - 1)
            for b, k in zip(spec.parent_partition, mech_cards)
        )
        if spec.lower_cpt is not None:
            free += math.prod(mech_cards) * (child_card - 1)
    else:
        raise ValidationError(f"unknown spec type {type(spec).__name__}")
    return free, full - free


def evaluate_spec(truth: Cpt, spec: RefinementSpec) -> ApproxResult:
    """Expand any refinement spec against a truth CPT and score it.

    Grouping methods (prune / divorce / SCM) are median-fitted to the truth;
    parametric models (ICI / SICI) are evaluated forward from their stored
    parameters.
    """
    cards = truth.parent_cards
    if isinstance(spec, PruneSpec):
        approx, score = _fit_and_score(truth, prune_groups(cards, spec))
    elif isinstance(spec, DivorceSpec):
        approx, score = _fit_and_score(truth, divorce_groups(cards, spec))
    elif isinstance(spec, ScmSpec):
        return scm_fit(truth, spec)
    elif isinstance(spec, IciSpec):
        approx = ici_evaluate(truth.child, truth.parents, spec)
        score = score_sum_tvd(truth, approx)
    elif isinstance(spec, SiciSpec):
        evaluate = us_sici_evaluate if spec.combiner is not None else ds_sici_evaluate
        approx = evaluate(truth.child, truth.parents, spec)
        score = score_sum_tvd(truth, approx)
    else:
        raise ValidationError(f"unknown spec type {type(spec).__name__}")
    free, _ = param_savings(spec, cards, truth.child.cardinality)
    return ApproxResult(approx, score, free)
