"""The five structural refinement methods for CPT approximation.

Three of the methods act by forcing groups of CPT rows to share one child
distribution, which the core module can then fit optimally with medians.
Each routes some parents through one deterministic node, described once
(``_node``) by the divorced parents, ascending; the node's state at each of
their configurations, the first parent fastest; and its state count K:

* pruning      - one parent into a one-state node: ([p], zeros, 1).
* divorcing    - a parent subset into a logic gate over one binarization per
                 parent: (sorted subset, gate output, 2).
* SCM          - every parent into one binary node: (all parents, the row
                 assignment, 2), so any bipartition of the rows is admissible.

Rows agreeing on (node state, remaining parents) share one distribution: a
row's integer label is K times its index over the remaining parents plus its
node state, and the free parameters are K * prod(remaining cards) *
(child states - 1).

``prune_best`` and ``divorce_best`` search the first two exhaustively
through one batched scorer, which reads every group's median from one sort
of the truth. Pruning a parent is divorcing it alone into a one-state node,
so a prune search is the one-state divorce of each parent in turn; a divorce
search fits each distinct grouping of a subset once. Both follow search
order: the winner is the first candidate of the lowest score, and a search
fails with the error of the first candidate that cannot be fitted. Only the
winner is expanded into a CPT. ``evaluate_spec`` is the one path from any
spec to a reported fit (a grouping spec's row labels are fitted, expanded
and scored once), and every search reports it for its winner.

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
    _raise_first_all_zero,
    _sorted_columns,
    config_table,
    expand_grouped,
    fit_grouping,
    param_count,
    score_sum_tvd,
)
from .errors import SearchSpaceError, ShapeMismatchError, ValidationError

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
# Grouping constructors: the deterministic node of a prune, divorce or SCM
# ---------------------------------------------------------------------------


def prune_groups(parent_cards: Sequence[int], spec: PruneSpec) -> np.ndarray:
    """Row group labels induced by pruning one parent: rows sharing a partial
    configuration over the remaining parents fall in one group (see :func:`_node`)."""
    return _node_labels(parent_cards, spec)


def divorce_groups(parent_cards: Sequence[int], spec: DivorceSpec) -> np.ndarray:
    """Row group labels induced by divorcing a parent subset through a logic gate: rows
    sharing the gate output on the binarized divorced parents and the partial
    configuration over the remaining parents share a group (see :func:`_node`)."""
    return _node_labels(parent_cards, spec)


def _node(cards: Sequence[int], spec: RefinementSpec) -> tuple[tuple, np.ndarray, int]:
    """The deterministic node a prune, divorce or SCM spec routes parents through: the
    divorced parents, ascending; the node's state at each of their configurations, the
    first parent fastest; and its state count K. A prune maps its parent to a one-state
    node, a divorce its subset to the gate output and an SCM every parent to its row
    assignment. Fails if the spec does not fit parents of these state counts."""
    if isinstance(spec, PruneSpec):
        if not 0 <= spec.parent < len(cards):
            raise ValidationError(f"parent index {spec.parent} out of range")
        return (spec.parent,), np.zeros(cards[spec.parent], dtype=np.int64), 1
    if isinstance(spec, DivorceSpec):
        for i, b in zip(spec.divorced, spec.binarization):
            if not 0 <= i < len(cards):
                raise ValidationError(f"parent index {i} out of range")
            if not b or len(set(b)) >= cards[i] or any(not 0 <= s < cards[i] for s in b):
                raise ValidationError(
                    f"binarization for parent {i} must be a proper nonempty subset of its states"
                )
        divorced, ones = zip(*sorted(zip(spec.divorced, spec.binarization)))
        outputs = _gate_outputs([cards[i] for i in divorced], [[b] for b in ones])
        return divorced, outputs[GATES.index(spec.gate)].ravel(), 2
    if isinstance(spec, ScmSpec):
        n_rows = math.prod(cards)
        if len(spec.assignment) != n_rows:
            raise ShapeMismatchError(
                f"assignment covers {len(spec.assignment)} rows, CPT has {n_rows}"
            )
        return tuple(range(len(cards))), np.asarray(spec.assignment), 2
    raise ValidationError(f"unknown spec type {type(spec).__name__}")


def _node_labels(parent_cards: Sequence[int], spec: RefinementSpec) -> np.ndarray:
    """The row grouping of a prune, divorce or SCM spec, one integer label per CPT row: K
    times the row's index over the parents its :func:`_node` leaves, plus the node's state
    at the row's configuration of the divorced ones (the rule the searches score by)."""
    divorced, states, k = _node(parent_cards, spec)
    # the rows as a C-order array with an axis per parent, the last first: the node's
    # states vary along the divorced parents' axes, the remaining index along the others
    axes = [(c, i in divorced) for i, c in reversed(list(enumerate(parent_cards)))]
    rest = np.arange(math.prod(c for c, d in axes if not d))
    return (k * rest.reshape([1 if d else c for c, d in axes])
            + states.reshape([c if d else 1 for c, d in axes])).ravel()


def _gate_outputs(sub_cards: Sequence[int], choices: Sequence[Sequence[tuple]]) -> np.ndarray:
    """Each gate's output at each configuration of parents of these state counts, for each
    way of taking one binarization per parent from ``choices``: shape (gates, in
    ``GATES`` order, len(choices[0]), ..., len(choices[-1]), configurations, the first
    parent fastest)."""
    digits = np.indices(tuple(sub_cards)[::-1]).reshape(len(sub_cards), -1)[::-1]
    ones = np.zeros(digits.shape[1], dtype=np.uint8)  # how many gate inputs read 1
    for c, bs, d in zip(sub_cards, choices, digits):
        member = np.array([[s in b for s in range(c)] for b in bs], dtype=np.uint8)
        ones = ones[..., None, :] + member[:, d]
    return np.stack([ones == len(sub_cards), ones > 0, ones % 2 == 1])


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
    """Best single-parent prune under sum-TVD; ties go to the lowest index.

    Pruning parent p is divorcing p alone into a node with one state, so
    :func:`_divorce_scores` scores every prune in one batched pass, bitwise
    as :func:`evaluate_spec` scores it, and fails as the first prune, by
    index, that cannot be fitted fails alone. Only the winner is expanded
    into a CPT.
    """
    n = len(truth.parents)
    if n < 2:
        raise ValidationError("pruning needs at least 2 parents")
    cards = truth.parent_cards
    # each parent's prune node, scored as one candidate over that parent alone
    subsets, states, (k, *_) = zip(*(_node(cards, PruneSpec(p)) for p in range(n)))
    _, scores = _divorce_scores(truth, subsets, [s[None] for s in states], k)
    spec = PruneSpec(int(np.argmin(scores)))  # the first of equal scores
    return spec, evaluate_spec(truth, spec)


def divorce_best(truth: Cpt, block_size: int = 2) -> tuple[DivorceSpec, ApproxResult]:
    """Exhaustive search over divorces of ``block_size`` parents (2 up to all of them).

    Searches every parent subset of that size, every gate, and every proper
    binarization of each divorced parent. Search order is lexicographic on
    (parent subset, gate, binarization), with subsets, gates and subsets of
    states each taken in sorted order. :func:`_divorce_scores` scores every
    candidate in one batched pass, fitting each distinct grouping of a
    subset once (see :func:`_divorce_plan`). The winner is the first
    candidate of the lowest score in search order; if any candidate cannot
    be fitted, the search fails with the error of the first such candidate.
    A subset whose plan would hold more than ``_MAX_PLAN_OUTPUTS`` gate
    outputs fails the search first (SearchSpaceError), the first in order.
    """
    n = len(truth.parents)
    if n < 2:
        raise ValidationError(f"divorcing needs at least 2 parents, got {n}")
    if not 2 <= block_size <= n:
        raise ValidationError(f"block size must be in [2, {n}], got {block_size}")
    cards = truth.parent_cards
    subsets = list(itertools.combinations(range(n), block_size))
    sub_cards = [tuple(cards[i] for i in s) for s in subsets]
    for subset, c in zip(subsets, sub_cards):
        outputs = len(GATES) * math.prod(2**x - 2 for x in c) * math.prod(c)
        if outputs > _MAX_PLAN_OUTPUTS:
            names = ", ".join(truth.parents[i].name for i in subset)
            raise SearchSpaceError(f"divorcing {names} means {outputs} gate outputs, "
                                   f"more than the {_MAX_PLAN_OUTPUTS} supported")
    plans = {c: _divorce_plan(c) for c in set(sub_cards)}
    subset_of, scores = _divorce_scores(truth, subsets, [plans[c][1] for c in sub_cards], 2)
    best = int(np.argmin(scores))  # the first of equal scores
    subset = subsets[subset_of[best]]
    candidate = np.concatenate([plans[c][0] for c in sub_cards])[best]
    choices = [_binarizations(cards[i]) for i in subset]
    gate, *picks = np.unravel_index(candidate, (len(GATES), *map(len, choices)))
    spec = DivorceSpec(subset, GATES[gate], [ch[j] for ch, j in zip(choices, picks)])
    return spec, evaluate_spec(truth, spec)


# A divorce plan holds one gate output per (candidate, subset configuration):
# 3 * prod(2^c - 2) * prod(c) of them for parents of c states, as bytes several
# times over while it is built. 2^29 lets a pair of 10-state parents through (3.1e8
# outputs: 7-11 s and about 0.8 GB peak on a 2-vCPU machine) and refuses a pair of
# 11-state ones (1.5e9).
_MAX_PLAN_OUTPUTS = 1 << 29


def _divorce_plan(sub_cards: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Which divorces of parents with these state counts to fit, from the counts alone:
    ascending, the search-order index of the first candidate of each distinct grouping,
    and per such candidate its node output at each subset configuration.

    Candidates are in search order: gate outermost, then the binarizations
    of ``itertools.product`` over :func:`_binarizations` of each divorced
    parent. Two candidates group the rows alike exactly when their gate
    outputs over the subset configurations agree up to negation, so each
    output is keyed with its first bit cleared and the first candidate of
    each key is fitted. Every other candidate comes later than the first of
    its key and scores the same, as the same per-row differences summed in
    the same order, or fails as it does.
    """
    outputs = _gate_outputs(sub_cards, [_binarizations(c) for c in sub_cards])
    outputs = outputs.reshape(-1, math.prod(sub_cards))
    # packed, one void scalar per candidate; np.unique sorts stably, so it returns first indices
    packed = np.packbits(outputs ^ outputs[:, :1], axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    fitted = np.sort(np.unique(keys, return_index=True)[1])
    return fitted, outputs[fitted]


# The candidates of a search whose subsets have one configuration count (a prune's
# subset is its one parent) are scored in chunks of at most this many (candidate, row,
# child state) elements, which bounds each working array to 64 KiB whatever the
# candidate count: the largest, the median read's int64 sort permutation and the
# float differences, hold 2^13 x 8 B. That stays under the size at which glibc's
# malloc maps fresh pages for a block (128 KiB by default), so every chunk reuses
# heap memory. At 2^15 elements the divorce search of a 200-row table with a
# 3-state child took about 2000 minor page faults per call, 10-15% of its time
# spent in the kernel zeroing pages; at 2^13 it takes none, at about the same speed.
_DIVORCE_CHUNK_ELEMENTS = 1 << 13


def _divorce_scores(
    truth: Cpt, subsets: Sequence[Sequence[int]], patterns: Sequence[np.ndarray], states: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every candidate node over the ascending parent ``subsets`` with ``states`` states,
    in search order: its subset (a position in ``subsets``) and its sum-TVD, bitwise as
    fitting its :func:`_node_labels` alone gives. Fails with the error of the first
    candidate that fitting alone fails.

    ``patterns[j]`` holds, per candidate over subset j, the node's state at each subset
    configuration (a prune is the one-state node of one parent). A row's group is
    ``states`` times its remaining-parents index plus its node state. Candidates of
    subsets with the same configuration count have the same group count and share
    chunks, reading their patterns in place; each reads its groups' median pairs from
    one :func:`_sorted_columns` read, makes them distributions by :func:`fit_grouping`'s
    two steps and sums each candidate's (rows, states) differences in row order, as
    :func:`score_sum_tvd` does.
    """
    n_rows, k = truth.rows.shape
    cards = truth.parent_cards
    member = np.zeros((len(subsets), len(cards)), dtype=bool)
    member[np.arange(len(subsets))[:, None], subsets] = True
    # per subset, the weights of its index rows and of its remaining parents' ones, times states
    weights = _block_weights(cards, np.concatenate((member, ~member))).reshape(2, *member.shape)
    weights[1] *= states
    digits = _config_digits(cards)
    n_fitted = [len(p) for p in patterns]
    subset_of = np.repeat(np.arange(len(subsets)), n_fitted)
    n_sub = [p.shape[1] for p in patterns]  # configurations per subset
    m_of = np.repeat(n_sub, n_fitted)  # and per candidate
    scores, first_zero = np.empty(len(subset_of)), np.empty(len(subset_of), dtype=np.int64)
    columns = _sorted_columns(truth.rows)
    step = max(1, _DIVORCE_CHUNK_ELEMENTS // (n_rows * k))
    # a set, not np.unique: numpy 2.4's hash-based unique took page faults here
    for m in sorted(set(n_sub)):
        members = np.flatnonzero(m_of == m)
        n_groups = states * n_rows // m
        group = [p for p in patterns if p.shape[1] == m]
        # one array shared by every subset of this count (a search's plan) is read in place
        table = group[0] if all(p is group[0] for p in group) else np.concatenate(group)
        for start in range(0, len(members), step):
            chunk = members[start:start + step]
            n_cand = len(chunk)
            # (2, candidates, rows) index rows, built per chunk to keep within its bound
            index = (weights[:, subset_of[chunk]] @ digits).astype(np.int64)
            index[0] += m * (np.arange(start, start + n_cand) % len(table))[:, None]  # in table
            labels = index[1] + np.take(table, index[0])
            flat = labels + n_groups * np.arange(n_cand)[:, None]  # flat in params
            # every count is positive: each node state is some subset configuration's output
            counts = np.bincount(flat.ravel(), minlength=n_cand * n_groups).reshape(n_cand, -1)
            params, first_zero[chunk] = _median_pair_params(
                *_median_pairs(*columns, labels, counts)
            )
            scores[chunk] = 0.5 * np.abs(
                truth.rows - np.take(params.reshape(-1, k), flat, axis=0)
            ).reshape(n_cand, -1).sum(axis=1)
            del params  # freed before the next chunk: a search's memory stays flat
    _raise_first_all_zero(first_zero)
    return subset_of, scores


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


def _block_weights(cards: Sequence[int], member: np.ndarray) -> np.ndarray:
    """Per parent block, a row of the (blocks, parents) mask ``member``: each parent's
    weight in the block's configuration index over its parents in ascending order, the
    first fastest (0 off the block), with the parents last first as in
    :func:`_config_digits`."""
    radix = np.where(member, cards, 1)
    return (np.cumprod(radix, axis=1) // radix * member)[:, ::-1].astype(np.float64)


def _config_digits(cards: Sequence[int]) -> np.ndarray:
    """Each parent's state in every CPT row, last parent first, shape (parents, rows). Its
    product with block weights gives index rows: float64 holds them exactly, and its BLAS
    product is several times faster than numpy's integer one."""
    return np.indices(tuple(cards)[::-1], dtype=np.float64).reshape(len(cards), math.prod(cards))


def _block_rows(cards: Sequence[int], blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """Per parent block, each CPT row's configuration index over the block's parents in
    ascending order, the first fastest, shape (blocks, rows)."""
    member = np.zeros((len(blocks), len(cards)), dtype=bool)
    for b, block in enumerate(blocks):
        member[b, list(block)] = True
    return (_block_weights(cards, member) @ _config_digits(cards)).astype(np.int64)


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
    if isinstance(spec, SiciSpec):
        mech_cards = [len(t) for t in spec.state_tables()]
        free = sum(
            math.prod(cards[i] for i in b) * (k - 1)
            for b, k in zip(spec.parent_partition, mech_cards)
        )
        if spec.lower_cpt is not None:
            free += math.prod(mech_cards) * (child_card - 1)
    else:
        # one distribution per (node state, configuration of the parents the node leaves)
        divorced, _, k = _node(cards, spec)
        free = k * math.prod(c for i, c in enumerate(cards) if i not in divorced) * (child_card - 1)
    return free, full - free


def evaluate_spec(truth: Cpt, spec: RefinementSpec) -> ApproxResult:
    """Expand any refinement spec against a truth CPT and score it.

    Grouping methods (prune / divorce / SCM) are median-fitted to the truth;
    parametric models (ICI / SICI) are evaluated forward from their stored
    parameters.
    """
    if isinstance(spec, SiciSpec):
        approx = sici_evaluate(truth.child, truth.parents, spec)
    else:
        # prunes and divorces are labelled through their public functions, looked up by
        # name at each call, so that a benchmark wrapping those names counts every fit
        label = {PruneSpec: prune_groups, DivorceSpec: divorce_groups}.get(type(spec), _node_labels)
        approx = expand_grouped(truth, fit_grouping(truth, label(truth.parent_cards, spec)))
    free, _ = param_savings(spec, truth.parent_cards, truth.child.cardinality)
    return ApproxResult(approx, score_sum_tvd(truth, approx), free)
