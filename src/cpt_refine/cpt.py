"""Core data model for discrete conditional probability tables (CPTs).

A CPT stores one distribution over the child's states per configuration of
parent states. Rows follow a canonical mixed-radix order in which the FIRST
listed parent varies fastest; all modules in this package rely on that
ordering.

Besides the data model this module provides the numeric primitives used by
the structural refinement methods: total variation distance, an optional
KL divergence, the median as the one-dimensional least-absolute-deviation
minimiser, and fitting/expanding of row groupings. A grouping forces sets
of CPT rows to share one child distribution; it is an integer label per
row, and rows with equal labels share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ShapeMismatchError, ValidationError

# Row sums within this tolerance of 1 are stored untouched; beyond it (but
# within the constructor tolerance) they are renormalised. Keeping exactly
# normalised input bitwise intact makes document round-trips byte-stable.
_RENORM_EPS = 1e-12


def in_unit_interval(probs: np.ndarray) -> np.ndarray:
    """Elementwise: does each probability lie in [0, 1], up to 1e-12?"""
    # written so that NaN, which fails every comparison, is out of range too
    return (probs >= -_RENORM_EPS) & (probs <= 1 + _RENORM_EPS)


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with an ordered list of state labels."""

    name: str
    states: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) < 2:
            raise ValidationError(f"variable {self.name!r} needs >= 2 states")
        if len(set(self.states)) != len(self.states):
            raise ValidationError(f"variable {self.name!r} has duplicate state labels")

    @property
    def cardinality(self) -> int:
        return len(self.states)


@dataclass(frozen=True, eq=False)
class Cpt:
    """A child variable, its ordered parents, and one distribution per row.

    Rows are validated on construction: the row count must match the parent
    cardinalities, entries must lie in [0, 1], and every row must sum to 1
    within ``tolerance``. Rows off by more than 1e-12 are renormalised. The
    stored array is read-only; treat instances as immutable values.
    """

    child: Variable
    parents: tuple[Variable, ...]
    rows: np.ndarray

    def __init__(
        self,
        child: Variable,
        parents: Sequence[Variable],
        rows: np.ndarray | Sequence[Sequence[float]],
        tolerance: float = 1e-9,
    ) -> None:
        parents = tuple(parents)
        arr = np.array(rows, dtype=np.float64)
        n_rows = math.prod(v.cardinality for v in parents)
        if arr.ndim != 2 or arr.shape != (n_rows, child.cardinality):
            raise ValidationError(
                f"rows must have shape ({n_rows}, {child.cardinality}), got {arr.shape}"
            )
        if not np.all(in_unit_interval(arr)):
            raise ValidationError("probabilities must lie in [0, 1]")
        sums = arr.sum(axis=1)
        dev = np.abs(sums - 1.0)
        if np.any(dev > tolerance):
            k = int(np.argmax(dev))
            raise ValidationError(f"row {k} sums to {sums[k]:.12g}, not 1")
        bad = dev > _RENORM_EPS
        if np.any(bad):
            arr = arr.copy()
            arr[bad] = np.clip(arr[bad], 0.0, 1.0) / arr[bad].sum(axis=1, keepdims=True)
        arr.setflags(write=False)
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "rows", arr)

    def __reduce__(self):
        # rebuild through __init__: unpickled arrays are writeable, a pickled Cpt stays read-only
        return (Cpt, (self.child, self.parents, self.rows))

    @property
    def parent_cards(self) -> tuple[int, ...]:
        return tuple(v.cardinality for v in self.parents)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def same_shape(self, other: "Cpt") -> bool:
        return (
            self.child.cardinality == other.child.cardinality
            and self.parent_cards == other.parent_cards
        )


class Grouping(NamedTuple):
    """Row ``labels`` (group of each CPT row, 0 .. n_groups - 1) and one shared
    distribution per group (``params``, shape (n_groups, child_card))."""

    labels: np.ndarray
    params: np.ndarray


# ---------------------------------------------------------------------------
# Parameter counts and row configurations
# ---------------------------------------------------------------------------


def param_count(parent_cards: Sequence[int], child_card: int) -> int:
    """Number of free parameters of a full CPT: (prod of parent cards) * (child_card - 1)."""
    if child_card < 2:
        raise ValidationError("child must have >= 2 states")
    cards = [int(c) for c in parent_cards]
    if any(c < 1 for c in cards):
        raise ValidationError("parent cardinalities must be >= 1")
    return math.prod(cards) * (child_card - 1)


def config_table(parent_cards: Sequence[int]) -> np.ndarray:
    """All parent configurations as a C-contiguous (n_rows, n_parents) int64 array, in
    canonical order: row k holds the mixed-radix digits of k, the first parent fastest.
    This is the one encoder of that order; a root node has the one empty row, (1, 0)."""
    cards = tuple(int(c) for c in parent_cards)
    # C order varies the last axis fastest, so the parents index the axes last first
    digits = np.indices(cards[::-1], dtype=np.int64).reshape(len(cards), math.prod(cards))
    return np.ascontiguousarray(digits[::-1].T)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tvd_row(p: Sequence[float], q: Sequence[float]) -> float:
    """Total variation distance between two distributions on the same support.

    For binary distributions this reduces to |p0 - q0|.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ShapeMismatchError(f"length mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def score_sum_tvd(truth: Cpt, approx: Cpt) -> float:
    """Sum of row-wise total variation distances between two same-shape CPTs."""
    if not truth.same_shape(approx):
        raise ShapeMismatchError(
            f"shape mismatch: {truth.parent_cards}->{truth.child.cardinality} vs "
            f"{approx.parent_cards}->{approx.child.cardinality}"
        )
    return 0.5 * float(np.abs(truth.rows - approx.rows).sum())


def kl_row(p: Sequence[float], q: Sequence[float], epsilon: float = 1e-9) -> float:
    """KL divergence KL(p || q) with additive smoothing of q.

    Offered as an alternative metric only; it is far more sensitive than TVD
    where q has near-zero tails, which is why the package scores with TVD by
    default. ``epsilon`` is added to every entry of q before renormalising so
    the divergence stays finite. Rounding can leave the sum a few ulps below
    zero, where by Gibbs' inequality it never is; it is clamped at 0.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be > 0")
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ShapeMismatchError(f"length mismatch: {p.shape} vs {q.shape}")
    q = q + epsilon
    q = q / q.sum()
    mask = p > 0
    return max(0.0, float(np.sum(p[mask] * np.log(p[mask] / q[mask]))))


def score_sum_kl(truth: Cpt, approx: Cpt, epsilon: float = 1e-9) -> float:
    """Sum of row-wise KL divergences KL(truth_row || approx_row)."""
    if not truth.same_shape(approx):
        raise ShapeMismatchError("shape mismatch")
    return sum(kl_row(p, q, epsilon) for p, q in zip(truth.rows, approx.rows))


def median_lad(values: Sequence[float]) -> float:
    """Minimiser of sum_j |v_j - q| over q: the median.

    For an even number of values any point between the two central order
    statistics is optimal; the midpoint is returned so results are
    deterministic.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("median of an empty list")
    return float(np.median(arr))


# ---------------------------------------------------------------------------
# Row groupings
# ---------------------------------------------------------------------------


def fit_grouping(truth: Cpt, labels: np.ndarray | Sequence[int]) -> Grouping:
    """Optimal shared distributions for a row grouping under sum-TVD loss.

    ``labels`` gives each row's group as any integer; rows with equal labels
    form one group. Per group and per child state the median of the truth's
    probabilities across member rows is taken, for every group at once by
    :func:`_median_pairs`. For a binary child the two medians sum to 1 and
    are exactly LAD-optimal. For wider children per-state medians need not
    sum to 1 and are renormalised; that renormalised vector is a heuristic
    rather than the exact optimum.
    """
    labels = np.asarray(labels)
    if labels.shape != (truth.n_rows,) or not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError(
            f"need one integer group label per row ({truth.n_rows}), "
            f"got {labels.dtype} of shape {labels.shape}"
        )
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    pairs = _median_pairs(*_sorted_columns(truth.rows), inverse, counts)
    params, first_zero = _median_pair_params(*pairs)
    _raise_first_all_zero(first_zero)
    return Grouping(inverse, params)


def _sorted_columns(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per child state s, ``order[s]`` lists the rows by ascending value (stably) and
    ``ranked[s * n_rows + j]`` holds ``rows[order[s, j], s]``: what :func:`_median_pairs` reads."""
    k = rows.shape[1]
    order = np.argsort(rows.T, axis=1, kind="stable")
    return order, np.take(rows, order * k + np.arange(k)[:, None]).ravel()


def _median_pairs(
    order: np.ndarray, ranked: np.ndarray, labels: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Each group's two central order statistics per child state, lo then hi.

    ``labels`` (..., n_rows) give each row's group, 0 .. n_groups - 1, and
    ``counts`` (..., n_groups) the groups' sizes, all positive; leading axes
    hold a batch of groupings. A column's labels, read in value order and
    stably sorted, list each group's members together and ascending, so its
    pair lies at offsets (count - 1) // 2 and count // 2 from its start.
    Returns shape (2, ..., n_groups, child_card).
    """
    k, n_rows = order.shape
    # labels this small make numpy's stable sort a radix sort
    small = labels.astype(np.min_scalar_type(counts.shape[-1]), copy=False)
    members = np.argsort(small[..., order], axis=-1, kind="stable")  # (..., k, n_rows)
    column = np.arange(k) * n_rows
    batch = np.arange(0, members.size, k * n_rows).reshape(*labels.shape[:-1], 1, 1)
    central = np.stack((counts - 1, counts)) // 2 + np.cumsum(counts, axis=-1) - counts
    return np.take(ranked, np.take(members, batch + column + central[..., None]) + column)


def _median_pair_params(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shared distributions from each group's median pair.

    ``lo`` and ``hi`` hold, per group and child state, the two central order
    statistics of the member rows' probabilities (equal for an odd count),
    shape (..., n_groups, child_card), where leading axes may hold a batch of
    candidate groupings. Their midpoint is the per-state median,
    renormalised where it does not sum to 1. A group whose medians are all
    zero keeps them; also returned is each grouping's first such group, or -1.
    """
    params = (lo + hi) / 2
    # numpy sums a few-state trailing axis one short row at a time; below 8 states
    # it adds in this order, so these explicit adds give its bits, much faster
    sums = params[..., :1]
    for s in range(1, params.shape[-1]):
        sums = sums + params[..., s : s + 1]
    zero = sums[..., 0] <= 0
    first_zero = np.where(zero.any(axis=-1), zero.argmax(axis=-1), -1)
    # x / 1.0 is x bit for bit, so choosing the divisor saves a select over every element
    renorm = (np.abs(sums - 1.0) > _RENORM_EPS) & ~zero[..., None]
    return params / np.where(renorm, sums, 1.0), first_zero


def _raise_first_all_zero(first_zero: np.ndarray) -> None:
    """Fail for the first grouping, in C order, with a group of all-zero medians."""
    failed = first_zero[first_zero >= 0]
    if failed.size:
        raise ValidationError(f"group {failed[0]} has all-zero medians")


def expand_grouped(template: Cpt, grouping: Grouping) -> Cpt:
    """Full-shape CPT in which every row carries its group's shared distribution."""
    return Cpt(template.child, template.parents, grouping.params[grouping.labels])
