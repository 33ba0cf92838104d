"""Core data model: row order, metrics, medians, groupings."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpt_refine import (
    Cpt,
    Variable,
    config_table,
    expand_grouped,
    fit_grouping,
    kl_row,
    median_lad,
    param_count,
    score_sum_tvd,
    tvd_row,
)
from cpt_refine.cpt import _median_pair_params
from cpt_refine.errors import ShapeMismatchError, ValidationError
from cpt_refine.refine import PruneSpec, _block_rows, prune_groups

from conftest import random_cpt

cards_lists = st.lists(st.integers(min_value=1, max_value=10), min_size=0, max_size=4)
probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestParamCount:
    def test_anxiety_shape(self):
        assert param_count((2, 2, 2, 3), 2) == 24

    def test_two_binary_parents(self):
        assert param_count((2, 2), 2) == 4

    def test_root_node(self):
        assert param_count((), 2) == 1

    def test_wide_child(self):
        assert param_count((3, 4), 5) == 48

    def test_rejects_trivial_child(self):
        with pytest.raises(ValidationError):
            param_count((2, 2), 1)

    def test_rejects_zero_cardinality(self):
        with pytest.raises(ValidationError):
            param_count((2, 0), 2)

    @given(cards=cards_lists, child=st.integers(min_value=2, max_value=6))
    def test_matches_explicit_enumeration(self, cards, child):
        enumerated = len(list(itertools.product(*(range(c) for c in cards))))
        assert param_count(cards, child) == enumerated * (child - 1)


class TestRowIndexing:
    """Canonical row order: mixed radix over the parents, the first varying fastest."""

    def test_first_config_is_zero(self):
        assert config_table((2, 2, 2, 3))[0].tolist() == [0, 0, 0, 0]

    def test_first_parent_varies_fastest(self):
        # Depression=Yes with everything else at its first state is row 2 (index 1)
        assert config_table((2, 2, 2, 3))[1].tolist() == [1, 0, 0, 0]

    def test_last_config(self):
        assert config_table((2, 2, 2, 3))[23].tolist() == [1, 1, 1, 2]

    @given(cards=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5))
    def test_bijection(self, cards):
        states = config_table(cards)
        assert states.shape == (math.prod(cards), len(cards))
        assert np.all((states >= 0) & (states < np.asarray(cards)))
        strides = np.cumprod((1, *cards[:-1]))
        assert (states @ strides).tolist() == list(range(math.prod(cards)))

    @settings(max_examples=50)
    @given(cards=st.lists(st.integers(min_value=2, max_value=4), min_size=0, max_size=5))
    @example(cards=[])
    def test_row_k_holds_the_mixed_radix_digits_of_k(self, cards):
        states = config_table(cards)
        assert states.dtype == np.int64 and states.flags.c_contiguous
        assert states.shape == (math.prod(cards), len(cards))  # (1, 0) for a root node
        for k, row in enumerate(states.tolist()):
            digits = []
            for c in cards:  # the first parent fastest
                k, digit = divmod(k, c)
                digits.append(digit)
            assert row == digits
        # each parent alone as a block indexes the rows by its own state
        singletons = [(i,) for i in range(len(cards))]
        assert np.array_equal(_block_rows(cards, singletons), states.T)


class TestTvd:
    def test_benchmark_row_one(self, anxiety, method_columns):
        value = tvd_row(anxiety.rows[0], method_columns["pruning"].rows[0])
        assert value == pytest.approx(0.0100, abs=1e-12)

    def test_identity(self):
        assert tvd_row((0.3, 0.7), (0.3, 0.7)) == 0.0

    def test_maximal(self):
        assert tvd_row((1.0, 0.0), (0.0, 1.0)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            tvd_row((1.0, 0.0), (0.5, 0.25, 0.25))

    @given(p0=probs, q0=probs)
    def test_binary_reduction(self, p0, q0):
        full = tvd_row((p0, 1 - p0), (q0, 1 - q0))
        assert abs(full - abs(p0 - q0)) <= 1e-12

    @given(
        raw=st.lists(
            st.tuples(
                st.floats(min_value=1e-3, max_value=1.0),
                st.floats(min_value=1e-3, max_value=1.0),
                st.floats(min_value=1e-3, max_value=1.0),
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_metric_properties(self, raw):
        arr = np.array(raw)
        p, q, r = (arr[:, i] / arr[:, i].sum() for i in range(3))
        dpq, dqr, dpr = tvd_row(p, q), tvd_row(q, r), tvd_row(p, r)
        for d in (dpq, dqr, dpr):
            assert -1e-15 <= d <= 1.0 + 1e-12
        assert dpq == pytest.approx(tvd_row(q, p), abs=1e-15)
        assert dpr <= dpq + dqr + 1e-12


class TestScoreSumTvd:
    def test_truth_vs_itself(self, anxiety):
        assert score_sum_tvd(anxiety, anxiety) == 0.0

    def test_truth_vs_pruning_column(self, anxiety, method_columns):
        assert score_sum_tvd(anxiety, method_columns["pruning"]) == pytest.approx(
            0.6487, abs=2e-3
        )

    def test_truth_vs_sici_column(self, anxiety, method_columns):
        assert score_sum_tvd(anxiety, method_columns["sici"]) == pytest.approx(0.3700, abs=2e-3)

    def test_shape_mismatch(self, anxiety):
        rng = np.random.default_rng(0)
        other = random_cpt(rng, (2, 2))
        with pytest.raises(ShapeMismatchError):
            score_sum_tvd(anxiety, other)


class TestKl:
    def test_identity(self):
        assert kl_row((0.4, 0.6), (0.4, 0.6)) == pytest.approx(0.0, abs=1e-8)

    def test_degenerate_closed_form(self):
        assert kl_row((1.0, 0.0), (0.5, 0.5)) == pytest.approx(math.log(2), abs=1e-8)

    def test_direct_evaluation(self):
        # frozen from 0.75*ln(0.75/0.5) + 0.25*ln(0.25/0.5)
        assert kl_row((0.75, 0.25), (0.5, 0.5)) == pytest.approx(
            0.13081203594113697, abs=1e-8
        )

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValidationError):
            kl_row((0.5, 0.5), (0.5, 0.5), epsilon=0.0)

    @settings(max_examples=200)
    @given(states=st.integers(min_value=2, max_value=5),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_never_negative(self, states, seed):
        # Gibbs' inequality; unclamped, about half of all 3-state rows give kl_row(p, p) < 0
        p, q = np.random.default_rng(seed).dirichlet(np.ones(states), size=2)
        assert kl_row(p, q) >= 0
        assert kl_row(p, p) >= 0


class TestMedianLad:
    def test_pair_midpoint(self):
        assert median_lad([0.9630, 0.9830]) == pytest.approx(0.9730, abs=1e-12)

    def test_five_values(self):
        values = [0.9630, 0.9147, 0.9506, 0.9352, 0.9434]
        assert median_lad(values) == pytest.approx(0.9434, abs=1e-12)

    def test_singleton(self):
        assert median_lad([0.42]) == 0.42

    def test_eight_values(self):
        values = [0.8409, 0.7500, 0.7500, 0.7000, 0.8299, 0.7955, 0.5, 0.5]
        assert median_lad(values) == pytest.approx(0.7500, abs=1e-12)

    def test_empty_list(self):
        with pytest.raises(ValidationError):
            median_lad([])

    @settings(max_examples=200)
    @given(values=st.lists(probs, min_size=1, max_size=12))
    def test_minimises_absolute_deviation_vs_grid(self, values):
        arr = np.asarray(values)
        med = median_lad(values)
        best_at_median = np.abs(arr - med).sum()
        grid = np.linspace(0.0, 1.0, 10_001)
        grid_best = np.abs(arr[None, :] - grid[:, None]).sum(axis=1).min()
        assert best_at_median <= grid_best + 1e-9


class TestGroupings:
    def test_pruning_grouping_reproduces_reference_column(self, anxiety, method_columns):
        labels = prune_groups(anxiety.parent_cards, PruneSpec(0))
        grouping = fit_grouping(anxiety, labels)
        assert grouping.params.shape == (12, 2)
        expanded = expand_grouped(anxiety, grouping)
        assert np.abs(expanded.rows - method_columns["pruning"].rows).max() <= 5e-5 + 1e-12

    def test_singleton_groups_reproduce_truth(self, anxiety):
        labels = np.arange(anxiety.n_rows)
        expanded = expand_grouped(anxiety, fit_grouping(anxiety, labels))
        assert np.array_equal(expanded.rows, anxiety.rows)
        assert score_sum_tvd(anxiety, expanded) == 0.0

    def test_reference_scm_split_medians(self, anxiety):
        block1 = (6, 7, 15, 18, 20, 21, 22, 23)  # rows 7,8,16,19,21,22,23,24
        labels = np.isin(np.arange(24), block1).astype(int)
        grouping = fit_grouping(anxiety, labels)
        assert grouping.params[0][0] == pytest.approx(0.9393, abs=1e-9)
        assert grouping.params[1][0] == pytest.approx(0.7500, abs=1e-9)

    def test_constant_cpt_from_single_group(self, anxiety):
        labels = np.zeros(anxiety.n_rows, dtype=int)
        expanded = expand_grouped(anxiety, fit_grouping(anxiety, labels))
        assert np.all(expanded.rows == expanded.rows[0])

    @pytest.mark.parametrize(
        "labels",
        [np.zeros(23, dtype=int), np.zeros(25, dtype=int), np.zeros((24, 1), dtype=int),
         np.zeros(24), np.zeros(24, dtype=bool), ["a"] * 24],
        ids=["short", "long", "two-dimensional", "float", "bool", "string"],
    )
    def test_malformed_labels_rejected(self, anxiety, labels):
        with pytest.raises(ValidationError):
            fit_grouping(anxiety, labels)

    @settings(max_examples=50)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_expanded_score_equals_direct_group_sum(self, seed):
        # binary child: score must equal sum_k sum_{j in g_k} |p1_j - q1_k|
        rng = np.random.default_rng(seed)
        truth = random_cpt(rng, (2, 2, 2))
        labels = rng.integers(0, 3, size=truth.n_rows)
        grouping = fit_grouping(truth, labels)
        expanded = expand_grouped(truth, grouping)
        direct = sum(
            abs(truth.rows[j, 1] - grouping.params[grouping.labels[j]][1])
            for j in range(truth.n_rows)
        )
        assert score_sum_tvd(truth, expanded) == pytest.approx(direct, abs=1e-12)

    @settings(max_examples=200)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8).filter(
            lambda sizes: sum(sizes) >= 2
        ),
        child_card=st.sampled_from([2, 3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(sizes=[1, 2, 3, 4], child_card=2, seed=0)
    @example(sizes=[1, 2, 3, 4], child_card=3, seed=0)
    def test_matches_per_group_median_loop(self, sizes, child_card, seed):
        rng = np.random.default_rng(seed)
        n_rows = sum(sizes)
        truth = random_cpt(rng, (n_rows,), child_card=child_card)
        names = rng.choice(np.arange(-50, 50), size=len(sizes), replace=False)
        labels = rng.permutation(np.repeat(names, sizes))
        grouping = fit_grouping(truth, labels)
        oracle = _per_group_medians(truth, labels)
        assert np.array_equal(grouping.params, np.array(oracle))
        assert np.array_equal(np.sort(names)[grouping.labels], labels)
        expanded = expand_grouped(truth, grouping)
        assert np.array_equal(expanded.rows, np.array(oracle)[grouping.labels])

    @pytest.mark.parametrize("seed", range(3))
    def test_many_tied_groups_match_per_group_median_loop(self, seed):
        # 300 groups read their medians with uint16 labels; rows of tenths tie often
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 5, size=300)
        assert np.min_scalar_type(len(sizes)) == np.uint16
        base = random_cpt(rng, (int(sizes.sum()),), child_card=3)
        rows = rng.multinomial(10, np.full(3, 1 / 3), size=base.n_rows) / 10
        truth = Cpt(base.child, base.parents, rows)
        names = rng.choice(np.arange(-5000, 5000), size=len(sizes), replace=False)
        labels = rng.permutation(np.repeat(names, sizes))
        grouping = fit_grouping(truth, labels)
        assert np.array_equal(grouping.params, np.array(_per_group_medians(truth, labels)))
        assert np.array_equal(np.sort(names)[grouping.labels], labels)

    @pytest.mark.parametrize("states", range(2, 11))
    def test_median_pair_sums_match_numpy_sum(self, states):
        # the state sums are explicit adds; below 8 states they give numpy's
        # sum bit for bit, and wider children stay within a few ulps of it
        rng = np.random.default_rng(states)
        lo = rng.dirichlet(np.ones(states), size=(5, 7))
        hi = np.maximum(lo, rng.dirichlet(np.ones(states), size=(5, 7)))
        params = (lo + hi) / 2
        sums = params.sum(axis=-1, keepdims=True)
        want = np.where(np.abs(sums - 1.0) > 1e-12, params / sums, params)
        got, _ = _median_pair_params(lo, hi)
        if states < 8:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 2e-15


def _per_group_medians(truth, labels):
    """Bitwise oracle for fit_grouping: one np.median per group in label order,
    renormalised as the fit documents."""
    oracle = []
    for name in np.unique(labels):
        median = np.median(truth.rows[labels == name], axis=0)
        total = median.sum()
        oracle.append(median / total if abs(total - 1.0) > 1e-12 else median)
    return oracle


class TestCptValidation:
    def test_rejects_unnormalised_rows(self):
        child = Variable("Y", ("a", "b"))
        parent = Variable("X", ("a", "b"))
        with pytest.raises(ValidationError):
            Cpt(child, (parent,), [[0.5, 0.3], [0.5, 0.5]])

    def test_rejects_wrong_row_count(self):
        child = Variable("Y", ("a", "b"))
        parent = Variable("X", ("a", "b"))
        with pytest.raises(ValidationError):
            Cpt(child, (parent,), [[0.5, 0.5]])

    def test_rows_are_read_only(self, anxiety):
        with pytest.raises(ValueError):
            anxiety.rows[0, 0] = 0.0

    def test_pickled_copy_stays_read_only(self, anxiety):
        # unpickled numpy arrays are writeable; Cpt.__reduce__ rebuilds through the constructor
        copy = pickle.loads(pickle.dumps(anxiety))
        assert copy.child == anxiety.child and copy.parents == anxiety.parents
        assert np.array_equal(copy.rows, anxiety.rows)
        assert not copy.rows.flags.writeable

    def test_variable_needs_two_states(self):
        with pytest.raises(ValidationError):
            Variable("X", ("only",))

    def test_variable_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            Variable("X", ("a", "a"))
