"""Structural methods: grouping constructors, evaluators, savings accounting."""

import itertools
import math
import pickle
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cpt_refine import (
    Cpt,
    DivorceSpec,
    IciSpec,
    PruneSpec,
    ScmSpec,
    SiciSpec,
    Variable,
    divorce_best,
    divorce_groups,
    evaluate_spec,
    expand_grouped,
    fit_grouping,
    noisy_average_lower,
    noisy_or,
    noisy_or_closed_form,
    param_count,
    param_savings,
    pici_evaluate,
    prune_best,
    prune_groups,
    score_sum_tvd,
    sici_evaluate,
)
from cpt_refine.cpt import config_table
from cpt_refine import refine
from cpt_refine.refine import _mech_joint, canonical_partition
from cpt_refine.errors import SearchSpaceError, ShapeMismatchError, ValidationError

from conftest import random_cpt

BIN = Variable("Y", ("no", "yes"))


def binary_parents(n):
    return tuple(Variable(f"X{i}", ("off", "on")) for i in range(n))


def _group_sizes(labels):
    return np.unique(labels, return_counts=True)[1]


def _partition(labels):
    """The row partition a label vector induces, as a set of row sets."""
    return {frozenset(np.flatnonzero(labels == g).tolist()) for g in np.unique(labels)}


def _loop_groups(cards, key):
    """Rows grouped by ``key(state row)`` with a plain loop over the rows."""
    groups = {}
    for k, states in enumerate(config_table(cards)):
        groups.setdefault(key(states), set()).add(k)
    return {frozenset(g) for g in groups.values()}


def _gate(gate, bits):
    if gate == "AND":
        return int(all(bits))
    if gate == "OR":
        return int(any(bits))
    return sum(bits) % 2


def _divorce_key(subset, gate, ones):
    def key(states):
        bits = [int(states[i] in o) for i, o in zip(subset, ones)]
        rest = tuple(states[j] for j in range(len(states)) if j not in subset)
        return (_gate(gate, bits),) + rest

    return key


class TestPruneGroups:
    def test_anxiety_prune_first_parent(self, anxiety):
        sizes = _group_sizes(prune_groups(anxiety.parent_cards, PruneSpec(0)))
        assert len(sizes) == 12
        assert all(sizes == 2)

    def test_anxiety_prune_sleep_duration(self, anxiety):
        sizes = _group_sizes(prune_groups(anxiety.parent_cards, PruneSpec(3)))
        assert len(sizes) == 8
        assert all(sizes == 3)

    def test_single_parent_degenerates_to_one_group(self):
        labels = prune_groups((3,), PruneSpec(0))
        assert labels.tolist() == [0, 0, 0]

    def test_invalid_parent_index(self, anxiety):
        with pytest.raises(ValidationError):
            prune_groups(anxiety.parent_cards, PruneSpec(4))

    @given(cards=st.lists(st.integers(min_value=2, max_value=3), min_size=1, max_size=4),
           data=st.data())
    def test_matches_loop_construction(self, cards, data):
        p = data.draw(st.integers(min_value=0, max_value=len(cards) - 1))
        labels = prune_groups(cards, PruneSpec(p))
        oracle = _loop_groups(cards, lambda states: tuple(np.delete(states, p)))
        assert _partition(labels) == oracle


class TestPruneBest:
    def test_anxiety_prunes_depression(self, anxiety):
        spec, result = prune_best(anxiety)
        assert spec.parent == 0
        assert result.score == pytest.approx(0.6487, abs=2e-3)
        assert result.free_params == 12

    def test_irrelevant_parent_is_pruned_losslessly(self):
        # rows constant in parent 1: pruning it must cost nothing
        rng = np.random.default_rng(3)
        base = random_cpt(rng, (2, 3))
        rows = np.tile(base.rows[:2], (3, 1))
        truth = Cpt(base.child, base.parents, rows)
        spec, result = prune_best(truth)
        assert spec.parent == 1
        assert result.score <= 1e-12

    def test_requires_two_parents(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValidationError):
            prune_best(random_cpt(rng, (3,)))

    @settings(max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        truth = random_cpt(rng, (2, 2, 2))
        _, result = prune_best(truth)
        oracle = min(
            score_sum_tvd(
                truth,
                expand_grouped(
                    truth, fit_grouping(truth, prune_groups(truth.parent_cards, PruneSpec(p)))
                ),
            )
            for p in range(3)
        )
        assert result.score == pytest.approx(oracle, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        cards=st.lists(st.integers(min_value=2, max_value=4), min_size=2, max_size=5),
        child_card=st.integers(min_value=2, max_value=4),
        rows=st.sampled_from(["random", "tenths", "duplicated"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batched_search_equals_per_candidate_loop(self, cards, child_card, rows, seed):
        rng = np.random.default_rng(seed)
        truth = (_tie_prone_cpt if rows == "tenths" else random_cpt)(rng, tuple(cards), child_card)
        if rows == "duplicated":  # a few distinct rows, each repeated
            copies = rng.integers(0, 3, size=truth.n_rows)
            truth = Cpt(truth.child, truth.parents, truth.rows[copies])
        _assert_prune_search_matches_loop(truth)

    @pytest.mark.parametrize("case", ["3x2", "4x3"])
    def test_all_zero_median_group_fails_as_the_loop_does(self, case):
        if case == "3x2":
            # a 3-state child over P (3 states) and Q (2 states), row (p, q) one-hot at
            # state (p + q) mod 3: pruning P leaves group 0 with all-zero medians
            cards, hot = (3, 2), [0, 1, 2, 1, 2, 0]
        else:
            # a 4-state child over P (4 states) and Q (3 states): pruning P leaves group 1
            # (Q = 1) with all-zero medians, and pruning Q, scored in a batch of its own
            # as the parent with fewer states, group 0 (P = 0)
            cards, hot = (4, 3), [1, 0, 0, 0, 0, 1, 2, 3, 2, 0, 0, 0]
        states = [tuple(f"s{j}" for j in range(c)) for c in (len(set(hot)), *cards)]
        rows = np.eye(len(states[0]))[hot]
        parents = (Variable("P", states[1]), Variable("Q", states[2]))
        truth = Cpt(Variable("Y", states[0]), parents, rows)
        with pytest.raises(ValidationError) as loop_error:
            _loop_prune_best(truth)
        expected = {"3x2": 0, "4x3": 1}[case]
        assert str(loop_error.value) == f"group {expected} has all-zero medians"
        if case == "3x2":
            assert evaluate_spec(truth, PruneSpec(1)).score == 3.0
        else:
            with pytest.raises(ValidationError, match="group 0 has all-zero medians"):
                evaluate_spec(truth, PruneSpec(1))
        _assert_prune_search_matches_loop(truth)

    def test_ties_across_state_counts_go_to_the_first_parent(self):
        # parents of 3, 2 and 4 states: their prunes are scored in batches of different
        # group counts, one per shape; every prune fits the one repeated row exactly
        states = ("s0", "s1", "s2", "s3")
        parents = tuple(Variable(name, states[:c]) for name, c in zip("PQR", (3, 2, 4)))
        truth = Cpt(BIN, parents, [[0.3, 0.7]] * 24)
        spec, result = prune_best(truth)
        assert spec == PruneSpec(0)
        assert result.score == 0.0

    @pytest.mark.parametrize("rounded", [False, True])
    def test_parents_of_one_state_count_share_a_plan(self, rounded):
        # parents of 3, 2 and 3 states: P and R prune through the one plan of shape (3,),
        # Q through that of shape (2,); each prune scores as it does alone
        truth = (_tie_prone_cpt if rounded else random_cpt)(
            np.random.default_rng(71), (3, 2, 3), 3
        )
        alone = [evaluate_spec(truth, PruneSpec(p)) for p in range(3)]
        plans = {(c,): np.zeros((1, c), dtype=np.int64) for c in (3, 2)}
        scores = refine._divorce_scores(truth, [(0,), (1,), (2,)], plans, states=1)
        assert [s.hex() for s in scores] == [r.score.hex() for r in alone]
        _assert_prune_search_matches_loop(truth)


def _loop_prune_best(truth):
    """The per-candidate prune search the batched one replaces: every prune fitted,
    expanded and scored alone."""
    if len(truth.parents) < 2:
        raise ValidationError("pruning needs at least 2 parents")
    specs = map(PruneSpec, range(len(truth.parents)))
    # min keeps the first of equal scores
    return min(((s, evaluate_spec(truth, s)) for s in specs), key=lambda fit: fit[1].score)


def _assert_prune_search_matches_loop(truth):
    """prune_best picks the loop's spec, with its score and CPT bit for bit, or fails
    with the loop's message."""
    expected = _message_or(lambda: _loop_prune_best(truth))
    found = _message_or(lambda: prune_best(truth))
    if isinstance(expected, str):
        assert found == expected
        return
    (spec, result), (loop_spec, loop_result) = found, expected
    assert spec == loop_spec
    assert result.score.hex() == loop_result.score.hex()
    assert result.cpt.rows.tobytes() == loop_result.cpt.rows.tobytes()
    assert result.free_params == loop_result.free_params


class TestDivorceGroups:
    def test_reference_divorce_grouping(self, anxiety):
        spec = DivorceSpec((1, 3), "AND", ((1,), (2,)))
        labels = divorce_groups(anxiety.parent_cards, spec)
        groups, sizes = np.unique(labels, return_counts=True)
        assert len(groups) == 8
        singletons = sorted(np.flatnonzero(np.isin(labels, groups[sizes == 1])).tolist())
        assert singletons == [18, 19, 22, 23]  # rows 19, 20, 23, 24

    def test_or_gate_over_all_parents(self):
        spec = DivorceSpec((0, 1, 2), "OR", ((1,), (1,), (1,)))
        sizes = _group_sizes(divorce_groups((2, 2, 2), spec))
        assert len(sizes) == 2
        assert sorted(sizes) == [1, 7]

    def test_xor_group_count(self):
        spec = DivorceSpec((0, 1), "XOR", ((1,), (1,)))
        sizes = _group_sizes(divorce_groups((2, 2, 3), spec))
        assert len(sizes) == 2 * 3

    def test_rejects_full_subset_binarization(self):
        spec = DivorceSpec((0, 1), "AND", ((0, 1), (1,)))
        with pytest.raises(ValidationError):
            divorce_groups((2, 2, 2), spec)

    def test_rejects_single_divorced_parent(self):
        with pytest.raises(ValidationError):
            DivorceSpec((0,), "AND", ((1,),))

    @given(cards=st.lists(st.integers(min_value=2, max_value=4), min_size=2, max_size=4),
           gate=st.sampled_from(("AND", "OR", "XOR")), data=st.data())
    def test_matches_loop_construction(self, cards, gate, data):
        subset = data.draw(st.lists(st.integers(min_value=0, max_value=len(cards) - 1),
                                    min_size=2, max_size=len(cards), unique=True))
        ones = [
            data.draw(st.sets(st.integers(min_value=0, max_value=cards[i] - 1),
                              min_size=1, max_size=cards[i] - 1))
            for i in subset
        ]
        labels = divorce_groups(cards, DivorceSpec(subset, gate, ones))
        assert _partition(labels) == _loop_groups(cards, _divorce_key(subset, gate, ones))

    @pytest.mark.parametrize("gate", ["AND", "OR", "XOR"])
    def test_divorced_parents_in_any_order_label_alike(self, gate):
        # each binarization travels with its parent: listing (2, 0) or (0, 2) is one divorce
        cards, ones = (2, 3, 4), ((1, 3), (1,))
        labels = divorce_groups(cards, DivorceSpec((2, 0), gate, ones))
        ascending = DivorceSpec((0, 2), gate, ones[::-1])
        assert labels.tolist() == divorce_groups(cards, ascending).tolist()
        assert _partition(labels) == _loop_groups(cards, _divorce_key((2, 0), gate, ones))


def _loop_node_labels(cards, spec):
    """K times each row's index over the parents the spec's node leaves (first fastest),
    plus the node's state at the row, computed row by row."""
    if isinstance(spec, PruneSpec):
        divorced, k, node = {spec.parent}, 1, lambda row, states: 0
    elif isinstance(spec, DivorceSpec):
        divorced, k = set(spec.divorced), 2
        pairs = list(zip(spec.divorced, spec.binarization))
        node = lambda row, states: _gate(spec.gate, [states[i] in b for i, b in pairs])
    else:
        divorced, k = set(range(len(cards))), 2
        node = lambda row, states: spec.assignment[row]
    labels = []
    for row, states in enumerate(config_table(cards).tolist()):
        rest, radix = 0, 1
        for i, (s, c) in enumerate(zip(states, cards)):
            if i not in divorced:
                rest, radix = rest + radix * s, radix * c
        labels.append(k * rest + node(row, states))
    return labels


class TestNodeLabels:
    @given(cards=st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=5),
           kind=st.sampled_from(["prune", "AND", "OR", "XOR", "scm"]), data=st.data())
    def test_label_values_match_row_loop(self, cards, kind, data):
        n_rows = math.prod(cards)
        if kind == "prune":
            spec = PruneSpec(data.draw(st.integers(min_value=0, max_value=len(cards) - 1)))
        elif kind == "scm":
            seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
            assignment = np.random.default_rng(seed).integers(0, 2, n_rows)
            assume(0 < assignment.sum() < n_rows)
            spec = ScmSpec(assignment.tolist())
        else:
            assume(len(cards) >= 2)
            # the divorced parents in drawn order, ascending or not
            divorced = data.draw(st.permutations(range(len(cards))))[
                : data.draw(st.integers(min_value=2, max_value=len(cards)))
            ]
            ones = [
                data.draw(st.sets(st.integers(min_value=0, max_value=cards[i] - 1),
                                  min_size=1, max_size=cards[i] - 1))
                for i in divorced
            ]
            spec = DivorceSpec(divorced, kind, ones)
        assert refine._node_labels(cards, spec).tolist() == _loop_node_labels(cards, spec)


def _divorce_oracle(truth):
    """Independent exhaustive search: plain loops and statistics.median."""
    cards = truth.parent_cards
    n = len(cards)
    best = math.inf
    for subset in itertools.combinations(range(n), 2):
        for gate in ("AND", "OR", "XOR"):
            choices = [
                [set(c) for size in range(1, cards[i]) for c in itertools.combinations(range(cards[i]), size)]
                for i in subset
            ]
            for ones in itertools.product(*choices):
                score = 0.0
                for rows in _loop_groups(cards, _divorce_key(subset, gate, ones)):
                    med = statistics.median(truth.rows[r, 1] for r in rows)
                    score += sum(abs(truth.rows[r, 1] - med) for r in rows)
                best = min(best, score)
    return best


def _binarizations(card):
    return [c for size in range(1, card) for c in itertools.combinations(range(card), size)]


def _loop_divorce_scores(truth, subset):
    """Every divorce of ``subset`` in search order, each fitted and scored alone:
    the per-candidate loop the batched search replaces."""
    cards = truth.parent_cards
    specs = [
        DivorceSpec(subset, gate, ones)
        for gate in ("AND", "OR", "XOR")
        for ones in itertools.product(*(_binarizations(cards[i]) for i in subset))
    ]
    scores = [
        score_sum_tvd(truth, expand_grouped(truth, fit_grouping(truth, divorce_groups(cards, s))))
        for s in specs
    ]
    return specs, scores


def _divorce_subset_scores(truth, subset):
    """The plan's fitted candidates of ``subset`` and their scores: the search's batched
    scorer restricted to one subset."""
    shape = tuple(truth.parent_cards[i] for i in subset)
    fitted, patterns = refine._divorce_plan(shape)
    scores = refine._divorce_scores(truth, [subset], {shape: patterns}, states=2)
    return fitted.tolist(), scores.tolist()


def _first_of_each_grouping(cards, specs):
    """Per spec, the index of the first spec whose ``divorce_groups`` partition the rows
    alike, labels renumbered in order of first appearance."""
    first = {}
    out = []
    for c, spec in enumerate(specs):
        renumbered = {}
        labels = divorce_groups(cards, spec).tolist()
        key = tuple(renumbered.setdefault(g, len(renumbered)) for g in labels)
        out.append(first.setdefault(key, c))
    return out


def _assert_fitted_scores(truth, subset, specs, scores):
    """The batched search fits the first candidate of each grouping and gives it the loop's
    score, and every other candidate's loop score is that of its group's fitted one."""
    fitted, batched = _divorce_subset_scores(truth, subset)
    source = _first_of_each_grouping(truth.parent_cards, specs)
    assert fitted == sorted(set(source))
    assert batched == [scores[c] for c in fitted]
    score_of = dict(zip(fitted, batched))
    assert scores == [score_of[c] for c in source]


def _message_or(call):
    """The call's result, or the message of the ValidationError it raises."""
    try:
        return call()
    except ValidationError as e:
        return str(e)


def _tie_prone_cpt(rng, cards, child_card):
    """A random CPT whose probabilities are multiples of 0.1, so medians and scores tie."""
    base = random_cpt(rng, cards, child_card)
    rows = rng.multinomial(10, np.full(child_card, 1 / child_card), size=base.n_rows) / 10
    return Cpt(base.child, base.parents, rows)


class TestDivorceBest:
    def test_anxiety_reference_divorce(self, anxiety):
        spec, result = divorce_best(anxiety)
        assert spec.divorced == (1, 3)  # Hypertension, SleepDuration
        assert spec.gate == "AND"
        assert spec.binarization == ((1,), (2,))  # Yes and >9hours map to 1
        assert result.score == pytest.approx(0.5072, abs=2e-3)
        assert result.free_params == 8

    def test_recovers_realizable_divorce(self):
        rng = np.random.default_rng(11)
        shell = random_cpt(rng, (2, 2, 2, 2))
        spec = DivorceSpec((0, 2), "OR", ((1,), (0,)))
        _, labels = np.unique(divorce_groups(shell.parent_cards, spec), return_inverse=True)
        params = rng.random((labels.max() + 1, 1))
        params = np.hstack([params, 1 - params])
        truth = Cpt(shell.child, shell.parents, params[labels])
        _, result = divorce_best(truth)
        assert result.score <= 1e-12

    def test_block_size_bounds(self, anxiety):
        with pytest.raises(ValidationError):
            divorce_best(anxiety, block_size=1)
        with pytest.raises(ValidationError):
            divorce_best(anxiety, block_size=5)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_independent_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        truth = random_cpt(rng, (2, 2, 2, 2))
        _, result = divorce_best(truth)
        assert result.score == pytest.approx(_divorce_oracle(truth), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        cards=st.lists(st.integers(min_value=2, max_value=4), min_size=3, max_size=5),
        child_card=st.sampled_from([2, 3]),
        size=st.sampled_from(["2", "3", "n"]),
        rounded=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batched_scores_equal_per_candidate_fits(self, cards, child_card, size, rounded, seed):
        block_size = len(cards) if size == "n" else int(size)
        subsets = list(itertools.combinations(range(len(cards)), block_size))
        n_candidates = sum(
            3 * math.prod(2 ** cards[i] - 2 for i in subset) for subset in subsets
        )
        assume(n_candidates * math.prod(cards) <= 150_000)  # bounds the per-candidate loop
        rng = np.random.default_rng(seed)
        truth = (_tie_prone_cpt if rounded else random_cpt)(rng, tuple(cards), child_card)
        loop = {s: _message_or(lambda: _loop_divorce_scores(truth, s)) for s in subsets}
        for subset in subsets:
            if isinstance(loop[subset], str):
                assert _message_or(lambda: _divorce_subset_scores(truth, subset)) == loop[subset]
            else:
                _assert_fitted_scores(truth, subset, *loop[subset])
        # the first strict minimum in (subset, gate, binarization) order, or the loop's first error
        expected = None
        for subset in subsets:
            if isinstance(loop[subset], str):
                expected = loop[subset]
                break
            for spec, score in zip(*loop[subset]):
                if expected is None or score < expected[1]:
                    expected = (spec, score)
        found = _message_or(lambda: divorce_best(truth, block_size))
        if isinstance(expected, str):
            assert found == expected
        else:
            assert found[0] == expected[0]
            assert found[1].score == expected[1]

    @pytest.mark.parametrize("rounded", [False, True])
    def test_scores_span_several_chunks(self, rounded):
        # two 4-state parents give 3 * 14 * 14 = 588 candidates, more than one chunk holds
        truth = (_tie_prone_cpt if rounded else random_cpt)(
            np.random.default_rng(61), (4, 4, 2, 2), 3
        )
        assert 588 > refine._DIVORCE_CHUNK_ELEMENTS // truth.rows.size
        specs, scores = _loop_divorce_scores(truth, (0, 1))
        _assert_fitted_scores(truth, (0, 1), specs, scores)
        assert len(specs) == 588

    def test_all_zero_median_group_fails_as_the_loop_does(self):
        # the first 28 candidates fit; the 29th, XOR over P = s2 and Q = s0, leaves
        # group 3 (R = s1, gate 1) with every per-state median 0
        rows = [
            [0.0, 0.0, 1.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
            [0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
            [0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0],
        ]
        tri = ("s0", "s1", "s2")
        parents = (Variable("P", tri), Variable("Q", tri[:2]), Variable("R", tri[:2]))
        truth = Cpt(Variable("Y", tri), parents, rows)
        with pytest.raises(ValidationError) as loop_error:
            _loop_divorce_scores(truth, (0, 1))
        assert str(loop_error.value) == "group 3 has all-zero medians"
        with pytest.raises(ValidationError) as search_error:
            divorce_best(truth)
        assert str(search_error.value) == str(loop_error.value)

    @pytest.mark.parametrize("rounded", [False, True])
    def test_subsets_of_one_configuration_count_and_two_shapes(self, rounded):
        # parents of 2, 3 and 2 states and a 3-state child: (0, 1) has shape 2x3 and
        # (1, 2) shape 3x2, six configurations each but two plans, scored in separate
        # chunks; the last subset's shape comes first, so chunks run out of search order
        truth = (_tie_prone_cpt if rounded else random_cpt)(
            np.random.default_rng(73), (2, 3, 2), 3
        )
        subsets, shapes = [(0, 1), (0, 2), (1, 2)], [(2, 3), (2, 2), (3, 2)]
        plans = {shape: refine._divorce_plan(shape) for shape in reversed(shapes)}
        loop = [_loop_divorce_scores(truth, s) for s in subsets]
        scores = refine._divorce_scores(truth, subsets, {c: p[1] for c, p in plans.items()}, 2)
        # every fitted candidate, subset by subset in search order, scores as it does alone
        expected = [alone[c] for (_, alone), shape in zip(loop, shapes) for c in plans[shape][0]]
        assert [s.hex() for s in scores] == [s.hex() for s in expected]
        specs = [spec for loop_specs, _ in loop for spec in loop_specs]
        loop_scores = [score for _, loop_scores in loop for score in loop_scores]
        spec, result = divorce_best(truth)
        assert spec == specs[loop_scores.index(min(loop_scores))]
        assert result.score.hex() == min(loop_scores).hex()

    def test_first_failure_across_two_shapes_of_one_configuration_count(self):
        # the same parents with one-hot rows: a candidate over (0, 1), shape 2x3, and one
        # over (1, 2), shape 3x2, cannot be fitted; the search fails as (0, 1) does, though
        # the scorer is handed the 3x2 plan first
        base = random_cpt(np.random.default_rng(0), (2, 3, 2), 3)
        truth = Cpt(base.child, base.parents, np.eye(3)[[2, 1, 1, 0, 0, 0, 0, 0, 0, 2, 1, 2]])
        subsets, shapes = [(0, 1), (0, 2), (1, 2)], [(2, 3), (2, 2), (3, 2)]
        loop = [_message_or(lambda: _loop_divorce_scores(truth, s)) for s in subsets]
        assert loop[0] == "group 2 has all-zero medians"
        assert loop[2] == "group 0 has all-zero medians"
        plans = {shape: refine._divorce_plan(shape)[1] for shape in reversed(shapes)}
        assert _message_or(lambda: refine._divorce_scores(truth, subsets, plans, 2)) == loop[0]
        assert _message_or(lambda: divorce_best(truth)) == loop[0]

    def test_ties_across_subsets_go_to_the_first_candidate(self):
        # every divorce of a table with one row repeated fits it exactly
        truth = Cpt(BIN, binary_parents(3), [[0.3, 0.7]] * 8)
        spec, result = divorce_best(truth)
        assert spec == DivorceSpec((0, 1), "AND", ((0,), (0,)))
        assert result.score == 0.0

    def test_ties_across_configuration_counts_go_to_the_first_candidate(self):
        # parents of 3, 2, 2 and 4 states: the pairs have 4 to 12 configurations, so their
        # candidates are scored in batches of different group counts, one per shape;
        # every divorce fits the one repeated row exactly
        states = ("s0", "s1", "s2", "s3")
        parents = tuple(Variable(name, states[:c]) for name, c in zip("PQRS", (3, 2, 2, 4)))
        truth = Cpt(BIN, parents, [[0.3, 0.7]] * 48)
        spec, result = divorce_best(truth)
        assert spec == DivorceSpec((0, 1), "AND", ((0,), (0,)))
        assert result.score == 0.0

    def test_first_failure_in_search_order_fails_the_search(self):
        # P has 3 states and Q, R 2: (P, Q) fits; in (P, R), 6 configurations, AND over
        # P = s0 and R = s1 leaves group 2 with all-zero medians; in (Q, R), 4
        # configurations and so scored apart, AND over Q = s0 and R = s1 leaves group 4
        rows = [
            [0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5],
            [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0],
            [0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
        ]
        tri = ("s0", "s1", "s2")
        parents = (Variable("P", tri), Variable("Q", tri[:2]), Variable("R", tri[:2]))
        truth = Cpt(Variable("Y", tri), parents, rows)
        subsets = ((0, 1), (0, 2), (1, 2))
        loop = [_message_or(lambda: _loop_divorce_scores(truth, s)) for s in subsets]
        assert not isinstance(loop[0], str)
        assert loop[1:] == ["group 2 has all-zero medians", "group 4 has all-zero medians"]
        assert _message_or(lambda: divorce_best(truth)) == loop[1]

    def test_search_refuses_the_first_subset_past_the_plan_bound(self):
        # parents of 11, 2, 11 and 11 states: (P, R) is the first of three pairs whose plan
        # would hold more than 2^29 gate outputs, so the search fails for it before
        # building any plan
        eleven = tuple(f"s{j}" for j in range(11))
        parents = tuple(Variable(name, eleven[:c]) for name, c in zip("PQRS", (11, 2, 11, 11)))
        truth = Cpt(BIN, parents, [[0.3, 0.7]] * 2662)
        outputs = 3 * (2**11 - 2) ** 2 * 11**2
        assert 3 * (2**10 - 2) ** 2 * 10**2 <= refine._MAX_PLAN_OUTPUTS < outputs
        with pytest.raises(SearchSpaceError) as error:
            divorce_best(truth)
        assert str(error.value) == (
            f"divorcing P, R means {outputs} gate outputs, more than the 536870912 supported"
        )

    def test_search_memory_stays_flat_in_the_subset_count(self):
        # 10 binary parents, 1024 rows: the index rows of all 45 pairs built at once
        # would take 45 x 2 x 1024 x 8 B = 720 KiB, in float64 and again in int64
        truth = random_cpt(np.random.default_rng(29), (2,) * 10)
        pairs = list(itertools.combinations(range(10), 2))
        _, patterns = refine._divorce_plan((2, 2))
        peaks = []
        for subsets in (pairs[:1], pairs):
            tracemalloc.start()
            try:
                refine._divorce_scores(truth, subsets, {(2, 2): patterns}, states=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 64 * 2**10

    def test_scoring_keeps_no_per_candidate_bookkeeping(self):
        # a pair of 7-state parents: 19,845 fitted candidates, whose scores and first
        # all-zero groups take 0.3 MiB; a per-candidate subset and configuration count
        # for each, as int64, would add another 0.3 MiB
        truth = random_cpt(np.random.default_rng(37), (7, 7))
        _, patterns = refine._divorce_plan((7, 7))
        assert len(patterns) == 19_845
        tracemalloc.start()
        try:
            refine._divorce_scores(truth, [(0, 1)], {(7, 7): patterns}, states=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * 2**20

    def test_scoring_keeps_one_failure_record(self):
        # the same 7-state pair: besides the 0.15 MiB of scores, the search keeps only the
        # (search position, group) of its first failure; each candidate's first all-zero
        # group as int64, another 0.15 MiB, would take the peak past the bound
        truth = random_cpt(np.random.default_rng(37), (7, 7))
        _, patterns = refine._divorce_plan((7, 7))
        tracemalloc.start()
        try:
            refine._divorce_scores(truth, [(0, 1)], {(7, 7): patterns}, states=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.56 * 2**20

    @pytest.mark.parametrize("size", [10, 9])
    def test_scoring_reads_the_patterns_in_place(self, size):
        # 10 binary parents and 256 candidate nodes over each of the first (up to three)
        # subsets of this size, one int64 pattern array shared as a search shares a plan:
        # 1-2 MiB of patterns against chunks bounded to 64 KiB each, so a copy would show
        truth = random_cpt(np.random.default_rng(31), (2,) * 10)
        subsets = list(itertools.combinations(range(10), size))[:3]
        patterns = np.random.default_rng(32).integers(0, 2, size=(256, 2**size))
        patterns[:, :2] = (0, 1)  # both node states at every remaining configuration
        tracemalloc.start()
        try:
            refine._divorce_scores(truth, subsets, {(2,) * size: patterns}, states=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < patterns.nbytes / 2

    @pytest.mark.parametrize(
        "sub_cards", [c for n in (2, 3) for c in itertools.product((2, 3, 4), repeat=n)],
        ids=lambda c: "x".join(map(str, c)),
    )
    def test_plan_fits_the_first_candidate_of_each_grouping(self, sub_cards):
        # with every parent divorced, a candidate's row labels are its gate outputs
        choices = [_binarizations(c) for c in sub_cards]
        subset = tuple(range(len(sub_cards)))
        specs = [
            DivorceSpec(subset, gate, ones)
            for gate in ("AND", "OR", "XOR")
            for ones in itertools.product(*choices)
        ]
        source = _first_of_each_grouping(sub_cards, specs)
        fitted, patterns = refine._divorce_plan(sub_cards)
        assert fitted.tolist() == sorted(set(source))
        outputs = [divorce_groups(sub_cards, specs[c]).tolist() for c in fitted]
        assert patterns.astype(int).tolist() == outputs
        n = len(sub_cards)
        n_and = math.prod(2**c - 2 for c in sub_cards)
        assert len(fitted) * 2**n == n_and * (2**n + 1)
        counts = {(2, 2): 5, (4, 4): 245, (2, 2, 2): 9}
        if sub_cards in counts:
            assert len(fitted) == counts[sub_cards]

    @pytest.mark.parametrize("rounded", [False, True])
    def test_divorce_of_all_six_parents(self, rounded):
        # 64 subset configurations: every chunk holds 64 candidates of all 64 configurations
        truth = (_tie_prone_cpt if rounded else random_cpt)(np.random.default_rng(63), (2,) * 6, 2)
        subset = tuple(range(6))
        specs, scores = _loop_divorce_scores(truth, subset)
        _assert_fitted_scores(truth, subset, specs, scores)
        spec, result = divorce_best(truth, block_size=6)
        assert spec == specs[scores.index(min(scores))]
        assert result.score == min(scores)

    def test_divorces_every_parent_of_a_two_parent_table(self):
        truth = random_cpt(np.random.default_rng(62), (2, 3))
        spec, result = divorce_best(truth)
        assert spec.divorced == (0, 1)
        assert result.free_params == 2
        specs, scores = _loop_divorce_scores(truth, (0, 1))
        assert result.score == min(scores)
        assert spec == specs[scores.index(min(scores))]


class TestScmFit:
    def test_reference_split(self, anxiety):
        assignment = [0] * 24
        for row in (7, 8, 16, 19, 21, 22, 23, 24):
            assignment[row - 1] = 1
        result = evaluate_spec(anxiety, ScmSpec(tuple(assignment)))
        assert result.score == pytest.approx(1.2693, abs=2e-3)
        assert result.free_params == 2
        values = {round(p, 4) for p in result.cpt.rows[:, 0]}
        assert values == {0.7500, 0.9393}

    def test_noise_free_simple_and(self):
        # two binary causes, M = AND(x), P(Y=1|M=1)=1, P(Y=1|M=0)=0
        truth_rows = np.array([[1, 0], [1, 0], [1, 0], [0, 1]], dtype=float)
        truth = Cpt(BIN, binary_parents(2), truth_rows)
        assignment = tuple(int(k == 3) for k in range(4))
        result = evaluate_spec(truth, ScmSpec(assignment))
        assert result.score == 0.0
        assert np.array_equal(result.cpt.rows, truth_rows)

    def test_matches_direct_recomputation(self, anxiety):
        threshold = np.median(anxiety.rows[:, 0])
        assignment = tuple(int(p < threshold) for p in anxiety.rows[:, 0])
        result = evaluate_spec(anxiety, ScmSpec(assignment))
        direct = 0.0
        for block in (0, 1):
            rows = [k for k, a in enumerate(assignment) if a == block]
            med = statistics.median(anxiety.rows[r, 0] for r in rows)
            direct += sum(abs(anxiety.rows[r, 0] - med) for r in rows)
        assert result.score == pytest.approx(direct, abs=1e-12)

    def test_rejects_trivial_bipartition(self):
        with pytest.raises(ValidationError):
            ScmSpec((0,) * 24)


class TestIciEvaluate:
    def test_no_inhibition_forces_child_on(self):
        cpt = sici_evaluate(BIN, binary_parents(3), noisy_or([0.0, 0.0, 0.0]))
        assert cpt.rows[-1, 1] == pytest.approx(1.0, abs=1e-15)

    def test_two_cause_product(self):
        cpt = sici_evaluate(BIN, binary_parents(2), noisy_or([0.2, 0.5]))
        assert cpt.rows[3, 0] == pytest.approx(0.10, abs=1e-12)

    def test_uniform_mechanisms_give_block_mass(self):
        # all mechanism probabilities 0.5: p(state0 | x) = a / 2^n where a
        # is the number of configurations the combiner maps to state 0
        mech = ((0.5, 0.5), (0.5, 0.5), (0.5, 0.5))
        combiner = (0, 0, 0, 1, 1, 1, 1, 1)
        cpt = sici_evaluate(BIN, binary_parents(3), IciSpec(mech, combiner))
        assert np.allclose(cpt.rows[:, 0], 3 / 8)

    def test_rejects_partial_combiner(self):
        with pytest.raises(ValidationError):
            IciSpec(((0.5, 0.5), (0.5, 0.5)), (0, 1, 1))

    def test_rejects_wide_child(self):
        wide = Variable("Y", ("a", "b", "c"))
        with pytest.raises(ValidationError):
            sici_evaluate(wide, binary_parents(2), noisy_or([0.1, 0.2]))


class TestNoisyOr:
    def test_zero_inhibition_is_deterministic_or(self):
        cpt = sici_evaluate(BIN, binary_parents(2), noisy_or([0.0, 0.0]))
        assert np.allclose(cpt.rows, [[1, 0], [0, 1], [0, 1], [0, 1]])

    def test_total_inhibition_pins_child_off(self):
        cpt = sici_evaluate(BIN, binary_parents(2), noisy_or([1.0, 1.0]))
        assert np.allclose(cpt.rows[:, 0], 1.0)

    def test_three_cause_product(self):
        cpt = sici_evaluate(BIN, binary_parents(3), noisy_or([0.1, 0.2, 0.3]))
        assert cpt.rows[-1, 0] == pytest.approx(0.006, abs=1e-12)

    @settings(max_examples=100)
    @given(
        probs=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=6
        )
    )
    def test_closed_form_equals_enumeration(self, probs):
        parents = binary_parents(len(probs))
        via_enum = sici_evaluate(BIN, parents, noisy_or(probs))
        via_product = noisy_or_closed_form(BIN, parents, probs)
        assert np.abs(via_enum.rows - via_product.rows).max() <= 1e-12


def _random_ici_spec(rng, cards):
    mech = tuple(tuple(rng.random(c)) for c in cards)
    combiner = (0, *rng.integers(0, 2, size=(1 << len(cards)) - 1).tolist())
    return IciSpec(mech, combiner)


class TestMechConfigProducts:
    @settings(max_examples=50)
    @given(
        cards=st.lists(st.sampled_from((2, 3)), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(cards=[3, 2, 3], seed=0)
    @example(cards=[2, 2, 2, 3], seed=1)
    def test_matches_per_configuration_loop(self, cards, seed):
        rng = np.random.default_rng(seed)
        tables = [rng.random((k, 5, 4)) for k in cards]  # (states, rows, population)
        joint = _mech_joint(tables, [np.arange(5)] * len(cards))
        assert joint.shape == (math.prod(cards), 5, 4)
        # configurations in mixed radix with mechanism 0 fastest, multiplied in mechanism order
        for j, config in enumerate(config_table(cards)):
            expected = np.ones((5, 4))
            for b, s in enumerate(config):
                expected = expected * tables[b][s]
            assert np.array_equal(joint[j], expected)
        # each member of the trailing batch axis gets the bits it gets alone
        for i in range(4):
            alone = _mech_joint([t[..., i] for t in tables], [np.arange(5)] * len(cards))
            assert np.array_equal(joint[..., i], alone)

    def test_block_rows_index_each_block_over_its_ascending_parents(self):
        # mixed radix over the block's parents in ascending order, the first fastest
        cards = (3, 2, 4)
        s = config_table(cards)
        want = [s[:, 0] + 3 * s[:, 2], s[:, 0] + 3 * s[:, 2], s[:, 1], 0 * s[:, 0]]
        got = refine._block_rows(cards, [(0, 2), (2, 0), (1,), ()])
        assert got.dtype == np.int64 and np.array_equal(got, want)


class TestPici:
    def test_indicator_lower_reduces_to_ici(self):
        rng = np.random.default_rng(5)
        cards = (2, 3)
        spec = _random_ici_spec(rng, cards)
        parents = (Variable("X0", ("a", "b")), Variable("X1", ("a", "b", "c")))
        lower = np.zeros((4, 2))
        lower[np.arange(4), list(spec.combiner)] = 1.0
        via_pici = pici_evaluate(BIN, parents, spec.mech_cpts, lower)
        via_ici = sici_evaluate(BIN, parents, spec)
        assert np.abs(via_pici.rows - via_ici.rows).max() <= 1e-12

    def test_root_node_takes_the_lower_row(self):
        cpt = pici_evaluate(BIN, (), [], [[0.3, 0.7]])
        assert cpt.rows.tolist() == [[0.3, 0.7]]

    def test_noisy_average_lower_table(self):
        lower = noisy_average_lower(2, 2)
        # mechanism config (1, 0) -> index 1: one mechanism equals each state
        assert np.allclose(lower[1], (0.5, 0.5))
        assert np.allclose(lower[0], (1.0, 0.0))
        assert np.allclose(lower.sum(axis=1), 1.0)

    def test_noisy_average_evaluation(self):
        parents = binary_parents(2)
        mech = (np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([[0.7, 0.3], [0.4, 0.6]]))
        cpt = pici_evaluate(BIN, parents, mech, noisy_average_lower(2, 2))
        # oracle: explicit double sum over the 4 mechanism configurations
        for k, (x0, x1) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
            expected = np.zeros(2)
            for m0 in range(2):
                for m1 in range(2):
                    w = mech[0][x0, m0] * mech[1][x1, m1]
                    for y in range(2):
                        expected[y] += w * ((m0 == y) + (m1 == y)) / 2
            assert np.abs(cpt.rows[k] - expected).max() <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        cards=st.lists(st.sampled_from((2, 3)), min_size=1, max_size=3),
        child_card=st.sampled_from((2, 3)),
        data=st.data(),
    )
    def test_matches_double_sum_oracle(self, cards, child_card, data):
        # PICI when every block is a singleton, else DS-SICI; mechanisms of 2 or 3
        # states, binary ones given in either table form
        n = len(cards)
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks = len(set(labels))
        mech_cards = data.draw(
            st.lists(st.sampled_from((2, 3)), min_size=blocks, max_size=blocks)
        )
        shorthand = data.draw(st.lists(st.booleans(), min_size=blocks, max_size=blocks))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        partition = canonical_partition(
            [[i for i in range(n) if labels[i] == g] for g in set(labels)]
        )
        rng = np.random.default_rng(seed)
        parents = tuple(
            Variable(f"X{i}", tuple(f"s{j}" for j in range(c))) for i, c in enumerate(cards)
        )
        child = Variable("Y", tuple(f"y{j}" for j in range(child_card)))
        states = []  # per block, P(M_b = s | block configuration c) as states[b][c][s]
        mech = []
        for block, k, short in zip(partition, mech_cards, shorthand):
            configs = math.prod(cards[i] for i in block)
            if k == 2 and short:
                p1 = rng.random(configs)
                mech.append(tuple(p1))
                states.append([(1 - p, p) for p in p1])
            else:
                rows = rng.random((configs, k))
                rows /= rows.sum(axis=1, keepdims=True)
                mech.append(rows)
                states.append(rows)
        lower = rng.random((math.prod(mech_cards), child_card))
        lower /= lower.sum(axis=1, keepdims=True)
        cpt = sici_evaluate(child, parents, SiciSpec(partition, mech, lower_cpt=lower))
        if len(partition) == n:
            assert np.array_equal(pici_evaluate(child, parents, mech, lower).rows, cpt.rows)
        for k, x in enumerate(config_table(cards)):
            expected = np.zeros(child_card)
            for m in itertools.product(*(range(c) for c in mech_cards)):
                w, index, stride = 1.0, 0, 1
                for b, block in enumerate(partition):
                    c, c_stride = 0, 1
                    for i in block:
                        c += x[i] * c_stride
                        c_stride *= cards[i]
                    w *= states[b][c][m[b]]
                    index += m[b] * stride
                    stride *= mech_cards[b]
                expected += w * lower[index]
            assert np.abs(cpt.rows[k] - expected).max() <= 1e-12


class TestSici:
    def test_singleton_partition_equals_ici(self):
        rng = np.random.default_rng(9)
        cards = (2, 2, 3)
        parents = tuple(
            Variable(f"X{i}", tuple(f"s{j}" for j in range(c))) for i, c in enumerate(cards)
        )
        ici_spec = _random_ici_spec(rng, cards)
        assert isinstance(ici_spec, SiciSpec)
        assert ici_spec.parent_partition == ((0,), (1,), (2,))
        restored = pickle.loads(pickle.dumps(ici_spec))
        assert type(restored) is IciSpec and restored == ici_spec
        sici_spec = SiciSpec(
            tuple((i,) for i in range(3)), ici_spec.mech_cpts, combiner=ici_spec.combiner
        )
        a = sici_evaluate(BIN, parents, sici_spec)
        b = sici_evaluate(BIN, parents, ici_spec)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(sici_evaluate(BIN, parents, restored).rows, b.rows)

    def test_single_block_is_stochastic_relabeling(self):
        rng = np.random.default_rng(10)
        parents = binary_parents(2)
        table = tuple(rng.random(4))
        spec = SiciSpec(((0, 1),), (table,), combiner=(0, 1))
        cpt = sici_evaluate(BIN, parents, spec)
        assert np.allclose(cpt.rows[:, 1], table)

    def test_indicator_lower_reduces_to_us(self):
        rng = np.random.default_rng(12)
        # 4 and 16 mechanism configurations: summing only the combiner's columns
        # would differ from the full sum in the last bit on the second
        for n_parents, partition in [(3, ((0, 2), (1,))), (5, ((0, 2), (1,), (3,), (4,)))]:
            parents = binary_parents(n_parents)
            mech = tuple(tuple(rng.random(1 << len(b))) for b in partition)
            n_configs = 1 << len(partition)
            combiner = (0, *rng.integers(0, 2, size=n_configs - 1).tolist())
            lower = np.zeros((n_configs, 2))
            lower[np.arange(n_configs), combiner] = 1.0
            us = sici_evaluate(BIN, parents, SiciSpec(partition, mech, combiner=combiner))
            ds = sici_evaluate(
                BIN, parents, SiciSpec(partition, mech, lower_cpt=tuple(map(tuple, lower)))
            )
            # a combiner is read as its indicator lower table, so the two agree bitwise
            assert np.array_equal(us.rows, ds.rows)

    def test_all_singletons_with_lower_equals_pici(self):
        rng = np.random.default_rng(13)
        parents = binary_parents(2)
        mech = (tuple(rng.random(2)), tuple(rng.random(2)))
        lower = rng.random((4, 2))
        lower /= lower.sum(axis=1, keepdims=True)
        ds = sici_evaluate(
            BIN, parents, SiciSpec(((0,), (1,)), mech, lower_cpt=tuple(map(tuple, lower)))
        )
        via_pici = pici_evaluate(BIN, parents, mech, lower)
        assert np.abs(ds.rows - via_pici.rows).max() <= 1e-12

    def test_blocks_given_out_of_order_keep_their_tables(self):
        # the combiner reads the mechanism of block (1,), so P(Y=1 | x) is its table at x1
        spec = SiciSpec(((1,), (0,)), ((0.2, 0.9), (0.1, 0.6)), combiner=(0, 1, 0, 1))
        assert spec.parent_partition == ((0,), (1,))
        assert spec.mech_cpts == ((0.1, 0.6), (0.2, 0.9))
        assert spec.combiner == (0, 0, 1, 1)
        cpt = sici_evaluate(BIN, binary_parents(2), spec)
        assert np.abs(cpt.rows[:, 1] - [0.2, 0.2, 0.9, 0.9]).max() <= 1e-12

    @pytest.mark.parametrize("variant", ["combiner", "lower"])
    def test_permuted_blocks_evaluate_as_the_canonical_spec(self, variant):
        rng = np.random.default_rng(31)
        for _ in range(30):
            cards = tuple(int(c) for c in rng.integers(2, 4, size=int(rng.integers(2, 5))))
            truth = random_cpt(rng, cards)
            partition = canonical_partition(
                b for b in np.array_split(rng.permutation(len(cards)), int(rng.integers(2, 4)))
                if b.size
            )
            # binary shorthand or an explicit k-state table per block
            mech, mech_cards = [], []
            for block in partition:
                size = math.prod(cards[i] for i in block)
                k = int(rng.integers(2, 4))
                table = rng.random((size, k))
                table /= table.sum(axis=1, keepdims=True)
                binary = k == 2 and rng.random() < 0.5
                mech.append(tuple(table[:, 1]) if binary else tuple(map(tuple, table)))
                mech_cards.append(k)
            configs = list(itertools.product(*(range(k) for k in reversed(mech_cards))))
            if variant == "combiner":
                table = [0, *rng.integers(0, 2, size=len(configs) - 1).tolist()]
            else:
                lower = rng.random((len(configs), 2))
                table = [tuple(r) for r in lower / lower.sum(axis=1, keepdims=True)]
            # given block g is canonical block perm[g]; re-index the table by hand
            perm = rng.permutation(len(partition))
            given = [0] * len(configs)
            for j, digits in enumerate(configs):
                state = digits[::-1]  # state[k]: canonical mechanism k
                index, stride = 0, 1
                for g in range(len(perm)):
                    index += state[perm[g]] * stride
                    stride *= mech_cards[perm[g]]
                given[index] = table[j]
            field = "combiner" if variant == "combiner" else "lower_cpt"
            canonical = SiciSpec(partition, tuple(mech), **{field: tuple(table)})
            permuted = SiciSpec(
                tuple(partition[k][::-1] for k in perm),
                tuple(mech[k] for k in perm),
                **{field: tuple(given)},
            )
            assert permuted == canonical
            assert np.array_equal(
                evaluate_spec(truth, permuted).cpt.rows, evaluate_spec(truth, canonical).cpt.rows
            )

    def test_reference_spec_with_blocks_out_of_order_evaluates(self, anxiety):
        # the spec of acceptance test c8, which lists {Hypertension} first
        given = SiciSpec(((1,), (0, 2, 3)), ((0, 0), (0,) * 12), combiner=(0, 0, 0, 1))
        result = evaluate_spec(anxiety, given)
        assert result.free_params == 14
        canonical = SiciSpec(((0, 2, 3), (1,)), ((0,) * 12, (0, 0)), combiner=(0, 0, 0, 1))
        assert np.array_equal(result.cpt.rows, evaluate_spec(anxiety, canonical).cpt.rows)

    def test_requires_exactly_one_variant(self):
        with pytest.raises(ValidationError):
            SiciSpec(((0,),), ((0.5, 0.5),))

    def test_blocks_must_cover_parents(self):
        spec = SiciSpec(((0,),), ((0.5, 0.5),), combiner=(0, 1))
        with pytest.raises(ShapeMismatchError):
            sici_evaluate(BIN, binary_parents(2), spec)

    NOT_DISTRIBUTIONS = [
        (1.5, -0.5), (1.2, -0.2), (0.5, 0.9), (float("nan"), 1.0), (0.5, 0.5 + 2e-9)
    ]

    @pytest.mark.parametrize("row", NOT_DISTRIBUTIONS)
    def test_rejects_mechanism_rows_that_are_not_distributions(self, row):
        with pytest.raises(ValidationError, match="mechanism"):
            SiciSpec(((0,),), (((0.5, 0.5), row),), lower_cpt=((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(ValidationError, match="mechanism"):
            pici_evaluate(BIN, binary_parents(1), [[row, (0.5, 0.5)]], [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("row", NOT_DISTRIBUTIONS)
    def test_rejects_lower_rows_that_are_not_distributions(self, row):
        with pytest.raises(ValidationError, match="lower"):
            SiciSpec(((0,),), ((0.1, 0.2),), lower_cpt=(row, (0.0, 1.0)))
        with pytest.raises(ValidationError, match="lower"):
            pici_evaluate(BIN, binary_parents(1), [(0.1, 0.2)], [(0.0, 1.0), row])

    def test_accepts_rows_within_tolerance(self):
        mech = ((0.5, 0.5 + 5e-10), (0.0, 1.0))
        spec = SiciSpec(((0,),), (mech,), lower_cpt=((0.3, 0.7 - 5e-10), (1.0, 0.0)))
        assert spec.mech_cpts == (mech,)
        assert spec.lower_cpt[0] == (0.3, 0.7 - 5e-10)

    @settings(max_examples=50)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_evaluator_rows_are_normalised(self, seed):
        rng = np.random.default_rng(seed)
        cards = (2, 3, 2)
        parents = tuple(
            Variable(f"X{i}", tuple(f"s{j}" for j in range(c))) for i, c in enumerate(cards)
        )
        partition = ((0, 2), (1,))
        mech = (tuple(rng.random(4)), tuple(rng.random(3)))
        combiner = (0, *rng.integers(0, 2, size=3).tolist())
        cpt = sici_evaluate(BIN, parents, SiciSpec(partition, mech, combiner=combiner))
        assert np.abs(cpt.rows.sum(axis=1) - 1.0).max() <= 1e-9


class TestParamSavings:
    def test_reference_rows(self, anxiety):
        cards = anxiety.parent_cards
        cc = anxiety.child.cardinality
        assert param_savings(PruneSpec(0), cards, cc) == (12, 12)
        assert param_savings(DivorceSpec((1, 3), "AND", ((1,), (2,))), cards, cc) == (8, 16)
        assert param_savings(ScmSpec((0,) * 23 + (1,)), cards, cc) == (2, 22)
        ici = _random_ici_spec(np.random.default_rng(0), cards)
        assert param_savings(ici, cards, cc) == (9, 15)
        sici = SiciSpec(
            ((1,), (0, 2, 3)),
            (tuple(np.zeros(2)), tuple(np.zeros(12))),
            combiner=(0, 1, 0, 1),
        )
        assert param_savings(sici, cards, cc) == (14, 10)

    @given(
        cards=st.lists(st.integers(min_value=2, max_value=5), min_size=2, max_size=5),
        p=st.integers(min_value=0, max_value=4),
    )
    def test_prune_free_plus_saving_is_full_count(self, cards, p):
        p = p % len(cards)
        free, saving = param_savings(PruneSpec(p), cards, 2)
        assert free + saving == param_count(cards, 2)

    @given(n=st.integers(min_value=3, max_value=8), i=st.integers(min_value=2, max_value=7))
    def test_all_binary_divorce_formula(self, n, i):
        i = min(i, n - 1)
        spec = DivorceSpec(tuple(range(i)), "AND", ((1,),) * i)
        free, _ = param_savings(spec, (2,) * n, 2)
        assert free == 2 ** (n - i + 1)

    @pytest.mark.parametrize("spec, cards, error", [
        (PruneSpec(5), (2, 2), ValidationError),
        (PruneSpec(-1), (2, 3), ValidationError),
        (DivorceSpec((0, 5), "AND", ((1,), (1,))), (2, 2), ValidationError),
        (ScmSpec((0, 1, 1)), (2, 2), ShapeMismatchError),
    ], ids=["prune-past-last", "prune-negative", "divorce-past-last", "scm-short"])
    def test_spec_that_does_not_fit_the_shape_is_refused(self, spec, cards, error):
        # counted as evaluate_spec labels it: the same error for the same spec
        truth = random_cpt(np.random.default_rng(5), cards)
        with pytest.raises(error) as counted:
            param_savings(spec, cards, 2)
        with pytest.raises(error) as fitted:
            evaluate_spec(truth, spec)
        assert str(counted.value) == str(fitted.value)


    MISFITS = [
        (SiciSpec(((0,), (5,)), [(0.5, 0.5)] * 2, combiner=(0, 1, 1, 1)), 2, ShapeMismatchError),
        (IciSpec([(0.5,) * 3, (0.5,) * 2], (0, 1, 1, 1)), 2, ShapeMismatchError),
        (SiciSpec(((0,),), [(0.5, 0.5)], combiner=(0, 1)), 2, ShapeMismatchError),
        (IciSpec([(0.5, 0.5)] * 2, (0, 1, 1, 1)), 3, ValidationError),
        (SiciSpec(((0,), (1,)), [(0.5, 0.5)] * 2, lower_cpt=[[1, 0]] * 4), 3, ShapeMismatchError),
    ]

    @pytest.mark.parametrize("spec, child_card, error", MISFITS, ids=[
        "block-past-last", "mechanism-table-too-long", "parent-left-out",
        "combiner-of-3-state-child", "lower-table-short-of-child-states",
    ])
    def test_interaction_spec_that_does_not_fit_is_refused(self, spec, child_card, error):
        # two binary parents: each spec fails evaluate_spec, and param_savings fails alike
        truth = random_cpt(np.random.default_rng(5), (2, 2), child_card)
        with pytest.raises(error) as counted:
            param_savings(spec, (2, 2), child_card)
        with pytest.raises(error) as fitted:
            evaluate_spec(truth, spec)
        assert str(counted.value) == str(fitted.value)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_count_agrees_with_evaluate_spec_on_every_interaction_spec(self, data):
        # an ICI, US-SICI or DS-SICI (PICI with singleton blocks) spec built for one shape,
        # applied to a truth of a shape that may differ: both calls give the same free
        # count, or both fail with the same error
        cards_st = st.lists(st.integers(2, 4), min_size=1, max_size=4)
        cards = data.draw(cards_st, label="spec cards")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kind = data.draw(st.sampled_from(["ici", "us", "ds"]), label="kind")
        if kind == "ici":
            labels = list(range(len(cards)))
        else:
            labels = data.draw(st.lists(st.integers(0, len(cards) - 1), min_size=len(cards),
                                        max_size=len(cards)), label="block of each parent")
        blocks = [tuple(i for i, b in enumerate(labels) if b == label)
                  for label in dict.fromkeys(labels)]
        mech, mech_cards = [], []
        for block in blocks:
            size, k = math.prod(cards[i] for i in block), data.draw(st.integers(1, 3))
            mech.append(tuple(rng.random(size)) if k == 1 else rng.dirichlet(np.ones(k), size))
            mech_cards.append(max(k, 2))
        n_configs = math.prod(mech_cards)
        if kind == "ds":
            lower = rng.dirichlet(np.ones(data.draw(st.integers(2, 3), label="lower columns")),
                                  n_configs)
            spec = SiciSpec(blocks, mech, lower_cpt=lower)
        else:
            spec = SiciSpec(blocks, mech, combiner=rng.integers(0, 2, n_configs).tolist())
        same = data.draw(st.booleans(), label="truth of the spec's shape")
        truth_cards = cards if same else data.draw(cards_st, label="truth cards")
        truth = random_cpt(rng, truth_cards, data.draw(st.integers(2, 3), label="child states"))

        def outcome(call):
            try:
                return call()
            except Exception as e:
                return type(e), str(e)

        counted = outcome(lambda: param_savings(spec, truth_cards, truth.child.cardinality)[0])
        fitted = outcome(lambda: evaluate_spec(truth, spec).free_params)
        assert counted == fitted


class TestEvaluateSpec:
    def test_dispatch_matches_direct_paths(self, anxiety, method_columns):
        result = evaluate_spec(anxiety, PruneSpec(0))
        assert np.abs(result.cpt.rows - method_columns["pruning"].rows).max() <= 5e-5 + 1e-12
        result = evaluate_spec(anxiety, DivorceSpec((1, 3), "AND", ((1,), (2,))))
        assert np.abs(result.cpt.rows - method_columns["divorcing"].rows).max() <= 5e-5 + 1e-12

    def test_scm_assignment_must_cover_every_row(self, anxiety):
        with pytest.raises(ShapeMismatchError, match="assignment covers 23 rows, CPT has 24"):
            evaluate_spec(anxiety, ScmSpec((0, 1) * 11 + (1,)))

    def test_covers_noisy_average_pici(self):
        # a PICI spec with 3-state mechanisms and a 3-state child scores through
        # the generic spec path exactly as pici_evaluate evaluates it
        rng = np.random.default_rng(21)
        cards, k = (2, 3, 2), 3
        truth = random_cpt(rng, cards, child_card=k)
        mech = [rng.random((c, k)) for c in cards]
        mech = [t / t.sum(axis=1, keepdims=True) for t in mech]
        lower = noisy_average_lower(len(cards), k)
        spec = SiciSpec(((0,), (1,), (2,)), mech, lower_cpt=lower)
        result = evaluate_spec(truth, spec)
        direct = pici_evaluate(truth.child, truth.parents, mech, lower)
        assert np.array_equal(result.cpt.rows, direct.rows)
        assert result.score == score_sum_tvd(truth, direct)
        free = sum(cards) * (k - 1) + k ** len(cards) * (k - 1)
        assert result.free_params == free
        assert param_savings(spec, cards, k) == (free, param_count(cards, k) - free)
