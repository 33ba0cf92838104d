"""Structural methods: grouping constructors, evaluators, savings accounting."""

import itertools
import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    ds_sici_evaluate,
    evaluate_spec,
    expand_grouped,
    fit_grouping,
    ici_evaluate,
    noisy_average_lower,
    noisy_or,
    noisy_or_closed_form,
    param_count,
    param_savings,
    pici_evaluate,
    prune_best,
    prune_groups,
    scm_fit,
    score_sum_tvd,
    us_sici_evaluate,
)
from cpt_refine.cpt import config_table
from cpt_refine.refine import _mech_config_products, canonical_partition
from cpt_refine.errors import ShapeMismatchError, ValidationError

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
            divorce_best(anxiety, block_size=4)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_independent_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        truth = random_cpt(rng, (2, 2, 2, 2))
        _, result = divorce_best(truth)
        assert result.score == pytest.approx(_divorce_oracle(truth), abs=1e-12)


class TestScmFit:
    def test_reference_split(self, anxiety):
        assignment = [0] * 24
        for row in (7, 8, 16, 19, 21, 22, 23, 24):
            assignment[row - 1] = 1
        result = scm_fit(anxiety, ScmSpec(tuple(assignment)))
        assert result.score == pytest.approx(1.2693, abs=2e-3)
        assert result.free_params == 2
        values = {round(p, 4) for p in result.cpt.rows[:, 0]}
        assert values == {0.7500, 0.9393}

    def test_noise_free_simple_and(self):
        # two binary causes, M = AND(x), P(Y=1|M=1)=1, P(Y=1|M=0)=0
        truth_rows = np.array([[1, 0], [1, 0], [1, 0], [0, 1]], dtype=float)
        truth = Cpt(BIN, binary_parents(2), truth_rows)
        assignment = tuple(int(k == 3) for k in range(4))
        result = scm_fit(truth, ScmSpec(assignment))
        assert result.score == 0.0
        assert np.array_equal(result.cpt.rows, truth_rows)

    def test_matches_direct_recomputation(self, anxiety):
        threshold = np.median(anxiety.rows[:, 0])
        assignment = tuple(int(p < threshold) for p in anxiety.rows[:, 0])
        result = scm_fit(anxiety, ScmSpec(assignment))
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
        cpt = ici_evaluate(BIN, binary_parents(3), noisy_or([0.0, 0.0, 0.0]))
        assert cpt.rows[-1, 1] == pytest.approx(1.0, abs=1e-15)

    def test_two_cause_product(self):
        cpt = ici_evaluate(BIN, binary_parents(2), noisy_or([0.2, 0.5]))
        assert cpt.rows[3, 0] == pytest.approx(0.10, abs=1e-12)

    def test_uniform_mechanisms_give_block_mass(self):
        # all mechanism probabilities 0.5: p(state0 | x) = a / 2^n where a
        # is the number of configurations the combiner maps to state 0
        mech = ((0.5, 0.5), (0.5, 0.5), (0.5, 0.5))
        combiner = (0, 0, 0, 1, 1, 1, 1, 1)
        cpt = ici_evaluate(BIN, binary_parents(3), IciSpec(mech, combiner))
        assert np.allclose(cpt.rows[:, 0], 3 / 8)

    def test_rejects_partial_combiner(self):
        with pytest.raises(ValidationError):
            IciSpec(((0.5, 0.5), (0.5, 0.5)), (0, 1, 1))

    def test_rejects_wide_child(self):
        wide = Variable("Y", ("a", "b", "c"))
        with pytest.raises(ValidationError):
            ici_evaluate(wide, binary_parents(2), noisy_or([0.1, 0.2]))


class TestNoisyOr:
    def test_zero_inhibition_is_deterministic_or(self):
        cpt = ici_evaluate(BIN, binary_parents(2), noisy_or([0.0, 0.0]))
        assert np.allclose(cpt.rows, [[1, 0], [0, 1], [0, 1], [0, 1]])

    def test_total_inhibition_pins_child_off(self):
        cpt = ici_evaluate(BIN, binary_parents(2), noisy_or([1.0, 1.0]))
        assert np.allclose(cpt.rows[:, 0], 1.0)

    def test_three_cause_product(self):
        cpt = ici_evaluate(BIN, binary_parents(3), noisy_or([0.1, 0.2, 0.3]))
        assert cpt.rows[-1, 0] == pytest.approx(0.006, abs=1e-12)

    @settings(max_examples=100)
    @given(
        probs=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=6
        )
    )
    def test_closed_form_equals_enumeration(self, probs):
        parents = binary_parents(len(probs))
        via_enum = ici_evaluate(BIN, parents, noisy_or(probs))
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
        tables = [rng.random((4, 5, k)) for k in cards]  # (population, rows, states)
        joint = _mech_config_products(tables)
        assert joint.shape == (4, 5, math.prod(cards))
        # configurations in mixed radix with mechanism 0 fastest, multiplied in mechanism order
        for j, config in enumerate(config_table(cards)):
            expected = np.ones((4, 5))
            for b, s in enumerate(config):
                expected = expected * tables[b][..., s]
            assert np.array_equal(joint[..., j], expected)


class TestPici:
    def test_indicator_lower_reduces_to_ici(self):
        rng = np.random.default_rng(5)
        cards = (2, 3)
        spec = _random_ici_spec(rng, cards)
        parents = (Variable("X0", ("a", "b")), Variable("X1", ("a", "b", "c")))
        lower = np.zeros((4, 2))
        lower[np.arange(4), list(spec.combiner)] = 1.0
        via_pici = pici_evaluate(BIN, parents, spec.mech_cpts, lower)
        via_ici = ici_evaluate(BIN, parents, spec)
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
        cpt = ds_sici_evaluate(child, parents, SiciSpec(partition, mech, lower_cpt=lower))
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
        sici_spec = SiciSpec(
            tuple((i,) for i in range(3)), ici_spec.mech_cpts, combiner=ici_spec.combiner
        )
        a = us_sici_evaluate(BIN, parents, sici_spec)
        b = ici_evaluate(BIN, parents, ici_spec)
        assert np.abs(a.rows - b.rows).max() <= 1e-12

    def test_single_block_is_stochastic_relabeling(self):
        rng = np.random.default_rng(10)
        parents = binary_parents(2)
        table = tuple(rng.random(4))
        spec = SiciSpec(((0, 1),), (table,), combiner=(0, 1))
        cpt = us_sici_evaluate(BIN, parents, spec)
        assert np.allclose(cpt.rows[:, 1], table)

    def test_indicator_lower_reduces_to_us(self):
        rng = np.random.default_rng(12)
        parents = binary_parents(3)
        partition = ((0, 2), (1,))
        mech = (tuple(rng.random(4)), tuple(rng.random(2)))
        combiner = (0, 1, 1, 0)
        lower = np.zeros((4, 2))
        lower[np.arange(4), combiner] = 1.0
        us = us_sici_evaluate(BIN, parents, SiciSpec(partition, mech, combiner=combiner))
        ds = ds_sici_evaluate(
            BIN, parents, SiciSpec(partition, mech, lower_cpt=tuple(map(tuple, lower)))
        )
        assert np.abs(us.rows - ds.rows).max() <= 1e-12

    def test_all_singletons_with_lower_equals_pici(self):
        rng = np.random.default_rng(13)
        parents = binary_parents(2)
        mech = (tuple(rng.random(2)), tuple(rng.random(2)))
        lower = rng.random((4, 2))
        lower /= lower.sum(axis=1, keepdims=True)
        ds = ds_sici_evaluate(
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
        cpt = us_sici_evaluate(BIN, binary_parents(2), spec)
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
            us_sici_evaluate(BIN, binary_parents(2), spec)

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
        cpt = us_sici_evaluate(BIN, parents, SiciSpec(partition, mech, combiner=combiner))
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


class TestEvaluateSpec:
    def test_dispatch_matches_direct_paths(self, anxiety, method_columns):
        result = evaluate_spec(anxiety, PruneSpec(0))
        assert np.abs(result.cpt.rows - method_columns["pruning"].rows).max() <= 5e-5 + 1e-12
        result = evaluate_spec(anxiety, DivorceSpec((1, 3), "AND", ((1,), (2,))))
        assert np.abs(result.cpt.rows - method_columns["divorcing"].rows).max() <= 5e-5 + 1e-12

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
