"""Search machinery: enumerations, the SCM searches, ICI/SICI coordinate descent, the GA."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt_refine import (
    Cpt,
    GaConfig,
    GenomeShape,
    ScmSpec,
    SiciSpec,
    Variable,
    divorce_best,
    enumerate_bipartitions,
    enumerate_set_partitions,
    evaluate_spec,
    ga_optimize,
    noisy_or,
    optimize_ici,
    optimize_sici,
    optimize_sici_partition,
    prune_best,
    scm_bruteforce,
    scm_exact,
    sici_evaluate,
)
from cpt_refine import optimizer
from cpt_refine.cpt import config_table
from cpt_refine.errors import SearchSpaceError, ShapeMismatchError, ValidationError
from cpt_refine.refine import _binary_states, _mech_joint

from conftest import random_cpt

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}
BIN = Variable("Y", ("n", "y"))


class TestEnumerateBipartitions:
    def test_two_items(self):
        assert list(enumerate_bipartitions(2)) == [((0,), (1,))]

    def test_four_items_explicit(self):
        got = {(a, b) for a, b in enumerate_bipartitions(4)}
        expected = {
            ((0, 2, 3), (1,)),
            ((0, 1, 3), (2,)),
            ((0, 3), (1, 2)),
            ((0, 1, 2), (3,)),
            ((0, 2), (1, 3)),
            ((0, 1), (2, 3)),
            ((0,), (1, 2, 3)),
        }
        assert got == expected

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 12, 16])
    def test_count_and_uniqueness(self, k):
        seen = set()
        count = 0
        for a, b in enumerate_bipartitions(k):
            assert sorted(a + b) == list(range(k))
            assert a and b
            seen.add(frozenset((frozenset(a), frozenset(b))))
            count += 1
        assert count == 2 ** (k - 1) - 1
        assert len(seen) == count  # no duplicates even under block swap

    def test_guards(self):
        with pytest.raises(SearchSpaceError):
            list(enumerate_bipartitions(1))
        with pytest.raises(SearchSpaceError):
            list(enumerate_bipartitions(31))


class TestEnumerateSetPartitions:
    def test_single_item(self):
        assert list(enumerate_set_partitions(1)) == [((0,),)]

    def test_three_items_explicit(self):
        got = list(enumerate_set_partitions(3))
        assert len(got) == 5
        as_sets = {frozenset(frozenset(b) for b in p) for p in got}
        assert frozenset({frozenset({0, 1, 2})}) in as_sets
        assert frozenset({frozenset({0}), frozenset({1}), frozenset({2})}) in as_sets

    @pytest.mark.parametrize("n", sorted(BELL))
    def test_bell_counts_validity_and_uniqueness(self, n):
        seen = set()
        for p in enumerate_set_partitions(n):
            flat = sorted(i for b in p for i in b)
            assert flat == list(range(n))
            seen.add(frozenset(frozenset(b) for b in p))
        assert len(seen) == BELL[n]

    def test_guards(self):
        with pytest.raises(SearchSpaceError):
            list(enumerate_set_partitions(0))
        with pytest.raises(SearchSpaceError):
            list(enumerate_set_partitions(13))


class TestScmBruteforce:
    def test_recovers_realizable_bipartition(self):
        child = Variable("Y", ("n", "y"))
        parent = Variable("X", tuple(f"s{i}" for i in range(8)))
        rows = np.array([[0.9, 0.1]] * 5 + [[0.2, 0.8]] * 3)
        truth = Cpt(child, (parent,), rows)
        result = scm_bruteforce(truth)
        assert result.best_score <= 1e-12
        assert sorted((result.best_spec.assignment.count(0), result.best_spec.assignment.count(1))) == [3, 5]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        truth = random_cpt(rng, (8,))
        result = scm_bruteforce(truth)
        oracle = math.inf
        for block_a, block_b in enumerate_bipartitions(truth.n_rows):
            assignment = [0] * truth.n_rows
            for r in block_b:
                assignment[r] = 1
            oracle = min(oracle, evaluate_spec(truth, ScmSpec(tuple(assignment))).score)
        assert result.best_score == pytest.approx(oracle, abs=1e-12)

    def test_never_beaten_by_random_bipartitions(self):
        rng = np.random.default_rng(99)
        truth = random_cpt(rng, (2, 5))
        best = scm_bruteforce(truth).best_score
        for _ in range(1000):
            assignment = rng.integers(0, 2, size=truth.n_rows)
            if assignment.min() == assignment.max():
                continue
            assert best <= evaluate_spec(truth, ScmSpec(tuple(assignment))).score + 1e-12

    def test_progress_callback_runs(self):
        rng = np.random.default_rng(1)
        truth = random_cpt(rng, (2, 2, 2, 2))
        calls = []
        scm_bruteforce(truth, on_progress=lambda done, best: calls.append((done, best)))
        assert calls and calls[-1][0] == 2 ** 15 - 1

    def test_row_guard(self):
        rng = np.random.default_rng(2)
        truth = random_cpt(rng, (31,))
        with pytest.raises(SearchSpaceError):
            scm_bruteforce(truth)

    def test_binary_child_required(self):
        rng = np.random.default_rng(3)
        truth = random_cpt(rng, (2, 2), child_card=3)
        with pytest.raises(ValidationError):
            scm_bruteforce(truth)


def _one_parent_truth(p_no: np.ndarray) -> Cpt:
    parent = Variable("X", tuple(f"s{i}" for i in range(len(p_no))))
    return Cpt(BIN, (parent,), np.column_stack([p_no, 1.0 - p_no]))


class TestScmExact:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=14),
        repeated=st.booleans(),
    )
    def test_matches_bruteforce_oracle(self, seed, n, repeated):
        p_no = np.random.default_rng(seed).random(n)
        if repeated:
            p_no = np.round(p_no, 1)  # repeated values, so optima can tie
        truth = _one_parent_truth(p_no)
        exact = scm_exact(truth)
        oracle = scm_bruteforce(truth)
        assert exact.best_score == pytest.approx(oracle.best_score, abs=1e-12)
        if not repeated:
            assert exact.best_spec == oracle.best_spec
        assert exact.evaluations == n - 1
        assert exact.best_score == evaluate_spec(truth, exact.best_spec).score
        assert exact.best_spec.assignment[0] == 0

    def test_reference_optimum_on_benchmark(self, anxiety):
        result = scm_exact(anxiety)
        assert f"{result.best_score:.4f}" == "1.2693"
        assignment = result.best_spec.assignment
        assert (assignment.count(0), assignment.count(1)) == (16, 8)

    def test_sizes_beyond_the_bruteforce_guard(self):
        rng = np.random.default_rng(99)
        truth = random_cpt(rng, (8, 25))
        t0 = time.perf_counter()
        result = scm_exact(truth)
        assert time.perf_counter() - t0 < 1.0
        assert result.evaluations == 199
        for _ in range(1000):
            assignment = rng.integers(0, 2, size=truth.n_rows)
            if assignment.min() == assignment.max():
                continue
            assert result.best_score <= evaluate_spec(truth, ScmSpec(tuple(assignment))).score + 1e-12

    def test_binary_child_required(self):
        truth = random_cpt(np.random.default_rng(3), (2, 2), child_card=3)
        with pytest.raises(ValidationError):
            scm_exact(truth)

    def test_single_row_rejected(self):
        with pytest.raises(ValidationError, match="at least 2 rows"):
            scm_exact(Cpt(BIN, (), np.array([[0.3, 0.7]])))


class TestGaOptimize:
    def test_converges_on_separable_objective(self):
        # minimum 0 at all genes 0.5; must get within 1e-3 inside 200 generations
        shape = GenomeShape(combiner_configs=1, reals=6)
        fitness = lambda pop: np.abs(pop - 0.5).sum(axis=1)
        config = GaConfig(max_generations=200, stall_limit=200, seed=5, restarts=1)
        result = ga_optimize(fitness, shape, config)
        assert result.best_score <= 1e-3
        assert result.generations_run <= 200

    def test_sphere_reaches_boundary_optimum(self):
        shape = GenomeShape(combiner_configs=1, reals=9)
        fitness = lambda pop: (pop**2).sum(axis=1)
        result = ga_optimize(fitness, shape, GaConfig(seed=11))
        assert result.best_score <= 1e-3

    def test_same_seed_is_bitwise_identical(self):
        shape = GenomeShape(combiner_configs=4, reals=5)
        fitness = lambda pop: (pop[:, 3:] ** 2).sum(axis=1) + 0.1 * (pop[:, :3] >= 0.5).sum(axis=1)
        config = GaConfig(population=60, max_generations=40, stall_limit=40, seed=123, restarts=2)
        a = ga_optimize(fitness, shape, config)
        b = ga_optimize(fitness, shape, config)
        assert a.best_score == b.best_score
        assert a.best_spec.integer_part == b.best_spec.integer_part
        assert np.array_equal(a.best_spec.real_part, b.best_spec.real_part)
        assert (a.evaluations, a.seed_used, a.generations_run) == (
            b.evaluations,
            b.seed_used,
            b.generations_run,
        )

    def test_best_so_far_is_monotone(self):
        shape = GenomeShape(combiner_configs=1, reals=4)
        fitness = lambda pop: np.abs(pop - 0.25).sum(axis=1)
        history = []
        config = GaConfig(population=40, max_generations=60, stall_limit=60, seed=2, restarts=1)
        ga_optimize(fitness, shape, config, on_progress=lambda evals, best: history.append(best))
        assert history == sorted(history, reverse=True)

    def test_decoded_genome_pins_first_config(self):
        shape = GenomeShape(combiner_configs=8, reals=2)
        genome = shape.decode(np.linspace(0.05, 0.95, shape.n_genes))
        assert genome.integer_part[0] == 0
        assert len(genome.integer_part) == 8
        assert genome.real_part.shape == (2,)

    def test_decoded_combiner_uses_the_fitness_threshold(self):
        # the batch fitness maps a combiner gene v to state 1 exactly when v >= 0.5
        shape = GenomeShape(combiner_configs=6, reals=0)
        genome = shape.decode(np.array([0.0, np.nextafter(0.5, 0.0), 0.5, 0.75, 1.0]))
        assert genome.integer_part == (0, 0, 0, 1, 1, 1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            GaConfig(population=1)
        with pytest.raises(ValidationError):
            GaConfig(seed=-1)
        with pytest.raises(ValidationError):
            GaConfig(stall_limit=0)


def _ici_two_parent_oracle(truth: Cpt, steps: int = 801) -> float:
    """Independent optimum for a 2-parent binary ICI model.

    Enumerates every combiner with configuration (0,0) pinned to state 0 and
    grids the first parent's two mechanism probabilities; for fixed values
    the objective is separable and piecewise linear in the second parent's
    probabilities, so those are minimised exactly over breakpoints.
    """
    t = truth.rows[:, 1].reshape(2, 2)
    a = np.linspace(0.0, 1.0, steps)
    grid_a0, grid_a1 = np.meshgrid(a, a, indexing="ij")
    best = math.inf
    for fbits in range(1, 8):
        f = np.array([0, fbits & 1, (fbits >> 1) & 1, (fbits >> 2) & 1])
        total = np.zeros_like(grid_a0)
        for x1 in range(2):
            cs, ds = [], []
            for grid in (grid_a0, grid_a1):
                s0 = f[0] * (1 - grid) + f[1] * grid
                s1 = f[2] * (1 - grid) + f[3] * grid
                cs.append(s0)
                ds.append(s1 - s0)
            candidates = [np.zeros_like(grid_a0), np.ones_like(grid_a0)]
            for cx, dx, tx in ((cs[0], ds[0], t[0, x1]), (cs[1], ds[1], t[1, x1])):
                with np.errstate(divide="ignore", invalid="ignore"):
                    z = np.where(np.abs(dx) > 1e-15, (tx - cx) / dx, 0.5)
                candidates.append(np.clip(z, 0.0, 1.0))
            g_best = np.full_like(grid_a0, math.inf)
            for b in candidates:
                val = np.abs(cs[0] + ds[0] * b - t[0, x1]) + np.abs(cs[1] + ds[1] * b - t[1, x1])
                g_best = np.minimum(g_best, val)
            total += g_best
        best = min(best, float(total.min()))
    return best


def _bin_parents(n):
    return tuple(Variable(f"X{i}", ("off", "on")) for i in range(n))


class TestOptimizeIci:
    def test_matches_grid_oracle_on_two_parents(self):
        rng = np.random.default_rng(424242)
        truth = random_cpt(rng, (2, 2))
        result = optimize_ici(truth, GaConfig(population=150, restarts=6, seed=77))
        oracle = _ici_two_parent_oracle(truth)
        assert abs(result.best_score - oracle) <= 5e-3

    def test_recovers_realizable_noisy_or(self):
        truth = sici_evaluate(BIN, _bin_parents(3), noisy_or([0.3, 0.5, 0.2]))
        result = optimize_ici(truth, GaConfig(seed=0))
        assert result.best_score <= 1e-3

    def test_free_parameter_count(self):
        rng = np.random.default_rng(8)
        truth = random_cpt(rng, (2, 3))
        result = optimize_ici(truth, GaConfig(population=40, max_generations=30, restarts=1, seed=1))
        from cpt_refine import param_savings

        assert param_savings(result.best_spec, (2, 3), 2)[0] == 5

    def test_binary_child_required(self):
        rng = np.random.default_rng(9)
        truth = random_cpt(rng, (2, 2), child_card=3)
        with pytest.raises(ValidationError):
            optimize_ici(truth, GaConfig(seed=0, population=10, max_generations=2, restarts=1))


class TestOptimizeSici:
    def test_singleton_partition_equals_ici_run(self):
        rng = np.random.default_rng(10)
        truth = random_cpt(rng, (2, 2, 2))
        config = GaConfig(population=80, max_generations=60, stall_limit=60, seed=3, restarts=2)
        via_ici = optimize_ici(truth, config)
        via_sici = optimize_sici_partition(truth, ((0,), (1,), (2,)), config)
        assert via_ici.best_score == via_sici.best_score
        assert via_ici.best_spec.combiner == via_sici.best_spec.combiner
        assert via_ici.best_spec.mech_cpts == via_sici.best_spec.mech_cpts

    def test_reported_score_equals_rescoring(self, anxiety):
        # the descent's own readout of P(Y=1) differs from re-scoring in the last bits
        config = GaConfig(population=40, max_generations=30, restarts=1, seed=0)
        reported = [
            (anxiety, result.best_spec, result.best_score, result.fit)
            for result in (
                optimize_ici(anxiety, config),
                optimize_sici_partition(anxiety, ((0,), (1, 2, 3)), config),
                scm_exact(anxiety),
            )
        ]
        # the grouping searches, also on a table with a 3-state child
        three_state = random_cpt(np.random.default_rng(15), (3, 2, 2), child_card=3)
        for truth in (anxiety, three_state):
            for spec, fit in (prune_best(truth), divorce_best(truth)):
                reported.append((truth, spec, fit.score, fit))
        for truth, spec, score, fit in reported:
            rescored = evaluate_spec(truth, spec)
            assert score == rescored.score
            # the search hands its fit on, so callers need not fit the spec again
            assert fit.score == rescored.score
            assert fit.free_params == rescored.free_params
            assert fit.cpt.rows.tobytes() == rescored.cpt.rows.tobytes()

    def test_recovers_realizable_us_sici(self):
        parents = _bin_parents(3)
        partition = ((0, 2), (1,))
        spec = SiciSpec(
            partition,
            ((0.05, 0.4, 0.7, 0.95), (0.2, 0.9)),
            combiner=(0, 1, 1, 1),
        )
        truth = sici_evaluate(BIN, parents, spec)
        result = optimize_sici_partition(truth, partition, GaConfig(seed=0))
        assert result.best_score <= 1e-3

    def test_sweep_covers_all_multiblock_partitions(self):
        rng = np.random.default_rng(12)
        truth = random_cpt(rng, (2, 2, 2))
        config = GaConfig(population=40, max_generations=25, stall_limit=25, seed=4, restarts=1)
        sweep = optimize_sici(truth, config)
        assert len(sweep.results) == BELL[3] - 1  # single-block partition skipped
        partitions = {r.best_spec.parent_partition for r in sweep.results}
        assert ((0,), (1,), (2,)) in partitions
        assert ((0, 1), (2,)) in partitions
        assert all(len(p) > 1 for p in partitions)
        assert sweep.best.best_score == min(r.best_score for r in sweep.results)

    def test_sweep_is_seed_deterministic(self):
        rng = np.random.default_rng(13)
        truth = random_cpt(rng, (2, 2))
        config = GaConfig(population=30, max_generations=20, stall_limit=20, seed=9, restarts=2)
        a = optimize_sici(truth, config)
        b = optimize_sici(truth, config)
        assert [r.best_score for r in a.results] == [r.best_score for r in b.results]

    def test_sweep_reports_each_partition_in_order(self):
        rng = np.random.default_rng(14)
        truth = random_cpt(rng, (2, 2, 2))
        config = GaConfig(population=30, max_generations=15, stall_limit=15, seed=6, restarts=1)
        calls = []
        sweep = optimize_sici(truth, config, lambda *args: calls.append(args))
        scores = [r.best_score for r in sweep.results]
        n = len(scores)
        assert n == 4
        assert calls == [(done, n, min(scores[:done])) for done in range(1, n + 1)]
        assert sweep.best is sweep.results[scores.index(min(scores))]  # first minimum

    def test_partial_partition_rejected_before_searching(self, anxiety, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran on a partition that does not cover the parents")

        monkeypatch.setattr(optimizer, "_descend", no_search)
        config = GaConfig(population=10, restarts=1)
        for partition in (((1,),), ((0, 1), (2,))):
            with pytest.raises(ShapeMismatchError, match="cover exactly the parents"):
                optimize_sici_partition(anxiety, partition, config)

    def test_one_block_rejected_before_searching(self, anxiety, monkeypatch):
        # one block is the full CPT behind a combiner; the descent flipped that
        # combiner's free bit to 0 and ended at the constant model, 3.3887 on
        # Anxiety where the same structure fits exactly
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran on a one-block partition")

        monkeypatch.setattr(optimizer, "_descend", no_search)
        config = GaConfig(population=10, restarts=1)
        with pytest.raises(ValidationError, match="at least 2 parent blocks, got 1"):
            optimize_sici_partition(anxiety, ((0, 1, 2, 3),), config)
        one_parent = random_cpt(np.random.default_rng(3), (3,))
        with pytest.raises(ValidationError, match="at least 2 parent blocks, got 1"):
            optimize_ici(one_parent, config)


class TestSearchSpaceGuards:
    """Every ICI/SICI search refuses more than 8 parent blocks before it searches."""

    @pytest.fixture(params=[9, 13])
    def many_parents(self, request, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran past the search-space guard")

        monkeypatch.setattr(optimizer, "_descend", no_search)
        n = request.param
        return Cpt(BIN, _bin_parents(n), np.full((1 << n, 2), 0.5))

    def test_ici(self, many_parents):
        with pytest.raises(SearchSpaceError):
            optimize_ici(many_parents, GaConfig(restarts=1))

    def test_sici_sweep(self, many_parents):
        with pytest.raises(SearchSpaceError):
            optimize_sici(many_parents, GaConfig(restarts=1))

    def test_sici_partition_of_singletons(self, many_parents):
        n = len(many_parents.parents)
        singletons = tuple((i,) for i in range(n))
        with pytest.raises(SearchSpaceError, match=f"{n} parent blocks, more than the 8 supported"):
            optimize_sici_partition(many_parents, singletons, GaConfig(restarts=1))


class TestBatchStateGuard:
    """A search refuses a batch whose own state exceeds ``_MAX_BATCH_VALUES``, before
    it allocates any of it."""

    def test_limit_is_inclusive(self, anxiety, monkeypatch):
        # Anxiety's ICI holds 49 values per start: 24 rows, 9 mechanism
        # parameters and 16 combiner entries
        monkeypatch.setattr(optimizer, "_MAX_BATCH_VALUES", 49 * 40)
        config = GaConfig(population=40, max_generations=2, restarts=1)
        assert optimize_ici(anxiety, config).evaluations > 0
        with pytest.raises(SearchSpaceError, match="41 starts holds 2009 values"):
            optimize_ici(anxiety, GaConfig(population=41, max_generations=2, restarts=1))

    def test_refused_before_any_start_is_drawn(self, anxiety, monkeypatch):
        def no_starts(*args, **kwargs):
            raise AssertionError("starts were drawn past the batch guard")

        monkeypatch.setattr(optimizer, "_random_starts", no_starts)
        with pytest.raises(SearchSpaceError, match="more than the 67108864 supported"):
            optimize_sici(anxiety, GaConfig(population=10**12, restarts=1))


def _random_structure(rng, n_parents=None):
    """A random binary-child truth of ``n_parents`` parents (2-3 if None) of 2-3 states,
    a random partition of its parents and the descent's view of that structure."""
    n = int(rng.integers(2, 4)) if n_parents is None else n_parents
    cards = tuple(int(c) for c in rng.integers(2, 4, size=n))
    truth = random_cpt(rng, cards)
    labels = rng.integers(0, len(cards), size=len(cards))
    partition = tuple(tuple(np.flatnonzero(labels == g)) for g in np.unique(labels))
    return truth, partition, optimizer._Structure.of(truth, partition)


def _model_yes(truth, partition, mech, comb):
    """P(Y=1) per row of one start's parameters, from the spec evaluator."""
    spec = SiciSpec(partition, mech, combiner=comb.astype(int).tolist())
    return sici_evaluate(truth.child, truth.parents, spec).rows[:, 1]


def _check_consistent(truth, partition, starts):
    """Each start's P(Y=1) is its model's, and its score is the sum of |P(Y=1) - t|."""
    t = truth.rows[:, 1]
    for s in range(len(starts.score)):
        model = _model_yes(truth, partition, [m[:, s] for m in starts.mech], starts.comb[:, s])
        assert np.abs(starts.p_yes[:, s] - model).max() <= 1e-12
        assert starts.score[s] == pytest.approx(np.abs(model - t).sum(), abs=1e-12)
    assert np.all(starts.comb[0] == 0.0)


class TestCoordinateDescent:
    def test_block_step_attains_the_grid_minimum(self):
        rng = np.random.default_rng(2024)
        grid = np.linspace(0.0, 1.0, 10_001)
        for _ in range(12):
            truth, partition, structure = _random_structure(rng)
            t = truth.rows[:, 1]
            starts = optimizer._random_starts(structure, rng, 4)
            for b, block in enumerate(structure.rows):
                # P(Y=1) is affine in block b's parameters: read it at all-0 and all-1
                oracle = []
                for s in range(4):
                    mech = [m[:, s].copy() for m in starts.mech]
                    ends = []
                    for value in (0.0, 1.0):
                        mech[b][:] = value
                        ends.append(_model_yes(truth, partition, mech, starts.comb[:, s]))
                    slope = ends[1] - ends[0]
                    total = 0.0
                    for c in range(structure.sizes[b]):
                        r = block == c
                        fitted = ends[0][r] + grid[:, None] * slope[r]
                        total += np.abs(fitted - t[r]).sum(axis=1).min()
                    oracle.append(total)
                optimizer._fit_block(structure, starts, b)
                # the grid spacing bounds how far its minimum can sit above the exact one
                slack = truth.n_rows * (grid[1] - grid[0]) / 2
                assert np.all(starts.score <= np.array(oracle) + 1e-12)
                assert np.all(starts.score >= np.array(oracle) - slack)
                _check_consistent(truth, partition, starts)

    def test_flip_step_never_raises_and_ends_without_an_improving_flip(self):
        rng = np.random.default_rng(77)
        for _ in range(12):
            truth, partition, structure = _random_structure(rng)
            t = truth.rows[:, 1]
            starts = optimizer._random_starts(structure, rng, 6)
            before = starts.score.copy()
            evaluations = optimizer._flip_combiner(structure, starts)
            assert np.all(starts.score <= before)
            assert evaluations >= 6 * (len(starts.comb) - 1)
            _check_consistent(truth, partition, starts)
            for s in range(6):
                mech = [m[:, s] for m in starts.mech]
                for j in range(1, len(starts.comb)):
                    flipped = starts.comb[:, s].copy()
                    flipped[j] = 1.0 - flipped[j]
                    score = np.abs(_model_yes(truth, partition, mech, flipped) - t).sum()
                    assert score >= starts.score[s] - 1e-12

    @pytest.mark.parametrize("parents", [(2, 3), (2, 2, 3)])
    def test_best_score_never_rises_between_sweeps(self, parents):
        truth = random_cpt(np.random.default_rng(5), parents)
        singletons = tuple((i,) for i in range(len(parents)))
        history = []
        config = GaConfig(population=20, restarts=1, seed=3)
        result = optimize_sici_partition(
            truth, singletons, config, on_progress=lambda evals, best: history.append(best)
        )
        assert len(history) == result.generations_run >= 2
        assert history == sorted(history, reverse=True)
        # every sweep but the last lowers the best by at least the floor; the
        # first that does not ends the batch
        floor = optimizer._MIN_SWEEP_GAIN
        assert all(later <= earlier - floor for earlier, later in zip(history, history[1:-1]))
        assert history[-1] >= history[-2] - floor
        assert result.best_score == pytest.approx(history[-1], abs=1e-12)

    def test_gain_floor_cuts_the_converging_tail(self, monkeypatch):
        # on this case the gains shrink geometrically: a strict-decrease rule
        # sweeps 24 times for a score less than 1e-6 lower
        truth = random_cpt(np.random.default_rng(2), (2, 3, 3))
        singletons = ((0,), (1,), (2,))
        config = GaConfig(population=100, restarts=1, seed=2)
        floored = optimize_sici_partition(truth, singletons, config)
        monkeypatch.setattr(optimizer, "_MIN_SWEEP_GAIN", 0.0)
        strict = optimize_sici_partition(truth, singletons, config)
        assert floored.generations_run * 2 < strict.generations_run
        assert strict.best_score <= floored.best_score < strict.best_score + 1e-5

    def test_sweep_cap_ends_each_batch(self):
        truth = random_cpt(np.random.default_rng(6), (2, 2, 3))
        config = GaConfig(population=20, max_generations=1, restarts=3, seed=1)
        result = optimize_sici_partition(truth, ((0,), (1, 2)), config)
        assert result.generations_run == 3

    @pytest.mark.parametrize("case", range(6))
    def test_each_start_ends_where_it_ends_swept_alone(self, case, monkeypatch):
        # the batch drops starts at fixed points and sweeps the rest in chunks of
        # three, so a chunk may hold a lone start; neither may change any start.
        # With a gain floor of -inf a batch sweeps on until every start is
        # fixed or the cap ends it.
        rng = np.random.default_rng(300 + case)
        truth, partition, structure = _random_structure(rng)
        chunk = (3 * truth.n_rows) << len(partition)
        monkeypatch.setattr(optimizer, "_DESCENT_CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(optimizer, "_MIN_SWEEP_GAIN", -math.inf)
        config = GaConfig(population=40, max_generations=30, restarts=1)
        batch, sweeps, evaluations = optimizer._descend(structure, config, case, 0, None)
        initial = optimizer._random_starts(structure, np.random.default_rng(case), 40)
        lone_evaluations = 40
        for s in range(40):
            # held twice, as the descent holds a lone start (see _wide)
            alone = initial.take(np.array([s, s]))
            for _ in range(sweeps):
                lone_evaluations += optimizer._sweep(structure, alone) // 2
            for got, want in zip(batch.mech, alone.mech):
                assert got[:, s].tobytes() == want[:, 0].tobytes()
            assert batch.comb[:, s].tobytes() == alone.comb[:, 0].tobytes()
            assert batch.p_yes[:, s].tobytes() == alone.p_yes[:, 0].tobytes()
            assert batch.score[s].tobytes() == alone.score[0].tobytes()
        # starts left the batch on the way: it computed fewer scores than the lone sweeps
        assert evaluations < lone_evaluations

    def test_chunk_budget_does_not_change_results(self, anxiety, monkeypatch):
        config = GaConfig(population=60, restarts=2, seed=5)
        truth = random_cpt(np.random.default_rng(7), (3, 2, 3))
        searches = (
            lambda: optimize_ici(anxiety, config),
            lambda: optimize_sici_partition(anxiety, ((0, 3), (1, 2)), config),
            lambda: optimize_sici_partition(truth, ((0, 2), (1,)), config),
        )
        whole = [search() for search in searches]
        # every chunk a lone start
        monkeypatch.setattr(optimizer, "_DESCENT_CHUNK_ELEMENTS", 1)
        for search, want in zip(searches, whole):
            got = search()
            assert got.best_spec == want.best_spec
            assert got.best_score == want.best_score
            assert (got.evaluations, got.seed_used, got.generations_run) == (
                want.evaluations,
                want.seed_used,
                want.generations_run,
            )

    def test_batch_set_up_keeps_the_chunk_budget(self, monkeypatch):
        # built whole, the batch's (64, 64, 300) joint takes 9.4 MiB per copy
        truth = random_cpt(np.random.default_rng(16), (2,) * 6)
        structure = optimizer._Structure.of(truth, [(i,) for i in range(6)])
        tracemalloc.start()
        try:
            chunked = optimizer._random_starts(structure, np.random.default_rng(0), 300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20
        # and the chunks give the bits of one chunk
        monkeypatch.setattr(optimizer, "_DESCENT_CHUNK_ELEMENTS", 1 << 30)
        whole = optimizer._random_starts(structure, np.random.default_rng(0), 300)
        assert chunked.p_yes.tobytes() == whole.p_yes.tobytes()
        assert chunked.score.tobytes() == whole.score.tobytes()

    def test_same_seed_gives_bitwise_equal_specs(self, anxiety):
        config = GaConfig(population=50, restarts=3, seed=11)
        for search in (
            lambda: optimize_ici(anxiety, config),
            lambda: optimize_sici_partition(anxiety, ((0, 3), (1,), (2,)), config),
        ):
            a, b = search(), search()
            assert a.best_spec == b.best_spec
            assert a.best_score == b.best_score
            assert (a.evaluations, a.seed_used, a.generations_run) == (
                b.evaluations,
                b.seed_used,
                b.generations_run,
            )


# The descent kernels before the flat-index median and the one-buffer flip scoring,
# and the joint they read, which built block b's refit over every row, kept
# verbatim (but for their names) as the oracle of the current ones.
_Structure, _Starts = optimizer._Structure, optimizer._Starts
_wide = optimizer._wide


def _joint(structure: _Structure, mech, skip: int = -1) -> np.ndarray:
    """(2^m, rows, starts) mechanism-configuration probabilities, leaving out block ``skip``."""
    keep = [b for b in range(len(mech)) if b != skip]
    return _mech_joint([_binary_states(mech[b]) for b in keep], [structure.rows[b] for b in keep])


def _reference_flip_combiner(structure: _Structure, starts: _Starts) -> int:
    """Apply each start's best improving single-bit combiner flip until none improves.

    Every flip of every still-improving start is scored at once; configuration 0
    stays pinned. ``starts`` holds at least two columns (see :func:`_wide`).
    Returns the number of candidate scores computed.
    """
    # (2^m - 1, rows, starts): the P(Y = 1) mass each flippable configuration
    # moves, for the columns _wide(active)
    moves = _joint(structure, starts.mech)[1:]
    active = np.arange(len(starts.score))
    evaluations = 0
    while active.size:
        cols = _wide(active)
        sign = 1.0 - 2.0 * np.take(starts.comb[1:], cols, axis=1)
        cand = np.take(starts.p_yes, cols, axis=1) + sign[:, None, :] * moves
        dev = np.subtract(cand, structure.t_yes)
        scores = np.abs(dev, out=dev).sum(axis=1)
        evaluations += len(scores) * active.size
        at = np.arange(active.size)
        j = np.argmin(scores, axis=0)[at]
        improves = scores[j, at] < starts.score[active]
        at, j, active = at[improves], j[improves], active[improves]
        starts.comb[j + 1, active] = 1.0 - starts.comb[j + 1, active]
        starts.p_yes[:, active] = cand[j, :, at].T
        starts.score[active] = scores[j, at]
        moves = np.take(moves, _wide(at), axis=2)
    return evaluations


def _reference_fit_block(structure: _Structure, starts: _Starts, b: int) -> int:
    """Refit block b's mechanism probabilities exactly, every other parameter fixed.

    Each row reads one parameter theta of block b, and its P(Y = 1) is
    a * theta + d, where a and d come from the other blocks' joint and the
    combiner's two halves over block b's mechanism state. The parameters
    separate, and each one's least-absolute-deviation optimum over [0, 1] is
    the lower weighted median of clip((t - d) / a, 0, 1), weights |a|, over
    the rows that read it. A parameter read only by rows with a = 0 keeps its
    value; a start keeps its old block if the refit would raise its score.
    Returns the number of candidate scores computed.
    """
    n_rows, n = starts.p_yes.shape
    t = structure.t_yes
    joint = _joint(structure, starts.mech, skip=b)
    halves = starts.comb.reshape(-1, 2, 1 << b, n)
    off = halves[:, 0].reshape(-1, 1, n)
    on = halves[:, 1].reshape(-1, 1, n)
    # with b the only block the other blocks' joint is the (1, 1) empty product
    d = np.broadcast_to((joint * off).sum(axis=0), (n_rows, n))
    a = np.broadcast_to((joint * (on - off)).sum(axis=0), (n_rows, n))
    z = np.clip(np.divide(t - d, a, out=np.zeros((n_rows, n)), where=a != 0), 0.0, 1.0)

    # every configuration of the block is read by the same number of rows
    group = (structure.sizes[b], -1, n)
    rows = structure.by_config[b]
    z, w = z[rows].reshape(group), np.abs(a)[rows].reshape(group)
    order = np.argsort(z, axis=1, kind="stable")
    cum_w = np.take_along_axis(w, order, axis=1).cumsum(axis=1)
    total = cum_w[:, -1:]
    lower = np.argmax(2.0 * cum_w >= total, axis=1)[:, None]
    median = np.take_along_axis(np.take_along_axis(z, order, axis=1), lower, axis=1)
    theta = np.where(total > 0.0, median, starts.mech[b][:, None])[:, 0]

    p_yes = a * theta[structure.rows[b]] + d
    score = np.abs(p_yes - t).sum(axis=0)
    take = score <= starts.score
    starts.mech[b][:, take] = theta[:, take]
    starts.p_yes[:, take] = p_yes[:, take]
    starts.score[take] = score[take]
    return n


def _with_state(structure, mech, comb):
    """Starts with these mechanism and combiner tables and the P(Y=1) and scores they give."""
    p_yes = (optimizer._joint(structure, mech) * comb[:, None, :]).sum(axis=0)
    return optimizer._Starts(mech, comb, p_yes, np.abs(p_yes - structure.t_yes).sum(axis=0))


def _kernel_cases():
    """(name, structure, starts) on which the kernels must agree with the reference."""
    rng = np.random.default_rng(1717)
    for i in range(16):
        truth, partition, structure = _random_structure(rng)
        yield f"random{i}", structure, optimizer._random_starts(structure, rng, 7)
    truth, partition, structure = _random_structure(rng)
    starts = optimizer._random_starts(structure, rng, 5)
    yield "lone start held twice", structure, starts.take(optimizer._wide(np.array([3])))
    # P(Y=1) of 0, 1/2 or 1 and parameters on a grid of quarters: many equal z,
    # among them the clipped ones with different weights
    yes = rng.choice([0.0, 0.5, 1.0], size=6)
    parents = (*_bin_parents(1), Variable("X1", ("a", "b", "c")))
    truth = Cpt(BIN, parents, np.column_stack([1.0 - yes, yes]))
    for partition in (((0,), (1,)), ((0, 1),)):
        structure = optimizer._Structure.of(truth, partition)
        starts = optimizer._random_starts(structure, rng, 9)
        mech = [np.round(m * 4.0) / 4.0 for m in starts.mech]
        yield f"tied z {partition}", structure, _with_state(structure, mech, starts.comb)
    # a constant combiner, and parameters of exactly 0 or 1: rows with a = 0
    truth, partition, structure = _random_structure(rng)
    starts = optimizer._random_starts(structure, rng, 8)
    comb = starts.comb.copy()
    comb[:, :3] = 0.0
    mech = [m.copy() for m in starts.mech]
    for m in mech:
        m[:, 3:6] = np.round(m[:, 3:6])
    yield "a = 0", structure, _with_state(structure, mech, comb)
    # one block: the other blocks' joint is the (1, 1) empty product
    truth = random_cpt(rng, (2, 3))
    structure = optimizer._Structure.of(truth, ((0, 1),))
    yield "one block", structure, optimizer._random_starts(structure, rng, 6)
    # 4 and 5 parents: random partitions, which often hold multi-parent blocks, and
    # blocks of two and three beside singletons
    wider = ((4, ((0, 2), (1, 3))), (5, ((0, 1, 3), (2, 4))), (5, ((0, 4), (1,), (2, 3))))
    for i, (n_parents, blocks) in enumerate(wider):
        for j in range(2):
            truth, partition, structure = _random_structure(rng, n_parents)
            starts = optimizer._random_starts(structure, rng, 7)
            yield f"{n_parents} parents random{2 * i + j}", structure, starts
        structure = optimizer._Structure.of(truth, blocks)
        yield f"{n_parents} parents {blocks}", structure, optimizer._random_starts(structure, rng, 7)
    # 300 starts: every refit, over 2 or 3 configurations x 300 starts with 6-9 ranks
    # each, adds its prefix sums one rank at a time; the small batches above, but one
    # refit, take cumsum
    truth = random_cpt(rng, (2, 3, 3))
    structure = optimizer._Structure.of(truth, ((0,), (1,), (2,)))
    yield "300 starts", structure, optimizer._random_starts(structure, rng, 300)
    # two binary parents in singleton blocks; block 0's refit comes first. Rows are in
    # canonical order, (p0, p1) at p0 + 2 * p1, and each group of block 0 reads p1 = 0, 1.
    # Each case is yielded with 3 starts, and with 33, enough for the rank-by-rank sums.
    # XOR: a row's d is mech1[p1] and its a is 1 - 2 * mech1[p1] < 0, so at p1 = 0 t == d
    # and z is 0.0 / a = -0.0, each group's lower median: weight 0.8 against 0.5
    xor = (
        _yes_truth([0.9, 0.9, 0.5, 0.5]),
        [np.array([[0.3, 0.6, 0.4], [0.3, 0.2, 0.45]]), np.array([[0.9] * 3, [0.75] * 3])],
        np.array([[0.0, 1.0, 1.0, 0.0]] * 3).T,
    )
    # OR with mech1 = 1/2: both rows of a group weigh 0.5, so twice the first rank's
    # prefix weight is the group's total, and the lower median is the first rank's z
    half = (
        _yes_truth([0.6, 0.7, 0.8, 0.9]),
        [np.array([[0.3, 0.6, 0.1], [0.3, 0.2, 0.9]]), np.full((2, 3), 0.5)],
        np.array([[0.0, 1.0, 1.0, 1.0]] * 3).T,
    )
    for reps in (1, 11):
        for name, (truth, mech, comb) in (("z of -0.0", xor), ("prefix weight of half", half)):
            structure = optimizer._Structure.of(truth, ((0,), (1,)))
            mech, comb = [np.tile(m, reps) for m in mech], np.tile(comb, reps)
            yield f"{name}, {3 * reps} starts", structure, _with_state(structure, mech, comb)


def _yes_truth(yes):
    """A truth over two binary parents with these P(Y=1), rows in canonical order."""
    yes = np.array(yes)
    return Cpt(BIN, _bin_parents(2), np.column_stack([1.0 - yes, yes]))


class TestDescentKernels:
    """The rewritten flip and block steps against the reference kernels above."""

    @pytest.mark.parametrize("case", list(_kernel_cases()), ids=lambda case: case[0])
    def test_steps_are_bitwise_those_of_the_reference(self, case):
        # each block's refit, the flips, then each refit again, on copies of one batch
        _, structure, starts = case
        cols = np.arange(len(starts.score))
        old, new = starts.take(cols), starts.take(cols)
        refits = [(_reference_fit_block, optimizer._fit_block, (b,)) for b in range(len(old.mech))]
        flips = [(_reference_flip_combiner, optimizer._flip_combiner, ())]
        for reference, kernel, args in refits + flips + refits:
            assert kernel(structure, new, *args) == reference(structure, old, *args)
            for got, want in zip(
                [*new.mech, new.comb, new.p_yes, new.score],
                [*old.mech, old.comb, old.p_yes, old.score],
            ):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("search", ["anxiety", "two blocks of (2, 3, 3)", "lone start"])
    def test_descent_is_bitwise_that_of_the_reference_kernels(self, search, anxiety, monkeypatch):
        # rare states, such as a z of -0.0, arise on their own over whole searches
        if search == "anxiety":
            singletons = tuple((i,) for i in range(4))
            runs = [(optimizer._Structure.of(anxiety, singletons), 300, seed) for seed in (0, 1)]
        elif search == "two blocks of (2, 3, 3)":
            truth = random_cpt(np.random.default_rng(12), (2, 3, 3))
            two = [p for p in enumerate_set_partitions(3) if len(p) == 2]
            runs = [(optimizer._Structure.of(truth, p), 100, seed) for seed, p in enumerate(two)]
        else:
            # chunks of three starts: the first sweep's last chunk holds a lone start twice
            truth = random_cpt(np.random.default_rng(13), (2, 3, 3))
            runs = [(optimizer._Structure.of(truth, ((0,), (1,), (2,))), 40, 3)]
            monkeypatch.setattr(optimizer, "_DESCENT_CHUNK_ELEMENTS", (3 * 18) << 3)
        for structure, population, seed in runs:
            config = GaConfig(population=population, restarts=1, seed=seed)
            got, *counts = optimizer._descend(structure, config, seed, 0, None)
            with monkeypatch.context() as patched:
                patched.setattr(optimizer, "_flip_combiner", _reference_flip_combiner)
                patched.setattr(optimizer, "_fit_block", _reference_fit_block)
                want, *want_counts = optimizer._descend(structure, config, seed, 0, None)
            assert counts == want_counts  # sweeps and candidate scores
            for mine, theirs in zip(
                [*got.mech, got.comb, got.p_yes, got.score],
                [*want.mech, want.comb, want.p_yes, want.score],
            ):
                assert mine.tobytes() == theirs.tobytes()

    def test_block_refit_works_over_the_other_configurations(self):
        # the other five blocks' (32, 32, 300) joint takes 2.3 MiB per copy: 4.9 MiB at
        # the peak, where building it over all 64 rows took 9.7 MiB
        truth = random_cpt(np.random.default_rng(16), (2,) * 6)
        structure = optimizer._Structure.of(truth, [(i,) for i in range(6)])
        starts = optimizer._random_starts(structure, np.random.default_rng(0), 300)
        tracemalloc.start()
        try:
            optimizer._fit_block(structure, starts, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_binary_states_are_those_of_a_stack(self):
        p1 = np.random.default_rng(4).random((3, 5))
        assert _binary_states(p1).tobytes() == np.stack([1.0 - p1, p1]).tobytes()

    def test_flip_step_keeps_one_candidate_buffer(self, anxiety):
        # one (15, 24, 300) buffer of candidates beside the moves: 2.7 MiB at
        # the peak, where three such temporaries at once took 4.25 MiB
        structure = optimizer._Structure.of(anxiety, [(i,) for i in range(4)])
        starts = optimizer._random_starts(structure, np.random.default_rng(0), 300)
        tracemalloc.start()
        try:
            optimizer._flip_combiner(structure, starts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestGroupedLayout:
    """Block b's refit reads the rows in the (configs_b, others) layout of ``_Structure``."""

    @pytest.mark.parametrize("seed", range(12))
    def test_every_group_reads_the_other_configurations_in_one_order(self, seed):
        # 2-5 parents of 2-4 states: a random partition, a block of the first and last
        # parent beside singletons, and the one-block partition
        rng = np.random.default_rng(1800 + seed)
        n = 2 + seed % 4
        cards = tuple(int(c) for c in rng.integers(2, 5, size=n))
        truth = random_cpt(rng, cards)
        labels = rng.integers(0, n, size=n)
        partitions = {
            tuple(tuple(int(i) for i in np.flatnonzero(labels == g)) for g in np.unique(labels)),
            ((0, n - 1), *((i,) for i in range(1, n - 1))),
            (tuple(range(n)),),
        }
        states = config_table(cards)
        for partition in partitions:
            structure = optimizer._Structure.of(truth, partition)
            for b, block in enumerate(partition):
                groups = structure.by_config[b].reshape(structure.sizes[b], -1)
                rest = [i for i in range(n) if i not in block]
                # group c is block-b configuration c, and every group lists the other
                # parents' configurations in the order of group 0
                assert (structure.rows[b][groups] == np.arange(len(groups))[:, None]).all()
                assert (states[groups][:, :, rest] == states[groups[0]][:, rest]).all()
                others = [c for c in range(len(partition)) if c != b]
                assert len(structure.rest_rows[b]) == len(others)
                for c, rest_rows in zip(others, structure.rest_rows[b]):
                    assert (structure.rows[c][groups] == rest_rows).all()
                # the target in that layout, and each row's position in it
                assert structure.t_grouped[b].shape == (*groups.shape, 1)
                assert (structure.t_grouped[b][..., 0] == structure.t_yes[groups, 0]).all()
                positions = np.arange(truth.n_rows).reshape(groups.shape)
                assert (structure.position[b][groups] == positions).all()
                assert (groups.reshape(-1)[structure.position[b]] == np.arange(truth.n_rows)).all()
