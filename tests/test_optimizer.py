"""Search machinery: enumerations, the SCM searches, ICI/SICI coordinate descent, the GA."""

import math
import time

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
    enumerate_bipartitions,
    enumerate_set_partitions,
    evaluate_spec,
    ga_optimize,
    ici_evaluate,
    noisy_or,
    optimize_ici,
    optimize_sici,
    optimize_sici_partition,
    scm_bruteforce,
    scm_exact,
    scm_fit,
    us_sici_evaluate,
)
from cpt_refine import optimizer
from cpt_refine.errors import SearchSpaceError, ShapeMismatchError, ValidationError

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
            oracle = min(oracle, scm_fit(truth, ScmSpec(tuple(assignment))).score)
        assert result.best_score == pytest.approx(oracle, abs=1e-12)

    def test_never_beaten_by_random_bipartitions(self):
        rng = np.random.default_rng(99)
        truth = random_cpt(rng, (2, 5))
        best = scm_bruteforce(truth).best_score
        for _ in range(1000):
            assignment = rng.integers(0, 2, size=truth.n_rows)
            if assignment.min() == assignment.max():
                continue
            assert best <= scm_fit(truth, ScmSpec(tuple(assignment))).score + 1e-12

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
        assert exact.best_score == scm_fit(truth, exact.best_spec).score
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
            assert result.best_score <= scm_fit(truth, ScmSpec(tuple(assignment))).score + 1e-12

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
        truth = ici_evaluate(BIN, _bin_parents(3), noisy_or([0.3, 0.5, 0.2]))
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
        for result in (
            optimize_ici(anxiety, config),
            optimize_sici_partition(anxiety, ((0,), (1, 2, 3)), config),
            scm_exact(anxiety),
        ):
            rescored = evaluate_spec(anxiety, result.best_spec)
            assert result.best_score == rescored.score
            # the search hands its fit on, so callers need not fit the spec again
            assert result.fit.score == rescored.score
            assert result.fit.free_params == rescored.free_params
            assert np.array_equal(result.fit.cpt.rows, rescored.cpt.rows)

    def test_recovers_realizable_us_sici(self):
        parents = _bin_parents(3)
        partition = ((0, 2), (1,))
        spec = SiciSpec(
            partition,
            ((0.05, 0.4, 0.7, 0.95), (0.2, 0.9)),
            combiner=(0, 1, 1, 1),
        )
        truth = us_sici_evaluate(BIN, parents, spec)
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


def _random_structure(rng):
    """A random 2-3 parent binary-child truth, a random partition of its parents
    and the descent's view of that structure."""
    cards = tuple(int(c) for c in rng.integers(2, 4, size=int(rng.integers(2, 4))))
    truth = random_cpt(rng, cards)
    labels = rng.integers(0, len(cards), size=len(cards))
    partition = tuple(tuple(np.flatnonzero(labels == g)) for g in np.unique(labels))
    return truth, partition, optimizer._Structure.of(truth, partition)


def _model_yes(truth, partition, mech, comb):
    """P(Y=1) per row of one start's parameters, from the spec evaluator."""
    spec = SiciSpec(partition, mech, combiner=comb.astype(int).tolist())
    return us_sici_evaluate(truth.child, truth.parents, spec).rows[:, 1]


def _check_consistent(truth, partition, starts):
    """Each start's P(Y=1) is its model's, and its score is the sum of |P(Y=1) - t|."""
    t = truth.rows[:, 1]
    for s in range(len(starts.score)):
        model = _model_yes(truth, partition, [m[s] for m in starts.mech], starts.comb[s])
        assert np.abs(starts.p_yes[s] - model).max() <= 1e-12
        assert starts.score[s] == pytest.approx(np.abs(model - t).sum(), abs=1e-12)
    assert np.all(starts.comb[:, 0] == 0.0)


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
                    mech = [m[s].copy() for m in starts.mech]
                    ends = []
                    for value in (0.0, 1.0):
                        mech[b][:] = value
                        ends.append(_model_yes(truth, partition, mech, starts.comb[s]))
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
            assert evaluations >= 6 * (starts.comb.shape[1] - 1)
            _check_consistent(truth, partition, starts)
            for s in range(6):
                mech = [m[s] for m in starts.mech]
                for j in range(1, starts.comb.shape[1]):
                    flipped = starts.comb[s].copy()
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
