"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (visible with -s; under plain pytest the
test's own pass/fail line is the record). The ICI and SICI criteria use the
default search configuration (10 seeded batches of 300 random starts, each
swept by coordinate descent until a sweep gains less than 1e-5) with fixed
seeds; their thresholds carry the +0.02 stochastic allowance over the
reference optima. Expect about half a minute of runtime, dominated by the
brute-force SCM oracle.
"""

import time

import numpy as np
import pytest

from cpt_refine import (
    GaConfig,
    IciSpec,
    SiciSpec,
    Variable,
    divorce_best,
    ds_sici_evaluate,
    enumerate_bipartitions,
    enumerate_set_partitions,
    ici_evaluate,
    median_lad,
    noisy_or,
    noisy_or_closed_form,
    optimize_ici,
    optimize_sici,
    param_savings,
    pici_evaluate,
    prune_best,
    prune_groups,
    scm_bruteforce,
    us_sici_evaluate,
)
from cpt_refine.cli import main
from cpt_refine.cpt import expand_grouped, fit_grouping
from cpt_refine.fixtures import fixture_path
from cpt_refine.refine import PruneSpec

SEED = 20240801
BIN = Variable("Y", ("n", "y"))


def _bin_parents(n):
    return tuple(Variable(f"X{i}", ("off", "on")) for i in range(n))


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_c1_pruning_golden(anxiety, method_columns):
    t0 = time.perf_counter()
    spec, result = prune_best(anxiety)
    elapsed = time.perf_counter() - t0
    assert anxiety.parents[spec.parent].name == "Depression"
    assert result.score == pytest.approx(0.6487, abs=2e-3)
    dev = np.abs(result.cpt.rows - method_columns["pruning"].rows).max()
    assert dev <= 5e-5 + 1e-12
    assert elapsed < 1.0
    _report(1, f"score {result.score:.4f}, column dev {dev:.1e}, {elapsed * 1e3:.0f} ms")


def test_c2_divorcing_golden(anxiety, method_columns):
    t0 = time.perf_counter()
    spec, result = divorce_best(anxiety, block_size=2)
    elapsed = time.perf_counter() - t0
    names = {anxiety.parents[i].name for i in spec.divorced}
    assert names == {"Hypertension", "SleepDuration"}
    assert spec.gate == "AND"
    by_parent = dict(zip(spec.divorced, spec.binarization))
    hyp = next(i for i in spec.divorced if anxiety.parents[i].name == "Hypertension")
    sleep = next(i for i in spec.divorced if anxiety.parents[i].name == "SleepDuration")
    assert tuple(anxiety.parents[hyp].states[s] for s in by_parent[hyp]) == ("Yes",)
    assert tuple(anxiety.parents[sleep].states[s] for s in by_parent[sleep]) == (">9hours",)
    assert result.score == pytest.approx(0.5072, abs=2e-3)
    assert result.free_params == 8
    dev = np.abs(result.cpt.rows - method_columns["divorcing"].rows).max()
    assert dev <= 5e-5 + 1e-12
    for row in (19, 20, 23, 24):  # gate-1 singletons reproduce the truth
        assert np.array_equal(result.cpt.rows[row - 1], anxiety.rows[row - 1])
    assert elapsed < 1.0
    _report(2, f"score {result.score:.4f}, column dev {dev:.1e}, {elapsed * 1e3:.0f} ms")


def test_c3_scm_bruteforce_golden(anxiety):
    progress = []
    t0 = time.perf_counter()
    result = scm_bruteforce(anxiety, on_progress=lambda done, best: progress.append(done))
    elapsed = time.perf_counter() - t0
    assert result.evaluations == 8_388_607
    assert progress and progress[-1] == 8_388_607  # progress reported
    assert result.best_score == pytest.approx(1.2693, abs=2e-3)
    assignment = result.best_spec.assignment
    sizes = sorted((assignment.count(0), assignment.count(1)))
    assert sizes == [8, 16]
    block0 = [k for k, a in enumerate(assignment) if a == 0]
    block1 = [k for k, a in enumerate(assignment) if a == 1]
    medians = sorted(
        (median_lad(anxiety.rows[block0, 0]), median_lad(anxiety.rows[block1, 0]))
    )
    assert medians[0] == pytest.approx(0.7500, abs=1e-9)
    assert medians[1] == pytest.approx(0.9393, abs=1e-9)
    assert elapsed < 600.0
    _report(3, f"score {result.best_score:.4f}, split {sizes}, {elapsed:.1f} s")


def test_c4_ici_stochastic_target(anxiety):
    t0 = time.perf_counter()
    result = optimize_ici(anxiety, GaConfig(seed=SEED))
    elapsed = time.perf_counter() - t0
    assert result.best_score <= 0.5720
    free, _ = param_savings(result.best_spec, anxiety.parent_cards, 2)
    assert free == 9
    assert elapsed < 120.0
    _report(4, f"score {result.best_score:.4f} <= 0.5720, 9 params, {elapsed:.1f} s")


def test_c5_sici_stochastic_target(anxiety):
    t0 = time.perf_counter()
    sweep = optimize_sici(anxiety, GaConfig(seed=SEED))
    elapsed = time.perf_counter() - t0
    assert len(sweep.results) == 14  # Bell(4) - 1 single-block partition
    assert sweep.best.best_score <= 0.3900
    target = ((0, 2, 3), (1,))  # {Depression, Sex, SleepDuration} | {Hypertension}
    per_partition = {r.best_spec.parent_partition: r for r in sweep.results}
    reference = per_partition[target]
    assert reference.best_score <= 0.3900
    free, _ = param_savings(reference.best_spec, anxiety.parent_cards, 2)
    assert free == 14
    assert elapsed < 1200.0
    _report(
        5,
        f"global {sweep.best.best_score:.4f}, reference partition "
        f"{reference.best_score:.4f}, {elapsed:.1f} s",
    )


def test_c6_fixture_scoring_golden(capsys):
    expected = {
        "pruning": 0.6487,
        "divorcing": 0.5072,
        "scm": 1.2693,
        "ici": 0.5520,
        "sici": 0.3700,
    }
    t0 = time.perf_counter()
    truth = str(fixture_path("anxiety"))
    scores = {}
    for method, target in expected.items():
        code = main(["score", truth, str(fixture_path(f"anxiety_{method}"))])
        out = capsys.readouterr().out
        assert code == 0
        scores[method] = float(out.strip())
        assert scores[method] == pytest.approx(target, abs=2e-3), method
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(6, ", ".join(f"{m} {s:.4f}" for m, s in scores.items()))


def test_c7a_noisy_or_closed_form_equals_enumeration():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        probs = rng.random(n)
        parents = _bin_parents(n)
        enum = ici_evaluate(BIN, parents, noisy_or(probs))
        closed = noisy_or_closed_form(BIN, parents, probs)
        worst = max(worst, float(np.abs(enum.rows - closed.rows).max()))
    assert worst <= 1e-12
    _report("7a", f"1000 specs, worst dev {worst:.1e}")


def _random_partition(rng, n):
    labels = rng.integers(0, n, size=n)
    blocks = {}
    for i, lab in enumerate(labels):
        blocks.setdefault(int(lab), []).append(i)
    return tuple(tuple(b) for b in blocks.values())


def test_c7b_singleton_us_sici_equals_ici():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(200):
        cards = tuple(int(c) for c in rng.integers(2, 4, size=int(rng.integers(1, 5))))
        parents = tuple(
            Variable(f"X{i}", tuple(f"s{j}" for j in range(c))) for i, c in enumerate(cards)
        )
        mech = tuple(tuple(rng.random(c)) for c in cards)
        combiner = (0, *rng.integers(0, 2, size=(1 << len(cards)) - 1).tolist())
        ici = ici_evaluate(BIN, parents, IciSpec(mech, combiner))
        sici = us_sici_evaluate(
            BIN,
            parents,
            SiciSpec(tuple((i,) for i in range(len(cards))), mech, combiner=combiner),
        )
        worst = max(worst, float(np.abs(ici.rows - sici.rows).max()))
    assert worst <= 1e-12
    _report("7b", f"200 specs, worst dev {worst:.1e}")


def test_c7c_indicator_lower_reductions():
    rng = np.random.default_rng(SEED + 2)
    worst_ds = worst_pici = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        cards = (2,) * n
        parents = _bin_parents(n)
        partition = _random_partition(rng, n)
        m = len(partition)
        mech = tuple(
            tuple(rng.random(int(np.prod([cards[i] for i in block]))))
            for block in partition
        )
        combiner = (0, *rng.integers(0, 2, size=(1 << m) - 1).tolist())
        lower = np.zeros((1 << m, 2))
        lower[np.arange(1 << m), combiner] = 1.0
        us = us_sici_evaluate(BIN, parents, SiciSpec(partition, mech, combiner=combiner))
        ds = ds_sici_evaluate(
            BIN, parents, SiciSpec(partition, mech, lower_cpt=tuple(map(tuple, lower)))
        )
        worst_ds = max(worst_ds, float(np.abs(us.rows - ds.rows).max()))

        mech_flat = tuple(tuple(rng.random(2)) for _ in range(n))
        combiner_n = (0, *rng.integers(0, 2, size=(1 << n) - 1).tolist())
        lower_n = np.zeros((1 << n, 2))
        lower_n[np.arange(1 << n), combiner_n] = 1.0
        ici = ici_evaluate(BIN, parents, IciSpec(mech_flat, combiner_n))
        pici = pici_evaluate(BIN, parents, mech_flat, lower_n)
        worst_pici = max(worst_pici, float(np.abs(ici.rows - pici.rows).max()))
    assert worst_ds <= 1e-12
    assert worst_pici <= 1e-12
    _report("7c", f"DS==US dev {worst_ds:.1e}, PICI==ICI dev {worst_pici:.1e}")


def test_c7d_median_lad_optimality_on_grid():
    rng = np.random.default_rng(SEED + 3)
    grid = np.linspace(0.0, 1.0, 10_001)
    for _ in range(1000):
        values = rng.random(int(rng.integers(1, 13)))
        med = median_lad(values)
        at_median = np.abs(values - med).sum()
        best_on_grid = np.abs(values[None, :] - grid[:, None]).sum(axis=1).min()
        assert at_median <= best_on_grid + 1e-9
    _report("7d", "1000 value sets vs 1e-4 grid")


def test_c7e_enumeration_counts():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}
    for n, count in bell.items():
        assert sum(1 for _ in enumerate_set_partitions(n)) == count
    for k in range(2, 17):
        assert sum(1 for _ in enumerate_bipartitions(k)) == 2 ** (k - 1) - 1
    _report("7e", "Bell numbers to n=8, bipartition counts to k=16")


def test_c7f_evaluator_outputs_normalised(anxiety):
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        cards = tuple(int(c) for c in rng.integers(2, 4, size=n))
        parents = tuple(
            Variable(f"X{i}", tuple(f"s{j}" for j in range(c))) for i, c in enumerate(cards)
        )
        mech = tuple(tuple(rng.random(c)) for c in cards)
        combiner = (0, *rng.integers(0, 2, size=(1 << n) - 1).tolist())
        cpt = ici_evaluate(BIN, parents, IciSpec(mech, combiner))
        worst = max(worst, float(np.abs(cpt.rows.sum(axis=1) - 1.0).max()))

        partition = _random_partition(rng, n)
        mech_b = tuple(
            tuple(rng.random(int(np.prod([cards[i] for i in block]))))
            for block in partition
        )
        m = len(partition)
        comb_b = (0, *rng.integers(0, 2, size=(1 << m) - 1).tolist())
        cpt = us_sici_evaluate(BIN, parents, SiciSpec(partition, mech_b, combiner=comb_b))
        worst = max(worst, float(np.abs(cpt.rows.sum(axis=1) - 1.0).max()))

        lower = rng.random((1 << m, 2))
        lower /= lower.sum(axis=1, keepdims=True)
        cpt = ds_sici_evaluate(
            BIN, parents, SiciSpec(partition, mech_b, lower_cpt=tuple(map(tuple, lower)))
        )
        worst = max(worst, float(np.abs(cpt.rows.sum(axis=1) - 1.0).max()))
    # grouping expansions on the benchmark fixture
    grouping = fit_grouping(anxiety, prune_groups(anxiety.parent_cards, PruneSpec(0)))
    cpt = expand_grouped(anxiety, grouping)
    worst = max(worst, float(np.abs(cpt.rows.sum(axis=1) - 1.0).max()))
    assert worst <= 1e-9
    _report("7f", f"worst row-sum deviation {worst:.1e}")


def test_c7g_reproduce_is_seed_deterministic(tmp_path, capsys):
    # byte-identical reports across two identically seeded runs; the search
    # budget is reduced via flags, the seed contract is what is under test
    runs = []
    for name in ("one", "two"):
        workdir = tmp_path / name
        workdir.mkdir()
        report = workdir / "report.csv"
        code = main(
            ["reproduce", str(fixture_path("anxiety")), "--out", str(report),
             "--seed", "7", "--restarts", "2", "--population", "120",
             "--max-generations", "300", "--stall", "50"]
        )
        capsys.readouterr()
        assert code == 0
        runs.append(workdir)
    names = ["report.csv", "report_cpts.csv"] + [
        f"report_{m}.json" for m in ("pruning", "divorcing", "scm", "ici", "sici")
    ]
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    _report("7g", f"{len(names)} report files byte-identical across seeded runs")


def test_c8_savings_accounting(anxiety):
    from cpt_refine.refine import DivorceSpec, ScmSpec

    cards = anxiety.parent_cards
    rows = {
        "pruning": (param_savings(PruneSpec(0), cards, 2), (12, 12)),
        "divorcing": (param_savings(DivorceSpec((1, 3), "AND", ((1,), (2,))), cards, 2), (8, 16)),
        "scm": (param_savings(ScmSpec((0,) * 16 + (1,) * 8), cards, 2), (2, 22)),
        "ici": (
            param_savings(IciSpec(((0, 0), (0, 0), (0, 0), (0, 0, 0)), (0,) * 16), cards, 2),
            (9, 15),
        ),
        "sici": (
            param_savings(
                SiciSpec(((1,), (0, 2, 3)), ((0, 0), (0,) * 12), combiner=(0, 0, 0, 1)),
                cards,
                2,
            ),
            (14, 10),
        ),
    }
    for method, (got, want) in rows.items():
        assert got == want, method
    _report(8, "free/savings rows 12/12, 8/16, 2/22, 9/15, 14/10")
