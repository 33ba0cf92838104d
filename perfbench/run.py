"""Closed-loop benchmark of the cpt-refine command line.

One client in this process runs jobs one after another through
``cpt_refine.cli.main``; a job is one CPT document taken through its
workload's command(s) (see workloads.py). Run from the repository root::

    python3 perfbench/run.py --workload anxiety|network|wide --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The timed section runs one whole pass over the workload's document pool,
which gives the quality means, then repeats the pass, job by job, while the
next job is expected to end within ``--seconds``. Every repeat does the same
work. Each command's time is scaled by reference kernels timed around it
(reference.py), and a document's job time sums its commands' mean scaled
times (``job_times``). With ``--trace 0`` it prints the end-to-end metrics. With
``--trace 1`` every job runs twice, untraced then traced, and it prints the
per-layer metrics plus the tracing overhead (traced minus untraced median
job time).

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Lines before it name each metric with its unit, the failure ratio,
the job counts behind the median and the tail, and the machine. Run records,
outputs and spans go to perfbench/.work/.
"""

import os

# One thread everywhere: the single-threaded baseline. numpy's OpenBLAS would
# otherwise spread the _lad_scores matrix product over every core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CPT_REFINE_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 3
# Reported for a quality metric whose method does not apply to the workload
# (wide: SCM refuses more than 30 rows, ICI and SICI need a binary child).
NOT_APPLICABLE = 1.0
TVD_UNIT = "sum-TVD"


def _import_program():
    if not (SRC / "cpt_refine" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import numpy
    import cpt_refine.cli
    from cpt_refine import fixtures

    if Path(cpt_refine.cli.__file__).resolve().parent != (SRC / "cpt_refine").resolve():
        sys.exit(f"perfbench: imported cpt_refine from {cpt_refine.cli.__file__}, not {SRC}")
    return numpy, cpt_refine.cli, fixtures


numpy, cli, fixtures = _import_program()
import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - T0


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CPT_REFINE_THREADS")},
    }


def _call_main(argv: list[str]) -> tuple[int, str]:
    """Exit code of one CLI command; an uncaught exception fails the job."""
    try:
        return cli.main(argv), ""
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), ""
    except Exception:  # job boundary: record the traceback and keep the loop running
        return -1, traceback.format_exc()


def _corrupt(out_dir: Path) -> None:
    """Move at least half the probability mass of the pruning document's first row."""
    path = out_dir / "report_pruning.json"
    doc = json.loads(path.read_text())
    row = doc["rows"][0]["probs"]
    zeros = [0.0] * (len(row) - 1)
    doc["rows"][0]["probs"] = [1.0, *zeros] if row[0] < 0.5 else [*zeros, 1.0]
    path.write_text(json.dumps(doc))


class Runner:
    """Runs and checks jobs of one workload; keeps every job's record."""

    def __init__(self, wl: workloads.Workload, out_root: Path, tracer: tracing.Tracer | None,
                 scaled: bool = True):
        self.wl = wl
        self.scaled = scaled  # time reference kernels around each command
        self.last_sample: tuple[str | None, float] = (None, 0.0)  # (kernel kind, seconds)
        self.out_root = out_root
        self.tracer = tracer
        self.records: list[dict] = []
        self.first: dict[str, dict] = {}  # document -> its first job

    def run(self, stem: str, truth: Path, traced: bool = False, corrupt: bool = False) -> dict:
        out_dir = self.out_root / stem
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        stdout = io.StringIO()
        job_id = len(self.records)
        command_s, scaled_s = [], []
        kind, sample = self.last_sample  # the previous job's last sample, if of the same kind
        for step, argv in zip(self.wl.steps, self.wl.commands(truth, out_dir)):
            if self.scaled and reference.kind_of(step) != kind:
                kind = reference.kind_of(step)
                sample = reference.sample(kind)
            ctx = self.tracer.job(job_id) if traced else contextlib.nullcontext()
            with ctx, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                code, error = _call_main(argv)
                command_s.append(time.perf_counter() - start)
            if self.scaled:
                before, sample = sample, reference.sample(kind)
                scaled_s.append(command_s[-1] * reference.scale(kind, before, sample))
            if code != 0:
                break
        self.last_sample = (kind, sample)
        if corrupt:
            _corrupt(out_dir)
        if code != 0:
            problems, scores = [f"exit code {code} from {argv[0]} {error}".strip()], {}
        else:
            exact = workloads.ANXIETY_EXACT if stem == "anxiety" else {}
            try:
                problems, scores = checks.check_job(truth, out_dir, stdout.getvalue(),
                                                    self.wl.methods, exact)
            except Exception as exc:  # output the checks cannot parse fails the job
                problems, scores = [f"output check: {type(exc).__name__}: {exc}"], {}
        digest = checks.tree_hash(out_dir)
        first = self.first.setdefault(stem, {"hash": digest, "scores": scores})
        if digest != first["hash"]:
            problems.append(f"outputs differ from this run's first job on {stem}")
        record = {"job": job_id, "doc": stem, "traced": traced, "seconds": sum(command_s),
                  "command_s": command_s, "scaled_s": scaled_s, "hash": digest, "scores": scores,
                  "problems": problems}
        self.records.append(record)
        return record


def job_times(records: list[dict]) -> list[float]:
    """Per document, slowest last: the sum over its job's commands of each
    command's mean scaled time (see reference.py) over the document's jobs."""
    runs: dict[str, list[list[float]]] = {}
    for r in records:
        runs.setdefault(r["doc"], []).append(r["scaled_s"])
    return sorted(sum(statistics.fmean(ts) for ts in zip(*rs)) for rs in runs.values())


def tail(times: list[float]) -> float:
    """Mean of the slowest quarter (at least one) of the sorted document times."""
    return statistics.fmean(times[-math.ceil(len(times) / 4):])


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 corrupt: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run: (result object, human-readable lines)."""
    work = WORK / f"{name}-s{seed}-t{int(trace)}{'-tiny' if tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    problems: list[str] = []

    setup_reps, samples = [], [reference.sample("interpreter")]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        anxiety_doc = json.loads(fixtures.fixture_path("anxiety").read_text(encoding="utf-8"))
        wl = workloads.build(name, seed, anxiety_doc, tiny)
        inputs = work / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        docs = []
        for stem, doc in (*wl.docs, wl.warmup):
            path = inputs / f"{stem}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            docs.append((stem, path))
        warm = Runner(wl.for_warmup(), work / "warmup", None, scaled=False).run(*docs.pop())
        problems += [f"warm-up: {p}" for p in warm["problems"]]
        setup_reps.append(time.perf_counter() - start)
        samples.append(reference.sample("interpreter"))
    setup_raw_s = IMPORT_S + statistics.median(setup_reps)
    kernel_s = statistics.median(samples)
    setup_scale = reference.scale("interpreter", kernel_s, kernel_s)

    tracer = tracing.Tracer() if trace else None
    runner = Runner(wl, work / "out", tracer)
    # The first pass covers the whole pool and gives the quality means. Later
    # passes repeat it while the next job is expected to end in time.
    longest: dict[str, float] = {}
    start = time.perf_counter()
    for job in itertools.count():
        pass_index, i = divmod(job, len(docs))
        stem, path = docs[i]
        if pass_index and longest[stem] > seconds - (time.perf_counter() - start):
            break
        job_start = time.perf_counter()
        runner.run(stem, path, corrupt=corrupt and job == 0)
        if trace:
            runner.run(stem, path, traced=True)
        longest[stem] = max(longest.get(stem, 0.0), time.perf_counter() - job_start)
    timed_s = time.perf_counter() - start
    records = runner.records

    inputs_digest = checks.tree_hash(inputs)
    first_pass = [runner.first[stem] for stem, _ in docs]
    tvd = {}
    for m in wl.methods:
        scores = [f["scores"][m] for f in first_pass if m in f["scores"]]
        tvd[m] = statistics.fmean(scores) if scores else -1.0  # the failed jobs are counted
    sources = checks.source_hash(*SRC.glob("cpt_refine/*.py"), *BENCH.glob("*.py"))
    key = f"{sources}:{name}:{seed}:{tiny}:{inputs_digest}"
    drift = [] if corrupt else checks.compare_record(WORK / "determinism.json", key, {
        "hashes": {stem: f["hash"] for (stem, _), f in zip(docs, first_pass)}, "tvd": tvd})
    if drift:
        problems += [f"determinism: {d}" for d in drift]
        for r in records:
            r["problems"].append("outputs differ from an earlier run with the same seed")

    failed = sum(1 for r in records if r["problems"])
    problems += [f"job {r['job']} ({r['doc']}): {p}" for r in records for p in r["problems"]]
    untraced = [r for r in records if not r["traced"]]
    doc_s = job_times(untraced)
    p50 = statistics.median(doc_s)
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        traced = [r for r in records if r["traced"]]
        overhead = statistics.median(job_times(traced)) - p50
        metrics.update(tracing.layer_metrics(tracer, len(traced)))
        metrics["trace.overhead_s"] = (overhead, "s")
        self_times = tracer.self_times()
        for r in traced:
            covered = sum(self_times.get(r["job"], {}).values())
            if abs(covered - r["seconds"]) > abs(overhead) + 1e-3:
                problems.append(f"trace: job {r['job']} self times sum to {covered:.4f} s, "
                                f"the job took {r['seconds']:.4f} s")
        tracer.write(work / "spans.jsonl")
    else:
        metrics.update({
            "setup_s": (setup_raw_s * setup_scale, "s"),
            "job_s.p50": (p50, "s"),
            "job_s.tail": (tail(doc_s), "s"),
            "jobs_per_s": (len(doc_s) / sum(doc_s), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        })
        for m in workloads.REPRODUCE_METHODS:
            metrics[f"tvd.{m}"] = (tvd.get(m, NOT_APPLICABLE), TVD_UNIT)

    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"fail_ratio = {failed / len(records):.6g} ({failed} of {len(records)} jobs)")
    if not trace:
        n_tail = math.ceil(len(doc_s) / 4)
        lines.append(f"job times are each document's mean scaled commands over {len(untraced)} "
                     f"jobs on {len(doc_s)} documents; job_s.tail is the slowest {n_tail}")
        factors = [f for r in untraced for f in
                   (s / c for s, c in zip(r["scaled_s"], r["command_s"]) if c > 0)]
        lines.append(f"scale factors (see reference.py): median {statistics.median(factors):.4f} "
                     f"over commands, {setup_scale:.4f} on set-up; raw setup_s {setup_raw_s:.4f} s")
        wall_p50 = statistics.median(r["seconds"] for r in untraced)
        lines.append(f"wall time: median job {wall_p50:.4f} s, "
                     f"{len(untraced) / timed_s:.4f} jobs/s over {timed_s:.1f} s")
        lines += [f"tvd.{m} does not apply on {name}; reported as {NOT_APPLICABLE}"
                  for m in workloads.REPRODUCE_METHODS if m not in wl.methods]
    else:
        shares = {layer: metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS}
        total = sum(shares.values()) or 1.0
        lines.append("self-time share: " + ", ".join(
            f"{layer} {v / total:.1%}" for layer, v in sorted(shares.items(), key=lambda x: -x[1])))
    if name == "anxiety":
        # The acceptance tests set these ceilings for 10 GA restarts; at the
        # workload's 2 they do not hold for every seed, so they are reported
        # beside the failures rather than counted as failures.
        first = runner.first["anxiety"]["scores"]
        lines += [f"ceiling: {m} scores {first[m]:.4f}, "
                  f"{'above' if first[m] > c else 'within'} the acceptance ceiling {c:.4f}"
                  for m, c in workloads.ANXIETY_CEILINGS.items() if m in first]
    lines += [f"problem: {p}" for p in problems]
    env = machine()
    lines.append("machine: " + json.dumps(env))
    (work / "run.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "machine": env, "import_s": IMPORT_S, "setup_reps_s": setup_reps, "timed_s": timed_s,
        "setup_reference_s": samples,
        "jobs": records, "problems": problems,
        "result": result}, indent=1))
    return result, lines


def self_test() -> int:
    """Every workload at a tiny size emits every declared metric with its unit,
    and a corrupted approximation document counts its job as failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for name in workloads.WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, lines = run_workload(name, 1, 0, trace, tiny=True)
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{name} trace={int(trace)}: metrics {got} != declared {want}")
            if result["failed"] or not result["correct"]:
                errors.append(f"{name} trace={int(trace)}: " + "; ".join(
                    line for line in lines if line.startswith("problem")))
            print(f"self-test: {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['attempted']} jobs, {result['failed']} failed")
    result, lines = run_workload("wide", 1, 0, False, tiny=True, corrupt=True)
    if result["failed"] != 1:
        errors.append(f"corrupted document: {result['failed']} jobs failed, expected 1")
    print(f"self-test: corrupted document: {result['failed']} of {result['attempted']} jobs failed")
    for e in errors:
        print(f"self-test error: {e}")
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
