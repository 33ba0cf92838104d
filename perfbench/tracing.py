"""Spans around the public functions of each cpt_refine layer.

The wrappers are installed from here, by rebinding module attributes while a
traced job runs; no file of the program changes. A function imported by
name into several modules (``from .cpt import fit_grouping``) is rebound in
every module that holds it, so calls made inside the package are seen too.

A span is (name, start, end, parent span index, job id). A layer's self time
is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "io", "cpt", "refine", "optimizer")
TRACED = {
    "cli": ("main",),
    "io": ("load_cpt", "save_cpt", "atomic_write_text"),
    "cpt": ("fit_grouping", "expand_grouped", "score_sum_tvd"),
    "refine": ("prune_best", "divorce_best", "divorce_groups", "prune_groups", "evaluate_spec"),
    "optimizer": ("scm_bruteforce", "optimize_ici", "optimize_sici", "optimize_sici_partition",
                  "ga_optimize"),
}
_MODULES = ("cpt_refine", *(f"cpt_refine.{layer}" for layer in LAYERS))


def _count_result(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    """Work counts taken at the layer boundary, from arguments and results."""
    c = tracer.counts
    if name == "optimizer.scm_bruteforce":
        c["scm.bipartitions"] += result.evaluations
    elif name == "optimizer.optimize_ici":
        c["ici.evaluations"] += result.evaluations
        c["ici.generations"] += result.generations_run
    elif name == "optimizer.optimize_sici":
        c["sici.partitions"] += len(result.results)
        c["sici.evaluations"] += sum(r.evaluations for r in result.results)
    elif name == "optimizer.ga_optimize":
        config = args[2] if len(args) > 2 else kwargs["config"]
        c["ga.stall_generations"] += config.restarts * config.stall_limit
        c["ga.generations"] += result.generations_run
    elif name == "io.atomic_write_text":
        text = args[1] if len(args) > 1 else kwargs["text"]
        c["io.write_bytes"] += len(text.encode("utf-8"))


class Tracer:
    """Collects spans and counts in memory for the jobs it is told about."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._job = -1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self._job))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._job)
            _count_result(self, name, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def job(self, job_id: int):
        """Install the wrappers for the duration of one job, then restore."""
        modules = [importlib.import_module(m) for m in _MODULES]
        saved = []
        for layer, names in TRACED.items():
            home = importlib.import_module(f"cpt_refine.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        saved.append((module, fname, original))
                        setattr(module, fname, wrapped)
        self._job = job_id
        try:
            yield
        finally:
            self._job = -1
            for module, fname, original in saved:
                setattr(module, fname, original)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per job: self seconds per layer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(LAYERS, 0.0))
        for i, (name, start, end, _, job) in enumerate(self.spans):
            out[job][name.split(".")[0]] += end - start - child_time[i]
        return dict(out)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, inclusive seconds) over every traced job."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def layer_metrics(tracer: Tracer, n_jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced job, as {name: (value, unit)}."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name: str) -> float:
        return totals.get(name, (0, 0.0))[0] / n_jobs

    def seconds(name: str) -> float:
        return totals.get(name, (0, 0.0))[1] / n_jobs

    def rate(count: float, secs: float) -> float:
        return count / secs if secs > 0 else 0.0

    def per_job(key: str) -> float:
        return counts[key] / n_jobs

    m: dict[str, tuple[float, str]] = {
        "optimizer.scm_bruteforce.s": (seconds("optimizer.scm_bruteforce"), "s"),
        "optimizer.scm.bipartitions": (per_job("scm.bipartitions"), "count"),
        "optimizer.scm.bipartitions_per_s": (
            rate(per_job("scm.bipartitions"), seconds("optimizer.scm_bruteforce")), "1/s"),
        "optimizer.optimize_ici.s": (seconds("optimizer.optimize_ici"), "s"),
        "optimizer.ici.evaluations": (per_job("ici.evaluations"), "count"),
        "optimizer.ici.evals_per_s": (
            rate(per_job("ici.evaluations"), seconds("optimizer.optimize_ici")), "1/s"),
        "optimizer.ici.generations": (per_job("ici.generations"), "count"),
        "optimizer.optimize_sici.s": (seconds("optimizer.optimize_sici"), "s"),
        "optimizer.sici.partitions": (per_job("sici.partitions"), "count"),
        "optimizer.sici.evaluations": (per_job("sici.evaluations"), "count"),
        "optimizer.sici.evals_per_s": (
            rate(per_job("sici.evaluations"), seconds("optimizer.optimize_sici")), "1/s"),
        "optimizer.ga.stall_share": (
            rate(counts["ga.stall_generations"], counts["ga.generations"]), "ratio"),
        "refine.prune_best.s": (seconds("refine.prune_best"), "s"),
        "refine.divorce_best.s": (seconds("refine.divorce_best"), "s"),
        "refine.divorce.candidates": (calls("refine.divorce_groups"), "count"),
        "refine.divorce.candidates_per_s": (
            rate(calls("refine.divorce_groups"), seconds("refine.divorce_best")), "1/s"),
        "refine.evaluate_spec.calls": (calls("refine.evaluate_spec"), "count"),
        "refine.evaluate_spec.s": (seconds("refine.evaluate_spec"), "s"),
        "cpt.fit_grouping.calls": (calls("cpt.fit_grouping"), "count"),
        "cpt.fit_grouping.s": (seconds("cpt.fit_grouping"), "s"),
        "cpt.expand_grouped.s": (seconds("cpt.expand_grouped"), "s"),
        "cpt.score_sum_tvd.calls": (calls("cpt.score_sum_tvd"), "count"),
        "cpt.score_sum_tvd.s": (seconds("cpt.score_sum_tvd"), "s"),
        "io.load_cpt.calls": (calls("io.load_cpt"), "count"),
        "io.load_cpt.s": (seconds("io.load_cpt"), "s"),
        "io.save_cpt.calls": (calls("io.save_cpt"), "count"),
        "io.save_cpt.s": (seconds("io.save_cpt"), "s"),
        "io.write_bytes": (per_job("io.write_bytes"), "B"),
    }
    self_by_job = tracer.self_times()
    for layer in LAYERS:
        total = sum(job[layer] for job in self_by_job.values())
        m[f"{layer}.self_s"] = (total / n_jobs, "s")
    return m
