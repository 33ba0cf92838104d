"""Output checks of one job, output hashes and the cross-run determinism record.

A job passes when every approximation it wrote re-loads, re-scores against
the truth to the score the program reported (4 dp), and has the free
parameter count that ``param_savings`` gives for the reported structure.
Where the optimum of an exact method is known, the reported score must match
it.

These functions are bound at import, before any tracing wrapper exists, so
checking a job adds no spans.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

from cpt_refine.errors import CptRefineError
from cpt_refine.cpt import param_count, score_sum_tvd
from cpt_refine.io import load_cpt
from cpt_refine.refine import DivorceSpec, IciSpec, PruneSpec, ScmSpec, SiciSpec, param_savings


def reported_rows(out_dir: Path, stdout: str, methods: tuple[str, ...]) -> list[dict]:
    """What the program reported per method: score text, free parameters, summary, document."""
    report = out_dir / "report.csv"
    if report.exists():
        with open(report, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return [
            {"method": r["method"], "score": r["optimal_score_4dp"],
             "free": int(r["free_parameters"]), "savings": int(r["parameter_savings"]),
             "summary": r["spec_summary"], "doc": out_dir / f"report_{r['method']}.json"}
            for r in rows
        ]
    # prune / divorce print "spec: ...", "score: ...", "free parameters: ..." per command
    specs = re.findall(r"^spec: (.*)$", stdout, re.M)
    scores = re.findall(r"^score: (.*)$", stdout, re.M)
    frees = re.findall(r"^free parameters: (\d+)$", stdout, re.M)
    return [
        {"method": m, "score": s, "free": int(f), "savings": None, "summary": spec,
         "doc": out_dir / f"report_{m}.json"}
        for m, spec, s, f in zip(methods, specs, scores, frees)
    ]


def spec_from_summary(truth, method: str, summary: str):
    """Rebuild the reported structure; the parameters are placeholders, since
    the free-parameter count depends on the structure only."""
    names = [v.name for v in truth.parents]
    cards = truth.parent_cards
    if method == "pruning":
        return PruneSpec(names.index(summary.removeprefix("prune ")))
    if method == "divorcing":
        gate, _, rest = summary.partition(" gate over ")
        pairs = re.findall(r"([^=,{}]+)=\{([^}]*)\}", rest)
        divorced = [names.index(n.strip()) for n, _ in pairs]
        binar = [tuple(truth.parents[i].states.index(s) for s in states.split(","))
                 for i, (_, states) in zip(divorced, pairs)]
        return DivorceSpec(tuple(divorced), gate, tuple(binar))
    if method == "scm":
        a, b = (int(x) for x in summary.removeprefix("row bipartition ").split("|"))
        return ScmSpec((0,) * a + (1,) * b)
    if method == "ici":
        return IciSpec(tuple((0.5,) * c for c in cards), (0,) * (1 << len(cards)))
    if method == "sici":
        blocks = [tuple(names.index(n.strip()) for n in b.split(","))
                  for b in re.findall(r"\{([^}]*)\}", summary)]
        mech = tuple((0.5,) * math.prod(cards[i] for i in b) for b in sorted(blocks))
        return SiciSpec(tuple(blocks), mech, combiner=(0,) * (1 << len(blocks)))
    raise ValueError(f"unknown method {method!r}")


def check_job(truth_path: Path, out_dir: Path, stdout: str, methods: tuple[str, ...],
              exact: dict[str, str]) -> tuple[list[str], dict[str, float]]:
    """(problems found, reported score per method) of one finished job.

    ``exact`` maps a method to the score text it must report, where known."""
    problems: list[str] = []
    scores: dict[str, float] = {}
    truth = load_cpt(truth_path)
    full = param_count(truth.parent_cards, truth.child.cardinality)
    rows = reported_rows(out_dir, stdout, methods)
    if [r["method"] for r in rows] != list(methods):
        return [f"reported methods {[r['method'] for r in rows]}, expected {list(methods)}"], {}
    for r in rows:
        m = r["method"]
        try:
            approx = load_cpt(r["doc"])
            rescored = f"{score_sum_tvd(truth, approx):.4f}"
            free, savings = param_savings(spec_from_summary(truth, m, r["summary"]),
                                          truth.parent_cards, truth.child.cardinality)
        except (OSError, ValueError, CptRefineError) as exc:
            problems.append(f"{m}: {type(exc).__name__}: {exc}")
            continue
        scores[m] = float(r["score"])
        if rescored != r["score"]:
            problems.append(f"{m}: document re-scores to {rescored}, report says {r['score']}")
        if free != r["free"] or (r["savings"] is not None and savings != r["savings"]):
            problems.append(f"{m}: {r['free']} free / {r['savings']} saved reported, "
                            f"param_savings gives {free} / {savings}")
        if free + savings != full:
            problems.append(f"{m}: {free} + {savings} != {full}")
        if m in exact and r["score"] != exact[m]:
            problems.append(f"{m}: {r['score']}, the known optimum is {exact[m]}")
    return problems, scores


def tree_hash(directory: Path) -> str:
    """sha256 over the names and bytes of every file in ``directory``."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def source_hash(*files: Path) -> str:
    """sha256 of source files, so that determinism records never span two
    versions of the program or of the benchmark."""
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare_record(record_path: Path, key: str, entry: dict) -> list[str]:
    """Store ``entry`` under ``key``, or report how it differs from the stored one."""
    records = json.loads(record_path.read_text()) if record_path.exists() else {}
    old = records.get(key)
    if old is None:
        records[key] = entry
        tmp = record_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
        tmp.replace(record_path)
        return []
    return [f"{k}: {old.get(k)} in an earlier run with this seed, {v} now"
            for k, v in entry.items() if old.get(k) != v]
