"""On-disk CPT documents and report emission.

The JSON document schema (``"format": 1``)::

    {
      "format": 1,
      "child": {"name": "Anxiety", "states": ["No", "Yes"]},
      "parents": [{"name": "Depression", "states": ["No", "Yes"]}, ...],
      "rows": [
        {"config": ["No", "No", "Female", "6-9hours"], "probs": [0.963, 0.037]},
        ...
      ]
    }

Rows must cover every parent configuration exactly once, in canonical order
(first listed parent varying fastest). Probabilities are stored at full
float precision so save(load(x)) round-trips byte-identically. Reports are
CSV (comma separated, header row, UTF-8, LF) plus an aligned text table,
with scores and probabilities printed at 4 decimal places.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cpt import Cpt, Variable, config_table
from .errors import ValidationError

SCHEMA_FORMAT = 1
LOAD_TOLERANCE = 1e-6
WARN_TOLERANCE = 1e-9


def _config_labels(cpt_parents: Sequence[Variable], state_row: Sequence[int]) -> str:
    return ", ".join(f"{v.name}={v.states[s]}" for v, s in zip(cpt_parents, state_row))


def _parse_variable(obj, what: str) -> Variable:
    try:
        return Variable(str(obj["name"]), tuple(str(s) for s in obj["states"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed {what} entry: {exc}") from exc


def load_cpt(path: str | Path) -> Cpt:
    """Load and validate a CPT document.

    Errors name the offending configuration. Rows whose probabilities sum to
    1 within 1e-6 are accepted (renormalised, with a warning when off by
    more than 1e-9); anything worse is rejected.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer literal too long to parse
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: the document must be a JSON object")
    # JSON true loads as Python True, which equals 1 and is an int
    if isinstance(doc.get("format"), bool) or doc.get("format") != SCHEMA_FORMAT:
        raise ValidationError(f"{path}: unsupported format {doc.get('format')!r}")
    child = _parse_variable(doc.get("child", {}), "child")
    parents_doc = doc.get("parents", [])
    rows_doc = doc.get("rows", [])
    if not isinstance(parents_doc, list) or not isinstance(rows_doc, list):
        raise ValidationError(f"{path}: 'parents' and 'rows' must be JSON lists")
    parents = tuple(_parse_variable(p, "parent") for p in parents_doc)
    names = [child.name, *(v.name for v in parents)]
    if len(set(names)) != len(names):
        raise ValidationError(f"{path}: child and parent names must be distinct, got {names}")
    cards = tuple(v.cardinality for v in parents)
    # counted before the configuration table is built, which may not fit in memory
    if len(rows_doc) != math.prod(cards):
        raise ValidationError(
            f"{path}: {len(rows_doc)} rows, need {math.prod(cards)} (one per configuration)"
        )
    expected = config_table(cards)
    rows = np.empty((len(rows_doc), child.cardinality))
    for k, entry in enumerate(rows_doc):
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: row {k + 1} must be a JSON object")
        config = entry.get("config")
        probs = entry.get("probs")
        if not isinstance(config, list) or not isinstance(probs, list):
            raise ValidationError(f"{path}: row {k + 1} needs 'config' and 'probs' lists")
        if len(config) != len(parents):
            raise ValidationError(f"{path}: row {k + 1} config has {len(config)} entries")
        indices = []
        for v, label in zip(parents, config):
            if label not in v.states:
                raise ValidationError(
                    f"{path}: row {k + 1}: unknown state {label!r} for {v.name}"
                )
            indices.append(v.states.index(label))
        want = _config_labels(parents, expected[k])
        if indices != list(expected[k]):
            raise ValidationError(
                f"{path}: row {k + 1} is ({_config_labels(parents, indices)}); canonical "
                f"order (first parent fastest) expects ({want}) here - rows must cover "
                "every configuration exactly once in canonical order"
            )
        if len(probs) != child.cardinality:
            raise ValidationError(
                f"{path}: row {k + 1} ({want}) has {len(probs)} probabilities, "
                f"need {child.cardinality}"
            )
        if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in probs):
            raise ValidationError(f"{path}: row {k + 1} ({want}) probabilities must be numbers")
        try:
            vec = np.asarray(probs, dtype=np.float64)
        except OverflowError as exc:
            raise ValidationError(f"{path}: row {k + 1} ({want}) probabilities: {exc}") from exc
        dev = abs(float(vec.sum()) - 1.0)
        if dev > LOAD_TOLERANCE:
            raise ValidationError(
                f"{path}: row {k + 1} ({want}) sums to {vec.sum():.6g}, not 1"
            )
        if dev > WARN_TOLERANCE:
            warnings.warn(
                f"{path}: row {k + 1} ({want}) off by {dev:.2e}; renormalising",
                stacklevel=2,
            )
        rows[k] = vec
    return Cpt(child, parents, rows, tolerance=LOAD_TOLERANCE)


def cpt_to_document(cpt: Cpt) -> dict:
    states = config_table(cpt.parent_cards)
    return {
        "format": SCHEMA_FORMAT,
        "child": {"name": cpt.child.name, "states": list(cpt.child.states)},
        "parents": [{"name": v.name, "states": list(v.states)} for v in cpt.parents],
        "rows": [
            {
                "config": [v.states[s] for v, s in zip(cpt.parents, states[k])],
                "probs": cpt.rows[k].tolist(),
            }
            for k in range(cpt.n_rows)
        ],
    }


def save_cpt(cpt: Cpt, path: str | Path) -> None:
    """Write a CPT document atomically (temp file then rename)."""
    atomic_write_text(Path(path), json.dumps(cpt_to_document(cpt), indent=2) + "\n")


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    """One line of the method-comparison report."""

    method: str
    score: float
    free_params: int
    savings: int
    summary: str


def report_csv_text(rows: Sequence[ReportRow]) -> str:
    def quote(s: str) -> str:
        return '"' + s.replace('"', '""') + '"' if ("," in s or '"' in s) else s

    lines = ["method,optimal_score_4dp,free_parameters,parameter_savings,spec_summary"]
    for r in rows:
        lines.append(f"{r.method},{r.score:.4f},{r.free_params},{r.savings},{quote(r.summary)}")
    return "\n".join(lines) + "\n"


def report_text(rows: Sequence[ReportRow], shape_free_params: int) -> str:
    width = max(len(r.method) for r in rows)
    lines = [
        f"{'method':<{width}}  {'score':>8}  {'params':>6}  {'savings':>7}  spec",
        f"{'-' * width}  {'-' * 8}  {'-' * 6}  {'-' * 7}  {'-' * 4}",
    ]
    for r in rows:
        lines.append(
            f"{r.method:<{width}}  {r.score:>8.4f}  {r.free_params:>6}  {r.savings:>7}  {r.summary}"
        )
    lines.append(f"(full CPT: {shape_free_params} free parameters)")
    return "\n".join(lines) + "\n"


def side_by_side_csv_text(truth: Cpt, methods: Mapping[str, Cpt]) -> str:
    """Side-by-side CSV: truth and per-method approximations row by row, 4dp."""
    states = config_table(truth.parent_cards)
    header = ["row", *(v.name for v in truth.parents)]
    for name in ("truth", *methods):
        header.extend(f"{name}:{s}" for s in truth.child.states)
    lines = [",".join(header)]
    for k in range(truth.n_rows):
        cells = [str(k + 1)]
        cells.extend(v.states[s] for v, s in zip(truth.parents, states[k]))
        for cpt in (truth, *methods.values()):
            cells.extend(f"{p:.4f}" for p in cpt.rows[k])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
