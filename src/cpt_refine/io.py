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
(first listed parent varying fastest). The loader validates a document in
one pass over its rows and checks all their probabilities as one array; an
error names the first faulty row. The writer lays the document out as
``json.dumps(document, indent=2)`` does, writing the text directly.
Probabilities are stored at full float precision so save(load(x))
round-trips byte-identically. Reports are
CSV (comma separated, header row, UTF-8, LF) plus an aligned text table,
with scores and probabilities printed at 4 decimal places.
"""

from __future__ import annotations

import json
import math
import os
import stat
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cpt import Cpt, Variable, config_table, in_unit_interval
from .errors import ValidationError

SCHEMA_FORMAT = 1
LOAD_TOLERANCE = 1e-6
WARN_TOLERANCE = 1e-9
_NUMBER_TYPES = frozenset((int, float))  # what JSON numbers load as; bool is not one


def _config_labels(cpt_parents: Sequence[Variable], state_row: Sequence[int]) -> str:
    return ", ".join(f"{v.name}={v.states[s]}" for v, s in zip(cpt_parents, state_row))


def _parse_variable(obj, what: str, path: Path) -> Variable:
    """A child or parent entry of document ``path``; errors name the document and the entry."""
    name = obj.get("name") if isinstance(obj, dict) else None
    if not isinstance(name, str):
        raise ValidationError(f"{path}: {what} needs a 'name' that is a JSON string")
    states = obj.get("states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ValidationError(f"{path}: {what} {name!r} needs 'states' that is a list of strings")
    try:
        return Variable(name, tuple(states))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _row_fault(
    parents: Sequence[Variable],
    indices_of: Sequence[dict[str, int]],
    want: list[int],
    n_probs: int,
    entry,
) -> str | None:
    """What is structurally wrong with one row entry, as the tail of a message that
    starts with its row number, or None. ``want`` is its canonical configuration."""
    if not isinstance(entry, dict):
        return " must be a JSON object"
    config = entry.get("config")
    probs = entry.get("probs")
    if not isinstance(config, list) or not isinstance(probs, list):
        return " needs 'config' and 'probs' lists"
    if len(config) != len(parents):
        return f" config has {len(config)} entries"
    try:
        indices = [index[label] for index, label in zip(indices_of, config)]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        v, label = next((v, x) for v, x in zip(parents, config) if x not in v.states)
        return f": unknown state {label!r} for {v.name}"
    if indices != want:
        return (
            f" is ({_config_labels(parents, indices)}); canonical order (first parent "
            f"fastest) expects ({_config_labels(parents, want)}) here - rows must cover "
            "every configuration exactly once in canonical order"
        )
    if len(probs) != n_probs:
        return f" ({_config_labels(parents, want)}) has {len(probs)} probabilities, need {n_probs}"
    if not _NUMBER_TYPES.issuperset(map(type, probs)):
        return f" ({_config_labels(parents, want)}) probabilities must be numbers"
    return None


def load_cpt(path: str | Path) -> Cpt:
    """Load and validate a CPT document.

    Errors name the offending row and configuration; a document with several
    faults reports its first faulty row. Rows whose probabilities lie in
    [0, 1] and sum to 1 within 1e-6 are accepted (renormalised, with a
    warning when off by more than 1e-9); anything worse is rejected.
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
    child = _parse_variable(doc.get("child"), "child", path)
    parents_doc = doc.get("parents", [])
    rows_doc = doc.get("rows", [])
    if not isinstance(parents_doc, list) or not isinstance(rows_doc, list):
        raise ValidationError(f"{path}: 'parents' and 'rows' must be JSON lists")
    parents = tuple(_parse_variable(p, f"parent {k + 1}", path) for k, p in enumerate(parents_doc))
    names = [child.name, *(v.name for v in parents)]
    if len(set(names)) != len(names):
        raise ValidationError(f"{path}: child and parent names must be distinct, got {names}")
    cards = tuple(v.cardinality for v in parents)
    # counted before the configuration table is built, which may not fit in memory
    if len(rows_doc) != math.prod(cards):
        raise ValidationError(
            f"{path}: {len(rows_doc)} rows, need {math.prod(cards)} (one per configuration)"
        )
    expected = config_table(cards).tolist()
    labels = lambda k: _config_labels(parents, expected[k])
    indices_of = [{label: i for i, label in enumerate(v.states)} for v in parents]
    n_probs = child.cardinality

    # one pass: rows are checked up to the first structurally faulty one, and the
    # probabilities of the rows before it are checked together, in row order
    table = []
    fault = None  # (row index, message tail) of the first faulty row found
    for k, entry in enumerate(rows_doc):
        tail = _row_fault(parents, indices_of, expected[k], n_probs, entry)
        if tail is not None:
            fault = (k, tail)
            break
        table.append(entry["probs"])
    try:
        probs = np.array(table, dtype=np.float64).reshape(len(table), n_probs)
    except OverflowError:  # an integer too large for a float: find its row
        for k, row in enumerate(table):
            try:
                np.array(row, dtype=np.float64)
            except OverflowError as exc:
                fault = (k, f" ({labels(k)}) probabilities: {exc}")
                break
        probs = np.array(table[:k], dtype=np.float64).reshape(k, n_probs)
    sums = probs.sum(axis=1)
    dev = np.abs(sums - 1.0)
    bad = (dev > LOAD_TOLERANCE) | ~in_unit_interval(probs).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        if dev[k] > LOAD_TOLERANCE:
            fault = (k, f" ({labels(k)}) sums to {sums[k]:.6g}, not 1")
        else:  # out of range or NaN
            fault = (k, f" ({labels(k)}) probabilities {table[k]} must lie in [0, 1]")
    n_checked = len(probs) if fault is None else fault[0]
    for k in np.flatnonzero(dev[:n_checked] > WARN_TOLERANCE):
        warnings.warn(
            f"{path}: row {k + 1} ({labels(k)}) off by {dev[k]:.2e}; renormalising",
            stacklevel=2,
        )
    if fault is not None:
        raise ValidationError(f"{path}: row {fault[0] + 1}{fault[1]}")
    return Cpt(child, parents, probs, tolerance=LOAD_TOLERANCE)


def _block(open_: str, items: Sequence[str], close: str, indent: str) -> str:
    """Encoded items in a JSON array or object at ``indent``, laid out as
    ``json.dumps(indent=2)`` lays them out."""
    if not items:
        return open_ + close
    return f"{open_}\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}{close}"


def _variable_text(v: Variable, indent: str) -> str:
    states = _block("[", [json.dumps(s) for s in v.states], "]", indent + "  ")
    return _block("{", [f'"name": {json.dumps(v.name)}', f'"states": {states}'], "}", indent)


def save_cpt(cpt: Cpt, path: str | Path) -> None:
    """Write a CPT document atomically (temp file then rename).

    The text is ``json.dumps(document, indent=2)`` and a final newline,
    written directly: each label is encoded once, and each probability is
    its ``float.__repr__``, as in ``json``.
    """
    labels = [[json.dumps(s) for s in v.states] for v in cpt.parents]
    rows = [
        _block("{", [
            '"config": ' + _block("[", [labels[i][s] for i, s in enumerate(config)], "]", "      "),
            '"probs": ' + _block("[", list(map(float.__repr__, probs)), "]", "      "),
        ], "}", "    ")
        for config, probs in zip(config_table(cpt.parent_cards).tolist(), cpt.rows.tolist())
    ]
    text = _block("{", [
        f'"format": {SCHEMA_FORMAT}',
        f'"child": {_variable_text(cpt.child, "  ")}',
        '"parents": ' + _block("[", [_variable_text(v, "    ") for v in cpt.parents], "]", "  "),
        '"rows": ' + _block("[", rows, "]", "  "),
    ], "}", "")
    atomic_write_text(Path(path), text + "\n")


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` through a temporary file and a rename, with the permissions
    ``open(path, "w")`` gives: an existing file keeps its own, a new one gets 0o666
    less the umask."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    # O_EXCL opens no file that exists; the kernel applies the umask, as open() does
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if path.exists():
            os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
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


def _csv_field(s: str) -> str:
    """``s`` as a CSV field, quoted as ``csv.writer`` quotes under ``QUOTE_MINIMAL``."""
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s


def report_csv_text(rows: Sequence[ReportRow]) -> str:
    lines = ["method,optimal_score_4dp,free_parameters,parameter_savings,spec_summary"]
    for r in rows:
        lines.append(
            f"{r.method},{r.score:.4f},{r.free_params},{r.savings},{_csv_field(r.summary)}"
        )
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
    lines = [",".join(map(_csv_field, header))]
    labels = [[_csv_field(s) for s in v.states] for v in truth.parents]
    for k in range(truth.n_rows):
        cells = [str(k + 1)]
        cells.extend(quoted[s] for quoted, s in zip(labels, states[k]))
        for cpt in (truth, *methods.values()):
            cells.extend(f"{p:.4f}" for p in cpt.rows[k])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
