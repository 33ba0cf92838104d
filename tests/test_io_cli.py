"""Documents, reports, and the command-line interface."""

import csv
import errno
import json
import math
import os
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cpt_refine import (
    Cpt, GaConfig, Variable, load_cpt, optimize_sici, param_savings, save_cpt, score_sum_tvd
)
from cpt_refine.cli import METHODS, build_parser, main
from cpt_refine.cpt import config_table, in_unit_interval
from cpt_refine.errors import ValidationError
from cpt_refine.io import (
    LOAD_TOLERANCE, SCHEMA_FORMAT, WARN_TOLERANCE, ReportRow, _parse_variable, report_text
)
from cpt_refine.fixtures import FIXTURE_NAMES, fixture_path

from conftest import random_cpt


class TestDocuments:
    def test_fixture_loads(self, anxiety):
        assert anxiety.n_rows == 24
        assert anxiety.child.name == "Anxiety"
        assert [v.name for v in anxiety.parents] == [
            "Depression",
            "Hypertension",
            "Sex",
            "SleepDuration",
        ]
        assert tuple(anxiety.rows[0]) == (0.9630, 0.0370)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_round_trip_is_byte_identical(self, name, tmp_path):
        src = fixture_path(name)
        cpt = load_cpt(src)
        out = tmp_path / "copy.json"
        save_cpt(cpt, out)
        assert out.read_bytes() == src.read_bytes()

    def test_save_load_save_is_stable_for_random_cpt(self, tmp_path):
        rng = np.random.default_rng(21)
        cpt = random_cpt(rng, (2, 3))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_cpt(cpt, first)
        save_cpt(load_cpt(first), second)
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_writer_matches_json_dumps_indent_2(self, tmp_path, data):
        # labels with quotes, backslashes, non-ASCII and control characters, and labels
        # that read as %-format directives, since the writer fills a %-template
        label = st.sampled_from(["%s", "%r", "%%", "%(x)s"]) | st.text(
            st.sampled_from('a"\\%é\x00\n\t\x7f€😀') | st.characters(), max_size=4)

        def variable(name, n_states):
            return Variable(name, tuple(data.draw(
                st.lists(label, min_size=n_states, max_size=n_states, unique=True))))

        cards = data.draw(st.lists(st.integers(2, 3), max_size=3), label="cards")
        parents = tuple(variable(data.draw(label), c) for c in cards)
        child = variable(data.draw(label), data.draw(st.integers(2, 4), label="child states"))
        special = st.sampled_from([0.0, 5e-324, 0.1, 1e-17, 0.25])
        rows = []
        for _ in range(int(np.prod(cards))):
            head = data.draw(st.lists(special | st.floats(0, 1 / child.cardinality),
                                      min_size=child.cardinality - 1,
                                      max_size=child.cardinality - 1))
            rows.append([*head, 1.0 - sum(head)])
        cpt = Cpt(child, parents, rows)
        reference = {
            "format": 1,
            "child": {"name": child.name, "states": list(child.states)},
            "parents": [{"name": v.name, "states": list(v.states)} for v in parents],
            "rows": [
                {"config": [v.states[s] for v, s in zip(parents, config)], "probs": probs}
                for config, probs in zip(config_table(cards).tolist(), cpt.rows.tolist())
            ],
        }
        out = tmp_path / "written.json"
        save_cpt(cpt, out)
        assert out.read_bytes() == (json.dumps(reference, indent=2) + "\n").encode("utf-8")

    def _doc(self):
        return json.loads(fixture_path("anxiety").read_text())

    def _expect_error(self, doc, tmp_path, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=match):
            load_cpt(path)

    def test_unnormalised_row_names_the_configuration(self, tmp_path):
        doc = self._doc()
        doc["rows"][4]["probs"] = [0.5, 0.3]
        self._expect_error(doc, tmp_path, "row 5 .*Male.*sums to 0.8")

    def test_missing_row_rejected(self, tmp_path):
        doc = self._doc()
        doc["rows"] = doc["rows"][:-1]
        self._expect_error(doc, tmp_path, "23 rows")

    def test_duplicate_configuration_rejected(self, tmp_path):
        doc = self._doc()
        doc["rows"][1] = doc["rows"][0]
        self._expect_error(doc, tmp_path, "canonical order")

    def test_unknown_state_rejected(self, tmp_path):
        doc = self._doc()
        doc["rows"][0]["config"][0] = "Maybe"
        self._expect_error(doc, tmp_path, "unknown state 'Maybe'")

    def test_unknown_format_rejected(self, tmp_path):
        doc = self._doc()
        doc["format"] = 2
        self._expect_error(doc, tmp_path, "unsupported format")

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda doc: doc["child"].update(states="ny"),
             "child 'Anxiety' needs 'states' that is a list of strings"),
            (lambda doc: doc["parents"][1].update(name=None),
             "parent 2 needs a 'name' that is a JSON string"),
            (lambda doc: doc["parents"][0].update(states=[0, 1]),
             "parent 1 'Depression' needs 'states' that is a list of strings"),
            (lambda doc: doc.update(child=["Anxiety"]),
             "child needs a 'name' that is a JSON string"),
            (lambda doc: doc["parents"][2].update(states=["Male", "Male"]),
             "variable 'Sex' has duplicate state labels"),
            (lambda doc: doc["child"].update(states=["No"]),
             r"variable 'Anxiety' needs >= 2 states"),
        ],
        ids=["string-states", "null-name", "number-states", "list-child",
             "duplicate-states", "one-state"],
    )
    def test_variables_need_string_labels(self, tmp_path, edit, match):
        doc = self._doc()
        edit(doc)
        self._expect_error(doc, tmp_path, r"bad\.json: " + match + "$")

    def test_wrong_probability_count_rejected(self, tmp_path):
        doc = self._doc()
        doc["rows"][0]["probs"] = [1.0]
        self._expect_error(doc, tmp_path, "1 probabilities")

    # the message tail each fault gives in row 3
    _FAULTS = {
        "sum": r" \(.*\) sums to 0\.8, not 1",
        "unknown": ": unknown state 'Maybe' for Depression",
        "huge": r" \(.*\) probabilities: int too large to convert to float",
    }

    @staticmethod
    def _break(row, fault):
        if fault == "unknown":
            row["config"][0] = "Maybe"
        else:
            row["probs"] = [0.5, 0.3] if fault == "sum" else [10**400, 0]

    @pytest.mark.parametrize(
        "first, second",
        [("sum", "unknown"), ("unknown", "sum"), ("huge", "unknown"), ("unknown", "huge"),
         ("sum", "huge")],
    )
    def test_first_faulty_row_is_reported(self, tmp_path, first, second):
        doc = self._doc()
        self._break(doc["rows"][2], first)
        self._break(doc["rows"][5], second)
        self._expect_error(doc, tmp_path, "row 3" + self._FAULTS[first] + "$")

    @pytest.mark.parametrize(
        "probs, match",
        [
            ([-0.5, 1.5], r"row 7 \(Depression=No, Hypertension=Yes, Sex=Male, "
                          r"SleepDuration=6-9hours\) probabilities \[-0\.5, 1\.5\] must lie in \[0, 1\]"),
            ([float("nan"), 0.5], r"row 7 \(.*SleepDuration=6-9hours\) probabilities \[nan, 0\.5\]"),
            ([float("inf"), 0.5], r"row 7 \(.*\) sums to inf, not 1"),
        ],
        ids=["out-of-range", "nan", "infinity"],
    )
    def test_bad_probabilities_name_path_and_row(self, tmp_path, probs, match):
        doc = self._doc()
        doc["rows"][6]["probs"] = probs
        self._expect_error(doc, tmp_path, r"bad\.json: " + match)

    def test_huge_integer_probability_names_its_row(self, tmp_path):
        doc = self._doc()
        doc["rows"][4]["probs"] = [10**400, 0]
        self._expect_error(doc, tmp_path, r"row 5 \(.*Male.*\) probabilities: int too large")

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_loader_matches_row_loop(self, tmp_path, data):
        doc = data.draw(st.just(None) | _valid_documents(), label="document")
        if doc is None:
            doc = json.loads(fixture_path("anxiety").read_text())
        edit = data.draw(st.sampled_from(
            ["none", "field", "repeat-row", "drop-probability", "huge-probability"]
        ), label="edit")
        if edit == "field":  # as in test_malformed_documents_exit_0_or_2
            *steps, key = data.draw(st.sampled_from(list(_field_paths(doc))), label="field")
            target = doc
            for step in steps:
                target = target[step]
            target[key] = data.draw(_JSON_VALUES, label="value")
        elif edit == "repeat-row":
            n = len(doc["rows"])
            i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), label="rows")
            doc["rows"][j] = doc["rows"][i]
        elif edit == "drop-probability":
            row = data.draw(st.sampled_from(doc["rows"]), label="row")
            row["probs"] = row["probs"][:-1]
        elif edit == "huge-probability":  # an integer too large for a float
            row = data.draw(st.sampled_from(doc["rows"]), label="row")
            row["probs"][0] = data.draw(st.sampled_from([10**400, -(10**400)]), label="integer")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert _load_outcome(load_cpt, path) == _load_outcome(_reference_load_cpt, path)

    def test_small_deviations_warn_in_row_order(self, tmp_path):
        doc = self._doc()
        for k in (3, 1):
            doc["rows"][k]["probs"][0] += 5e-8
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_cpt(path)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert "row 2 (" in messages[0] and "row 4 (" in messages[1]
        assert all("off by 5.00e-08; renormalising" in m for m in messages)

    def test_small_deviation_warns_and_renormalises(self, tmp_path):
        doc = self._doc()
        doc["rows"][0]["probs"] = [0.963 + 4e-8, 0.037]
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="renormalising"):
            cpt = load_cpt(path)
        assert cpt.rows[0].sum() == pytest.approx(1.0, abs=1e-12)


@st.composite
def _valid_documents(draw):
    """Valid CPT documents of 0-3 parents, some rows off 1 by a little or by too much."""
    cards = draw(st.lists(st.integers(2, 3), max_size=3), label="cards")
    child_card = draw(st.integers(2, 3), label="child states")
    cpt = random_cpt(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), cards, child_card)
    rows = cpt.rows.tolist()
    offsets = st.sampled_from([5e-8, -5e-8, 2e-10, 1e-3, -2.0])
    for k, off in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), offsets), max_size=3)):
        rows[k][0] += off
    return {
        "format": 1,
        "child": {"name": cpt.child.name, "states": list(cpt.child.states)},
        "parents": [{"name": v.name, "states": list(v.states)} for v in cpt.parents],
        "rows": [
            {"config": [v.states[s] for v, s in zip(cpt.parents, config)], "probs": probs}
            for config, probs in zip(config_table(cards).tolist(), rows)
        ],
    }


def _load_outcome(load, path):
    """The CPT a loader gives, as row bytes, or its error message, with its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cpt = load(path)
            result = ("loaded", cpt.child, cpt.parents, cpt.rows.tobytes())
        except ValidationError as exc:
            result = ("error", str(exc))
    return result, [str(w.message) for w in caught]


def _reference_labels(parents, indices) -> str:
    return ", ".join(f"{v.name}={v.states[s]}" for v, s in zip(parents, indices))


def _reference_row_fault(parents, indices_of, want, n_probs, entry):
    """The structure rules for one row, stated through state indices: ``indices_of``
    maps each parent's labels to indices and ``want`` is the row's canonical indices.
    The message tail of the first rule the row breaks, or None."""
    labels = lambda indices: _reference_labels(parents, indices)
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
            f" is ({labels(indices)}); canonical order (first parent fastest) expects "
            f"({labels(want)}) here - rows must cover every configuration exactly once "
            "in canonical order"
        )
    if len(probs) != n_probs:
        return f" ({labels(want)}) has {len(probs)} probabilities, need {n_probs}"
    if not all(type(p) in (int, float) for p in probs):  # bool is not a JSON number
        return f" ({labels(want)}) probabilities must be numbers"
    return None


def _reference_load_cpt(path: str | Path) -> Cpt:
    """The row-by-row loader that the bulk check in load_cpt replaces, kept as its oracle.
    Its row rules are its own, and an integer too large for a float is found by a
    rescan of the rows that pass them."""
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
    labels = lambda k: _reference_labels(parents, expected[k])
    indices_of = [{label: i for i, label in enumerate(v.states)} for v in parents]
    n_probs = child.cardinality

    # one pass: rows are checked up to the first structurally faulty one, and the
    # probabilities of the rows before it are checked together, in row order
    table = []
    fault = None  # (row index, message tail) of the first faulty row found
    for k, entry in enumerate(rows_doc):
        tail = _reference_row_fault(parents, indices_of, expected[k], n_probs, entry)
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


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _anxiety_with(edit) -> str:
    """The Anxiety document as JSON text after ``edit``, which changes it in place
    or returns a replacement."""
    doc = json.loads(fixture_path("anxiety").read_text())
    out = edit(doc)
    return json.dumps(doc if out is None else out)


def _field_paths(node, prefix=()):
    """The key path of every field in a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield (*prefix, key)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, (*prefix, key))


_FIELD_PATHS = list(_field_paths(json.loads(fixture_path("anxiety").read_text())))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6)
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8,
)


# 48 binary parents and no rows: a configuration table for it would take 96 PiB
_NO_ROWS_48_PARENTS = json.dumps({
    "format": 1,
    "child": {"name": "Y", "states": ["n", "y"]},
    "parents": [{"name": f"X{i}", "states": ["n", "y"]} for i in range(48)],
    "rows": [],
})


class TestScoreCommand:
    @pytest.mark.parametrize(
        "column, expected",
        [("pruning", "0.6485"), ("divorcing", "0.5072"), ("scm", "1.2693"),
         ("ici", "0.5518"), ("sici", "0.3701")],
    )
    def test_reference_columns(self, capsys, column, expected):
        code, out, _ = _run(
            capsys,
            ["score", str(fixture_path("anxiety")), str(fixture_path(f"anxiety_{column}"))],
        )
        assert code == 0
        assert out.strip() == expected

    def test_truth_vs_itself(self, capsys):
        path = str(fixture_path("anxiety"))
        code, out, _ = _run(capsys, ["score", path, path])
        assert code == 0
        assert out.strip() == "0.0000"

    def test_truth_vs_itself_under_kl(self, capsys):
        # row by row the smoothed KL can round a few ulps below zero; it is clamped at 0
        path = str(fixture_path("anxiety"))
        code, out, _ = _run(capsys, ["score", path, path, "--metric", "kl"])
        assert code == 0
        assert out.strip() == "0.0000"

    def test_kl_metric(self, capsys):
        code, out, _ = _run(
            capsys,
            ["score", str(fixture_path("anxiety")), str(fixture_path("anxiety_scm")),
             "--metric", "kl"],
        )
        assert code == 0
        assert float(out.strip()) > 0

    def test_verbose_prints_every_row(self, capsys):
        code, out, _ = _run(
            capsys,
            ["score", str(fixture_path("anxiety")), str(fixture_path("anxiety_pruning")),
             "--verbose"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 25  # 24 rows plus the total
        # each row's configuration and TVD, from the documents read as plain JSON
        truth, approx = (json.loads(fixture_path(name).read_text())
                         for name in ("anxiety", "anxiety_pruning"))
        names = [v["name"] for v in truth["parents"]]
        for k, (line, row, other) in enumerate(zip(lines, truth["rows"], approx["rows"])):
            labels = ", ".join(f"{n}={label}" for n, label in zip(names, row["config"]))
            tvd = 0.5 * sum(abs(p - q) for p, q in zip(row["probs"], other["probs"]))
            assert line == f"row {k + 1:>3} ({labels}): {tvd:.4f}"

    def test_shape_mismatch_exits_3(self, capsys, tmp_path):
        rng = np.random.default_rng(31)
        other = tmp_path / "other.json"
        save_cpt(random_cpt(rng, (2, 2)), other)
        code, _, err = _run(capsys, ["score", str(fixture_path("anxiety")), str(other)])
        assert code == 3
        assert "mismatch" in err

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda y, a, b: (Variable("Z", y.states), Variable("C", a.states),
                              Variable("D", b.states)),
             "child is Y (n, y) in {} but Z (n, y) in {}"),
            (lambda y, a, b: (y, a, Variable("B", ("p", "q", "s"))),
             "parent 2 is B (p, q, r) in {} but B (p, q, s) in {}"),
        ],
        ids=["other-node", "other-state-labels"],
    )
    def test_tables_of_different_variables_exit_3(self, capsys, tmp_path, edit, named):
        # same 6 x 2 shape, so only the variables tell the tables apart
        y, a, b = Variable("Y", ("n", "y")), Variable("A", ("u", "v")), Variable("B", ("p", "q", "r"))
        rows = np.random.default_rng(32).dirichlet((1, 1), size=6)
        child, *parents = edit(y, a, b)
        paths = tmp_path / "truth.json", tmp_path / "approx.json"
        save_cpt(Cpt(y, (a, b), rows), paths[0])
        save_cpt(Cpt(child, tuple(parents), rows), paths[1])
        code, out, err = _run(capsys, ["score", *map(str, paths)])
        assert code == 3 and out == ""
        assert err == f"error: variable mismatch: {named.format(*paths)}\n"

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            _anxiety_with(lambda doc: doc["rows"][0].update(probs=[float("nan"), 0.037])),
            _anxiety_with(lambda doc: [doc]),
            _anxiety_with(lambda doc: {**doc, "rows": ["not an object", *doc["rows"][1:]]}),
            _anxiety_with(lambda doc: doc["rows"][0].update(probs=["x", "y"])),
            _anxiety_with(lambda doc: doc.update(parents=5)),
            _anxiety_with(lambda doc: doc.update(rows=5)),
            _anxiety_with(lambda doc: doc["rows"][0].update(probs=[10**400, 0.037])),
            '{"format": 1' + "0" * 5000 + "}",
            _anxiety_with(lambda doc: doc["parents"][1].update(name="Depression")),
            _anxiety_with(lambda doc: doc["rows"][0].update(probs=[True, False])),
            _anxiety_with(lambda doc: doc.update(format=True)),
            _NO_ROWS_48_PARENTS,
            _anxiety_with(lambda doc: doc["rows"][6].update(probs=[-0.5, 1.5])),
            _anxiety_with(lambda doc: doc["rows"][6].update(probs=[float("inf"), 0.5])),
            _anxiety_with(lambda doc: doc["child"].update(states="ny")),
        ],
        ids=["empty-object", "nan-probability", "list-document", "non-object-row",
             "string-probabilities", "non-list-parents", "non-list-rows",
             "huge-integer-probability", "huge-integer-literal", "duplicate-parent-names",
             "boolean-probabilities", "boolean-format", "48-parents-no-rows",
             "out-of-range-probabilities", "infinite-probability", "string-states"],
    )
    def test_validation_failure_exits_2(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, _, err = _run(capsys, ["score", str(bad), str(bad)])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"format": 1, "child": ' + "[" * 200_000 + "]" * 200_000 + "}",
            _anxiety_with(lambda doc: doc["rows"][0].update(probs="deep")).replace(
                '"deep"', "[" * 100_000 + "]" * 100_000
            ),
        ],
        ids=["deep-child", "deep-probabilities"],
    )
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, text):
        bad = tmp_path / "deep.json"
        bad.write_text(text)
        code, out, err = _run(capsys, ["score", str(bad), str(bad)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}: not valid JSON: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["score", "{tmp}/nope.json", "{tmp}/nope.json"],
            ["prune", str(fixture_path("anxiety")), "--out", "{tmp}/missing/x.json"],
        ],
        ids=["missing-input", "missing-output-directory"],
    )
    def test_missing_file_exits_2(self, capsys, tmp_path, argv):
        code, _, err = _run(capsys, [a.format(tmp=tmp_path) for a in argv])
        assert code == 2
        assert err.startswith("error:") and "No such file or directory" in err

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_written_files_take_the_umask(self, capsys, tmp_path, umask, mode):
        out = tmp_path / "p.json"
        old = os.umask(umask)
        try:
            code, _, err = _run(capsys, ["prune", str(fixture_path("anxiety")), "--out", str(out)])
        finally:
            os.umask(old)
        assert code == 0, err
        assert stat.S_IMODE(out.stat().st_mode) == mode

    def test_rewritten_file_keeps_its_mode(self, capsys, tmp_path):
        out = tmp_path / "p.json"
        out.write_text("{}")
        out.chmod(0o640)
        code, _, err = _run(capsys, ["prune", str(fixture_path("anxiety")), "--out", str(out)])
        assert code == 0, err
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_missing_out_directory_fails_before_any_search(self, capsys, tmp_path, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran before --out was checked")

        monkeypatch.setattr("cpt_refine.cli.prune_best", no_search)
        out = str(tmp_path / "missing" / "report.csv")
        code, _, err = _run(capsys, ["reproduce", str(fixture_path("anxiety")), "--out", out])
        assert code == 2
        # the message names the path given, not a temporary file beside it
        assert err == f"error: [Errno 2] No such file or directory: {out!r}\n"

    @pytest.mark.parametrize("command", ["prune", "reproduce"])
    def test_out_naming_a_directory_fails_before_any_search(
        self, capsys, tmp_path, monkeypatch, command
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran before --out was checked")

        monkeypatch.setattr("cpt_refine.cli.prune_best", no_search)
        out = str(tmp_path / "outdir")
        os.mkdir(out)
        code, stdout, err = _run(capsys, [command, str(fixture_path("anxiety")), "--out", out])
        assert code == 2 and stdout == ""
        assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {out!r}\n"

    @pytest.mark.parametrize(
        "name", ["report_cpts.csv", *(f"report_{m}.json" for m in METHODS)]
    )
    def test_reproduce_output_naming_a_directory_fails_before_any_search(
        self, capsys, tmp_path, monkeypatch, name
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran before the outputs were checked")

        monkeypatch.setattr("cpt_refine.cli.prune_best", no_search)
        monkeypatch.chdir(tmp_path)
        os.mkdir(name)
        code, stdout, err = _run(capsys, ["reproduce", str(fixture_path("anxiety")),
                                          "--restarts", "1", "--out", "report.csv"])
        assert code == 2 and stdout == ""
        assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {name!r}\n"
        assert os.listdir(tmp_path) == [name]  # nothing written

    def test_parser_is_reused_without_leaking_state(self, capsys):
        anxiety = str(fixture_path("anxiety"))
        code, _, err = _run(capsys, ["divorce", anxiety, "--parents", "Hypertension,SleepDuration",
                                     "--map", "SleepDuration=<6hours"])
        assert code == 0, err
        # a --map left over from the call before would name SleepDuration, not divorced here
        code, out, err = _run(capsys, ["divorce", anxiety, "--parents", "Depression,Hypertension"])
        assert code == 0, err
        assert "AND gate over Depression={Yes}, Hypertension={Yes}" in out
        with pytest.raises(SystemExit) as exc:
            main(["prune", anxiety, "--no-such-flag"])
        assert exc.value.code == 2
        code, out, err = _run(capsys, ["prune", anxiety])
        assert code == 0, err
        assert "score: 0.6485" in out
        assert build_parser() is build_parser()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_malformed_documents_exit_0_or_2(self, tmp_path, data):
        doc = json.loads(fixture_path("anxiety").read_text())
        *path, key = data.draw(st.sampled_from(_FIELD_PATHS), label="field")
        target = doc
        for step in path:
            target = target[step]
        target[key] = data.draw(_JSON_VALUES, label="value")
        bad = tmp_path / "fuzzed.json"
        bad.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # renormalisation warnings are not failures
            assert main(["score", str(bad), str(bad)]) in (0, 2)


class TestMethodCommands:
    def test_prune_named_parent_matches_reference(self, capsys, tmp_path, method_columns):
        out_path = tmp_path / "pruned.json"
        code, out, _ = _run(
            capsys,
            ["prune", str(fixture_path("anxiety")), "--parent", "Depression",
             "--out", str(out_path)],
        )
        assert code == 0
        assert "prune Depression" in out
        assert "free parameters: 12" in out
        emitted = load_cpt(out_path)
        assert np.abs(emitted.rows - method_columns["pruning"].rows).max() <= 5e-5 + 1e-12

    def test_prune_unknown_parent_exits_2(self, capsys):
        code, _, err = _run(
            capsys, ["prune", str(fixture_path("anxiety")), "--parent", "Smoking"]
        )
        assert code == 2
        assert "Smoking" in err

    def test_divorce_flags_match_reference(self, capsys, tmp_path, method_columns):
        out_path = tmp_path / "divorced.json"
        code, out, _ = _run(
            capsys,
            ["divorce", str(fixture_path("anxiety")),
             "--parents", "Hypertension,SleepDuration",
             "--gate", "AND",
             "--map", "SleepDuration=>9hours",
             "--out", str(out_path)],
        )
        assert code == 0
        assert "free parameters: 8" in out
        emitted = load_cpt(out_path)
        assert np.abs(emitted.rows - method_columns["divorcing"].rows).max() <= 5e-5 + 1e-12

    def test_divorce_flags_in_given_parent_order(self, capsys):
        # the parents named out of document order: the same divorce as the reference, its
        # summary in the order given
        code, out, _ = _run(
            capsys,
            ["divorce", str(fixture_path("anxiety")),
             "--parents", "SleepDuration,Hypertension",
             "--map", "SleepDuration=>9hours"],
        )
        assert code == 0
        assert out.splitlines() == [
            "spec: AND gate over SleepDuration={>9hours}, Hypertension={Yes}",
            "score: 0.5072",
            "free parameters: 8",
        ]

    def test_divorce_search_finds_reference_spec(self, capsys):
        code, out, _ = _run(capsys, ["divorce", str(fixture_path("anxiety"))])
        assert code == 0
        assert "AND gate" in out
        assert "Hypertension={Yes}" in out
        assert "SleepDuration={>9hours}" in out
        assert "score: 0.5072" in out

    def test_divorce_flags_require_parents(self, capsys):
        code, _, err = _run(
            capsys, ["divorce", str(fixture_path("anxiety")), "--gate", "XOR"]
        )
        assert code == 2
        assert "--parents" in err

    def test_divorce_needs_map_for_wide_parent(self, capsys):
        code, _, err = _run(
            capsys,
            ["divorce", str(fixture_path("anxiety")), "--parents",
             "Hypertension,SleepDuration"],
        )
        assert code == 2
        assert "parent SleepDuration has 3 states" in err and "gate input 1" in err

    def test_divorce_rejects_map_for_parent_not_divorced(self, capsys):
        code, _, err = _run(
            capsys,
            ["divorce", str(fixture_path("anxiety")), "--parents", "Depression,Sex",
             "--map", "SleepDuration=>9hours"],
        )
        assert code == 2
        assert "parent SleepDuration, which is not divorced" in err

    @pytest.mark.parametrize(
        "states", ["<6hours,6-9hours,>9hours", "<6hours,<6hours", ">9hours,6-9hours,<6hours"]
    )
    def test_divorce_rejects_map_of_every_or_repeated_state(self, capsys, states):
        code, out, err = _run(
            capsys,
            ["divorce", str(fixture_path("anxiety")), "--parents", "Hypertension,SleepDuration",
             "--map", f"SleepDuration={states}"],
        )
        assert code == 2 and out == ""
        assert "parent SleepDuration must map some but not all of its states" in err

    def test_divorce_rejects_parent_mapped_twice(self, capsys):
        code, out, err = _run(
            capsys,
            ["divorce", str(fixture_path("anxiety")), "--parents", "Hypertension,SleepDuration",
             "--map", "SleepDuration=<6hours", "--map", "SleepDuration=>9hours"],
        )
        assert code == 2 and out == ""
        assert "--map gives parent SleepDuration twice" in err

    def test_divorce_rejects_parent_named_twice(self, capsys):
        code, out, err = _run(
            capsys, ["divorce", str(fixture_path("anxiety")), "--parents", "Depression,Depression"]
        )
        assert code == 2 and out == ""
        assert err == "error: --parents names Depression twice\n"

    @pytest.mark.parametrize("maps", [["SleepDuration=10hours"],
                                      ["Hypertension=Yes", "SleepDuration=10hours"]])
    def test_divorce_reports_unknown_state_before_parent_not_divorced(self, capsys, maps):
        # every --map entry is read before any is checked against the divorced parents
        flags = [f for m in maps for f in ("--map", m)]
        code, out, err = _run(
            capsys, ["divorce", str(fixture_path("anxiety")), "--parents", "Depression,Sex", *flags]
        )
        assert code == 2 and out == ""
        assert err == ("error: unknown state '10hours' for SleepDuration; "
                       "states are ('6-9hours', '<6hours', '>9hours')\n")

    def test_divorce_gate_outside_the_gates_exits_2_in_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["divorce", str(fixture_path("anxiety")), "--parents", "Depression,Sex",
                  "--gate", "NAND"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "argument --gate: invalid choice: 'NAND' (choose from 'AND', 'OR', 'XOR')" in out.err

    def test_divorce_of_one_parent_table_exits_2(self, capsys, tmp_path):
        truth_path = tmp_path / "one_parent.json"
        save_cpt(random_cpt(np.random.default_rng(43), (3,)), truth_path)
        code, out, err = _run(capsys, ["divorce", str(truth_path)])
        assert code == 2 and out == ""
        assert err == "error: divorcing needs at least 2 parents, got 1\n"

    def test_divorce_past_the_plan_bound_exits_4(self, capsys, tmp_path):
        # two 12-state parents: 3 * 4094^2 * 144 gate outputs, refused before any plan
        truth_path = tmp_path / "twelve.json"
        save_cpt(random_cpt(np.random.default_rng(44), (12, 12)), truth_path)
        code, out, err = _run(capsys, ["divorce", str(truth_path)])
        assert code == 4 and out == ""
        assert err == ("error: divorcing X0, X1 means 7240681152 gate outputs, "
                       "more than the 536870912 supported\n")

    @pytest.mark.parametrize(
        "argv",
        [["scm"], ["ici", "--restarts", "1"], ["sici", "--restarts", "1"],
         ["sici", "--restarts", "1", "--partition", "X0 | X1,X2"],
         ["reproduce", "--restarts", "1"]],
        ids=["scm", "ici", "sici", "sici-partition", "reproduce"],
    )
    def test_three_state_child_is_refused_once(self, capsys, tmp_path, argv):
        # Dirichlet rows have no zero entries, so no group of the prune and divorce
        # fits that reproduce runs first has all-zero medians
        parents = tuple(Variable(f"X{i}", ("s0", "s1")) for i in range(3))
        rows = np.random.default_rng(46).dirichlet(np.ones(3), size=8)
        truth_path = tmp_path / "three.json"
        save_cpt(Cpt(Variable("Y", ("y0", "y1", "y2")), parents, rows), truth_path)
        command, *flags = argv
        out_path = str(tmp_path / "out.csv")
        code, out, err = _run(capsys, [command, str(truth_path), *flags, "--out", out_path])
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].endswith(" requires a binary child; Y has 3 states")
        assert "Traceback" not in err
        if command == "reproduce":
            assert err.index("divorcing:") < err.index("error:")
        assert not list(tmp_path.glob("out*"))

    def test_scm_on_small_document(self, capsys, tmp_path):
        rng = np.random.default_rng(41)
        truth_path = tmp_path / "truth.json"
        save_cpt(random_cpt(rng, (2, 2, 2)), truth_path)
        out_path = tmp_path / "scm.json"
        code, out, _ = _run(capsys, ["scm", str(truth_path), "--quiet", "--out", str(out_path)])
        assert code == 0
        assert "free parameters: 2" in out
        load_cpt(out_path)  # emitted document passes validation

    def test_scm_beyond_the_bruteforce_guard(self, capsys, tmp_path):
        rng = np.random.default_rng(42)
        truth_path = tmp_path / "wide.json"
        save_cpt(random_cpt(rng, (31,)), truth_path)
        out_path = tmp_path / "scm.json"
        code, out, _ = _run(capsys, ["scm", str(truth_path), "--quiet", "--out", str(out_path)])
        assert code == 0
        assert "free parameters: 2" in out
        assert load_cpt(out_path).n_rows == 31

    @pytest.mark.parametrize("command", ["ici", "scm", "sici", "prune", "reproduce"])
    def test_root_node_is_rejected(self, capsys, tmp_path, command):
        truth_path = tmp_path / "root.json"
        truth_path.write_text(json.dumps({
            "format": 1,
            "child": {"name": "Y", "states": ["n", "y"]},
            "parents": [],
            "rows": [{"config": [], "probs": [0.3, 0.7]}],
        }))
        code, _, err = _run(capsys, [command, str(truth_path), "--out", str(tmp_path / "out")])
        assert code in (2, 4)
        assert "error" in err

    def test_sici_sweep_needs_two_parents(self, capsys, tmp_path):
        rng = np.random.default_rng(44)
        truth_path = tmp_path / "one_parent.json"
        save_cpt(random_cpt(rng, (3,)), truth_path)
        code, _, err = _run(capsys, ["sici", str(truth_path), "--restarts", "1"])
        assert code == 2
        assert "at least 2 parents" in err

    def test_sici_partition_of_thirteen_blocks_exits_4(self, capsys, tmp_path, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran past the search-space guard")

        monkeypatch.setattr("cpt_refine.optimizer._descend", no_search)
        parents = tuple(Variable(f"X{i}", ("n", "y")) for i in range(13))
        truth_path = tmp_path / "thirteen.json"
        save_cpt(Cpt(Variable("Y", ("n", "y")), parents, np.full((1 << 13, 2), 0.5)), truth_path)
        partition = "|".join(v.name for v in parents)
        code, _, err = _run(capsys, ["sici", str(truth_path), "--partition", partition])
        assert code == 4
        assert "13 parent blocks" in err

    def test_infeasible_population_exits_4(self, capsys):
        argv = ["ici", str(fixture_path("anxiety")), "--population", "1000000000000",
                "--restarts", "1"]
        code, out, err = _run(capsys, argv)
        assert code == 4
        assert out == ""
        assert err.startswith("error: a batch of 1000000000000 starts holds")
        assert err.count("\n") == 1

    def test_negative_seed_exits_2(self, capsys):
        code, _, err = _run(capsys, ["ici", str(fixture_path("anxiety")), "--seed", "-1"])
        assert code == 2
        assert "seed" in err

    def test_ici_command(self, capsys, tmp_path):
        rng = np.random.default_rng(43)
        truth_path = tmp_path / "truth.json"
        save_cpt(random_cpt(rng, (2, 2)), truth_path)
        out_path = tmp_path / "ici.json"
        code, out, _ = _run(
            capsys,
            ["ici", str(truth_path), "--population", "40", "--max-generations", "25",
             "--stall", "25", "--restarts", "1", "--out", str(out_path)],
        )
        assert code == 0
        assert "free parameters: 4" in out
        load_cpt(out_path)

    def test_sici_explicit_partition(self, capsys, tmp_path):
        out_path = tmp_path / "sici.json"
        code, out, _ = _run(
            capsys,
            ["sici", str(fixture_path("anxiety")),
             "--partition", "Hypertension | Depression,Sex,SleepDuration",
             "--population", "60", "--max-generations", "40", "--stall", "40",
             "--restarts", "1", "--out", str(out_path)],
        )
        assert code == 0
        assert "mechanism blocks {Depression, Sex, SleepDuration} | {Hypertension}" in out
        assert "free parameters: 14" in out
        load_cpt(out_path)

    def test_sici_partition_leaving_out_parents_exits_2(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran with a partition that leaves out parents")

        monkeypatch.setattr("cpt_refine.optimizer._descend", no_search)
        argv = ["sici", str(fixture_path("anxiety")), "--partition", "Depression"]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err == ("error: partition 'Depression' leaves out "
                       "Hypertension, Sex, SleepDuration\n")

    @pytest.mark.parametrize(
        "partition",
        ["Depression | Depression,Hypertension,Sex,SleepDuration",
         "Depression,Hypertension,Depression | Sex,SleepDuration"],
        ids=["two-blocks", "one-block"],
    )
    def test_sici_partition_naming_a_parent_twice_exits_2(self, capsys, monkeypatch, partition):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran with a partition that names a parent twice")

        monkeypatch.setattr("cpt_refine.optimizer._descend", no_search)
        argv = ["sici", str(fixture_path("anxiety")), "--partition", partition]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: partition {partition!r} names Depression twice\n"

    def test_sici_one_block_partition_exits_2(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("a search ran on a one-block partition")

        monkeypatch.setattr("cpt_refine.optimizer._descend", no_search)
        argv = ["sici", str(fixture_path("anxiety")),
                "--partition", "Depression,Hypertension,Sex,SleepDuration"]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err == "error: an ICI/SICI search needs at least 2 parent blocks, got 1\n"

    def test_fixtures_command(self, capsys, tmp_path):
        dest = tmp_path / "data"
        code, out, _ = _run(capsys, ["fixtures", "--dest", str(dest)])
        assert code == 0
        assert sorted(p.name for p in dest.iterdir()) == sorted(
            f"{n}.json" for n in FIXTURE_NAMES
        )


class TestSiciSweepTable:
    """``sici`` without ``--partition`` prints a report row per searched partition."""

    @staticmethod
    def _rows(out: str) -> list[str]:
        return [line for line in out.splitlines() if line.startswith("sici ")]

    def test_rows_are_the_sweeps_fits_best_first(self, capsys, anxiety):
        code, out, err = _run(capsys, ["sici", str(fixture_path("anxiety")), "--restarts", "1"])
        assert code == 0, err
        sweep = optimize_sici(anxiety, GaConfig(restarts=1))
        # a stable sort: the tied partitions keep the sweep's order
        ranked = sorted(sweep.results, key=lambda r: r.best_score)
        rows = self._rows(out)
        assert len(rows) == len(ranked) == 14
        names = [v.name for v in anxiety.parents]
        summaries = []
        for row, result in zip(rows, ranked):
            spec = result.best_spec
            free, savings = param_savings(spec, anxiety.parent_cards, 2)
            summaries.append("mechanism blocks " + " | ".join(
                "{" + ", ".join(names[i] for i in b) + "}" for b in spec.parent_partition))
            assert row.split()[:4] == ["sici", f"{result.best_score:.4f}", str(free), str(savings)]
            assert row.endswith(f"  {summaries[-1]}")
        assert sweep.best is ranked[0]
        assert out.splitlines()[-3:] == [
            f"spec: {summaries[0]}",
            f"score: {sweep.best.best_score:.4f}",
            f"free parameters: {sweep.best.fit.free_params}",
        ]

    def test_two_parents_give_one_row(self, capsys, tmp_path):
        truth_path = tmp_path / "two.json"
        save_cpt(random_cpt(np.random.default_rng(52), (2, 2)), truth_path)
        code, out, err = _run(capsys, ["sici", str(truth_path), "--restarts", "1"])
        assert code == 0, err
        (row,) = self._rows(out)
        assert row.endswith("  mechanism blocks {X0} | {X1}")

    def test_explicit_partition_prints_no_table(self, capsys):
        code, out, err = _run(capsys, ["sici", str(fixture_path("anxiety")), "--restarts", "1",
                                       "--partition", "Hypertension | Depression,Sex,SleepDuration"])
        assert code == 0, err
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "spec", "score", "free parameters"
        ]

    def test_header_stays_aligned_over_short_method_names(self):
        text = report_text([ReportRow("ici", 0.4858, 9, 15, "per-parent mechanisms")], 24)
        assert text.splitlines() == [
            "method     score  params  savings  spec",
            "------  --------  ------  -------  ----",
            "ici       0.4858       9       15  per-parent mechanisms",
            "(full CPT: 24 free parameters)",
        ]


# the ICI/SICI search flags of the comparisons below
SWEEP_FLAGS = ["--seed", "24", "--restarts", "1"]


def _sweep_case_truth(case: str) -> Cpt:
    """Small binary-child tables for comparing ``reproduce`` with the SICI sweep."""
    if case == "dirichlet-24":
        # three binary parents: with separate ICI and SICI searches this table
        # scored ICI 0.4207 and SICI 0.4222, the SICI winner being ICI itself
        binary = ("s0", "s1")
        parents = tuple(Variable(f"X{i}", binary) for i in range(3))
        rows = np.random.default_rng(24).dirichlet((1, 1), size=8)
        return Cpt(Variable("Y", ("y0", "y1")), parents, rows)
    seed, cards = {"2x2": (71, (2, 2)), "3x2": (72, (3, 2)), "2x3x2": (73, (2, 3, 2))}[case]
    return random_cpt(np.random.default_rng(seed), cards)


class TestReproduceCommand:
    def _reproduce(self, capsys, tmp_path, subdir, seed="3"):
        workdir = tmp_path / subdir
        workdir.mkdir()
        rng = np.random.default_rng(51)
        truth_path = workdir / "truth.json"
        save_cpt(random_cpt(rng, (2, 2, 2)), truth_path)
        report = workdir / "report.csv"
        code, out, _ = _run(
            capsys,
            ["reproduce", str(truth_path), "--out", str(report), "--seed", seed,
             "--restarts", "2", "--population", "40", "--max-generations", "25",
             "--stall", "25"],
        )
        assert code == 0
        return workdir, out

    def test_outputs_are_complete_and_valid(self, capsys, tmp_path, anxiety):
        workdir, out = self._reproduce(capsys, tmp_path, "run")
        report = (workdir / "report.csv").read_text()
        lines = report.strip().splitlines()
        assert lines[0] == "method,optimal_score_4dp,free_parameters,parameter_savings,spec_summary"
        assert len(lines) == 6
        full = 8  # (2,2,2) -> 2 has 8 free parameters
        for line in lines[1:]:
            _, _, free, savings, _ = line.split(",", 4)
            assert int(free) + int(savings) == full
        side = (workdir / "report_cpts.csv").read_text()
        assert side.splitlines()[0].startswith("row,X0,X1,X2,truth:")
        truth = load_cpt(workdir / "truth.json")
        reported = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
        for method in ("pruning", "divorcing", "scm", "ici", "sici"):
            emitted = load_cpt(workdir / f"report_{method}.json")
            assert emitted.n_rows == 8
            # re-scoring the emitted document reproduces the reported score
            assert f"{score_sum_tvd(truth, emitted):.4f}" == reported[method]
        assert "method" in out  # aligned text table on stdout

    def test_two_parent_table_reports_every_method(self, capsys, tmp_path):
        # with two parents, divorcing takes both
        truth_path = tmp_path / "two.json"
        save_cpt(random_cpt(np.random.default_rng(52), (2, 2)), truth_path)
        report = tmp_path / "report.csv"
        code, _, err = _run(
            capsys,
            ["reproduce", str(truth_path), "--out", str(report), "--restarts", "1",
             "--population", "20", "--max-generations", "10"],
        )
        assert code == 0, err
        lines = report.read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == [
            "pruning", "divorcing", "scm", "ici", "sici"
        ]

    def test_labels_with_commas_and_quotes_read_back(self, capsys, tmp_path):
        sleep = Variable("Sleep, hours", ("<6", "6-9, most"))
        mood = Variable('Mood "now"', ("low", "high\nish"))
        child = Variable("Y", ("n", "y, yes"))
        rows = random_cpt(np.random.default_rng(53), (2, 2)).rows
        truth_path = tmp_path / "odd.json"
        save_cpt(Cpt(child, (sleep, mood), rows), truth_path)
        report = tmp_path / "report.csv"
        code, _, err = _run(
            capsys,
            ["reproduce", str(truth_path), "--out", str(report), "--restarts", "1",
             "--population", "20", "--max-generations", "10"],
        )
        assert code == 0, err
        with open(tmp_path / "report_cpts.csv", newline="", encoding="utf-8") as fh:
            header, *table = csv.reader(fh)
        methods = ("truth", "pruning", "divorcing", "scm", "ici", "sici")
        assert header == ["row", sleep.name, mood.name,
                          *(f"{m}:{s}" for m in methods for s in child.states)]
        assert [len(line) for line in table] == [len(header)] * 4
        assert [line[1:3] for line in table] == [
            [s, m] for m in mood.states for s in sleep.states
        ]
        with open(report, newline="", encoding="utf-8") as fh:
            summary = list(csv.reader(fh))
        assert {len(line) for line in summary} == {5}
        assert summary[1][4] in (f"prune {sleep.name}", f"prune {mood.name}")

    def test_same_seed_runs_are_byte_identical(self, capsys, tmp_path):
        first, _ = self._reproduce(capsys, tmp_path, "one")
        second, _ = self._reproduce(capsys, tmp_path, "two")
        names = ["report.csv", "report_cpts.csv"] + [
            f"report_{m}.json" for m in ("pruning", "divorcing", "scm", "ici", "sici")
        ]
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_different_seeds_may_differ_only_in_ga_rows(self, capsys, tmp_path):
        first, _ = self._reproduce(capsys, tmp_path, "a", seed="3")
        second, _ = self._reproduce(capsys, tmp_path, "b", seed="4")
        for name in ("report_pruning.json", "report_divorcing.json", "report_scm.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    @pytest.mark.parametrize("case", ["dirichlet-24", "2x2", "3x2", "2x3x2"])
    def test_ici_row_is_the_sweeps_singleton_partition(self, capsys, tmp_path, case):
        truth = _sweep_case_truth(case)
        truth_path = tmp_path / "truth.json"
        save_cpt(truth, truth_path)
        report = tmp_path / "report.csv"
        code, _, err = _run(capsys, ["reproduce", str(truth_path), "--out", str(report),
                                     *SWEEP_FLAGS])
        assert code == 0, err
        scores = {
            line.split(",")[0]: float(line.split(",")[1])
            for line in report.read_text().splitlines()[1:]
        }
        assert scores["sici"] <= scores["ici"]
        if len(truth.parents) == 2:  # the singletons are the sweep's only partition
            assert scores["sici"] == scores["ici"]

        sweep = optimize_sici(truth, GaConfig(seed=24, restarts=1))
        singletons = tuple((i,) for i in range(len(truth.parents)))
        (single,) = [r for r in sweep.results if r.best_spec.parent_partition == singletons]
        save_cpt(single.fit.cpt, tmp_path / "singletons.json")
        assert (tmp_path / "report_ici.json").read_bytes() == (
            tmp_path / "singletons.json"
        ).read_bytes()

        code, _, err = _run(capsys, ["sici", str(truth_path), "--out",
                                     str(tmp_path / "sici.json"), *SWEEP_FLAGS])
        assert code == 0, err
        assert (tmp_path / "report_sici.json").read_bytes() == (
            tmp_path / "sici.json"
        ).read_bytes()
