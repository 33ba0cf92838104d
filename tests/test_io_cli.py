"""Documents, reports, and the command-line interface."""

import errno
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cpt_refine import (
    Cpt, GaConfig, Variable, load_cpt, optimize_sici, save_cpt, score_sum_tvd
)
from cpt_refine.cli import METHODS, build_parser, main
from cpt_refine.cpt import config_table
from cpt_refine.errors import ValidationError
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
        # labels with quotes, backslashes, non-ASCII and control characters
        label = st.text(st.sampled_from('a"\\é\x00\n\t\x7f€😀') | st.characters(), max_size=4)

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

    def test_wrong_probability_count_rejected(self, tmp_path):
        doc = self._doc()
        doc["rows"][0]["probs"] = [1.0]
        self._expect_error(doc, tmp_path, "1 probabilities")

    @pytest.mark.parametrize("sum_row, unknown_row", [(2, 5), (5, 2)])
    def test_first_faulty_row_is_reported(self, tmp_path, sum_row, unknown_row):
        doc = self._doc()
        doc["rows"][sum_row]["probs"] = [0.5, 0.3]
        doc["rows"][unknown_row]["config"][0] = "Maybe"
        first = min(sum_row, unknown_row)
        self._expect_error(doc, tmp_path, f"row {first + 1}[ :]")

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
        assert "Depression=No" in lines[0]

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
        ],
        ids=["empty-object", "nan-probability", "list-document", "non-object-row",
             "string-probabilities", "non-list-parents", "non-list-rows",
             "huge-integer-probability", "huge-integer-literal", "duplicate-parent-names",
             "boolean-probabilities", "boolean-format", "48-parents-no-rows",
             "out-of-range-probabilities", "infinite-probability"],
    )
    def test_validation_failure_exits_2(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, _, err = _run(capsys, ["score", str(bad), str(bad)])
        assert code == 2
        assert "error" in err

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

    def test_divorce_of_one_parent_table_exits_2(self, capsys, tmp_path):
        truth_path = tmp_path / "one_parent.json"
        save_cpt(random_cpt(np.random.default_rng(43), (3,)), truth_path)
        code, out, err = _run(capsys, ["divorce", str(truth_path)])
        assert code == 2 and out == ""
        assert err == "error: divorcing needs at least 2 parents, got 1\n"

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

    def test_fixtures_command(self, capsys, tmp_path):
        dest = tmp_path / "data"
        code, out, _ = _run(capsys, ["fixtures", "--dest", str(dest)])
        assert code == 0
        assert sorted(p.name for p in dest.iterdir()) == sorted(
            f"{n}.json" for n in FIXTURE_NAMES
        )


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
