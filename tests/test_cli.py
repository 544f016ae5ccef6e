"""CLI dispatch, schema validation, exit codes, output stability."""

import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from berkline import serialize as ser
from berkline.cli import COMMANDS, _validator, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = "src/berkline/schemas/berkline.schema.json"

# a child interpreter imports berkline from this checkout, as pytest does
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

FIELD_Q = '{"backend":"puiseux","char":0}'
FIELD_F2 = '{"backend":"puiseux","char":2}'

T_POLY = json.dumps({
    "center": {"backend": "puiseux", "char": 0, "terms": [], "prec": "inf"},
    "coeffs": [
        {"backend": "puiseux", "char": 0, "terms": [], "prec": "inf"},
        {"backend": "puiseux", "char": 0, "terms": [[0, 1, "1"]], "prec": "inf"},
    ],
})


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_norm_of_T_is_half(self, capsys):
        point = '{"kind":"disc","center":{"backend":"puiseux","char":0,' \
                '"terms":[],"prec":"inf"},"s":{"q":"1","e":"0"}}'
        code, out, _ = run(capsys, ["eval", "--field", FIELD_Q,
                                    "--poly", T_POLY, "--point", point])
        assert code == 0
        assert json.loads(out) == {"logvalue": {"q": "1", "e": "0"}}

    def test_deterministic_output(self, capsys):
        point = '{"kind":"disc","center":{"backend":"puiseux","char":0,' \
                '"terms":[],"prec":"inf"},"s":{"q":"1","e":"0"}}'
        argv = ["eval", "--field", FIELD_Q, "--poly", T_POLY, "--point", point]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestClassify:
    @pytest.mark.parametrize("s,typ", [('"inf"', 1), ('{"q":"1"}', 2),
                                       ('{"q":"1","e":"1"}', 3)])
    def test_types(self, capsys, s, typ):
        point = ('{"kind":"disc","center":{"backend":"puiseux","char":0,'
                 '"terms":[],"prec":"inf"},"s":%s}' % s)
        code, out, _ = run(capsys, ["classify", "--field", FIELD_Q,
                                    "--point", point])
        assert code == 0
        assert json.loads(out)["type"] == typ

    def test_chain_is_type_4(self, capsys):
        zero = '{"backend":"puiseux","char":0,"terms":[],"prec":"inf"}'
        tee = '{"backend":"puiseux","char":0,"terms":[[1,1,"1"]],"prec":"inf"}'
        point = json.dumps({"kind": "chain", "discs": [
            {"kind": "disc", "center": json.loads(zero), "s": {"q": "1"}},
            {"kind": "disc", "center": json.loads(tee), "s": {"q": "2"}},
        ]})
        code, out, _ = run(capsys, ["classify", "--field", FIELD_Q,
                                    "--point", point])
        assert code == 0
        assert json.loads(out)["type"] == 4


class TestSkeleton:
    def test_single_ray_dot(self, capsys):
        code, out, _ = run(capsys, ["skeleton", "--field", FIELD_Q,
                                    "--centers", "[0]", "--format", "dot"])
        assert code == 0
        assert out.startswith("digraph skeleton {")
        assert "v1 -> v0" in out

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, ["skeleton", "--field", FIELD_Q,
                                    "--centers", '[0, "t", 1]'])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 5
        # emitted vertices reparse into the same points
        fld = ser.field_from_json(json.loads(FIELD_Q))
        for v in doc["vertices"]:
            ser.elem_from_json(v["center"], fld)

    def test_byte_identical_under_permutation(self, capsys):
        _, out1, _ = run(capsys, ["skeleton", "--field", FIELD_Q,
                                  "--centers", '[0, "t", 1]', "--format", "dot"])
        _, out2, _ = run(capsys, ["skeleton", "--field", FIELD_Q,
                                  "--centers", '[1, 0, "t"]', "--format", "dot"])
        assert out1 == out2


class TestNp:
    def test_polygon_and_count(self, capsys):
        poly = json.dumps({
            "center": {"backend": "puiseux", "char": 0, "terms": [],
                       "prec": "inf"},
            "coeffs": [
                {"backend": "puiseux", "char": 0,
                 "terms": [[1, 1, "-1"]], "prec": "inf"},
                {"backend": "puiseux", "char": 0, "terms": [], "prec": "inf"},
                {"backend": "puiseux", "char": 0,
                 "terms": [[0, 1, "1"]], "prec": "inf"},
            ],
        })
        code, out, _ = run(capsys, [
            "np", "--field", FIELD_Q, "--poly", poly,
            "--count", '{"lo": {"q":"1/2"}, "hi": {"q":"1/2"}}'])
        assert code == 0
        doc = json.loads(out)
        assert doc["segments"] == [{"slope": "-1/2", "width": 2}]
        assert doc["count"] == 2


class TestSheaf:
    def test_kummer_vanishes(self, capsys):
        code, out, _ = run(capsys, [
            "sheaf", "--field", FIELD_F2, "--centers", '[0, "t", 1]',
            "--n", "4", "--sheaf", '{"kind":"kummer"}'])
        assert code == 0
        assert json.loads(out) == {"H0": [], "H1": []}

    def test_constant(self, capsys):
        code, out, _ = run(capsys, [
            "sheaf", "--field", FIELD_Q, "--centers", "[0]",
            "--n", "6", "--sheaf", '{"kind":"constant"}'])
        assert code == 0
        assert json.loads(out) == {"H0": [6], "H1": []}


class TestBalance:
    def test_boundary_degrees(self, capsys):
        fld = ser.field_from_json(json.loads(FIELD_Q))
        from berkline import Polynomial, RationalFunction

        f = RationalFunction(
            Polynomial.from_roots(fld, [fld.zero(), fld.zero(), fld.one()]),
            Polynomial.from_coeffs(fld, [1]))
        fdoc = json.dumps(ser.ratfunc_to_json(f))
        domain = json.dumps({
            "bound": {"center": 0, "s": {"q": "-1"}},
            "excluded": [{"center": 0, "s": {"q": "1"}, "closed": True},
                         {"center": 1, "s": {"q": "1"}, "closed": True}],
        })
        code, out, _ = run(capsys, ["balance", "--field", FIELD_Q,
                                    "--f", fdoc, "--domain", domain])
        assert code == 0
        doc = json.loads(out)
        assert doc["boundary_degrees"] == [2, 1]
        assert sum(doc["boundary_degrees"]) + doc["exterior"] == 0

    @pytest.mark.parametrize("mode", ["domain", "point"])
    def test_wrong_root_list_exit_3(self, capsys, mode):
        fld = ser.field_from_json(json.loads(FIELD_Q))
        from berkline import Polynomial, RationalFunction

        # T listed with the root 1: complete, exact and wrong
        f = RationalFunction(Polynomial.variable(fld),
                             Polynomial.from_coeffs(fld, [1]),
                             num_roots=(fld.one(),))
        fdoc = json.dumps(ser.ratfunc_to_json(f))
        extra = {
            "domain": ["--domain", json.dumps({
                "bound": {"center": 0, "s": {"q": "-1"}},
                "excluded": [{"center": 0, "s": {"q": "1"}, "closed": True}],
            })],
            "point": ["--point", json.dumps({
                "kind": "disc", "center": {"backend": "puiseux", "char": 0,
                                           "terms": [], "prec": "inf"},
                "s": {"q": "1"}})],
        }[mode]
        code, out, _ = run(capsys, ["balance", "--field", FIELD_Q,
                                    "--f", fdoc] + extra)
        assert code == 3
        doc = json.loads(out)
        assert doc["error"] == "NotCertified"
        assert doc["witness"] == {"which": "num", "index": 0}


class TestHomotopy:
    def test_reflexive(self, capsys):
        fld = ser.field_from_json(json.loads(FIELD_Q))
        from berkline import Polynomial, RationalFunction

        f = RationalFunction(Polynomial.variable(fld),
                             Polynomial.from_coeffs(fld, [1]))
        fdoc = json.dumps(ser.ratfunc_to_json(f))
        domain = json.dumps({
            "bound": {"center": 0, "s": {"q": "-1"}},
            "excluded": [{"center": 0, "s": {"q": "1"}, "closed": False}],
        })
        code, out, _ = run(capsys, ["homotopy", "--field", FIELD_Q,
                                    "--f0", fdoc, "--f1", fdoc,
                                    "--domain", domain])
        assert code == 0
        assert json.loads(out) == {"homotopic": True}


class TestCancel:
    def test_identity_section_delta(self, capsys):
        code, out, _ = run(capsys, ["cancel", "--field", FIELD_F2,
                                    "--g", "t", "--N", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["delta"] == [{"u": "*", "coef": 1}]
        assert sum(e["mult"] for e in doc["y1"]) == 5
        assert sum(e["mult"] for e in doc["y2"]) == 4

    def test_y2_built_once(self, capsys, monkeypatch):
        import berkline.cancel
        import berkline.cli

        real, calls = berkline.cancel.y2_divisor, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        # cli imports y2_divisor from cancel when the command runs
        monkeypatch.setattr(berkline.cancel, "y2_divisor", counted)
        code, _, _ = run(capsys, ["cancel", "--field", FIELD_F2,
                                  "--g", "t", "--N", "5"])
        assert (code, len(calls)) == (0, 1)

    def test_emit_bytes_match_json_dump(self, capsys, monkeypatch):
        # _emit writes json.dumps (C encoder); the bytes must be those of the
        # json.dump stream writer on a large Y1 payload
        import io
        import berkline.cli

        emitted, real = [], berkline.cli._emit
        monkeypatch.setattr(berkline.cli, "_emit",
                            lambda obj: (emitted.append(obj), real(obj)))
        code, out, _ = run(capsys, ["cancel", "--field", FIELD_Q,
                                    "--g", "1+t", "--N", "100000"])
        assert code == 0 and len(emitted) == 1
        ref = io.StringIO()
        json.dump(emitted[0], ref, sort_keys=True, separators=(",", ":"))
        assert out == ref.getvalue() + "\n"
        assert len(json.loads(out)["y1"]) == 100000

    def test_y1_past_its_cap_is_a_resource_limit(self, capsys, monkeypatch):
        import berkline.cancel

        monkeypatch.setattr(berkline.cancel, "Y1_ENTRY_CAP", 10)
        code, out, _ = run(capsys, ["cancel", "--field", FIELD_Q,
                                    "--g", "t", "--N", "11"])
        assert code == 3
        doc = json.loads(out)
        assert (doc["error"], doc["witness"]) == ("resource_limit", 10)

    def test_unit_g_has_empty_delta(self, capsys):
        code, out, _ = run(capsys, ["cancel", "--field", FIELD_F2,
                                    "--g", "1", "--N", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["delta"] == []
        assert sum(e["mult"] for e in doc["y2"]) == 5


class TestErrors:
    def test_malformed_json_exit_2(self, capsys):
        code, _, err = run(capsys, ["eval", "--field", "{oops",
                                    "--poly", T_POLY,
                                    "--point", '{"kind":"disc"}'])
        assert code == 2

    def test_schema_violation_exit_2(self, capsys):
        code, _, err = run(capsys, ["classify", "--field", FIELD_Q,
                                    "--point", '{"kind":"circle"}'])
        assert code == 2
        assert "schema" in err

    @pytest.mark.parametrize("blocked", [
        ("jsonschema",), ("jsonschema", "jsonschema.exceptions")])
    def test_rejection_without_jsonschema_exit_2(self, capsys, monkeypatch,
                                                 blocked):
        # a validator cached by an earlier test would skip the import
        _validator.cache_clear()
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)
        path = ROOT / "perfbench" / "problems" / "classify__bad_schema.json"
        code, out, err = run(capsys, ["classify", "--problem", str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "schema",
            "detail": "classify: payload does not match the schema"}

    def test_domain_error_exit_3(self, capsys):
        fld = ser.field_from_json(json.loads(FIELD_Q))
        from berkline import Polynomial, RationalFunction

        f = RationalFunction(Polynomial.from_roots(fld, [fld.one()]),
                             Polynomial.from_coeffs(fld, [1]))
        fdoc = json.dumps(ser.ratfunc_to_json(f))
        domain = json.dumps({"bound": {"center": 0, "s": {"q": "0"}}})
        code, out, _ = run(capsys, ["balance", "--field", FIELD_Q,
                                    "--f", fdoc, "--domain", domain])
        assert code == 3
        doc = json.loads(out)
        assert doc["error"] == "NotCertified"
        assert "witness" in doc

    def test_problem_file(self, capsys, tmp_path):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps({
            "version": 1,
            "command": "skeleton",
            "payload": {"field": {"backend": "puiseux", "char": 0},
                        "centers": [0]},
        }))
        code, out, _ = run(capsys, ["skeleton", "--problem", str(prob)])
        assert code == 0
        assert json.loads(out)["root"] == 0

    def test_bad_version_exit_2(self, capsys, tmp_path):
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps({"version": 9, "payload": {}}))
        code, _, _ = run(capsys, ["skeleton", "--problem", str(prob)])
        assert code == 2

    @pytest.mark.parametrize("text,detail", [
        ("[]", "problem file must hold a JSON object"),
        ('"x"', "problem file must hold a JSON object"),
        ('{"version": 1, "command": "np", "payload": []}',
         "problem file payload must be a JSON object"),
        ('{"version": 1, "command": "eval", "payload": {}}',
         "problem file command disagrees with argv"),
    ], ids=["list", "string", "payload-list", "command-disagrees"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_object_problem_exit_2(self, capsys, monkeypatch, tmp_path,
                                       text, detail, source):
        # all but the last once escaped as an AttributeError traceback with
        # exit 1
        if source == "file":
            prob = tmp_path / "p.json"
            prob.write_text(text)
            arg = str(prob)
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            arg = "-"
        code, out, err = run(capsys, ["np", "--problem", arg])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "schema", "detail": detail}

    @pytest.mark.parametrize("route", ["flag", "flag-file", "flag-stdin",
                                       "problem-file", "problem-stdin"])
    def test_deeply_nested_json_exit_2(self, capsys, monkeypatch, tmp_path,
                                       route):
        # each once escaped as a RecursionError traceback with exit 1
        deep = "[" * 2000
        if route.startswith("problem"):
            text = '{"version": 1, "payload": {"poly": ' + deep + "}}"
        else:
            text = deep
        if route == "flag":
            arg = text
        elif route.endswith("file"):
            path = tmp_path / "deep.json"
            path.write_text(text)
            arg = str(path)
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            arg = "-"
        if route.startswith("problem"):
            argv = ["np", "--problem", arg]
        else:
            argv = ["np", "--poly", "@" + arg if route == "flag-file" else arg]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "schema",
                                   "detail": "JSON nested too deeply"}

    def test_flag_reads_file_and_stdin(self, capsys, monkeypatch, tmp_path):
        poly = '{"center":0,"coeffs":[2,1]}'
        want = run(capsys, ["np", "--poly", poly])
        path = tmp_path / "poly.json"
        path.write_text(poly)
        assert run(capsys, ["np", "--poly", "@" + str(path)]) == want
        monkeypatch.setattr(sys, "stdin", io.StringIO(poly))
        assert run(capsys, ["np", "--poly", "-"]) == want
        assert want[0] == 0

    @pytest.mark.parametrize("version,code", [
        ("1", 0), ("1.0", 0), ("true", 2), ('"1"', 2), ("9", 2), (None, 2)])
    def test_problem_version_is_json_one(self, capsys, tmp_path, version,
                                         code):
        # true was once accepted as version 1, by Python equality
        prob = tmp_path / "p.json"
        head = "" if version is None else f'"version": {version}, '
        prob.write_text("{" + head + '"payload": {"poly": '
                        '{"center": 0, "coeffs": [2, 1]}}}')
        got, _, err = run(capsys, ["np", "--problem", str(prob)])
        assert got == code
        if code:
            assert json.loads(err) == {"error": "schema", "detail":
                                       "problem file version must be 1"}

    @pytest.mark.parametrize("argv,witness", [
        (["cancel", "--field", '{"backend":"padic","p":4}', "--g", "1",
          "--N", "3"], 4),
        (["np", "--field", '{"backend":"puiseux","char":4}', "--poly",
          '{"center":0,"coeffs":[2,1]}'], 4),
        (["skeleton", "--field", '{"backend":"puiseux","char":15}',
          "--centers", "[0]"], 15),
        (["classify", "--field", '{"backend":"puiseux","char":1}',
          "--point", '{"kind":"disc","center":0,"s":{"q":"1"}}'], 1),
    ])
    def test_composite_characteristic_exit_3(self, capsys, argv, witness):
        code, out, _ = run(capsys, argv)
        assert code == 3
        doc = json.loads(out)
        assert (doc["error"], doc["witness"]) == ("NotPrime", witness)

    @pytest.mark.parametrize("argv", [
        ["skeleton", "--centers",
         '[{"backend":"puiseux","char":0,"terms":[[1,0,"1"]],"prec":"inf"}]'],
        ["skeleton", "--centers",
         '[{"backend":"puiseux","char":0,"terms":[],"prec":[1,0]}]'],
        ["skeleton", "--centers", "[0]", "--s_floor", '{"q":"1/0"}'],
        ["skeleton", "--centers", '["t^1/0"]'],
        ["skeleton", "--centers", '["1/0"]'],
        ["skeleton", "--field", '{"backend":"padic","p":3}', "--centers",
         '[{"backend":"padic","p":3,"value":"1/0"}]'],
        ["cancel", "--g", "t^1/0", "--N", "3"],
        ["cancel", "--g", "1/0", "--N", "3"],
    ], ids=["term", "prec", "logvalue", "centers-exp", "centers-const",
            "padic-value", "g-exp", "g-const"])
    def test_zero_denominator_exit_2(self, capsys, argv):
        # these pass the schema; they once escaped as ZeroDivisionError
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["error"] == "schema"
        assert doc["detail"].startswith("zero denominator in ")

    def test_unexpected_exception_exit_4(self, capsys, monkeypatch):
        from berkline import skeleton

        def boom(*args):
            raise RuntimeError("boom")

        # cli imports build_skeleton from skeleton when the command runs
        monkeypatch.setattr(skeleton, "build_skeleton", boom)
        code, out, err = run(capsys, ["skeleton", "--centers", "[0]"])
        assert (code, out) == (4, "")
        assert json.loads(err) == {"error": "internal",
                                   "detail": "RuntimeError: boom"}

    def test_center_outside_disc_exit_3(self, capsys):
        code, out, _ = run(capsys, ["skeleton", "--field", FIELD_Q,
                                    "--centers", '[0,"t^-1"]'])
        assert code == 3
        doc = json.loads(out)
        assert (doc["error"], doc["witness"]) == ("PointOutsideDisc", 1)


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "berkline.cli", "cancel",
                          "--field", FIELD_F2, "--g", "t", "--N", "5"],
                         capture_output=True, text=True, env=CHILD_ENV)
    assert out.returncode == 0
    assert json.loads(out.stdout)["delta"] == [{"u": "*", "coef": 1}]


def test_closed_stdout_exits_cleanly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "berkline.cli", "cancel",
                              "--field", FIELD_F2, "--g", "t", "--N", "5"],
                             stdout=write_end, stderr=subprocess.PIPE, text=True,
                             env=CHILD_ENV)
    finally:
        os.close(write_end)
    assert out.returncode == 1
    assert out.stderr == ""


def _schema_doc():
    return json.loads((ROOT / SCHEMA_PATH).read_text())


def test_schema_document():
    doc = _schema_doc()
    # the CLI trusts its shipped schema; the meta-schema check lives here
    Draft202012Validator.check_schema(doc)
    assert set(COMMANDS) <= set(doc["$defs"])
    assert [p.name for p in (ROOT / SCHEMA_PATH).parent.iterdir()] == \
        ["berkline.schema.json"]
    assert f"]({SCHEMA_PATH})" in (ROOT / "README.md").read_text()
    manifest = (ROOT / "MANIFEST.in").read_text().splitlines()
    assert [line for line in manifest if "schema" in line] == \
        [f"include {SCHEMA_PATH}"]


@pytest.mark.parametrize("name", COMMANDS)
def test_payload_flags_match_schema_properties(name):
    # the built parser takes --problem and one flag per top-level property
    # of the command's schema entry
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = {opt for a in sub.choices[name]._actions for opt in a.option_strings}
    assert flags == {"-h", "--help", "--problem"} | {
        f"--{key}" for key in _schema_doc()["$defs"][name]["properties"]}


POLY = {"center": 0, "coeffs": [0, 1]}
RF = {"num": POLY, "den": {"center": 0, "coeffs": [1]}}
DOM = {"bound": {"center": 0, "s": {"q": "-1"}}}
DISC = {"kind": "disc", "center": 0, "s": {"q": "1"}}

# (command, payload, exit code, stderr detail), the details as the CLI
# printed them when each command still had its own fully inlined schema
INVALID_PAYLOADS = [
    ("eval", {"point": DISC},
     2, "eval: 'poly' is a required property"),
    ("eval", {"poly": POLY, "point": DISC, "extra": 1},
     2, "eval: Additional properties are not allowed ('extra' was unexpected)"),
    ("eval", {"poly": {"center": 0}, "point": DISC},
     2, "eval: 'coeffs' is a required property"),
    ("eval", {"poly": POLY, "point": {"kind": "disc", "center": 0, "s": "x"}},
     2, "eval: 'chain' was expected"),
    ("eval", {"poly": POLY, "point": {"kind": "disc", "center": 1.5, "s": "inf"}},
     2, 'eval: 1.5 is not valid under any of the given schemas'),
    ("eval", {"poly": {"center": 0, "coeffs": [{"backend": "puiseux", "terms": [[1, 2]]}]}, "point": DISC},
     2, 'eval: [1, 2] is too short'),
    ("classify", {"point": {"kind": "circle"}},
     2, "classify: {'kind': 'circle'} is not valid under any of the given schemas"),
    ("classify", {"point": {"kind": "chain", "discs": [DISC]}},
     2, "classify: [{'kind': 'disc', 'center': 0, 's': {'q': '1'}}] is too short"),
    ("classify", {"field": {"backend": "padic"}, "point": DISC},
     2, "classify: 'puiseux' was expected"),
    ("classify", {"field": {"backend": "puiseux", "char": -1}, "point": DISC},
     2, "classify: 'padic' was expected"),
    ("classify", {"field": {"backend": "gf", "p": 2}, "point": DISC},
     2, "classify: {'backend': 'gf', 'p': 2} is not valid under any of the given schemas"),
    ("skeleton", {"centers": []},
     2, 'skeleton: [] should be non-empty'),
    ("skeleton", {"centers": [0], "format": "svg"},
     2, "skeleton: 'svg' is not one of ['json', 'dot']"),
    ("skeleton", {"centers": [0], "s_floor": {"e": "1"}},
     2, "skeleton: 'q' is a required property"),
    ("skeleton", {"centers": [{"backend": "padic", "p": 1, "value": "1"}]},
     2, "skeleton: 'puiseux' was expected"),
    ("skeleton", {"centers": "0"},
     2, "skeleton: '0' is not of type 'array'"),
    ("skeleton", {},
     2, "skeleton: 'centers' is a required property"),
    ("np", {"poly": POLY, "count": {"lo": "1/2", "hi_open": "yes"}},
     2, "np: 'yes' is not of type 'boolean'"),
    ("np", {"poly": POLY, "count": {"mid": 1}},
     2, "np: Additional properties are not allowed ('mid' was unexpected)"),
    ("np", {"poly": [0, 1]},
     2, "np: [0, 1] is not of type 'object'"),
    ("np", {"poly": {"center": {"backend": "padic", "p": 3, "value": "1/x"}, "coeffs": []}},
     2, "np: 'puiseux' was expected"),
    ("sheaf", {"n": 1, "sheaf": {"kind": "kummer"}},
     2, 'sheaf: 1 is less than the minimum of 2'),
    ("sheaf", {"n": 4, "sheaf": {"kind": "weird"}},
     2, "sheaf: 'weird' is not one of ['kummer', 'constant', 'explicit']"),
    ("sheaf", {"n": 4},
     2, "sheaf: 'sheaf' is a required property"),
    ("sheaf", {"n": "4", "sheaf": {"kind": "constant"}},
     2, "sheaf: '4' is not of type 'integer'"),
    ("sheaf", {"n": 4, "sheaf": {"kind": "explicit", "vertices": "ab"}},
     2, "sheaf: 'ab' is not of type 'array'"),
    ("balance", {"f": RF},
     2, "balance: {'f': {'num': {'center': 0, 'coeffs': [0, 1]}, 'den': {'center': 0, 'coeffs': [1]}}, 'field': {'backend': 'puiseux', 'char': 0}} is not valid under any of the given schemas"),
    ("balance", {"f": {"num": POLY}, "domain": DOM},
     2, "balance: 'den' is a required property"),
    ("balance", {"f": RF, "domain": {"bound": {"center": 0}}},
     2, "balance: 's' is a required property"),
    ("balance", {"f": RF, "domain": DOM, "directions": [None]},
     2, 'balance: None is not valid under any of the given schemas'),
    ("balance", {"f": RF, "point": DISC, "domain": {"bound": {"center": 0, "s": "inf"}, "excluded": [{"center": 0, "s": "1", "closed": "no"}]}},
     2, "balance: 'no' is not of type 'boolean'"),
    ("homotopy", {"f0": RF, "f1": RF},
     2, "homotopy: 'domain' is a required property"),
    ("homotopy", {"f0": RF, "f1": {**RF, "reduced": 1}, "domain": DOM},
     2, "homotopy: 1 is not of type 'boolean'"),
    ("homotopy", {"f0": RF, "f1": RF, "domain": DOM, "g": "t"},
     2, "homotopy: Additional properties are not allowed ('g' was unexpected)"),
    ("homotopy", {"f0": {"num": POLY, "den": POLY, "num_roots": [[0]]}, "f1": RF, "domain": DOM},
     2, 'homotopy: [0] is not valid under any of the given schemas'),
    ("cancel", {"N": 5},
     2, "cancel: {'N': 5, 'field': {'backend': 'puiseux', 'char': 0}} is not valid under any of the given schemas"),
    ("cancel", {"N": 0, "g": "t"},
     2, 'cancel: 0 is less than the minimum of 1'),
    ("cancel", {"N": 5, "g": 1.5},
     2, "cancel: 1.5 is not of type 'string', 'integer', 'object'"),
    ("cancel", {"N": 5, "section": {"k": 1, "components": [{"u": "a"}]}},
     2, "cancel: 'g' is a required property"),
    ("cancel", {"N": 5, "g": "t", "annulus": {"s_lo": {"q": "1"}}},
     2, "cancel: 's_hi' is a required property"),
    ("cancel", {"g": "t"},
     2, "cancel: 'N' is a required property"),
]


@pytest.mark.parametrize(
    "command,payload,code,detail", INVALID_PAYLOADS,
    # numbered as first recorded; case 11 (char 1) now exits 3, see
    # test_composite_characteristic_exit_3
    ids=[f"{case[0]}-{i + (i >= 11)}" for i, case in enumerate(INVALID_PAYLOADS)])
def test_invalid_payload_detail(capsys, tmp_path, command, payload, code,
                                detail):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"version": 1, "command": command,
                                "payload": payload}))
    got, out, err = run(capsys, [command, "--problem", str(prob)])
    assert (got, out) == (code, "")
    assert json.loads(err) == {"error": "schema", "detail": detail}


class TestBalancePoint:
    def test_direction_slopes_via_cli(self, capsys):
        fld = ser.field_from_json(json.loads(FIELD_Q))
        from berkline import Polynomial, RationalFunction

        t = fld.t()
        roots = (t, t * t, fld.one())
        f = RationalFunction(Polynomial.from_roots(fld, list(roots)),
                             Polynomial.from_coeffs(fld, [1]),
                             num_roots=roots)
        fdoc = json.dumps(ser.ratfunc_to_json(f))
        point = json.dumps({"kind": "disc",
                            "center": {"backend": "puiseux", "char": 0,
                                       "terms": [], "prec": "inf"},
                            "s": {"q": "1"}})
        code, out, _ = run(capsys, ["balance", "--field", FIELD_Q,
                                    "--f", fdoc, "--point", point])
        assert code == 0
        slopes = json.loads(out)["slopes"]
        assert sum(slopes.values()) == 0
        assert slopes["dir:t"] == 1
        # with the direction of t alone given, the root t^2, in the
        # direction of 0, is "other", and the root 1 is "up"
        code, out, _ = run(capsys, ["balance", "--field", FIELD_Q,
                                    "--f", fdoc, "--point", point,
                                    "--directions", '["t"]'])
        assert code == 0
        assert json.loads(out)["slopes"] == {"dir:t": 1, "other": 1, "up": -2}


class TestCancelSection:
    def test_section_payload(self, capsys):
        section = json.dumps({
            "k": 3,
            "components": [{"u": "u1", "g": "t", "mult": 1},
                           {"u": "u2", "g": "t", "mult": 2}],
        })
        code, out, _ = run(capsys, ["cancel", "--field", FIELD_F2,
                                    "--N", "6", "--section", section])
        assert code == 0
        assert json.loads(out)["delta"] == [{"u": "u1", "coef": 1},
                                            {"u": "u2", "coef": 2}]


class TestExplicitSheaf:
    def test_explicit_cellular_data(self, capsys):
        # j_! of Z/4 across the half-open interval, spelled out cell by cell
        spec = json.dumps({
            "kind": "explicit",
            "vertices": ["a", "b"],
            "edges": [["a", "b"]],
            "root": "b",
            "vertex_ranks": {"b": 1},
            "edge_ranks": {"0": 1},
            "cosp": {"b#0": [[1]]},
            "open_ends": ["a#0"],
        })
        code, out, _ = run(capsys, ["sheaf", "--field", FIELD_Q,
                                    "--n", "4", "--sheaf", spec])
        assert code == 0
        assert json.loads(out) == {"H0": [], "H1": []}


def readme_examples():
    """(argv, output) for each ``berkline`` command in README's shell
    blocks; the output is the ``# {...}`` comment on the line right after
    the command, or None when there is none."""
    text = (ROOT / "README.md").read_text()
    blocks = "".join(re.findall(r"```sh\n(.*?)```", text, re.S))
    examples = []
    prev = ""
    for line in blocks.replace("\\\n", " ").splitlines():
        if line.startswith("berkline "):
            examples.append((shlex.split(line)[1:], None))
        elif line.startswith("# {") and prev.startswith("berkline "):
            examples[-1] = (examples[-1][0], line[2:])
        prev = line
    return examples


def test_readme_examples(capsys):
    """Each README example exits 0 and prints what its comment shows, where
    ``...`` in the comment stands for any text."""
    examples = readme_examples()
    assert len(examples) == 4
    assert sum(want is not None for _, want in examples) == 3
    for argv, want in examples:
        code, out, err = run(capsys, argv)
        assert code == 0, (argv, err)
        if want is not None:
            pattern = ".*".join(map(re.escape, want.split("...")))
            assert re.fullmatch(pattern, out.strip()), (argv, out)


F2 = {"backend": "puiseux", "char": 2}
FQ = {"backend": "puiseux", "char": 0}
G_OBJECT = {"num": {"center": 0, "coeffs": ["t"]},
            "den": {"center": 0, "coeffs": [1]}}
CANCEL = {"field": F2, "N": 5}
CANCEL_G = {"field": F2, "g": "t"}
SHEAF = {"field": FQ, "centers": [0], "sheaf": {"kind": "constant"}}
SKELETON = {"field": FQ, "centers": [0, "t", 1]}

# (command, the other flags, flag, its argument, the value a problem file
# holds for it, exit code, stderr detail); the argument "@" stands for a
# file holding that value as JSON, and "-" for stdin holding it
FLAG_FORMS = [
    ("cancel", CANCEL, "g", "t", "t", 0, None),
    ("cancel", CANCEL, "g", "3", 3, 0, None),
    ("cancel", CANCEL, "g", "1/0", "1/0", 2, "zero denominator in 1/0"),
    ("cancel", CANCEL, "g", json.dumps(G_OBJECT), G_OBJECT, 0, None),
    ("cancel", CANCEL, "g", "@", G_OBJECT, 0, None),
    ("cancel", CANCEL, "g", "-", "1+t", 0, None),
    ("cancel", CANCEL_G, "N", "5", 5, 0, None),
    ("cancel", CANCEL_G, "N", "abc", "abc", 2,
     "cancel: 'abc' is not of type 'integer'"),
    ("cancel", CANCEL_G, "N", "2.0", 2.0, 0, None),
    ("cancel", CANCEL_G, "N", "@", 5, 0, None),
    ("sheaf", SHEAF, "n", "5", 5, 0, None),
    ("sheaf", SHEAF, "n", "abc", "abc", 2,
     "sheaf: 'abc' is not of type 'integer'"),
    ("sheaf", SHEAF, "n", "2.0", 2.0, 0, None),
    ("sheaf", SHEAF, "n", "@", 6, 0, None),
    ("skeleton", SKELETON, "format", "dot", "dot", 0, None),
    ("skeleton", SKELETON, "format", '"dot"', "dot", 0, None),
    ("skeleton", {"field": FQ}, "centers", "@", [0, "t", 1], 0, None),
]


@pytest.mark.parametrize(
    "command,others,flag,arg,value,code,detail", FLAG_FORMS,
    ids=[f"{c[0]}-{c[2]}-{c[3] if len(c[3]) < 8 else 'object'}"
         for c in FLAG_FORMS])
def test_every_flag_form(capsys, monkeypatch, tmp_path, command, others,
                         flag, arg, value, code, detail):
    """Every flag is read by one rule: '-' is the JSON on stdin, @path the
    JSON in that file, any other argument inline JSON, or the string itself
    where it is not JSON.  The call then answers as the problem file that
    holds the decoded value does."""
    if arg == "@":
        path = tmp_path / "value.json"
        path.write_text(json.dumps(value))
        arg = "@" + str(path)
    elif arg == "-":
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(value)))
    argv = [command]
    for key, v in others.items():
        argv += [f"--{key}", v if isinstance(v, str) else json.dumps(v)]
    got = run(capsys, argv + [f"--{flag}", arg])
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"version": 1, "command": command,
                                "payload": {**others, flag: value}}))
    assert run(capsys, [command, "--problem", str(prob)]) == got
    exit_code, out, err = got
    assert exit_code == code
    if detail is None:
        assert (err, out.endswith("\n")) == ("", True)
    else:
        assert (out, json.loads(err)) == (
            "", {"error": "schema", "detail": detail})
