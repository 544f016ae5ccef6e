"""The CLI's built-in schema acceptor against jsonschema.

The acceptor in ``berkline.cli`` decides validity on its own and loads
jsonschema only to word a rejection.  These tests hold it to
``Draft202012Validator.is_valid`` on the seeded mutation corpus of
``tests/corpus.py``, on hand cases for each place where JSON and Python
semantics part, and check that it fails loudly on a schema keyword it does
not know.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from berkline import cli
from berkline.cli import COMMANDS, UnsupportedSchema, _Acceptor
from corpus import PROBLEMS, corpus, problem_payloads

ROOT = Path(__file__).resolve().parent.parent


def _defs():
    return json.loads((ROOT / "src/berkline/schemas/berkline.schema.json")
                      .read_text())["$defs"]


def _validator(defs, name):
    return Draft202012Validator({"$ref": f"#/$defs/{name}", "$defs": defs})


def test_problem_files_cover_every_command():
    assert {command for command, _ in problem_payloads()} == set(COMMANDS)
    assert len(problem_payloads()) == 26


def test_mutation_corpus_agrees_with_jsonschema():
    defs = _defs()
    acceptor = _Acceptor(defs)
    validators = {name: _validator(defs, name) for name in COMMANDS}
    seen = {True: 0, False: 0}
    disagree = []
    for command, payload in corpus():
        want = validators[command].is_valid(payload)
        seen[want] += 1
        if acceptor.accepts(command, payload) != want:
            disagree.append((command, payload, want))
    assert not disagree[:5]
    assert sum(seen.values()) >= 20_000
    # neither side of the corpus is vacuous
    assert min(seen.values()) > 0.1 * sum(seen.values())


def _with(command, **fields):
    base = {
        "np": {"field": {"backend": "puiseux", "char": 0},
               "poly": {"center": 0, "coeffs": [0, 1]}},
        "sheaf": {"field": {"backend": "puiseux", "char": 0}, "n": 4,
                  "sheaf": {"kind": "explicit", "vertices": [0, 1],
                            "edges": [[1, 0]]}},
        "balance": {"field": {"backend": "puiseux", "char": 0},
                    "f": {"num": {"center": 0, "coeffs": [0, 1]},
                          "den": {"center": 0, "coeffs": [1]}}},
    }[command]
    return {**base, **fields}


DISC = {"kind": "disc", "center": 0, "s": {"q": "1"}}
DOMAIN = {"bound": {"center": 0, "s": {"q": "-1"}}}
TERM = {"backend": "puiseux", "terms": [[1, 2, "3"]]}

# (command, payload, valid): the document's own schemas
SHIPPED_CASES = [
    # true is not an integer; 1.0 is one
    ("sheaf", _with("sheaf", n=True), False),
    ("sheaf", _with("sheaf", n=4.0), True),
    ("sheaf", _with("sheaf", n=4.5), False),
    ("np", _with("np", poly={"center": 1.0, "coeffs": [2.0, True]}), False),
    ("np", _with("np", poly={"center": 1.0, "coeffs": [2.0, 1]}), True),
    ("np", _with("np", field={"backend": "padic", "p": 3.0}), True),
    ("np", _with("np", field={"backend": "padic", "p": True}), False),
    # minimum on a number that is too small, at the edge, and on a float
    ("np", _with("np", field={"backend": "padic", "p": 1}), False),
    ("np", _with("np", field={"backend": "padic", "p": 2}), True),
    ("np", _with("np", field={"backend": "puiseux", "char": -0.0}), True),
    # const tells true from a string and 1 from "1"
    ("np", _with("np", count={"hi": True}), False),
    ("np", _with("np", count={"hi": 1}), True),
    # pattern searches; the rational pattern is anchored, $ allows a final \n
    ("np", _with("np", count={"hi": "1/2"}), True),
    ("np", _with("np", count={"hi": "x1/2"}), False),
    ("np", _with("np", count={"hi": "1/2\n"}), True),
    # items after prefixItems
    ("np", _with("np", poly={"center": TERM, "coeffs": []}), True),
    ("np", _with("np", poly={"center": {**TERM, "terms": [[1, 2, 3]]},
                             "coeffs": []}), True),
    ("np", _with("np", poly={"center": {**TERM, "terms": [[1, 2, 1.5]]},
                             "coeffs": []}), False),
    ("np", _with("np", poly={"center": {**TERM, "terms": [["1", 2, "3"]]},
                             "coeffs": []}), False),
    ("np", _with("np", poly={"center": {**TERM, "terms": [[1, 2, "3", 4]]},
                             "coeffs": []}), False),
    # oneOf with no matching branch
    ("np", _with("np", count={"hi": {"q": "x"}}), False),
    ("np", _with("np", count={"hi": None}), False),
    # anyOf in balance: point, domain, both, neither
    ("balance", _with("balance", point=DISC), True),
    ("balance", _with("balance", domain=DOMAIN), True),
    ("balance", _with("balance", point=DISC, domain=DOMAIN), True),
    ("balance", _with("balance"), False),
    # root: {} in sheaf takes anything
    *[("sheaf", _with("sheaf", sheaf={"kind": "explicit", "root": root}), True)
      for root in (None, True, 1.5, "v", [], [1, [2]], {}, {"a": {}})],
]


@pytest.mark.parametrize("command,payload,valid", SHIPPED_CASES)
def test_shipped_schema_hand_cases(command, payload, valid):
    defs = _defs()
    assert _validator(defs, command).is_valid(payload) is valid
    assert _Acceptor(defs).accepts(command, payload) is valid


# (schema, instance, valid): small schemas for traps the document only
# reaches through strings
CUSTOM_CASES = [
    ({"const": 1}, True, False),
    ({"const": 1}, 1.0, True),
    ({"const": True}, 1, False),
    ({"const": [1, {"a": False}]}, [True, {"a": 0}], False),
    ({"const": [1, {"a": False}]}, [1.0, {"a": False}], True),
    ({"enum": [1, "a"]}, True, False),
    ({"enum": [0, "a"]}, False, False),
    ({"enum": [False]}, False, True),
    ({"type": "integer"}, True, False),
    ({"type": "integer"}, 1.0, True),
    ({"type": "number"}, False, False),
    ({"minimum": 2}, True, True),
    ({"minimum": 2}, "1", True),
    ({"minimum": 2}, 1.5, False),
    ({"minimum": 2}, 2.0, True),
    ({"minimum": 2}, float("nan"), True),
    ({"pattern": "b"}, "abc", True),
    ({"pattern": "^b"}, "abc", False),
    ({"pattern": "b"}, 5, True),
    ({"prefixItems": [{"type": "string"}], "items": {"type": "integer"}},
     ["a", 1, 2], True),
    ({"prefixItems": [{"type": "string"}], "items": {"type": "integer"}},
     ["a", "b"], False),
    ({"prefixItems": [{"type": "string"}], "items": {"type": "integer"}},
     [1], False),
    ({"prefixItems": [{"type": "string"}], "items": {"type": "integer"}},
     [], True),
    ({"items": False, "prefixItems": [{}]}, [1], True),
    ({"items": False, "prefixItems": [{}]}, [1, 2], False),
    # oneOf with two matching branches, one, and none
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, 1, False),
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, -1, True),
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, "x", True),
    ({"oneOf": [{"type": "integer"}, {"type": "string"}]}, None, False),
    ({"anyOf": [{"type": "integer"}, {"minimum": 0}]}, 1, True),
    ({"anyOf": [{"type": "integer"}, {"type": "string"}]}, None, False),
    ({"required": ["a"]}, [], True),
    ({"additionalProperties": {"type": "integer"},
      "properties": {"a": {"type": "string"}}}, {"a": "x", "b": 1}, True),
    ({"additionalProperties": {"type": "integer"},
      "properties": {"a": {"type": "string"}}}, {"a": "x", "b": "y"}, False),
    ({"maxItems": 1, "minItems": 1}, [], False),
    ({"maxItems": 1, "minItems": 1}, [[]], True),
    ({"maxItems": 1, "minItems": 1}, {}, True),
]


@pytest.mark.parametrize("schema,instance,valid", CUSTOM_CASES)
def test_custom_schema_hand_cases(schema, instance, valid):
    defs = {"case": schema}
    assert _validator(defs, "case").is_valid(instance) is valid
    assert _Acceptor(defs).accepts("case", instance) is valid


def _unused_branch(defs):
    # a Puiseux element's [num, den] precision: no problem payload has one
    return defs["element"]["oneOf"][0]["properties"]["prec"]["oneOf"][1]


@pytest.mark.parametrize("keyword,value", [
    ("uniqueItems", True), ("maximum", 10), ("format", "uri")])
def test_unknown_keyword_raises(keyword, value):
    defs = _defs()
    _unused_branch(defs)[keyword] = value
    with pytest.raises(UnsupportedSchema, match=keyword):
        _Acceptor(defs)


@pytest.mark.parametrize("schema", [
    {"type": "float"}, {"$ref": "#/$defs/nowhere"},
    {"$ref": "other.json#/$defs/rational"}, {"items": [{}]}])
def test_unsupported_schema_values_raise(schema):
    with pytest.raises(UnsupportedSchema):
        _Acceptor({**_defs(), "case": schema})


def test_unknown_keyword_is_an_internal_error(capsys, monkeypatch):
    defs = _defs()
    _unused_branch(defs)["uniqueItems"] = True
    monkeypatch.setattr(cli, "_acceptor", lambda: _Acceptor(defs))
    code = cli.main(["skeleton", "--centers", "[0]"])
    out = capsys.readouterr()
    assert (code, out.out) == (4, "")
    assert json.loads(out.err) == {
        "error": "internal",
        "detail": "UnsupportedSchema: schema keyword 'uniqueItems' is not supported"}


def _fresh_main(argv):
    """cli.main(argv) in a new interpreter: (exit code, stderr, whether
    jsonschema was imported)."""
    code = ("import json, sys\n"
            "from berkline import cli\n"
            "assert 'jsonschema' not in sys.modules\n"
            f"code = cli.main({argv!r})\n"
            "print(json.dumps(['jsonschema' in sys.modules, code]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    imported, exit_code = json.loads(proc.stdout.splitlines()[-1])
    return exit_code, proc.stderr, imported


def test_valid_payload_does_not_import_jsonschema():
    code, err, imported = _fresh_main(
        ["np", "--problem", str(PROBLEMS / "np__count_f3.json")])
    assert (code, err, imported) == (0, "", False)


def test_invalid_payload_imports_jsonschema_for_the_wording():
    code, err, imported = _fresh_main(
        ["np", "--poly", '{"center":0,"coeffs":[0,1]}',
         "--count", '{"lo":"1/2","hi_open":"yes"}'])
    assert (code, imported) == (2, True)
    # the wording recorded before the acceptor, as in test_invalid_payload_detail
    assert json.loads(err) == {"error": "schema",
                               "detail": "np: 'yes' is not of type 'boolean'"}


def test_the_acceptor_alone_decides(capsys, monkeypatch):
    class Rejecting:
        def accepts(self, name, payload):
            return False

    # jsonschema finds no error in this payload, yet the rejection stands
    monkeypatch.setattr(cli, "_acceptor", Rejecting)
    code = cli.main(["skeleton", "--centers", "[0]"])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert json.loads(out.err) == {
        "error": "schema",
        "detail": "skeleton: payload does not match the schema"}
