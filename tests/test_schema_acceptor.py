"""The CLI's schema check against jsonschema.

One walk of the schema document in ``berkline.cli`` both decides validity
and words a rejection, without loading jsonschema: ``cli._validate`` accepts
a payload exactly when the walk finds no error.  These tests hold its
verdict to ``Draft202012Validator`` and its wording to ``best_match``
(jsonschema 4.26.0) on the seeded mutation corpus of ``tests/corpus.py`` and
on hand cases for each place where JSON and Python semantics part, and check
that the check of the whole document fails loudly on a schema keyword or
value it does not know, wherever that sits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from berkline import cli
from berkline.cli import COMMANDS, SchemaError, UnsupportedSchema
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


@pytest.fixture
def use_document(monkeypatch):
    """Make a ``$defs`` dict the CLI's schema document for one test."""
    def use(defs):
        monkeypatch.setattr(cli, "_schema_defs", lambda: defs)
        cli._checked_defs.cache_clear()
    yield use
    cli._checked_defs.cache_clear()


def _detail(name, instance):
    """The message of the SchemaError that ``cli._validate`` raises, or None
    where it accepts."""
    try:
        cli._validate(name, instance)
    except SchemaError as exc:
        return str(exc).removeprefix(f"{name}: ")
    return None


def _wording_of(defs, name, instance):
    """(cli's detail, best_match's message), each None where valid."""
    error = best_match(_validator(defs, name).iter_errors(instance))
    return _detail(name, instance), None if error is None else error.message


def test_mutation_corpus_agrees_with_jsonschema():
    """The walk accepts exactly what jsonschema accepts, and words each
    rejection as best_match does."""
    validators = {name: _validator(_defs(), name) for name in COMMANDS}
    seen = {True: 0, False: 0}
    disagree = []
    for command, payload in corpus():
        error = best_match(validators[command].iter_errors(payload))
        want = None if error is None else error.message
        seen[want is None] += 1
        got = _detail(command, payload)
        if got != want:
            disagree.append((command, payload, got, want))
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
    assert (_detail(command, payload) is None) is valid


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
def test_custom_schema_hand_cases(use_document, schema, instance, valid):
    defs = {"case": schema}
    use_document(defs)
    assert _validator(defs, "case").is_valid(instance) is valid
    detail, message = _wording_of(defs, "case", instance)
    assert (detail is None) is valid
    assert detail == message


# (schema, instance): rejections whose wording turns on best_match's rule,
# each against best_match itself
WORDING_CASES = [
    # ties keep the first error in keyword order, then in required order
    ({"required": ["a", "b"], "type": "object"}, {}),
    ({"minimum": 3, "type": "string"}, 1),
    ({"type": "string", "minimum": 3}, 1),
    # a deeper error outranks a shallower one; the later path a sibling
    ({"properties": {"a": {"type": "string"}, "b": {"type": "string"}},
      "required": ["c"]}, {"a": 1, "b": 2}),
    ({"items": {"type": "string"}, "maxItems": 1}, [1, 2]),
    # anyOf and oneOf: weak against a same-level error, and descended into
    # unless their two least relevant branch errors tie
    ({"anyOf": [{"type": "string"}, {"type": "integer"}], "enum": [1]}, None),
    ({"anyOf": [{"type": "string"}, {"minimum": 5}]}, 1),
    ({"anyOf": [{"type": "string"}, {"type": "array"}]}, 1),
    ({"oneOf": [{"properties": {"a": {"const": 1}}},
                {"properties": {"a": {"items": {"const": 2}}}}]},
     {"a": [1]}),
    ({"oneOf": [{"type": "object", "required": ["a"]},
                {"type": "array"}]}, {"b": 1}),
    ({"oneOf": [{"minimum": 0}, {"type": "integer"}, {"enum": [1, 2]}]}, 1),
    # nested context: anyOf inside a oneOf branch
    ({"oneOf": [{"anyOf": [{"required": ["a"]}, {"required": ["b"]}]},
                {"type": "array"}]}, {}),
    # false schemas, false items and additionalProperties as a schema
    ({"properties": {"a": False}}, {"a": 1}),
    ({"prefixItems": [{}], "items": False}, [1, 2]),
    ({"prefixItems": [{}, {}], "items": False}, [1, 2, 3, 4]),
    ({"items": False}, [1]),
    ({"additionalProperties": {"type": "integer"}}, {"b": "x", "a": "y"}),
    ({"additionalProperties": False, "properties": {"a": {}}},
     {"c": 1, "a": 1, "b": 2}),
    # $ref to a definition, with a type list
    ({"properties": {"r": {"$ref": "#/$defs/other"}}}, {"r": 1.5}),
]


@pytest.mark.parametrize("schema,instance", WORDING_CASES)
def test_wording_hand_cases(use_document, schema, instance):
    defs = {"case": schema, "other": {"type": ["string", "integer"]}}
    use_document(defs)
    detail, message = _wording_of(defs, "case", instance)
    assert message is not None
    assert detail == message


def _unused_branch(defs):
    # a Puiseux element's [num, den] precision: no problem payload has one
    return defs["element"]["oneOf"][0]["properties"]["prec"]["oneOf"][1]


BAD = {"uniqueItems": True}


@pytest.mark.parametrize("keyword,value", [
    ("uniqueItems", True), ("maximum", 10), ("format", "uri"),
    # uniqueItems one level down, under each keyword with subschemas
    ("properties", {"a": BAD}), ("additionalProperties", BAD), ("items", BAD),
    ("prefixItems", [{}, BAD]), ("anyOf", [{}, BAD]), ("oneOf", [{}, BAD]),
    # a definition that nothing refers to
    ("$defs", BAD),
], ids=["uniqueItems-True", "maximum-10", "format-uri", "under-properties",
        "under-additionalProperties", "under-items", "under-prefixItems",
        "under-anyOf", "under-oneOf", "unreferenced-definition"])
def test_unknown_keyword_raises(capsys, use_document, keyword, value):
    defs = _defs()
    if keyword == "$defs":
        defs["unreferenced"] = value
    else:
        _unused_branch(defs)[keyword] = value
    unknown = keyword if keyword in ("uniqueItems", "maximum", "format") \
        else "uniqueItems"
    use_document(defs)
    with pytest.raises(UnsupportedSchema, match=f"^schema keyword '{unknown}' "):
        cli._checked_defs()
    # every command, though no payload of any reaches the keyword
    for command in COMMANDS:
        assert cli.main([command]) == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err)["error"] == "internal"


@pytest.mark.parametrize("schema", [
    {"type": "float"}, {"$ref": "#/$defs/nowhere"},
    {"$ref": "other.json#/$defs/rational"}, {"items": [{}]}])
def test_unsupported_schema_values_raise(use_document, schema):
    use_document({**_defs(), "case": schema})
    with pytest.raises(UnsupportedSchema):
        cli._checked_defs()


def test_unknown_keyword_is_an_internal_error(capsys, use_document):
    defs = _defs()
    _unused_branch(defs)["uniqueItems"] = True
    use_document(defs)
    code = cli.main(["skeleton", "--centers", "[0]"])
    out = capsys.readouterr()
    assert (code, out.out) == (4, "")
    assert json.loads(out.err) == {
        "error": "internal",
        "detail": "UnsupportedSchema: schema keyword 'uniqueItems' is not supported"}
    # the parser reads the same document unchecked: --help still answers
    with pytest.raises(SystemExit) as exit_:
        cli.main(["skeleton", "--help"])
    assert exit_.value.code == 0
    assert "--centers" in capsys.readouterr().out


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


def test_invalid_payload_imports_no_jsonschema():
    code, err, imported = _fresh_main(
        ["np", "--poly", '{"center":0,"coeffs":[0,1]}',
         "--count", '{"lo":"1/2","hi_open":"yes"}'])
    assert (code, imported) == (2, False)
    # the wording recorded before berkline worded its own rejections, as in
    # test_invalid_payload_detail
    assert json.loads(err) == {"error": "schema",
                               "detail": "np: 'yes' is not of type 'boolean'"}
