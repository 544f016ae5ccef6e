"""Command-line front end: JSON in, JSON (or DOT) out.

Exit codes: 0 success, 2 malformed input (argument, JSON, or schema errors,
JSON nested too deeply to decode, a problem file or payload that is not a
JSON object, a problem version other than the JSON number 1, and rationals
with a zero denominator), 3 domain errors, which print a machine-readable
{"error": ..., "witness": ...} object (``resource_limit`` among them, when a
computation would exceed a documented size cap: ``field.INVERSE_TERM_CAP``
terms in an inverse, ``cancel.Y1_ENTRY_CAP`` entries in Y1), 1 when stdout
is closed before the output is written (say, piped into `head`), and 4 for
any other exception, a defect in berkline itself, reported as
{"error": "internal", "detail": "<type>: <message>"} on stderr instead of a
traceback.

Payloads are validated before dispatch against the command's entry in
``schemas/berkline.schema.json``, shipped with the package; the entry's
top-level ``properties`` are also the command's flags.  Each flag's value is
``-`` (JSON on stdin), ``@path`` (JSON in that file) or inline JSON, kept as
the string itself where it is not JSON; stdin is read once, so at most one
of ``--problem`` and the flags may be ``-``.  A built-in acceptor alone decides
validity, over exactly the keywords that document uses (``type``, ``$ref``,
``required``, ``properties``, ``additionalProperties``, ``items``,
``prefixItems``, ``minItems``, ``maxItems``, ``const``, ``enum``,
``minimum``, ``pattern``, ``oneOf``, ``anyOf``; ``description``, ``title``,
``$schema`` and ``$id`` are ignored) and raises on any other, so a valid
payload never imports jsonschema.  jsonschema, where installed, only words
a rejection, which stands either way.

Dispatch imports ``serialize``, decodes the field once and hands it to the
command's ``_cmd_*``, which imports its compute modules when it runs, so a
call loads only what parsing, validation, emit and its own command need,
and a payload rejected before dispatch loads neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .errors import BerkError

class SchemaError(Exception):
    pass


class UnsupportedSchema(Exception):
    """The schema document uses a keyword the acceptor does not know: a
    defect in berkline, not in the input."""


@functools.cache
def _schema_defs():
    # the module's own loader reads a file beside it, on disk or in a zip
    path = os.path.join(os.path.dirname(__file__), "schemas", "berkline.schema.json")
    return json.loads(__spec__.loader.get_data(path))["$defs"]


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# JSON types, not Python ones: true is not an integer, 1.0 is one
_TYPES = {
    "null": lambda x: x is None,
    "boolean": lambda x: isinstance(x, bool),
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}

_ANNOTATIONS = frozenset({"description", "title", "$schema", "$id"})


def _json_equal(a, b):
    """Equality of JSON values: 1 equals 1.0 but not true."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return a == b


class _Acceptor:
    """Decides whether a payload is valid against a ``$defs`` document, and
    nothing else.

    Every schema in the document is compiled once into a predicate, so the
    whole document is walked on construction, and a keyword outside the
    supported set raises ``UnsupportedSchema`` there instead of passing
    unchecked.

    Each keyword follows JSON Schema 2020-12: keywords about objects, arrays,
    strings or numbers ignore instances of other types, ``pattern`` searches
    rather than matches, and ``items`` covers what ``prefixItems`` leaves.
    """

    def __init__(self, defs):
        self._defs = defs
        self._compiled = {name: self._compile(schema)
                          for name, schema in defs.items()}

    def accepts(self, name, payload) -> bool:
        return self._compiled[name](payload)

    def _compile(self, schema):
        if isinstance(schema, bool):
            return lambda x: schema
        if not isinstance(schema, dict):
            raise UnsupportedSchema(f"schema {schema!r} is not an object")
        checks = []
        for key, value in schema.items():
            if key in _ANNOTATIONS:
                continue
            make = self._KEYWORDS.get(key)
            if make is None:
                raise UnsupportedSchema(f"schema keyword {key!r} is not supported")
            checks.append(make(self, value, schema))
        return lambda x: all(check(x) for check in checks)

    def _kw_type(self, value, schema):
        names = [value] if isinstance(value, str) else value
        unknown = set(names) - _TYPES.keys()
        if unknown:
            raise UnsupportedSchema(f"schema type {sorted(unknown)!r} is not supported")
        tests = [_TYPES[n] for n in names]
        return lambda x: any(test(x) for test in tests)

    def _kw_ref(self, value, schema):
        name = value.removeprefix("#/$defs/")
        if not value.startswith("#/$defs/") or name not in self._defs:
            raise UnsupportedSchema(f"schema $ref {value!r} is not supported")
        # looked up on use: a definition may refer to one compiled later
        return lambda x: self._compiled[name](x)

    def _kw_required(self, value, schema):
        return lambda x: not isinstance(x, dict) or all(k in x for k in value)

    def _kw_properties(self, value, schema):
        props = [(k, self._compile(s)) for k, s in value.items()]
        return lambda x: not isinstance(x, dict) or all(
            check(x[k]) for k, check in props if k in x)

    def _kw_additionalProperties(self, value, schema):
        known = set(schema.get("properties", ()))
        check = self._compile(value)
        return lambda x: not isinstance(x, dict) or all(
            check(v) for k, v in x.items() if k not in known)

    def _kw_items(self, value, schema):
        start = len(schema.get("prefixItems", ()))
        check = self._compile(value)
        return lambda x: not isinstance(x, list) or all(map(check, x[start:]))

    def _kw_prefixItems(self, value, schema):
        checks = [self._compile(s) for s in value]
        return lambda x: not isinstance(x, list) or all(
            check(v) for check, v in zip(checks, x))

    def _kw_minItems(self, value, schema):
        return lambda x: not isinstance(x, list) or len(x) >= value

    def _kw_maxItems(self, value, schema):
        return lambda x: not isinstance(x, list) or len(x) <= value

    def _kw_const(self, value, schema):
        return lambda x: _json_equal(x, value)

    def _kw_enum(self, value, schema):
        return lambda x: any(_json_equal(x, v) for v in value)

    def _kw_minimum(self, value, schema):
        # "not less than" rather than ">=", so that NaN passes, as in jsonschema
        return lambda x: not (_is_number(x) and x < value)

    def _kw_pattern(self, value, schema):
        search = re.compile(value).search
        return lambda x: not isinstance(x, str) or search(x) is not None

    def _kw_oneOf(self, value, schema):
        checks = [self._compile(s) for s in value]
        return lambda x: sum(1 for check in checks if check(x)) == 1

    def _kw_anyOf(self, value, schema):
        checks = [self._compile(s) for s in value]
        return lambda x: any(check(x) for check in checks)

    _KEYWORDS = {
        "type": _kw_type, "$ref": _kw_ref, "required": _kw_required,
        "properties": _kw_properties,
        "additionalProperties": _kw_additionalProperties,
        "items": _kw_items, "prefixItems": _kw_prefixItems,
        "minItems": _kw_minItems, "maxItems": _kw_maxItems,
        "const": _kw_const, "enum": _kw_enum, "minimum": _kw_minimum,
        "pattern": _kw_pattern, "oneOf": _kw_oneOf, "anyOf": _kw_anyOf,
    }


@functools.cache
def _acceptor():
    return _Acceptor(_schema_defs())


@functools.cache
def _validator(name):
    from jsonschema import Draft202012Validator

    # the document itself is checked against the meta-schema by the tests,
    # not on every call
    return Draft202012Validator({"$ref": f"#/$defs/{name}", "$defs": _schema_defs()})


def _validate(name, payload):
    if _acceptor().accepts(name, payload):
        return
    # the acceptor's rejection stands; jsonschema, where installed, words it
    try:
        from jsonschema.exceptions import best_match
        validator = _validator(name)
    except ImportError:
        error = None
    else:
        error = best_match(validator.iter_errors(payload))
    detail = "payload does not match the schema" if error is None else error.message
    raise SchemaError(f"{name}: {detail}")


def _loads(text):
    """json.loads; nesting too deep for the decoder is malformed input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise SchemaError("JSON nested too deeply") from None


def _read_json_arg(text):
    """The JSON document at @path, or on stdin for '-'."""
    if text == "-":
        return _loads(sys.stdin.read())
    with open(text[1:]) as fh:
        return _loads(fh.read())


def _emit(obj):
    # json.dumps takes the C encoder; json.dump always takes the Python one
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def _cmd_eval(payload, fld):
    from . import serialize as ser
    from .points import eval_point

    poly = ser.poly_from_json(payload["poly"], fld)
    point = ser.point_from_json(payload["point"], fld)
    value = eval_point(poly, point)
    _emit({"logvalue": ser.logvalue_to_json(value)})


def _cmd_classify(payload, fld):
    from . import serialize as ser
    from .points import classify

    point = ser.point_from_json(payload["point"], fld)
    c = classify(point)
    _emit({
        "type": c.type,
        "residue_transcendental": c.residue_transcendental,
        "value_group_extended": c.value_group_extended,
    })


def _skeleton(payload, fld):
    """The skeleton of the payload's centers, cut at its ``s_floor``."""
    from . import serialize as ser
    from .skeleton import build_skeleton

    centers = [ser.elem_from_json(c, fld) for c in payload["centers"]]
    s_floor = ser.logvalue_from_json(payload.get("s_floor", "inf"))
    return build_skeleton(centers, s_floor)


def _cmd_skeleton(payload, fld):
    from . import serialize as ser

    sk = _skeleton(payload, fld)
    if payload.get("format", "json") == "dot":
        sys.stdout.write(sk.to_dot())
    else:
        _emit(ser.skeleton_to_json(sk))


def _cmd_np(payload, fld):
    from . import serialize as ser
    from .gauss import newton_polygon, root_count_annulus

    poly = ser.poly_from_json(payload["poly"], fld)
    np_ = newton_polygon(poly)
    out = ser.newton_polygon_to_json(np_)
    if "count" in payload:
        spec = payload["count"]
        lo = spec.get("lo")
        out["count"] = root_count_annulus(
            poly,
            None if lo is None else ser.logvalue_from_json(lo),
            ser.logvalue_from_json(spec.get("hi", "inf")),
            bool(spec.get("lo_open", False)),
            bool(spec.get("hi_open", False)),
        )
    _emit(out)


def _cmd_sheaf(payload, fld):
    from . import serialize as ser
    from .sheaf import (HostTree, cohomology, constant_sheaf, kummer_sheaf,
                        make_cellular_sheaf, shriek_extend)

    n = int(payload["n"])
    spec = payload["sheaf"]
    kind = spec["kind"]
    if kind in ("kummer", "constant"):
        tree = HostTree.from_skeleton(_skeleton(payload, fld))
        F = kummer_sheaf(tree, n) if kind == "kummer" else constant_sheaf(tree, n)
    else:
        tree = HostTree(tuple(spec["vertices"]),
                        tuple((c, p) for c, p in spec["edges"]),
                        spec.get("root"))
        # JSON object keys are strings; map them back onto the vertex ids
        by_name = {str(v): v for v in tree.vertices}

        def incidence(key):
            v, i = key.rsplit("#", 1)
            return by_name[v], int(i)

        F = make_cellular_sheaf(
            tree, n,
            {by_name[v]: r for v, r in spec.get("vertex_ranks", {}).items()},
            {int(i): r for i, r in spec.get("edge_ranks", {}).items()},
            {incidence(k): tuple(map(tuple, m))
             for k, m in spec.get("cosp", {}).items()},
            {incidence(k) for k in spec.get("open_ends", [])},
        )
    if spec.get("shriek_remove"):
        F = shriek_extend(F, set(spec["shriek_remove"]))
    _emit(ser.cohomology_to_json(cohomology(F)))


def _cmd_balance(payload, fld):
    from . import serialize as ser
    from .units import boundary_degrees, direction_slopes

    f = ser.ratfunc_from_json(payload["f"], fld)
    if "point" in payload:
        x = ser.point_from_json(payload["point"], fld)
        dirs = None
        if "directions" in payload:
            dirs = [ser.elem_from_json(d, fld) for d in payload["directions"]]
        slopes = direction_slopes(f, x, dirs)
        _emit({"slopes": {k: v for k, v in sorted(slopes.items())}})
    else:
        dom = ser.domain_from_json(payload["domain"], fld)
        # f is a unit on dom, so its divisor, of degree 0, lies in the holes
        # and beyond the bounding disc: the exterior is minus the holes' sum
        degs = boundary_degrees(f, dom)
        _emit({"boundary_degrees": list(degs), "exterior": -sum(degs)})


def _cmd_homotopy(payload, fld):
    from . import serialize as ser
    from .units import homotopy_check

    f0 = ser.ratfunc_from_json(payload["f0"], fld)
    f1 = ser.ratfunc_from_json(payload["f1"], fld)
    dom = ser.domain_from_json(payload["domain"], fld)
    _emit({"homotopic": homotopy_check(f0, f1, dom)})


def _cmd_cancel(payload, fld):
    from . import serialize as ser
    from .cancel import (UNIT_ANNULUS, SectionComponent, SectionData,
                         splitting_delta, y1_divisor, y2_divisor)

    ann = (ser.annulus_from_json(payload["annulus"]) if "annulus" in payload
           else UNIT_ANNULUS)
    N = int(payload["N"])
    out = {}
    if "section" in payload:
        comps = tuple(
            SectionComponent(c["u"], ser.parse_ratfunc_flexible(fld, c["g"]),
                             int(c.get("mult", 1)))
            for c in payload["section"]["components"]
        )
        delta = splitting_delta(
            SectionData(int(payload["section"]["k"]), comps), N, ann)
    if "g" in payload:
        g = ser.parse_ratfunc_flexible(fld, payload["g"])
        y1, y2 = y1_divisor(N, fld), y2_divisor(g, N, ann)
        out["y1"], out["y2"] = ser.divisor_to_json(y1), ser.divisor_to_json(y2)
        if "section" not in payload:
            # splitting_delta of the one-component section ("*", g, 1)
            coef = N - y2.total_mass
            delta = (("*", coef),) if coef else ()
    out["delta"] = [{"u": u, "coef": c} for u, c in delta]
    _emit(out)


_DISPATCH = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "skeleton": _cmd_skeleton,
    "np": _cmd_np,
    "sheaf": _cmd_sheaf,
    "balance": _cmd_balance,
    "homotopy": _cmd_homotopy,
    "cancel": _cmd_cancel,
}

COMMANDS = tuple(_DISPATCH)

_DEFAULT_FIELD = {"backend": "puiseux", "char": 0}


def build_parser():
    top = argparse.ArgumentParser(
        prog="berkline",
        description="exact computations on the nonarchimedean unit disc",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--problem", help="JSON problem file ('-' for stdin)")
        for flag in _schema_defs()[name]["properties"]:
            p.add_argument(f"--{flag}")
    return top


def _assemble_payload(args):
    flags = ("problem", *_schema_defs()[args.command]["properties"])
    readers = [f"--{f}" for f in flags if getattr(args, f, None) == "-"]
    if len(readers) > 1:
        raise SchemaError(f"only one of {readers[0]} and {readers[1]} may "
                          "read stdin ('-')")
    if args.problem:
        doc = _read_json_arg(args.problem if args.problem == "-"
                             else "@" + args.problem)
        if not isinstance(doc, dict):
            raise SchemaError("problem file must hold a JSON object")
        if not _json_equal(doc.get("version"), 1):
            raise SchemaError("problem file version must be 1")
        if doc.get("command") not in (None, args.command):
            raise SchemaError("problem file command disagrees with argv")
        payload = doc.get("payload", {})
        if not isinstance(payload, dict):
            raise SchemaError("problem file payload must be a JSON object")
    else:
        payload = {}
    for flag in flags[1:]:
        raw = getattr(args, flag, None)
        if raw is None:
            continue
        if raw == "-" or raw.startswith("@"):
            payload[flag] = _read_json_arg(raw)
        else:
            try:
                payload[flag] = _loads(raw)
            except json.JSONDecodeError:
                payload[flag] = raw
    payload.setdefault("field", _DEFAULT_FIELD)
    return payload


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; send the rest of the output, and the
        # interpreter's final flush, to devnull instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _run(args) -> int:
    try:
        payload = _assemble_payload(args)
        _validate(args.command, payload)
    except (SchemaError, OSError, ValueError) as exc:
        return _schema_error(exc)
    except UnsupportedSchema as exc:
        return _internal_error(exc)
    try:
        from . import serialize as ser

        fld = ser.field_from_json(payload["field"])
        _DISPATCH[args.command](payload, fld)
    except BerkError as exc:
        _emit({"error": exc.code, "witness": exc.witness,
               "detail": str(exc)})
        return 3
    except (ValueError, KeyError, TypeError) as exc:
        return _schema_error(exc)
    except BrokenPipeError:
        raise
    except Exception as exc:
        return _internal_error(exc)
    return 0


def _schema_error(exc) -> int:
    # input rejected as malformed: the schema error object, exit 2
    print(json.dumps({"error": "schema", "detail": str(exc)}), file=sys.stderr)
    return 2


def _internal_error(exc) -> int:
    # a defect, not bad input: report it without a traceback
    print(json.dumps({"error": "internal",
                      "detail": f"{type(exc).__name__}: {exc}"}),
          file=sys.stderr)
    return 4


if __name__ == "__main__":
    sys.exit(main())
