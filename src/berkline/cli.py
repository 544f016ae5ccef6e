"""Command-line front end: JSON in, JSON (or DOT) out.

Exit codes: 0 success, 2 malformed input (argument, JSON, or schema errors,
JSON nested too deeply to decode or to word, a problem file or payload that
is not a JSON object, a problem version other than the JSON number 1, and
rationals with a zero denominator), 3 domain errors, which print a
machine-readable {"error": ..., "witness": ...} object (``resource_limit``
among them, when a computation would exceed a documented size cap:
``field.INVERSE_TERM_CAP`` terms in an inverse, ``cancel.Y1_ENTRY_CAP``
entries in Y1), 1 when stdout is closed before the output is written (say,
piped into `head`), and 4 for any other exception, a defect in berkline
itself, reported as {"error": "internal", "detail": "<type>: <message>"} on
stderr instead of a traceback.

Payloads are validated before dispatch against the command's entry in
``schemas/berkline.schema.json``, shipped with the package; the entry's
top-level ``properties`` are also the command's flags.  Each flag's value is
``-`` (JSON on stdin), ``@path`` (JSON in that file) or inline JSON, kept as
the string itself where it is not JSON; stdin is read once, so at most one
of ``--problem`` and the flags may be ``-``.  One walk of that entry, in
the order of jsonschema 4.26.0's ``Draft202012Validator.iter_errors``, both
decides and words: a payload is valid exactly when the walk finds no error,
and a rejection's detail is the message of the error ``best_match`` would
pick.  The walk knows exactly the keywords the document uses (``type``,
``$ref``, ``required``, ``properties``, ``additionalProperties``,
``items``, ``prefixItems``, ``minItems``, ``maxItems``, ``const``,
``enum``, ``minimum``, ``pattern``, ``oneOf``, ``anyOf``; ``description``,
``title``, ``$schema`` and ``$id`` are ignored); the whole document is
checked once per process, and any other keyword, ``type`` name or ``$ref``
is an internal error on every command.  No call imports jsonschema.

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
    """The schema document uses a keyword or value the walk does not know: a
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


def _type_names(value):
    return [value] if isinstance(value, str) else value


# the keywords without subschemas: (whether x passes, the wording if not).
# Keywords about objects, arrays, strings or numbers pass instances of other
# types, and pattern searches rather than matches, as in JSON Schema 2020-12
_LEAVES = {
    "type": (lambda v, x: any(_TYPES[n](x) for n in _type_names(v)),
             lambda v, x: f"{x!r} is not of type "
                          + ", ".join(map(repr, _type_names(v)))),
    "const": (lambda v, x: _json_equal(x, v),
              lambda v, x: f"{v!r} was expected"),
    "enum": (lambda v, x: any(_json_equal(x, e) for e in v),
             lambda v, x: f"{x!r} is not one of {v!r}"),
    # "not less than" rather than ">=", so that NaN passes, as in jsonschema
    "minimum": (lambda v, x: not (_is_number(x) and x < v),
                lambda v, x: f"{x!r} is less than the minimum of {v!r}"),
    "pattern": (lambda v, x: not isinstance(x, str) or re.search(v, x) is not None,
                lambda v, x: f"{x!r} does not match {v!r}"),
    "minItems": (lambda v, x: not isinstance(x, list) or len(x) >= v,
                 lambda v, x: f"{x!r} " + ("should be non-empty" if v == 1
                                           else "is too short")),
    "maxItems": (lambda v, x: not isinstance(x, list) or len(x) <= v,
                 lambda v, x: f"{x!r} " + ("is expected to be empty" if v == 0
                                           else "is too long")),
}

# best_match's weak keywords; it has no strong ones
_WEAK = ("anyOf", "oneOf")


def _validate(name, payload):
    """Raise SchemaError with best_match's message where the walk of
    ``$defs/<name>`` finds any error in payload."""
    defs = _checked_defs()
    errors = _walk(defs, defs[name], payload, ())
    if not errors:
        return
    # the most relevant error; then, while it has context, the least
    # relevant error of that, unless the two least relevant tie
    best = max(errors, key=_key)
    while best[2]:
        low = sorted(best[2], key=_key)[:2]
        if len(low) == 2 and low[0][0] == low[1][0]:
            break
        best = low[0]
    raise SchemaError(f"{name}: {best[1]()}")


@functools.cache
def _checked_defs():
    """``_schema_defs()`` once every schema in it is checked: a keyword,
    ``type`` name or ``$ref`` the walk does not know raises here, on every
    call, and not only where some payload reaches it."""
    defs = _schema_defs()
    schemas = list(defs.values())
    while schemas:
        schema = schemas.pop()
        if isinstance(schema, bool):
            continue
        if not isinstance(schema, dict):
            raise UnsupportedSchema(f"schema {schema!r} is not an object")
        for key, value in schema.items():
            if key == "type":
                unknown = set(_type_names(value)) - _TYPES.keys()
                if unknown:
                    raise UnsupportedSchema(
                        f"schema type {sorted(unknown)!r} is not supported")
            elif key == "$ref":
                if not value.startswith("#/$defs/") or value[8:] not in defs:
                    raise UnsupportedSchema(f"schema $ref {value!r} is not supported")
            elif key == "properties":
                schemas += value.values()
            elif key in ("additionalProperties", "items"):
                schemas.append(value)
            elif key in ("prefixItems", "anyOf", "oneOf"):
                schemas += value
            elif key not in _LEAVES and key not in _APPLY and key not in _ANNOTATIONS:
                raise UnsupportedSchema(f"schema keyword {key!r} is not supported")
    return defs


def _key(error):
    return error[0]


def _error(path, keyword, x, schema, word, *args, context=()):
    """(relevance key, message thunk, context).  The key is best_match's:
    deeper, then later in path order, then not weak, then not of its
    schema's type, ranks higher.  Only the error best_match picks is
    worded."""
    expected = schema.get("type") if isinstance(schema, dict) else None
    typed = expected is not None and _LEAVES["type"][0](expected, x)
    return ((-len(path), path, keyword not in _WEAK, not typed),
            functools.partial(word, *args), context)


def _walk(defs, schema, x, path):
    """x's errors under schema, in ``Draft202012Validator.iter_errors``'
    order (the schema's key order); path is x's place below the instance
    the walk started from.  The branch errors of anyOf and oneOf are their
    context."""
    if schema is True:
        return []
    if schema is False:
        return [_error(path, None, x, schema,
                       "False schema does not allow {!r}".format, x)]
    errors = []
    for key, value in schema.items():
        if key in _LEAVES:
            passes, word = _LEAVES[key]
            if not passes(value, x):
                errors.append(_error(path, key, x, schema, word, value, x))
        elif key in _APPLY:
            errors += _APPLY[key](defs, value, x, path, schema)
        # any other key is an annotation: _checked_defs refused the rest
    return errors


def _ref(defs, value, x, path, schema):
    return _walk(defs, defs[value.removeprefix("#/$defs/")], x, path)


def _required(defs, value, x, path, schema):
    if not isinstance(x, dict):
        return []
    return [_error(path, "required", x, schema,
                   "{!r} is a required property".format, k)
            for k in value if k not in x]


def _properties(defs, value, x, path, schema):
    if not isinstance(x, dict):
        return []
    return [e for k, sub in value.items() if k in x
            for e in _walk(defs, sub, x[k], path + (k,))]


def _unexpected(extras):
    return ("Additional properties are not allowed (%s %s unexpected)"
            % (", ".join(map(repr, sorted(extras))),
               "was" if len(extras) == 1 else "were"))


def _additional(defs, value, x, path, schema):
    if not isinstance(x, dict):
        return []
    # in the instance's order; jsonschema takes them as a set, but errors
    # under different keys have different paths and never tie
    extras = [k for k in x if k not in schema.get("properties", {})]
    if value is False:
        return [_error(path, "additionalProperties", x, schema,
                       _unexpected, extras)] if extras else []
    return [e for k in extras for e in _walk(defs, value, x[k], path + (k,))]


def _items(defs, value, x, path, schema):
    if not isinstance(x, list):
        return []
    start = len(schema.get("prefixItems", ()))
    extra = len(x) - start
    if value is False and extra > 0:
        return [_error(path, "items", x, schema,
                       "Expected at most {} {} but found {} extra: {!r}".format,
                       start, "item" if start == 1 else "items", extra,
                       x[start] if extra == 1 else x[start:])]
    return [e for i in range(start, len(x))
            for e in _walk(defs, value, x[i], path + (i,))]


def _prefix_items(defs, value, x, path, schema):
    if not isinstance(x, list):
        return []
    return [e for i, (sub, item) in enumerate(zip(value, x))
            for e in _walk(defs, sub, item, path + (i,))]


_NO_BRANCH = "{!r} is not valid under any of the given schemas".format


def _any_of(defs, value, x, path, schema):
    # each branch is walked from x itself: its errors' paths start there
    context = []
    for sub in value:
        errors = _walk(defs, sub, x, ())
        if not errors:
            return []
        context += errors
    return [_error(path, "anyOf", x, schema, _NO_BRANCH, x, context=context)]


def _one_of(defs, value, x, path, schema):
    context = []
    for i, sub in enumerate(value):
        errors = _walk(defs, sub, x, ())
        if not errors:
            break
        context += errors
    else:
        return [_error(path, "oneOf", x, schema, _NO_BRANCH, x, context=context)]
    more = [sub for sub in value[i + 1:] if not _walk(defs, sub, x, ())]
    if not more:
        return []
    return [_error(path, "oneOf", x, schema, "{!r} is valid under each of {}".format,
                   x, ", ".join(map(repr, [*more, value[i]])))]


# the keywords with subschemas, or whose errors name the member that fails
_APPLY = {
    "$ref": _ref, "required": _required, "properties": _properties,
    "additionalProperties": _additional, "items": _items,
    "prefixItems": _prefix_items, "anyOf": _any_of, "oneOf": _one_of,
}


def _read_json_arg(text):
    """The JSON document at @path, or on stdin for '-'."""
    if text == "-":
        return json.loads(sys.stdin.read())
    with open(text[1:]) as fh:
        return json.loads(fh.read())


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
                payload[flag] = json.loads(raw)
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
    except RecursionError:
        # too deep for the decoder, or for repr in a rejection's wording
        return _schema_error(SchemaError("JSON nested too deeply"))
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
