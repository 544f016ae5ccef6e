"""Command-line front end: JSON in, JSON (or DOT) out.

Exit codes: 0 success, 2 malformed input (argument, JSON, or schema errors),
3 domain errors, which print a machine-readable {"error": ..., "witness": ...}
object, 1 when stdout is closed before the output is written (say, piped into
`head`).  Payloads are validated before dispatch against the command's entry
in ``schemas/berkline.schema.json``, shipped with the package.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources

from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from . import serialize as ser
from .cancel import SectionComponent, SectionData, splitting_delta, y1_divisor, y2_divisor
from .errors import BerkError
from .gauss import newton_polygon, root_count_annulus
from .points import classify, eval_point
from .sheaf import HostTree, cohomology, constant_sheaf, kummer_sheaf, make_cellular_sheaf, shriek_extend
from .skeleton import build_skeleton
from .units import boundary_degrees, direction_slopes, exterior_degree, homotopy_check

COMMANDS = ("eval", "classify", "skeleton", "np", "sheaf", "balance",
            "homotopy", "cancel")


class SchemaError(Exception):
    pass


@functools.cache
def _schema_defs():
    text = resources.files("berkline").joinpath("schemas/berkline.schema.json").read_text()
    return json.loads(text)["$defs"]


@functools.cache
def _validator(name):
    # the document itself is checked against the meta-schema by the tests,
    # not on every call
    return Draft202012Validator({"$ref": f"#/$defs/{name}", "$defs": _schema_defs()})


def _validate(name, payload):
    error = best_match(_validator(name).iter_errors(payload))
    if error is not None:
        raise SchemaError(f"{name}: {error.message}")


def _read_json_arg(text):
    """Inline JSON, @path, or '-' for stdin."""
    if text == "-":
        return json.loads(sys.stdin.read())
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    return json.loads(text)


def _emit(obj):
    json.dump(obj, sys.stdout, sort_keys=True, separators=(",", ":"))
    sys.stdout.write("\n")


def _field(payload):
    return ser.field_from_json(payload["field"])


def _cmd_eval(payload):
    fld = _field(payload)
    poly = ser.poly_from_json(payload["poly"], fld)
    point = ser.point_from_json(payload["point"], fld)
    value = eval_point(poly, point)
    _emit({"logvalue": ser.logvalue_to_json(value)})


def _cmd_classify(payload):
    fld = _field(payload)
    point = ser.point_from_json(payload["point"], fld)
    c = classify(point)
    _emit({
        "type": c.type,
        "residue_transcendental": c.residue_transcendental,
        "value_group_extended": c.value_group_extended,
    })


def _cmd_skeleton(payload):
    fld = _field(payload)
    centers = [ser.elem_from_json(c, fld) for c in payload["centers"]]
    s_floor = ser.logvalue_from_json(payload.get("s_floor", "inf"))
    sk = build_skeleton(centers, s_floor)
    if payload.get("format", "json") == "dot":
        sys.stdout.write(sk.to_dot())
    else:
        _emit(ser.skeleton_to_json(sk))


def _cmd_np(payload):
    fld = _field(payload)
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


def _cmd_sheaf(payload):
    fld = _field(payload)
    n = int(payload["n"])
    spec = payload["sheaf"]
    kind = spec["kind"]
    if kind in ("kummer", "constant"):
        centers = [ser.elem_from_json(c, fld) for c in payload["centers"]]
        sk = build_skeleton(centers,
                            ser.logvalue_from_json(payload.get("s_floor", "inf")))
        tree = HostTree.from_skeleton(sk)
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


def _cmd_balance(payload):
    fld = _field(payload)
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
        degs = boundary_degrees(f, dom)
        _emit({"boundary_degrees": list(degs),
               "exterior": exterior_degree(f, dom)})


def _cmd_homotopy(payload):
    fld = _field(payload)
    f0 = ser.ratfunc_from_json(payload["f0"], fld)
    f1 = ser.ratfunc_from_json(payload["f1"], fld)
    dom = ser.domain_from_json(payload["domain"], fld)
    _emit({"homotopic": homotopy_check(f0, f1, dom)})


def _cmd_cancel(payload):
    fld = _field(payload)
    ann = ser.annulus_from_json(payload.get(
        "annulus", {"s_lo": {"q": "1"}, "s_hi": {"q": "-1"}}))
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
            coef = y1.total_mass - y2.total_mass
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

_PAYLOAD_FLAGS = {
    "eval": ["field", "poly", "point"],
    "classify": ["field", "point"],
    "skeleton": ["field", "centers", "s_floor", "format"],
    "np": ["field", "poly", "count"],
    "sheaf": ["field", "centers", "s_floor", "sheaf", "n"],
    "balance": ["field", "f", "point", "directions", "domain"],
    "homotopy": ["field", "f0", "f1", "domain"],
    "cancel": ["field", "g", "N", "annulus", "section"],
}

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
        for flag in _PAYLOAD_FLAGS[name]:
            p.add_argument(f"--{flag}")
    return top


def _assemble_payload(args):
    if args.problem:
        doc = _read_json_arg(args.problem if args.problem == "-"
                             else "@" + args.problem)
        if doc.get("version") != 1:
            raise SchemaError("problem file version must be 1")
        if doc.get("command") not in (None, args.command):
            raise SchemaError("problem file command disagrees with argv")
        payload = doc.get("payload", {})
    else:
        payload = {}
    for flag in _PAYLOAD_FLAGS[args.command]:
        raw = getattr(args, flag, None)
        if raw is None:
            continue
        if flag in ("format", "g"):
            payload[flag] = raw
        elif flag in ("N", "n"):
            payload[flag] = int(raw)
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
    except (SchemaError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(json.dumps({"error": "schema", "detail": str(exc)}),
              file=sys.stderr)
        return 2
    try:
        _DISPATCH[args.command](payload)
    except BerkError as exc:
        _emit({"error": exc.code, "witness": exc.witness,
               "detail": str(exc)})
        return 3
    except (ValueError, KeyError, TypeError) as exc:
        print(json.dumps({"error": "schema", "detail": str(exc)}),
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
