"""Every payload of the mutation corpus that the schema accepts, run through
``cli.main`` end to end.

``tests/corpus.py`` makes 20,800 payloads; ``cli._validate`` accepts about
2,800 of them.  Each goes to ``cli.main`` as a problem file on stdin.  No
call may end in exit 4 or a traceback, and every exit-2 detail must come
from a ``raise`` in berkline or from one of the classes of messages that
Python writes listed below.  Each exit-0 answer of a command listed in
``EXIT0_CHECKS`` is checked by a relation that the command's own code path
does not enforce:

- ``np``: the segment widths sum to ``degree - mult0``;
- ``balance`` on a domain: the boundary degrees sum to minus
  ``units.exterior_degree``, which counts the bounding disc alone;
- ``homotopy``: with f0 and f1 swapped, the call exits 0 with the same
  verdict.
"""

import contextlib
import io
import json
import linecache
import re
import sys
from pathlib import Path

from berkline import cli, serialize
from berkline.cli import SchemaError
from berkline.units import exterior_degree
from corpus import corpus

SRC = Path(cli.__file__).resolve().parent

# exit-2 details that Python wrote, not berkline, by class.  This list may
# only shrink: a Python-written detail outside it fails the test, and so
# does a class that no longer occurs, which must then be struck.
PYTHON_WRITTEN = {
    "int() of a string": r"invalid literal for int\(\) with base 10: .*",
    "int() of a container": r"int\(\) argument must be a string, a "
                            r"bytes-like object or a (real )?number, not '\w+'",
    "Fraction of a string": r"Invalid literal for Fraction: .*",
    "a missing key": r"'\w*'",
    "an unhashable value": r"unhashable type: '\w+'",
    "unpacking": r"(too many values to unpack|not enough values to unpack"
                 r"|cannot unpack non-iterable \w+ object).*",
    "iterating a scalar": r"'\w+' object is not iterable",
    "indexing a scalar": r"'\w+' object is not subscriptable",
}


def _main(command, payload):
    """cli.main on payload, sent as a problem file on stdin: (exit code,
    stdout, stderr)."""
    doc = {"version": 1, "command": command, "payload": payload}
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--problem", "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _accepted(command, payload):
    try:
        cli._validate(command, payload)
    except SchemaError:
        return False
    return True


def _raised_by_berkline(exc) -> bool:
    """Whether exc came from a ``raise`` statement in berkline's source."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = tb.tb_frame.f_code.co_filename
    return (Path(path).resolve().parent == SRC
            and linecache.getline(path, tb.tb_lineno).lstrip().startswith("raise"))


def _python_class(detail):
    for name, pattern in PYTHON_WRITTEN.items():
        if re.fullmatch(pattern, detail):
            return name
    return None


def _check_np(payload, fld, out):
    widths = sum(seg["width"] for seg in out["segments"])
    return widths == out["degree"] - out["mult0"]


def _check_balance(payload, fld, out):
    if "point" in payload:
        return None  # slopes: no check yet
    f = serialize.ratfunc_from_json(payload["f"], fld)
    dom = serialize.domain_from_json(payload["domain"], fld)
    return sum(out["boundary_degrees"]) == -exterior_degree(f, dom)


def _check_homotopy(payload, fld, out):
    swapped = {**payload, "f0": payload["f1"], "f1": payload["f0"]}
    code, swapped_out, _ = _main("homotopy", swapped)
    return code == 0 and json.loads(swapped_out) == out


EXIT0_CHECKS = {"np": _check_np, "balance": _check_balance,
                "homotopy": _check_homotopy}


def test_accepted_corpus_end_to_end(monkeypatch):
    rejected, real = [], cli._schema_error

    def recording(exc):
        rejected.append(exc)
        return real(exc)

    monkeypatch.setattr(cli, "_schema_error", recording)
    codes = {}
    checked = dict.fromkeys(EXIT0_CHECKS, 0)
    python_classes = set()
    unexplained = []
    for command, payload in corpus():
        if not _accepted(command, payload):
            continue
        del rejected[:]
        code, out, err = _main(command, payload)
        codes[code] = codes.get(code, 0) + 1
        case = (command, payload, code, err)
        if code in (0, 3):
            assert err == "" and out.endswith("\n"), case
            if code == 3:
                assert json.loads(out).keys() == {"error", "witness", "detail"}
            elif command in EXIT0_CHECKS:
                fld = serialize.field_from_json(payload["field"])
                ok = EXIT0_CHECKS[command](payload, fld, json.loads(out))
                assert ok is not False, case
                checked[command] += ok is True
            continue
        # one JSON object on stderr, never a traceback
        assert code == 2 and out == "", case
        report = json.loads(err)
        assert report.keys() == {"error", "detail"}, case
        assert report["error"] == "schema", case
        (exc,) = rejected
        if _raised_by_berkline(exc):
            continue
        name = _python_class(report["detail"])
        if name is None:
            unexplained.append(case)
        else:
            python_classes.add(name)
    assert not unexplained[:5]
    assert set(codes) == {0, 2, 3}
    assert sum(codes.values()) > 2500
    assert python_classes == set(PYTHON_WRITTEN)
    print("exit-0 answers checked:", checked)
    assert min(checked.values()) > 50, checked
