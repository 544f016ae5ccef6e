"""One sha256 per workload over the answers to a fixed prefix of its inputs,
and one over the CLI's answers to the payload mutation corpus.

    python3 tools/answer_digest.py [--seed 305] [-n 300]

For each of ``divisor_queries``, ``dense_products`` and ``sparse_splitting``
in ``perfbench/workloads.py`` it takes ``generate(seed)[:n]``, answers every
item with ``call`` in this process, and hashes ``answer_text(answer)``; an
item whose call raises is hashed as
``repr((type(e).__name__, str(e), getattr(e, "witness", None)))`` instead.
Each text is followed by a newline, and all go into one sha256 per workload,
printed as ``name  hexdigest``.

The ``cli_corpus`` line hashes all 20,800 payloads of ``tests/corpus.py``,
valid and invalid, each given to ``cli.main`` in this process as a problem
file on stdin: one JSON line ``[command, exit code, stdout, stderr]`` per
payload.  A rejected payload is worded by jsonschema where it is installed,
so compare this line between trees run with the same jsonschema.

Two trees answer alike on these items when they print the same digests.
``tools/answer_digest.txt`` holds what this tree prints, with jsonschema
4.26.0 installed; CI compares the output with it, so a change that changes
answers updates that file.
The library is imported from ``src/`` next to this file.  Uses the standard
library only; it is not part of the test suite.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("divisor_queries", "dense_products", "sparse_splitting")


def digest(workload, seed: int, n: int) -> str:
    h = hashlib.sha256()
    for item in workload.generate(seed)[:n]:
        try:
            text = workload.answer_text(workload.call(item))
        except Exception as e:
            text = repr((type(e).__name__, str(e), getattr(e, "witness", None)))
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def cli_digest() -> str:
    from berkline import cli
    from corpus import corpus

    h = hashlib.sha256()
    try:
        for command, payload in corpus():
            sys.stdin = io.StringIO(json.dumps(
                {"version": 1, "command": command, "payload": payload}))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "--problem", "-"])
            h.update(json.dumps(
                [command, code, out.getvalue(), err.getvalue()]).encode())
            h.update(b"\n")
    finally:
        sys.stdin = sys.__stdin__
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=305)
    ap.add_argument("-n", type=int, default=300,
                    help="how many items of each pool to answer")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    from workloads import WORKLOADS as ALL

    for name in WORKLOADS:
        print(f"{name}  {digest(ALL[name](), args.seed, args.n)}")
    print(f"cli_corpus  {cli_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
