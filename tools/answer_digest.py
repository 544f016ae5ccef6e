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

The ``library`` line hashes what no workload asks: over F_2((t)), F_3((t)),
Q((t)), Q_3 and Q_5, seeded polynomials (exact ones as built, as kernel
products and as Taylor shifts of those, and over Puiseux series truncated
ones, truncated zeros O(t^p) included) are asked ``gauss_valuation``,
``log2_naive_norm`` (the ``repr`` of the float), ``newton_polygon`` and
``root_count_annulus``, and rational functions of them ``leading_class``
and ``reduced_unit`` on domains with holes, at finite, eps and infinite
radii.  Each outcome is hashed as its ``repr``, or as the error's
``repr((type name, message, witness))``.

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
import random
import sys
from fractions import Fraction
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


def library_digest(seed: int) -> str:
    from berkline import (INFINITY, Domain, ExcludedDisc, LogValue,
                          PadicField, Polynomial, PuiseuxField,
                          RationalFunction, gauss_valuation, leading_class,
                          newton_polygon, reduced_unit, root_count_annulus)
    from berkline.gauss import log2_naive_norm

    rng = random.Random(seed)
    h = hashlib.sha256()
    exps = [Fraction(n, d) for n in range(-3, 5) for d in (1, 2, 3)]
    radii = [LogValue(q, e) for q in (Fraction(-3, 2), 0, Fraction(1, 3), 2)
             for e in (-1, 0, 1)] + [INFINITY]

    def elem(fld, nonzero=False, trunc=False):
        if isinstance(fld, PadicField):
            if not nonzero and rng.random() < 0.2:
                return fld.zero()
            return fld.t(rng.randint(-3, 3), Fraction(
                rng.choice([1, -1, 2, 6, 10**9 + 7]), rng.choice([1, 2, 5, 9])))
        while True:
            if trunc and rng.random() < 0.1:
                return fld.elem([], prec=rng.choice(exps))
            x = fld.elem([(rng.choice(exps), rng.randrange(1, fld.char)
                           if fld.char else Fraction(rng.choice([1, -2, 7]),
                                                     rng.choice([1, 3, 4])))
                          for _ in range(rng.randint(0, 3))])
            if trunc and rng.random() < 0.4:
                x = x.truncated(rng.choice(exps) + rng.randint(0, 3))
            if x or not nonzero:
                return x

    def poly(fld, center, trunc):
        n = rng.randint(0, 4)
        f = Polynomial.from_coeffs(fld, [elem(fld, False, trunc) for _ in range(n)]
                                   + [elem(fld, True, trunc)], center)
        if not trunc and rng.random() < 0.5:
            f = f * Polynomial.from_coeffs(fld, [elem(fld), elem(fld, True)],
                                           center)
            if rng.random() < 0.5:
                f = f.recenter(center + elem(fld, True)).recenter(center)
        return f

    def put(fn, *args):
        try:
            text = repr(fn(*args))
        except Exception as e:
            text = repr((type(e).__name__, str(e), getattr(e, "witness", None)))
        h.update(text.encode())
        h.update(b"\n")

    for fld in (PuiseuxField(2), PuiseuxField(3), PuiseuxField(0),
                PadicField(3), PadicField(5)):
        padic = isinstance(fld, PadicField)
        zero, one = fld.zero(), fld.one()
        for k in range(60):
            trunc = not padic and k % 3 == 2
            center = zero if k % 2 else elem(fld, True)
            f = poly(fld, center, trunc)
            a = center + elem(fld)
            for s in radii:
                put(gauss_valuation, f, None, s)
                put(gauss_valuation, f, a, s)
            for log2_r in (Fraction(0), Fraction(-1, 2), 1.7):
                put(log2_naive_norm, f, log2_r, a if k % 4 else None)
            put(newton_polygon, f)
            for _ in range(4):
                lo, hi = sorted(rng.sample(radii, 2))
                put(root_count_annulus, f, None if rng.random() < 0.2 else lo,
                    hi, rng.random() < 0.5, rng.random() < 0.5)
            g = RationalFunction(f, poly(fld, center, trunc))
            holes = (ExcludedDisc(zero, LogValue(1), k % 2 == 0),
                     ExcludedDisc(one, LogValue(Fraction(1, 2)), k % 3 == 0))
            for dom in (Domain(zero, LogValue(-1), holes),
                        Domain(zero, LogValue(Fraction(1, 3), -1), holes[:1]),
                        Domain(a, INFINITY)):
                put(leading_class, g, dom)
                put(reduced_unit, g, dom)
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
    print(f"library  {library_digest(args.seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
