"""The four benchmark workloads.

Each workload turns a seed into a pool of inputs (``generate``), answers one
input per operation (``call``, the timed part) and checks that answer
(``check``, untimed).  Checks use invariants that do not depend on the code
under test where they exist (additivity, polygon widths against the roots an
input was built from, degrees and slopes counted straight from certified root
lists, vanishing Kummer cohomology, the splitting mass); the CLI workload
compares stdout bytes and exit codes with goldens taken at a trusted commit.

Input structure (field, degree pattern, size) is fixed per position in a
cycle, and runs stop only at the end of a cycle, so every run measures the
same mix whatever the seed; the seed draws the values (coefficients, the
order of CLI problems and of sizes within a sweep).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

# operations call the library through the package namespace, so that the
# traced run's wrappers, which rebind those names, see every call
import berkline as bk
from berkline import (UNIT_ANNULUS, Domain, ExcludedDisc, HostTree, LogValue,
                      PadicField, Polynomial, PuiseuxField, RationalFunction,
                      SectionComponent, SectionData)
from berkline import cli

PROBLEMS = Path(__file__).resolve().parent / "problems"
GOLDEN = PROBLEMS / "golden.json"


def dist(a, b):
    """v(a - b) as a Fraction, math.inf when a == b (field ops only)."""
    d = a - b
    return math.inf if d.is_zero() else Fraction(d.valuation())


def monomial(fld, q, c):
    """c * t**q (Puiseux) or c * p**q (p-adic)."""
    return fld.t(q, c)


def unit_coef(rng, fld):
    """A coefficient of valuation 0."""
    if isinstance(fld, PadicField):
        return rng.choice([u for u in range(1, 12) if u % fld.p])
    if fld.char:
        return rng.randint(1, fld.char - 1)
    return rng.choice([-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(3, 2)])


class Workload:
    name = ""
    cycle = 1           # length of the input-structure pattern
    warmup = 3          # untimed operations run during set-up
    min_ops = 100       # every run answers at least this many
    import_module = "berkline"

    def generate(self, seed: int) -> list:
        raise NotImplementedError

    def warmup_items(self, pool):
        return pool[:self.warmup]

    def call(self, item):
        raise NotImplementedError

    # the operation the traced run measures; the same unless overridden
    def traced_call(self, item):
        return self.call(item)

    def check(self, item, answer) -> bool:
        raise NotImplementedError

    def describe(self, item) -> str:
        """A stable text form of an input, for the same-seed check."""
        return repr(item)

    def answer_text(self, answer) -> str:
        return repr(answer)


# --------------------------------------------------------------------------
# cli_problems

def cli_env() -> dict:
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def problem_files() -> list:
    return sorted(p for p in PROBLEMS.glob("*.json") if p != GOLDEN)


def problem_command(path: Path) -> str:
    """Problem files are named <command>__<name>.json; a malformed file
    cannot be trusted to name its own command."""
    return path.stem.split("__")[0]


def run_cli_subprocess(path: Path, env: dict, timeout: float = 60.0):
    proc = subprocess.run(
        [sys.executable, "-m", "berkline.cli", problem_command(path),
         "--problem", str(path)],
        capture_output=True, env=env, timeout=timeout, check=False)
    return proc.returncode, proc.stdout.decode()


def run_cli_inprocess(path: Path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([problem_command(path), "--problem", str(path)])
    return code, out.getvalue()


class CliProblems(Workload):
    """One op is one `python -m berkline.cli <cmd> --problem <file>` process.

    Compute is tiny; interpreter start, `import berkline` and per-call
    JSON-schema validation dominate.  The traced run calls `cli.main`
    in-process on the same files.
    """

    name = "cli_problems"
    warmup = 2
    import_module = "berkline.cli"

    def __init__(self):
        self.files = problem_files()
        self.cycle = len(self.files)
        self.min_ops = 2 * self.cycle
        with open(GOLDEN) as fh:
            self.golden = json.load(fh)
        self.env = cli_env()

    def generate(self, seed):
        # every pass runs each file once, in a seeded order
        rng = random.Random(seed)
        pool = []
        for _ in range(64):
            order = list(self.files)
            rng.shuffle(order)
            pool.extend(order)
        return pool

    def warmup_items(self, pool):
        return self.files[:self.warmup]    # the same files whatever the seed

    def call(self, item):
        return run_cli_subprocess(item, self.env)

    def traced_call(self, item):
        return run_cli_inprocess(item)

    def check(self, item, answer):
        want = self.golden[item.stem]
        return answer == (want["exit"], want["stdout"])

    def describe(self, item):
        return item.stem


# --------------------------------------------------------------------------
# divisor_queries

class DivisorQueries(Workload):
    """One op analyses one certified rational function on a domain.

    The domain is the disc v(T) >= -1 minus closed or open discs around the
    centers 0, 1, 2.  The op certifies the unit, takes direction slopes at
    every type-2 vertex of the support skeleton, boundary and exterior
    degrees, Kummer cohomology on that skeleton, and two homotopy decisions.
    """

    name = "divisor_queries"
    fields = (PuiseuxField(0), PadicField(3), PuiseuxField(0), PadicField(5))
    # (roots per center, poles per center, roots beyond the bounding disc),
    # one entry per op in a cycle: numerator degree 2..7, denominator 0..6
    shapes = ((1, 1, 0), (2, 1, 1), (1, 0, 1), (2, 1, 0), (0, 1, 2),
              (1, 2, 0), (1, 1, 2), (2, 0, 1))
    kummer_n = (2, 3, 4, 6)

    def __init__(self):
        self.cycle = len(self.fields) * len(self.shapes)

    def generate(self, seed, size=300):
        rng = random.Random(seed)
        return [self._item(rng, i) for i in range(size)]

    def _item(self, rng, i):
        # the structure (degrees, which discs are open, valuations) is fixed
        # by i; the seed draws the coefficients
        fld = self.fields[i % len(self.fields)]
        nz, npol, nout = self.shapes[(i // len(self.fields)) % len(self.shapes)]
        centers = [fld.zero(), fld.one(), fld.constant(2)]
        closed = [(i // self.cycle + j) % 2 == 0 for j in range(len(centers))]
        dom = Domain(fld.zero(), LogValue(-1), tuple(
            ExcludedDisc(c, LogValue(1), closed=cl)
            for c, cl in zip(centers, closed)))
        roots, poles = [], []
        for j, (c, cl) in enumerate(zip(centers, closed)):
            lo = 1 if cl else 2      # an open disc holds only v(z - c) > 1
            for m in range(nz):
                q = lo + (i + j + m) % (4 - lo)
                roots.append(c + monomial(fld, q, unit_coef(rng, fld)))
            for m in range(npol):
                q = lo + (i + j + m + 1) % (4 - lo)
                poles.append(c + monomial(fld, q, unit_coef(rng, fld)))
        for m in range(nout):
            roots.append(monomial(fld, -2 - (i + m) % 3, unit_coef(rng, fld)))
        num = Polynomial.from_roots(fld, roots) if roots \
            else Polynomial.from_coeffs(fld, [unit_coef(rng, fld)])
        den = Polynomial.from_roots(fld, poles) if poles \
            else Polynomial.from_coeffs(fld, [1])
        f = RationalFunction(num, den, num_roots=tuple(roots),
                             den_roots=tuple(poles))
        # 1 + sum c_k T^k with v(c_k) >= k + 1: a 1-unit without zeros on
        # v(T) >= -1, so f * pert is homotopic to f
        pert = Polynomial.from_coeffs(fld, [fld.one()] + [
            monomial(fld, k + 1 + (i + k) % 2, unit_coef(rng, fld))
            for k in range(1, 2 + i // self.cycle % 2)])
        f1 = RationalFunction(f.num * pert, f.den)
        # T is a unit on the domain (0 is excluded) but changes the class
        shifted = RationalFunction(f.num * Polynomial.variable(fld), f.den)
        return {"f": f, "dom": dom, "f1": f1, "shifted": shifted,
                "n": self.kummer_n[i % len(self.kummer_n)]}

    def call(self, item):
        f, dom = item["f"], item["dom"]
        unit = bk.reduced_unit(f, dom).certified
        support = []
        for a in f.num_roots + f.den_roots:
            if a.valuation_lower_bound() >= 0 and \
                    not any((a - b).is_zero() for b in support):
                support.append(a)
        fld = f.field
        sk = bk.build_skeleton(support or [fld.zero()])
        slopes = [(v, bk.direction_slopes(f, v)) for v in sk.vertices
                  if bk.classify(v).type == 2]
        degs = bk.boundary_degrees(f, dom)
        ext = bk.exterior_degree(f, dom)
        coh = bk.cohomology(bk.kummer_sheaf(HostTree.from_skeleton(sk), item["n"]))
        near = bk.homotopy_check(f, item["f1"], dom)
        far = bk.homotopy_check(f, item["shifted"], dom)
        return unit, slopes, degs, ext, (coh.H0, coh.H1), near, far

    def check(self, item, answer):
        unit, slopes, degs, ext, coh, near, far = answer
        f, dom = item["f"], item["dom"]
        if not (unit and near and not far and coh == ((), ())):
            return False
        for v, got in slopes:
            if got != oracle_slopes(f, v.center, v.s.q) or sum(got.values()):
                return False
        want = tuple(
            count_in(f.num_roots, d.center, d.s.q, d.closed)
            - count_in(f.den_roots, d.center, d.s.q, d.closed)
            for d in dom.excluded)
        s0 = dom.s.q
        beyond = sum(1 for r in f.num_roots if dist(r, dom.center) < s0) \
            - sum(1 for r in f.den_roots if dist(r, dom.center) < s0)
        want_ext = beyond + len(f.den_roots) - len(f.num_roots)
        return degs == want and ext == want_ext and sum(degs) + ext == 0

    def describe(self, item):
        return repr((item["f"], item["dom"], item["f1"], item["n"]))

    def answer_text(self, answer):
        unit, slopes, *rest = answer
        return repr((unit, [(repr(v), s) for v, s in slopes], *rest))


def count_in(roots, center, s, closed):
    return sum(1 for r in roots
               if (dist(r, center) >= s if closed else dist(r, center) > s))


def oracle_slopes(f, a, s):
    """Direction slopes at the type-2 point D(a, s), counted from the root
    lists; representatives are chosen as `direction_slopes` documents."""
    num, den = f.num_roots, f.den_roots
    reps = []
    for b in num + den:
        if dist(b, a) < s:
            continue
        if not any(dist(b, r) > s for r in reps):
            reps.append(b)
    slopes = {}
    got_z = got_p = 0
    for b in reps:
        z = sum(1 for r in num if dist(r, b) > s)
        p = sum(1 for r in den if dist(r, b) > s)
        got_z, got_p = got_z + z, got_p + p
        slopes[f"dir:{b.canonical_str()}"] = z - p
    in_z = count_in(num, a, s, True)
    in_p = count_in(den, a, s, True)
    slopes["up"] = (len(num) - in_z) - (len(den) - in_p) + len(den) - len(num)
    other = (in_z - got_z) - (in_p - got_p)
    if other:
        slopes["other"] = other
    return slopes


# --------------------------------------------------------------------------
# dense_products

class DenseProducts(Workload):
    """One op multiplies random f, g of degree <= 8 and checks the product.

    Fields: F_2 and F_3 Puiseux (kernel route), Q Puiseux (generic route)
    and Q_3.  The op checks v(f*g) = v(f) + v(g) at a random radius, the
    Newton-polygon widths of a from_roots product against its roots, and
    v(f**k) = k v(f).
    """

    name = "dense_products"
    min_ops = 1000
    fields = (PuiseuxField(2), PuiseuxField(0), PuiseuxField(3), PadicField(3))
    degrees = ((8, 8), (3, 7), (6, 2), (0, 8), (5, 5), (8, 1), (2, 4), (7, 6),
               (4, 0))

    def __init__(self):
        self.cycle = len(self.fields) * len(self.degrees)

    def generate(self, seed, size=2000):
        rng = random.Random(seed)
        return [self._item(rng, i) for i in range(size)]

    def _elem(self, rng, fld, nonzero=False):
        if isinstance(fld, PadicField):
            if not nonzero and rng.random() < 0.1:
                return fld.zero()
            return fld.t(rng.randint(-4, 4), Fraction(unit_coef(rng, fld),
                                                      unit_coef(rng, fld)))
        while True:
            terms = [(Fraction(rng.randint(0, 6), rng.choice((1, 2, 3))),
                      unit_coef(rng, fld))
                     for _ in range(rng.randint(0, 3))]
            x = fld.elem(terms)
            if x or not nonzero:
                return x

    def _poly(self, rng, fld, deg):
        coeffs = [self._elem(rng, fld) for _ in range(deg)]
        return Polynomial.from_coeffs(fld, coeffs + [self._elem(rng, fld, True)])

    def _item(self, rng, i):
        fld = self.fields[i % len(self.fields)]
        df, dg = self.degrees[(i // len(self.fields)) % len(self.degrees)]
        f, g = self._poly(rng, fld, df), self._poly(rng, fld, dg)
        s = LogValue(Fraction(rng.randint(-6, 12), rng.choice((1, 2, 3))),
                     Fraction(rng.randint(-2, 2)))
        roots = []
        for _ in range(1 + i % 6):
            q = rng.randint(-4, 4) if isinstance(fld, PadicField) \
                else Fraction(rng.randint(0, 8), rng.choice((1, 2, 3)))
            roots.append(monomial(fld, q, unit_coef(rng, fld)))
        # the power base keeps degree <= 3 so f**k stays small
        base = self._poly(rng, fld, i % 4)
        return {"f": f, "g": g, "s": s, "roots": roots, "base": base,
                "k": 2 + i % 2}

    def call(self, item):
        f, g, s = item["f"], item["g"], item["s"]
        zero = f.field.zero()
        fg = f * g
        vals = (bk.gauss_valuation(fg, zero, s), bk.gauss_valuation(f, zero, s),
                bk.gauss_valuation(g, zero, s))
        np_ = bk.newton_polygon(Polynomial.from_roots(f.field, item["roots"]))
        power = item["base"] ** item["k"]
        pvals = (bk.gauss_valuation(power, zero, s),
                 bk.gauss_valuation(item["base"], zero, s))
        return fg.degree, vals, np_.root_valuations(), np_.mult0, pvals

    def check(self, item, answer):
        deg, (v_fg, v_f, v_g), root_vals, mult0, (v_pow, v_base) = answer
        widths = sorted(sigma for sigma, w in root_vals for _ in range(w))
        want = sorted(Fraction(r.valuation()) for r in item["roots"])
        return (deg == item["f"].degree + item["g"].degree
                and v_fg == v_f + v_g
                and widths == want and mult0 == 0
                and v_pow == v_base.scale(item["k"]))


# --------------------------------------------------------------------------
# sparse_splitting

class SparseSplitting(Workload):
    """One op is splitting_delta and y2_divisor for g in {t, 1, t*unit}.

    N is log-uniform in [10**2, 10**5] over F_2, F_3, Q, Q_2 and Q_3, so
    the polynomials t**N den - num reach huge degree with 2-4 nonzero
    coefficients.  The expected mass(Y1) - mass(Y2) is the winding number
    of g: 1 for t and t*unit, 0 for 1.
    """

    name = "sparse_splitting"
    fields = (PuiseuxField(2), PuiseuxField(3), PuiseuxField(0), PadicField(2),
              PadicField(3))
    kinds = ("t", "1", "t*unit")

    strata = 7      # N values per (field, kind) pair in one sweep

    def __init__(self):
        # one cycle is a sweep: every (field, kind) pair at one N in each of
        # `strata` equal slices of log N, the slices offset per pair
        self.cycle = self.min_ops = \
            len(self.fields) * len(self.kinds) * self.strata

    def generate(self, seed, sweeps=4):
        rng = random.Random(seed)
        pool = []
        for _ in range(sweeps):
            pairs = len(self.fields) * len(self.kinds)
            sweep = [self._item(rng, pair, r, pairs)
                     for pair in range(pairs) for r in range(self.strata)]
            rng.shuffle(sweep)
            pool.extend(sweep)
        return pool

    def warmup_items(self, pool):
        # the smallest sizes of the first sweep, whatever its order
        return sorted(pool[:self.cycle], key=lambda x: x["N"])[:self.warmup]

    def _item(self, rng, pair, r, pairs):
        fld = self.fields[pair % len(self.fields)]
        kind = self.kinds[pair // len(self.fields)]
        N = round(10 ** (2 + 3 * (r + (pair + 0.5) / pairs) / self.strata))
        one = Polynomial.from_coeffs(fld, [fld.one()])
        if kind == "1":
            g = RationalFunction(one, one)
        else:
            num = Polynomial.variable(fld)
            if kind == "t*unit":
                # unit = 1 + sum c_k T^k, v(c_k) >= k + 1: all its zeros lie
                # beyond the annulus, so the winding number stays 1
                unit = Polynomial.from_coeffs(fld, [fld.one()] + [
                    monomial(fld, k + 1 + rng.randint(0, 1), unit_coef(rng, fld))
                    for k in range(1, rng.randint(1, 2) + 1)])
                num = num * unit
            g = RationalFunction(num, one)
        return {"g": g, "N": N, "delta": 0 if kind == "1" else 1}

    def call(self, item):
        g, N = item["g"], item["N"]
        section = SectionData(1, (SectionComponent("*", g, 1),))
        delta = bk.splitting_delta(section, N, UNIT_ANNULUS)
        y1 = bk.y1_divisor(N, g.field).total_mass
        y2 = bk.y2_divisor(g, N, UNIT_ANNULUS).total_mass
        return delta, y1, y2

    def check(self, item, answer):
        delta, y1, y2 = answer
        want = item["delta"]
        return (y1 == item["N"] and y1 - y2 == want
                and delta == ((("*", want),) if want else ()))


WORKLOADS = {w.name: w for w in (CliProblems, DivisorQueries, DenseProducts,
                                 SparseSplitting)}
