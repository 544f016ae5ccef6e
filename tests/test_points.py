"""Disc points: classification, meets, retraction coordinates, evaluation."""

import random
from fractions import Fraction

import pytest

from berkline import (ChainPoint, CoordVector, DiscPoint, INFINITY, LogValue,
                      PadicField, Polynomial, PuiseuxField, classify, coords,
                      eval_point, gauss_valuation, meet, restrict_coords,
                      roots_in_disc)
from berkline.errors import (BerkError, ChainNotStabilized, IndexNotSubset,
                             MalformedChain, PointOutsideDisc,
                             PrecisionExhausted)
from conftest import rand_puiseux
from test_lattice_routes import rand_elem, rand_poly, rand_trunc

lv = lambda q, e=0: LogValue(Fraction(q), Fraction(e))


class TestClassify:
    def test_type1(self, FQ):
        assert classify(DiscPoint(FQ.zero(), INFINITY)).type == 1

    def test_type2(self, FQ):
        c = classify(DiscPoint(FQ.zero(), lv(1)))
        assert c.type == 2 and c.residue_transcendental

    def test_type3(self, FQ):
        c = classify(DiscPoint(FQ.zero(), lv(1, 1)))
        assert c.type == 3 and c.value_group_extended

    def test_type4(self, FQ):
        t = FQ.t()
        chain = ChainPoint((DiscPoint(FQ.zero(), lv(1)),
                            DiscPoint(t, lv(2)),
                            DiscPoint(t + FQ.t(2), lv(3))))
        assert classify(chain).type == 4
        assert repr(chain) == "Chain(D(0, s=1) > D(t, s=2) > D(t+t^2, s=3))"

    def test_malformed_chain(self, FQ):
        with pytest.raises(MalformedChain):
            ChainPoint((DiscPoint(FQ.zero(), lv(2)),
                        DiscPoint(FQ.one(), lv(3))))  # not nested
        # a non-point, to each function that takes a point
        for op in (lambda: classify(FQ.one()),
                   lambda: meet(FQ.one(), DiscPoint(FQ.zero(), lv(0))),
                   lambda: coords(FQ.one(), [FQ.zero()]),
                   lambda: eval_point(Polynomial.variable(FQ), FQ.one())):
            with pytest.raises(MalformedChain):
                op()


class TestMeet:
    def test_classical_distance(self, FQ):
        x = DiscPoint(FQ.zero(), INFINITY)
        y = DiscPoint(FQ.one(), INFINITY)
        assert meet(x, y) == DiscPoint(FQ.zero(), lv(0))

    def test_idempotent(self, FQ):
        x = DiscPoint(FQ.t(), lv(3))
        assert meet(x, x) == x

    def test_known_depth(self, FQ):
        t = FQ.t()
        x = DiscPoint(t, INFINITY)
        y = DiscPoint(t * t, INFINITY)
        assert meet(x, y) == DiscPoint(t, lv(1))

    def test_commutative_associative(self, FQ):
        rng = random.Random(1)
        pts = [DiscPoint(rand_puiseux(rng, FQ), lv(rng.randint(0, 5)))
               for _ in range(12)]
        for x in pts:
            for y in pts:
                assert meet(x, y) == meet(y, x)
                for z in pts:
                    assert meet(meet(x, y), z) == meet(x, meet(y, z))

    def test_meet_contains_both(self, FQ):
        rng = random.Random(2)
        for _ in range(40):
            x = DiscPoint(rand_puiseux(rng, FQ), lv(rng.randint(0, 6)))
            y = DiscPoint(rand_puiseux(rng, FQ), lv(rng.randint(0, 6)))
            m = meet(x, y)
            assert m.contains(x) and m.contains(y)

    def test_meet_is_ultrametric_join(self, FQ):
        # oracle: eval of T - b at the meet equals the min over the operands
        rng = random.Random(3)
        for _ in range(40):
            x = DiscPoint(rand_puiseux(rng, FQ), lv(rng.randint(0, 5)))
            y = DiscPoint(rand_puiseux(rng, FQ), lv(rng.randint(0, 5)))
            m = meet(x, y)
            for _ in range(4):
                b = rand_puiseux(rng, FQ)
                f = Polynomial.from_roots(FQ, [b])
                assert eval_point(f, m) == min(eval_point(f, x),
                                               eval_point(f, y))


class TestCoords:
    def test_gauss_point_all_zero(self, FQ):
        x = DiscPoint(FQ.zero(), lv(0))
        A = [FQ.zero(), FQ.t(), FQ.one()]
        cv = coords(x, A)
        assert all(v == lv(0) for v in cv.values)

    def test_classical_point(self, FQ):
        x = DiscPoint(FQ.zero(), INFINITY)
        cv = coords(x, [FQ.zero(), FQ.t()])
        assert cv.values[0] == INFINITY
        assert cv.values[1] == lv(1)

    def test_ray_formula(self, FQ):
        # along the ray through b the coordinates follow min(s, v(a-b))
        rng = random.Random(4)
        for _ in range(30):
            A = [rand_puiseux(rng, FQ) for _ in range(4)]
            b = rng.choice(A)
            s = lv(Fraction(rng.randint(0, 12), rng.choice([1, 2])))
            cv = coords(DiscPoint(b, s), A)
            for a, got in zip(A, cv.values):
                diff = a - b
                d = INFINITY if diff.is_zero() else lv(diff.valuation())
                assert got == min(s, d)

    def test_inequalities_always_hold(self, FQ):
        rng = random.Random(5)
        for _ in range(100):
            A = [rand_puiseux(rng, FQ) for _ in range(rng.randint(1, 5))]
            x = DiscPoint(rand_puiseux(rng, FQ),
                          lv(rng.randint(0, 8), rng.randint(-1, 1)))
            assert coords(x, A).check_tree_inequalities()
        # v(0 - t) = 1: s_0 = 0 < min(s_t, 1) breaks the first inequality,
        # and 1 < min(s_0, s_t) = 2 the second
        A = (FQ.zero(), FQ.t())
        assert not CoordVector(A, (lv(0), lv(2))).check_tree_inequalities()
        assert not CoordVector(A, (lv(2), lv(2))).check_tree_inequalities()

    def test_outside_disc_rejected(self, FQ):
        bad = FQ.t(-1)
        with pytest.raises(PointOutsideDisc):
            coords(DiscPoint(bad, lv(0)), [FQ.zero()])
        with pytest.raises(PointOutsideDisc):
            coords(DiscPoint(FQ.zero(), lv(0)), [bad])

    def test_chain_outside_disc_rejected(self, FQ):
        # a chain is retracted at its last disc, and is rejected as that
        # disc is: its center t^-1 + t^2 lies outside the unit disc
        last = DiscPoint(FQ.t(-1) + FQ.t(2), lv(0))
        chain = ChainPoint((DiscPoint(FQ.t(-1), lv(-3)), last))
        for x in (last, chain):
            with pytest.raises(PointOutsideDisc,
                               match="point center outside the unit disc"):
                coords(x, [FQ.zero()])

    def test_restrict_identity(self, FQ):
        A = [FQ.zero(), FQ.t()]
        cv = coords(DiscPoint(FQ.zero(), lv(1)), A)
        assert restrict_coords(cv, A).values == cv.values

    def test_restrict_finds_a_truncated_center(self, FQ):
        a = FQ.elem([(0, 1)], 4)  # 1 + O(t^4)
        cv = coords(DiscPoint(FQ.zero(), lv(2)), [a, FQ.t()])
        # the very object the coordinates were indexed by
        assert restrict_coords(cv, [a]).values == cv.values[:1]
        # an equal-looking 1 + O(t^4) may or may not be a
        with pytest.raises(PrecisionExhausted) as exc:
            restrict_coords(cv, [FQ.elem([(0, 1)], 4)])
        assert str(exc.value) == "valuation only known to be >= 4"
        # 1 + t + O(t^4) is not
        with pytest.raises(IndexNotSubset):
            restrict_coords(cv, [FQ.elem([(0, 1), (1, 1)], 4)])

    def test_restrict_compatibility(self, FQ):
        rng = random.Random(6)
        for _ in range(60):
            big = [rand_puiseux(rng, FQ) for _ in range(6)]
            # keep distinct elements to make subset lookup unambiguous
            uniq = []
            for a in big:
                if not any((a - b).is_zero() for b in uniq):
                    uniq.append(a)
            if len(uniq) < 3:
                continue
            small = rng.sample(uniq, 3)
            x = DiscPoint(rand_puiseux(rng, FQ), lv(rng.randint(0, 6)))
            direct = coords(x, small)
            via = restrict_coords(coords(x, uniq), small)
            assert direct.values == via.values

    def test_restrict_not_subset(self, FQ):
        cv = coords(DiscPoint(FQ.zero(), lv(0)), [FQ.zero()])
        with pytest.raises(IndexNotSubset):
            restrict_coords(cv, [FQ.one()])

    def test_chain_coords_stabilized(self, FQ):
        t = FQ.t()
        chain = ChainPoint((DiscPoint(FQ.zero(), lv(1)),
                            DiscPoint(t, lv(2))))
        cv = coords(chain, [FQ.one()])
        # distance from the chain to 1 is settled at valuation 0
        assert cv.values[0] == lv(0)


class TestEvalPoint:
    def test_disc_point_linear(self, FQ):
        a = FQ.t()
        f = Polynomial.from_roots(FQ, [a])
        assert eval_point(f, DiscPoint(a, lv(3))) == lv(3)

    def test_type1_classical_value(self, FQ):
        f = Polynomial.variable(FQ)
        x = DiscPoint(FQ.t(3), INFINITY)
        assert eval_point(f, x) == lv(3)

    def test_multiplicative(self, FQ):
        t = FQ.t()
        f = Polynomial.from_roots(FQ, [FQ.one(), t])
        assert eval_point(f, DiscPoint(FQ.zero(), lv(0))) == lv(0)

    def test_chain_stabilized_value(self, FQ):
        t = FQ.t()
        f = Polynomial.from_roots(FQ, [FQ.one()])  # root far from the chain
        chain = ChainPoint((DiscPoint(FQ.zero(), lv(1)),
                            DiscPoint(t, lv(2))))
        assert eval_point(f, chain) == lv(0)

    def test_chain_not_stabilized(self, FQ):
        f = Polynomial.from_roots(FQ, [FQ.t(3)])  # root inside the last disc
        chain = ChainPoint((DiscPoint(FQ.zero(), lv(1)),
                            DiscPoint(FQ.zero(), lv(2))))
        with pytest.raises(ChainNotStabilized):
            eval_point(f, chain)

    def test_chain_writes_f_at_the_last_center_once(self, FQ, monkeypatch):
        calls = []
        recenter = Polynomial.recenter

        def counted(g, a):
            calls.append(a)
            return recenter(g, a)

        t = FQ.t()
        f = Polynomial.from_coeffs(FQ, [1, t, 1])
        chain = ChainPoint((DiscPoint(FQ.zero(), lv(1)), DiscPoint(t, lv(2))))
        monkeypatch.setattr(Polynomial, "recenter", counted)
        assert eval_point(f, chain) == lv(0)
        assert calls == [t]

    @pytest.mark.parametrize("fld", [PuiseuxField(0), PuiseuxField(2),
                                     PadicField(3)], ids=repr)
    def test_chain_matches_count_then_value(self, fld):
        # the count and the value as two calls, each writing f at the center
        def two_shifts(f, x):
            last = x.last
            if not f.is_zero() and roots_in_disc(f, last.center, last.s):
                raise ChainNotStabilized(
                    "f has roots inside the last chain disc; value still moving",
                    witness={"s": str(last.s)})
            return gauss_valuation(f, last.center, last.s)

        def outcome(fn, *args):
            try:
                return fn(*args)
            except BerkError as exc:
                return type(exc), str(exc), exc.witness

        rng = random.Random(f"chains/{fld!r}")
        kinds = set()
        for _ in range(300):
            f = rand_poly(rng, fld, rng.randint(0, 4), make=rand_trunc)
            a = rand_elem(rng, fld)
            s1 = rng.randint(-1, 2)
            b = a + fld.t(s1 + rng.randint(0, 2), 1)
            x = ChainPoint((DiscPoint(a, lv(s1)),
                            DiscPoint(b, lv(s1 + rng.randint(1, 3),
                                            rng.choice([0, 0, 1, -1])))))
            got = outcome(eval_point, f, x)
            assert got == outcome(two_shifts, f, x), (f, x)
            kinds.add(got[0] if isinstance(got, tuple) else LogValue)
        assert {LogValue, ChainNotStabilized} <= kinds, kinds

    def test_matches_gauss_valuation(self, FQ):
        rng = random.Random(8)
        from conftest import rand_poly

        for _ in range(30):
            f = rand_poly(rng, FQ, max_deg=5)
            a = rand_puiseux(rng, FQ)
            s = lv(rng.randint(0, 5))
            assert eval_point(f, DiscPoint(a, s)) == gauss_valuation(f, a, s)


class TestTruncatedCenters:
    """A point built on a truncated center is the same point as itself: its
    distance to its own center object is +infinity, not a truncated zero."""

    def test_classical_point_equals_itself(self, FQ):
        x = DiscPoint(FQ.elem([], 4), INFINITY)
        assert x == x

    def test_gauss_point_equals_itself(self, FQ):
        x = DiscPoint(FQ.one() + FQ.elem([], 4), lv(2))
        assert x == x

    def test_chain_on_one_truncated_center(self, FQ):
        c = FQ.one() + FQ.elem([], 4)
        chain = ChainPoint((DiscPoint(c, lv(0)), DiscPoint(c, lv(1))))
        assert chain.last.center is c
        assert DiscPoint(c, lv(0)).contains(DiscPoint(c, lv(1)))
        assert not DiscPoint(c, lv(1)).contains(DiscPoint(c, lv(0)))

    def test_distinct_classical_points_differ(self, FQ):
        assert DiscPoint(FQ.zero(), INFINITY) != DiscPoint(FQ.one(), INFINITY)
        assert DiscPoint(FQ.t(), INFINITY) == DiscPoint(FQ.t(), INFINITY)
        assert (DiscPoint(FQ.t(), INFINITY) == 3) is False
