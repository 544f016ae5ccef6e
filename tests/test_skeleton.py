"""Skeleton construction: tree structure, branch depths, DOT stability."""

import random
from fractions import Fraction

import pytest

from berkline import DiscPoint, HostTree, INFINITY, LogValue, Skeleton, build_skeleton
from berkline.errors import DuplicateCenters, PointOutsideDisc, ShapeMismatch
from conftest import rand_puiseux

lv = lambda q, e=0: LogValue(Fraction(q), Fraction(e))


def vertex_depths(sk):
    return sorted(str(v.s) for v in sk.vertices)


class TestBuild:
    def test_single_center_is_a_ray(self, FQ):
        sk = build_skeleton([FQ.zero()])
        assert len(sk.vertices) == 2
        assert len(sk.edges) == 1
        assert sk.vertices[sk.root].s == lv(0)
        (leaf,) = sk.leaves
        assert sk.vertices[leaf].s == INFINITY

    def test_three_centers_example(self, FQ):
        # v(0-t)=1, v(0-1)=v(t-1)=0: the root splits off 1, a depth-1 branch
        # splits 0 from t
        t = FQ.t()
        sk = build_skeleton([FQ.zero(), t, FQ.one()])
        assert len(sk.vertices) == 5
        assert len(sk.leaves) == 3
        internal = [v for i, v in enumerate(sk.vertices)
                    if i not in sk.leaves and i != sk.root]
        assert [str(v.s) for v in internal] == ["1"]
        assert len(sk.children(sk.root)) == 2

    def test_chain_of_branch_points(self, FQ):
        t = FQ.t()
        sk = build_skeleton([FQ.zero(), t, t * t])
        internal = sorted(str(v.s) for i, v in enumerate(sk.vertices)
                          if i not in sk.leaves and i != sk.root)
        assert internal == ["1", "2"]

    def test_duplicate_centers(self, FQ):
        with pytest.raises(DuplicateCenters):
            build_skeleton([FQ.zero(), FQ.zero()])

    def test_no_centers(self):
        # without the check, min() of an empty sequence raises ValueError
        with pytest.raises(DuplicateCenters, match="need at least one center"):
            build_skeleton([])

    def test_finite_floor_collision(self, FQ):
        t = FQ.t()
        with pytest.raises(DuplicateCenters):
            build_skeleton([FQ.zero(), FQ.t(5)], s_floor=lv(3))

    def test_center_outside_disc(self, FQ, Q2):
        with pytest.raises(PointOutsideDisc) as exc:
            build_skeleton([FQ.zero(), FQ.t(-1)])
        assert exc.value.witness == 1
        with pytest.raises(PointOutsideDisc):
            build_skeleton([Q2.elem(Fraction(1, 2))])

    def test_finite_floor_leaves(self, FQ):
        sk = build_skeleton([FQ.zero(), FQ.one()], s_floor=lv(4))
        assert all(sk.vertices[i].s == lv(4) for i in sk.leaves)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sets_give_trees(self, FQ, seed):
        rng = random.Random(seed)
        centers = []
        for _ in range(rng.randint(1, 8)):
            a = rand_puiseux(rng, FQ)
            if not any((a - b).is_zero() for b in centers):
                centers.append(a)
        sk = build_skeleton(centers)
        assert sk.is_tree()
        assert len(sk.leaves) == len(centers)
        # s strictly increases from parent to child along every edge
        for c, p in sk.edges:
            assert sk.vertices[c].s > sk.vertices[p].s
        # no interior vertex of degree 2
        deg = {}
        for c, p in sk.edges:
            deg[c] = deg.get(c, 0) + 1
            deg[p] = deg.get(p, 0) + 1
        for i in range(len(sk.vertices)):
            if i != sk.root and i not in sk.leaves:
                assert deg[i] >= 3

    def test_branch_structure_matches_pairwise_ultrametric(self, FQ):
        # oracle: the meet depth of two leaves equals v(a - b)
        rng = random.Random(99)
        from berkline import meet

        for _ in range(20):
            centers = []
            for _ in range(rng.randint(2, 7)):
                a = rand_puiseux(rng, FQ)
                if not any((a - b).is_zero() for b in centers):
                    centers.append(a)
            if len(centers) < 2:
                continue
            sk = build_skeleton(centers)
            # locate leaf index per center
            leaf_of = {}
            for i in sk.leaves:
                for a in centers:
                    if (sk.vertices[i].center - a).is_zero():
                        leaf_of[id(a)] = i
            parent = {c: p for c, p in sk.edges}

            def ancestors(i):
                out = [i]
                while i in parent:
                    i = parent[i]
                    out.append(i)
                return out

            for i in range(len(centers)):
                for j in range(i + 1, len(centers)):
                    a, b = centers[i], centers[j]
                    pa = ancestors(leaf_of[id(a)])
                    pb = set(ancestors(leaf_of[id(b)]))
                    common = next(k for k in pa if k in pb)
                    expected = meet(DiscPoint(a, INFINITY),
                                    DiscPoint(b, INFINITY))
                    assert sk.vertices[common] == expected

    def test_is_tree_rejects_edge_off_the_vertex_set(self, FQ):
        # |E| = |V| - 1 and the walk from the root reaches three ids, but
        # vertex 2 is cut off and vertex 5 does not exist
        pts = tuple(DiscPoint(FQ.zero(), LogValue(k)) for k in range(3))
        sk = Skeleton(pts, ((1, 0), (5, 1)), 0, ())
        assert not sk.is_tree()
        with pytest.raises(ShapeMismatch, match=r"edge \(5, 1\) off the vertex set"):
            HostTree.from_skeleton(sk)


class TestDot:
    def test_byte_stable(self, FQ):
        t = FQ.t()
        sk1 = build_skeleton([FQ.zero(), t, FQ.one()])
        sk2 = build_skeleton([FQ.one(), FQ.zero(), t])
        assert sk1.to_dot() == sk2.to_dot()

    def test_format(self, FQ):
        sk = build_skeleton([FQ.zero()])
        dot = sk.to_dot()
        assert dot.startswith("digraph skeleton {")
        assert 'v1 -> v0 [label="inf"];' in dot
        assert 'label="a=0, s=0"' in dot
