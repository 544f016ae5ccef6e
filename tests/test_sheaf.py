"""Cellular sheaf cohomology, checked against brute-force group enumeration."""

import random
import re
import time
from itertools import product
from math import gcd

import pytest

import reference_sheaf as ref
from berkline import (HostTree, PuiseuxField, build_skeleton, cohomology,
                      constant_sheaf, kummer_sheaf, make_cellular_sheaf,
                      shriek_extend, zero_sheaf)
from berkline.errors import NotOpenSubtree, RootlessSkeleton, ShapeMismatch
from berkline.sheaf import differential_matrix
from berkline.snf import smith_normal_form
from conftest import rand_puiseux


def interval(n_vertices=2):
    """A path graph rooted at the last vertex."""
    verts = tuple(range(n_vertices))
    edges = tuple((i, i + 1) for i in range(n_vertices - 1))
    return HostTree(verts, edges, root=n_vertices - 1)


def brute_factor_counts(factors, n):
    """For each divisor d of n, the number of elements killed by d."""
    out = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        cnt = 1
        for f in factors:
            cnt *= gcd(d, f)
        out[d] = cnt
    return out


def enum_counts_h0(D, a, b, n):
    """d-torsion counts of ker(D mod n) by plain enumeration."""
    ker = []
    for x in product(range(n), repeat=a):
        y = [sum(D[r][c] * x[c] for c in range(a)) % n for r in range(b)]
        if all(v == 0 for v in y):
            ker.append(x)
    out = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        out[d] = sum(1 for x in ker if all((d * xi) % n == 0 for xi in x))
    return out


def enum_counts_h1(D, a, b, n):
    img = set()
    for x in product(range(n), repeat=a):
        img.add(tuple(sum(D[r][c] * x[c] for c in range(a)) % n
                      for r in range(b)))
    out = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        cnt = 0
        for y in product(range(n), repeat=b):
            if tuple((d * yi) % n for yi in y) in img:
                cnt += 1
        out[d] = cnt // len(img)
    return out


def assert_matches_enumeration(F):
    D, a, b = differential_matrix(F)
    res = cohomology(F)
    n = F.modulus
    if n ** a <= 5000 and n ** b <= 5000:
        assert brute_factor_counts(res.H0, n) == enum_counts_h0(D, a, b, n)
        assert brute_factor_counts(res.H1, n) == enum_counts_h1(D, a, b, n)
    return res


def assert_smith_form(M):
    r, c = len(M), len(M[0])
    diag, U, V = ref.smith_normal_form(M)
    assert smith_normal_form(M) == diag
    # U M V equals the diagonal
    UM = [[sum(U[i][k] * M[k][j] for k in range(r)) for j in range(c)]
          for i in range(r)]
    UMV = [[sum(UM[i][k] * V[k][j] for k in range(c)) for j in range(c)]
           for i in range(r)]
    for i in range(r):
        for j in range(c):
            want = diag[i] if i == j and i < len(diag) else 0
            assert UMV[i][j] == want
    # divisibility chain
    for d1, d2 in zip(diag, diag[1:]):
        if d1:
            assert d2 % d1 == 0
        else:
            assert d2 == 0


class TestSmithNormalForm:
    @pytest.mark.parametrize("seed", range(10))
    def test_unimodular_transforms(self, seed):
        rng = random.Random(seed)
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        assert_smith_form(M)
        # zero rows and columns leave a zero trailing block partway
        for i in rng.sample(range(r), rng.randint(1, r)):
            M[i] = [0] * c
        for j in rng.sample(range(c), rng.randint(1, c)):
            for row in M:
                row[j] = 0
        assert_smith_form(M)

    @pytest.mark.parametrize("seed", range(8))
    def test_diagonal_matches_reference(self, seed):
        # 400 matrices per seed, 0-8 rows and columns, taking turns: entries
        # in [-20, 20] with ~40% zeros; rich in +-1 entries; the first kind
        # with zero rows and columns; the first kind scaled to near 10**12
        rng = random.Random(1000 + seed)
        for trial in range(400):
            r, c = rng.randint(0, 8), rng.randint(0, 8)
            kind = trial % 4
            if kind == 1:
                pool = (-1, 1, -1, 1, 0, 0, 2, -3, 5)
                M = [[rng.choice(pool) for _ in range(c)] for _ in range(r)]
            else:
                M = [[0 if rng.random() < 0.4 else rng.randint(-20, 20)
                      for _ in range(c)] for _ in range(r)]
            if kind == 2 and r and c:
                for i in rng.sample(range(r), rng.randint(1, r)):
                    M[i] = [0] * c
                for j in rng.sample(range(c), rng.randint(0, c)):
                    for row in M:
                        row[j] = 0
            if kind == 3:
                M = [[x * 10 ** 12 + rng.randint(-3, 3) if x else 0
                      for x in row] for row in M]
            diag = smith_normal_form(M)
            assert diag == ref.smith_normal_form(M)[0]
            assert len(diag) == min(r, c) and all(d >= 0 for d in diag)


class TestConstantSheaf:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_tree_is_contractible(self, n):
        FQ = PuiseuxField(0)
        t = FQ.t()
        sk = build_skeleton([FQ.zero(), t, t * t, FQ.one()])
        F = constant_sheaf(HostTree.from_skeleton(sk), n)
        res = assert_matches_enumeration(F)
        assert res.H0 == (n,)
        assert res.H1 == ()

    def test_zero_sheaf(self):
        F = zero_sheaf(interval(3), 4)
        res = cohomology(F)
        assert res.H0 == () and res.H1 == ()

    def test_large_zero_differential(self):
        # both ends open: D is a zero 300 x 600 matrix
        n, r = 5, 300
        F = make_cellular_sheaf(interval(2), n, {0: r, 1: r}, {0: r}, {},
                                open_ends={(0, 0), (1, 0)})
        start = time.perf_counter()
        res = cohomology(F)
        assert time.perf_counter() - start < 2
        assert res.H0 == (n,) * 600 and res.H1 == (n,) * 300

    def test_large_one_edge_constant_sheaf(self):
        # D = [I | -I], 300 x 600: every pivot is a unit
        n, r = 7, 300
        F = constant_sheaf(interval(2), n, rank=r)
        start = time.perf_counter()
        res = cohomology(F)
        assert time.perf_counter() - start < 1
        assert res.H0 == (n,) * r and res.H1 == ()


class TestShriek:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_half_open_interval_vanishes(self, n):
        # extension by zero from [0,1): no sections, no H1
        F = shriek_extend(constant_sheaf(interval(2), n), removed={0})
        res = assert_matches_enumeration(F)
        assert res.H0 == () and res.H1 == ()

    def test_whole_tree_identity(self):
        F = constant_sheaf(interval(3), 6)
        G = shriek_extend(F, removed=set())
        assert cohomology(F) == cohomology(G)

    def test_open_interior_interval_obstruction(self):
        # both endpoint stalks removed: H1 = Z/n is the gluing obstruction
        n = 4
        F = shriek_extend(constant_sheaf(interval(2), n), removed={0, 1})
        res = assert_matches_enumeration(F)
        assert res.H0 == () and res.H1 == (n,)

    def test_two_edge_path_middle_removed(self):
        n = 3
        F = shriek_extend(constant_sheaf(interval(3), n), removed={1})
        res = assert_matches_enumeration(F)
        assert res.H0 == () and res.H1 == ()

    def test_unknown_vertex(self):
        F = constant_sheaf(interval(2), 2)
        with pytest.raises(NotOpenSubtree):
            shriek_extend(F, removed={"nope"})
        with pytest.raises(NotOpenSubtree, match="edge index out of range"):
            shriek_extend(F, removed=(), removed_edges={1})


def kummer_by_parent_scan(tree, n):
    """``kummer_sheaf`` with each vertex's parent edge found by a scan of
    all the edges (``HostTree.parent_edge_index``), the first match winning."""
    child_edges = {v: [i for i, (c, p) in enumerate(tree.edges) if p == v]
                   for v in tree.vertices}
    vranks, cosp, open_ends = {}, {}, set()
    for v in tree.vertices:
        ch = child_edges[v]
        k = vranks[v] = len(ch)
        pe = tree.parent_edge_index(v)
        if k == 0:
            if pe is not None:
                open_ends.add((v, pe))
            continue
        for pos, i in enumerate(ch):
            cosp[(v, i)] = (tuple(1 if j == pos else 0 for j in range(k)),)
        if pe is not None:
            cosp[(v, pe)] = ((1,) * k,)
    return make_cellular_sheaf(tree, n, vranks,
                               {i: 1 for i in range(len(tree.edges))},
                               cosp, open_ends)


def star(k):
    """k leaf edges hanging from a root."""
    verts = tuple(range(k + 1))
    edges = tuple((i, k) for i in range(k))
    return HostTree(verts, edges, root=k)


class TestKummer:
    def test_single_ray(self):
        F = kummer_sheaf(interval(2), 5)
        res = assert_matches_enumeration(F)
        assert res.H0 == () and res.H1 == ()

    def test_three_leaf_star_n4(self):
        F = kummer_sheaf(star(3), 4)
        res = assert_matches_enumeration(F)
        assert res.H0 == () and res.H1 == ()

    def test_branch_vertex_sums(self):
        # the cospecialization to the parent edge is the sum of child values
        FQ = PuiseuxField(0)
        t = FQ.t()
        sk = build_skeleton([FQ.zero(), t, FQ.one()])
        tree = HostTree.from_skeleton(sk)
        F = kummer_sheaf(tree, 6)
        for v in tree.vertices:
            ch = [i for i, (c, p) in enumerate(tree.edges) if p == v]
            pe = tree.parent_edge_index(v)
            if ch and pe is not None:
                assert F.cosp[(v, pe)] == (tuple(1 for _ in ch),)

    def test_rootless(self):
        tree = HostTree((0, 1), ((0, 1),), root=None)
        with pytest.raises(RootlessSkeleton):
            kummer_sheaf(tree, 3)

    def test_matches_a_parent_edge_scan(self):
        # the seeded skeletons of this module's random tests, and the trees
        # built by hand above
        FQ = PuiseuxField(0)
        t = FQ.t()
        trees = [interval(2), interval(4), star(3),
                 HostTree.from_skeleton(build_skeleton([FQ.zero(), t, FQ.one()])),
                 HostTree.from_skeleton(
                     build_skeleton([FQ.zero(), t, t * t, FQ.one()]))]
        for n, seed in product([2, 3, 4, 6], range(4)):
            rng = random.Random(1000 * n + seed)
            centers = []
            for _ in range(rng.randint(1, 6)):
                a = rand_puiseux(rng, FQ)
                if not any((a - b).is_zero() for b in centers):
                    centers.append(a)
            trees.append(HostTree.from_skeleton(build_skeleton(centers)))
        for tree, n in product(trees, [2, 4, 6]):
            assert kummer_sheaf(tree, n) == kummer_by_parent_scan(tree, n)

    def test_a_vertex_child_of_two_edges(self):
        # HostTree accepts "a" as the child of both edges, since constant and
        # explicit sheaves do not depend on how an edge is oriented; the
        # Kummer sheaf reads each vertex's one parent edge, so it rejects the
        # tree at the second, naming the vertex rather than a sheaf matrix
        tree = HostTree(("a", "b", "c"), (("a", "b"), ("a", "c")), "b")
        with pytest.raises(ShapeMismatch,
                           match=re.escape("vertex 'a' is the child of two edges")):
            kummer_sheaf(tree, 2)
        res = cohomology(constant_sheaf(tree, 2))
        assert (res.H0, res.H1) == ((2,), ())

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_vanishing_on_random_skeletons(self, n, seed):
        FQ = PuiseuxField(0)
        rng = random.Random(1000 * n + seed)
        centers = []
        for _ in range(rng.randint(1, 6)):
            a = rand_puiseux(rng, FQ)
            if not any((a - b).is_zero() for b in centers):
                centers.append(a)
        sk = build_skeleton(centers)
        F = kummer_sheaf(HostTree.from_skeleton(sk), n)
        res = assert_matches_enumeration(F)
        assert res.H0 == () and res.H1 == ()

    def test_inductive_projection_pieces(self):
        # cut below an interior vertex; both extension-by-zero pieces of the
        # branch sheaf stay acyclic, mirroring the projection induction
        FQ = PuiseuxField(0)
        t = FQ.t()
        sk = build_skeleton([FQ.zero(), t, t * t, FQ.one()])
        tree = HostTree.from_skeleton(sk)
        F = kummer_sheaf(tree, 4)
        interior = [v for v in tree.vertices
                    if tree.children(v) and tree.parent_edge_index(v) is not None]
        assert interior
        for v in interior:
            closed = {v}
            stack = [c for c, p in tree.edges if p == v]
            while stack:
                w = stack.pop()
                closed.add(w)
                stack.extend(c for c, p in tree.edges if p == w)
            inner_edges = {i for i, (c, p) in enumerate(tree.edges)
                           if c in closed and p in closed}
            connecting = tree.parent_edge_index(v)
            outside_verts = set(tree.vertices) - closed
            outside_edges = ({i for i in range(len(tree.edges))}
                             - inner_edges - {connecting})
            # j_! of the restriction to the open complement of the closed
            # lower subtree, and the closed restriction to that subtree
            piece1 = shriek_extend(F, removed=closed,
                                   removed_edges=inner_edges)
            piece2 = shriek_extend(F, removed=outside_verts,
                                   removed_edges=outside_edges | {connecting})
            for piece in (piece1, piece2):
                res = assert_matches_enumeration(piece)
                assert res.H0 == () and res.H1 == ()


class TestEuler:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_euler_characteristic(self, n):
        # rank-sum alternation equals H0 length minus H1 length for prime n
        rng = random.Random(n)
        FQ = PuiseuxField(0)
        for _ in range(10):
            centers = []
            for _ in range(rng.randint(1, 5)):
                a = rand_puiseux(rng, FQ)
                if not any((a - b).is_zero() for b in centers):
                    centers.append(a)
            tree = HostTree.from_skeleton(build_skeleton(centers))
            F = rng.choice([
                constant_sheaf(tree, n),
                kummer_sheaf(tree, n),
            ])
            res = cohomology(F)
            chi = sum(F.vertex_ranks.values()) - sum(F.edge_ranks.values())
            assert chi == len(res.H0) - len(res.H1)


class TestValidation:
    def test_shape_mismatch(self):
        tree = interval(2)
        with pytest.raises(ShapeMismatch):
            make_cellular_sheaf(tree, 4, {0: 1, 1: 1}, {0: 1},
                                {(0, 0): ((1, 1),), (1, 0): ((1,),)})

    def test_missing_matrix(self):
        tree = interval(2)
        with pytest.raises(ShapeMismatch):
            make_cellular_sheaf(tree, 4, {0: 1, 1: 1}, {0: 1},
                                {(0, 0): ((1,),)})

    @pytest.mark.parametrize("modulus,vranks,open_ends,message", [
        (1, {0: 1, 1: 1}, (), "modulus must be >= 2"),
        (4, {0: -1, 1: 1}, (), "ranks must be nonnegative"),
        (4, {0: 1, 1: 1}, {(0, 0)}, "open end (0, 0) carries a matrix"),
    ], ids=["modulus-1", "negative-rank", "open-end-matrix"])
    def test_rejected_shapes(self, modulus, vranks, open_ends, message):
        with pytest.raises(ShapeMismatch, match=re.escape(message)):
            make_cellular_sheaf(interval(2), modulus, vranks, {0: 1},
                                {(0, 0): ((1,),), (1, 0): ((1,),)}, open_ends)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_constant_sheaf_on_random_skeletons(n):
    FQ = PuiseuxField(0)
    rng = random.Random(31 * n)
    for size in range(1, 9):
        centers = []
        while len(centers) < size:
            a = rand_puiseux(rng, FQ, max_terms=2)
            if not any((a - b).is_zero() for b in centers):
                centers.append(a)
        tree = HostTree.from_skeleton(build_skeleton(centers))
        res = cohomology(constant_sheaf(tree, n))
        assert res.H0 == (n,) and res.H1 == ()
