"""Sheaf cohomology from one Smith normal form against the reference.

``reference_sheaf`` keeps the previous computation, three Smith normal forms
over the augmented matrix [D | nI].  The library reads H0 and H1 off one
Smith normal form of D.  Seeded random sheaves on trees of up to 7 vertices:
Kummer sheaves, constant sheaves of rank 1-3 and explicit sheaves with
entries in [-20, 20] and about a fifth of their ends open, a third of them
extended by zero, for moduli with one, two and three prime factors.  Both
must give the same invariant factors, each > 1, dividing n and dividing the
next.
"""

import random

import pytest

import reference_sheaf as ref
from berkline import (HostTree, cohomology, constant_sheaf, kummer_sheaf,
                      make_cellular_sheaf, shriek_extend, zero_sheaf)

MODULI = (2, 3, 4, 6, 8, 9, 12, 30)


def assert_same_as_reference(F):
    res = cohomology(F)
    assert res == ref.cohomology(F)
    n = F.modulus
    for factors in (res.H0, res.H1):
        assert all(f > 1 and n % f == 0 for f in factors)
        assert all(f2 % f1 == 0 for f1, f2 in zip(factors, factors[1:]))
    return res


def random_tree(rng):
    k = rng.randint(1, 7)
    edges = tuple((i, rng.randrange(i)) for i in range(1, k))
    return HostTree(tuple(range(k)), edges, root=0)


def explicit_sheaf(rng, tree, n):
    vranks = {v: rng.randint(0, 3) for v in tree.vertices}
    eranks = {i: rng.randint(0, 3) for i in range(len(tree.edges))}
    cosp, open_ends = {}, set()
    for i, ends in enumerate(tree.edges):
        for v in ends:
            if rng.random() < 0.2:
                open_ends.add((v, i))
            else:
                cosp[(v, i)] = [[rng.randint(-20, 20) for _ in range(vranks[v])]
                                for _ in range(eranks[i])]
    return make_cellular_sheaf(tree, n, vranks, eranks, cosp, open_ends)


def random_sheaf(rng, n):
    tree = random_tree(rng)
    kind = rng.choice(("kummer", "constant", "explicit"))
    if kind == "kummer":
        F = kummer_sheaf(tree, n)
    elif kind == "constant":
        F = constant_sheaf(tree, n, rng.randint(1, 3))
    else:
        F = explicit_sheaf(rng, tree, n)
    if rng.random() < 0.3:
        removed = {v for v in tree.vertices if rng.random() < 0.3}
        removed_edges = {i for i in range(len(tree.edges)) if rng.random() < 0.3}
        F = shriek_extend(F, removed, removed_edges)
    return F


@pytest.mark.parametrize("n", MODULI)
def test_random_sheaves(n):
    rng = random.Random(7919 * n)
    for _ in range(400):
        assert_same_as_reference(random_sheaf(rng, n))


@pytest.mark.parametrize("n", MODULI)
def test_edge_cases(n):
    path = HostTree((0, 1, 2), ((0, 1), (1, 2)), root=2)
    # a == 0: every vertex stalk removed, each edge is a free H1 summand
    res = assert_same_as_reference(
        shriek_extend(constant_sheaf(path, n, 2), removed={0, 1, 2}))
    assert res.H0 == () and res.H1 == (n,) * 4
    # b == 0: a single vertex, and a path whose edge stalks vanish
    point = HostTree((0,), (), root=0)
    res = assert_same_as_reference(constant_sheaf(point, n, 2))
    assert res.H0 == (n, n) and res.H1 == ()
    res = assert_same_as_reference(make_cellular_sheaf(
        path, n, {0: 1, 1: 2, 2: 0}, {}, {k: () for k in
                                          ((0, 0), (1, 0), (1, 1), (2, 1))}))
    assert res.H0 == (n,) * 3 and res.H1 == ()
    res = assert_same_as_reference(zero_sheaf(path, n))
    assert res.H0 == () and res.H1 == ()
    res = assert_same_as_reference(constant_sheaf(path, n, 3))
    assert res.H0 == (n,) * 3 and res.H1 == ()
