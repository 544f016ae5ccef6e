"""Sheaf cohomology as ``berkline.sheaf`` computed it before H0 and H1 were
read off one Smith normal form of the differential: the test oracle.

``_h0`` lifts the kernel of D mod n to the lattice {x : Dx in nZ^b} through
``kernel_basis`` of the augmented matrix [D | nI] and reads its invariant
factors from a second Smith normal form; ``_h1`` reads the cokernel from a
third, of [D | nI].  All four functions are kept verbatim;
``tests/test_sheaf_reference.py`` checks the library against them.
"""

from __future__ import annotations

from berkline.sheaf import CohomologyResult, TreeSheaf, differential_matrix
from berkline.snf import smith_normal_form


def cohomology(F: TreeSheaf) -> CohomologyResult:
    D, a, b = differential_matrix(F)
    n = F.modulus
    return CohomologyResult(_h0(D, a, b, n), _h1(D, a, b, n))


def _h0(D, a, b, n):
    # kernel of (Z/n)^a -> (Z/n)^b: lift to L = {x : Dx in nZ^b}, then read
    # the invariant factors of L inside Z^a
    if a == 0:
        return ()
    if b == 0:
        return tuple(sorted([n] * a))
    M = [row[:] + [n if j == i else 0 for j in range(b)]
         for i, row in enumerate(D)]
    basis = kernel_basis(M)
    gens = [[vec[i] for vec in basis] for i in range(a)]  # a x k
    diag, _, _ = smith_normal_form(gens)
    factors = []
    for d in diag:
        # the lifted kernel lattice contains nZ^a, so d divides n
        assert d and n % d == 0
        f = n // d
        if f > 1:
            factors.append(f)
    return tuple(sorted(factors))


def _h1(D, a, b, n):
    if b == 0:
        return ()
    M = [row[:] + [n if j == i else 0 for j in range(b)]
         for i, row in enumerate(D)]
    diag, _, _ = smith_normal_form(M)
    assert all(d and n % d == 0 for d in diag)  # cokernel is killed by n
    return tuple(sorted(d for d in diag if d > 1))


def kernel_basis(mat):
    """Integer basis (list of column vectors) of the kernel of ``mat``."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    diag, _, V = smith_normal_form(mat)
    rank = sum(1 for d in diag if d)
    return [[V[i][j] for i in range(cols)] for j in range(rank, cols)]
