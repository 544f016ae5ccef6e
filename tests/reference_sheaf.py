"""Sheaf cohomology as ``berkline.sheaf`` computed it before H0 and H1 were
read off one Smith normal form of the differential: the test oracle.

``_h0`` lifts the kernel of D mod n to the lattice {x : Dx in nZ^b} through
``kernel_basis`` of the augmented matrix [D | nI] and reads its invariant
factors from a second Smith normal form; ``_h1`` reads the cokernel from a
third, of [D | nI].  All four functions are kept verbatim;
``tests/test_sheaf_reference.py`` checks the library against them.

``smith_normal_form`` and ``identity`` are the library's Smith normal form
from before it dropped its transform matrices, also kept verbatim: they
return (diag, U, V) with U @ mat @ V diagonal, so ``kernel_basis`` reads V
from here and ``tests/test_sheaf.py`` checks the library's diagonal against
this one.
"""

from __future__ import annotations

from berkline.sheaf import CohomologyResult, TreeSheaf, differential_matrix


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


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Return (diag, U, V) with U @ mat @ V diagonal, d_i | d_{i+1}, d_i >= 0.

    ``diag`` has length min(rows, cols); U and V are unimodular.
    """
    A = [list(row) for row in mat]
    r = len(A)
    c = len(A[0]) if r else 0
    U = identity(r)
    V = identity(c)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        # row_dst += q * row_src
        Ad, As = A[dst], A[src]
        for k in range(c):
            Ad[k] += q * As[k]
        Ud, Us = U[dst], U[src]
        for k in range(r):
            Ud[k] += q * Us[k]

    def addmul_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def neg_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    n = min(r, c)
    for k in range(n):
        while True:
            # locate the smallest nonzero entry of the trailing block
            pivot = None
            for i in range(k, r):
                for j in range(k, c):
                    if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                # the trailing block is zero: so are the remaining d_i
                return [A[i][i] for i in range(n)], U, V
            if pivot != (k, k):
                if pivot[0] != k:
                    swap_rows(k, pivot[0])
                if pivot[1] != k:
                    swap_cols(k, pivot[1])
            p = A[k][k]
            dirty = False
            for i in range(k + 1, r):
                if A[i][k]:
                    q = A[i][k] // p
                    addmul_row(i, k, -q)
                    if A[i][k]:
                        dirty = True
            for j in range(k + 1, c):
                if A[k][j]:
                    q = A[k][j] // p
                    addmul_col(j, k, -q)
                    if A[k][j]:
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing block by the pivot
            offender = None
            for i in range(k + 1, r):
                for j in range(k + 1, c):
                    if A[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(k, offender, 1)
        if k < r and k < c and A[k][k] < 0:
            neg_row(k)
    return [A[i][i] for i in range(n)], U, V
