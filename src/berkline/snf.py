"""Smith normal form over the integers, with transform matrices.

Plain-int implementation; matrix sizes in this library are tiny (cell counts
of finite trees), so clarity beats asymptotics.  Pivoting on the smallest
nonzero entry keeps intermediate growth tame.
"""

from __future__ import annotations


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
