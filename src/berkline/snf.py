"""The Smith normal form diagonal of an integer matrix.

Plain-int implementation; matrix sizes in this library are tiny (cell counts
of finite trees), so clarity beats asymptotics.  Only the diagonal is
computed: cohomology reads nothing else, so no transform matrices are kept.

Each step pivots on the first entry, in row-major order, of smallest nonzero
absolute value in the trailing block, which keeps intermediate growth tame.
An entry of absolute value 1 is taken as soon as the scan meets it: nothing
is smaller, so it is the entry the full scan would pick, and every integer is
divisible by it, so the divisibility check of the trailing block is skipped
too.  The diagonal is therefore the same as with the full scans.
"""

from __future__ import annotations


def _pivot(A, k):
    """(i, j) of the first smallest nonzero |A[i][j]| with i, j >= k, or None."""
    best, at = 0, None
    for i in range(k, len(A)):
        row = A[i]
        for j in range(k, len(row)):
            x = abs(row[j])
            if x and (at is None or x < best):
                best, at = x, (i, j)
                if x == 1:
                    return at
    return at


def smith_normal_form(mat):
    """Return the Smith diagonal of ``mat``: d_i >= 0 and d_i | d_{i+1}.

    The diagonal has length min(rows, cols).
    """
    A = [list(row) for row in mat]
    r = len(A)
    c = len(A[0]) if r else 0
    n = min(r, c)
    diag = []
    for k in range(n):
        while True:
            at = _pivot(A, k)
            if at is None:
                # the trailing block is zero: so are the remaining d_i
                return diag + [0] * (n - k)
            i, j = at
            A[k], A[i] = A[i], A[k]
            if j != k:
                for row in A[k:]:
                    row[k], row[j] = row[j], row[k]
            Ak = A[k]
            p = Ak[k]
            dirty = False
            for row in A[k + 1:]:
                if row[k]:
                    q = row[k] // p
                    for m in range(k, c):
                        row[m] -= q * Ak[m]
                    dirty = dirty or row[k] != 0
            for m in range(k + 1, c):
                if Ak[m]:
                    q = Ak[m] // p
                    for row in A[k:]:
                        row[m] -= q * row[k]
                    dirty = dirty or Ak[m] != 0
            if dirty:
                continue
            if abs(p) == 1:
                break
            # enforce divisibility of the trailing block by the pivot
            offender = next((row for row in A[k + 1:]
                             if any(x % p for x in row[k + 1:])), None)
            if offender is None:
                break
            for m in range(k + 1, c):
                Ak[m] += offender[m]
        diag.append(abs(A[k][k]))
    return diag
