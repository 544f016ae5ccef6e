"""The convolution kernel of exact F_p polynomial products, in pure Python.

Inputs are polynomials whose coefficients are sparse series on a common
integer exponent lattice, coefficients reduced mod p, encoded as flat
arrays.  ``counts[i]`` is the number of terms of the i-th polynomial
coefficient; ``exps``/``cofs`` concatenate the terms in order, exponents
strictly increasing within each coefficient.
"""


def poly_mul_modp(counts_f, exps_f, cofs_f, counts_g, exps_g, cofs_g, p):
    nf, ng = len(counts_f), len(counts_g)
    off_f = [0] * nf
    acc = 0
    for i, c in enumerate(counts_f):
        off_f[i] = acc
        acc += c
    off_g = [0] * ng
    acc = 0
    for j, c in enumerate(counts_g):
        off_g[j] = acc
        acc += c

    counts_out = []
    exps_out = []
    cofs_out = []
    for k in range(nf + ng - 1):
        bucket = {}
        j_lo = max(0, k - nf + 1)
        j_hi = min(k, ng - 1)
        for j in range(j_lo, j_hi + 1):
            i = k - j
            ci = counts_f[i]
            cj = counts_g[j]
            if not ci or not cj:
                continue
            oi, oj = off_f[i], off_g[j]
            for a in range(oi, oi + ci):
                ea, ca = exps_f[a], cofs_f[a]
                for b in range(oj, oj + cj):
                    e = ea + exps_g[b]
                    bucket[e] = (bucket.get(e, 0) + ca * cofs_g[b]) % p
        items = sorted((e, c) for e, c in bucket.items() if c)
        counts_out.append(len(items))
        for e, c in items:
            exps_out.append(e)
            cofs_out.append(c)
    return counts_out, exps_out, cofs_out
