"""The convolution kernel of exact polynomial products, in pure Python.

Inputs are polynomials whose coefficients are sparse series on a common
integer exponent lattice with int coefficients, encoded as flat arrays.
``counts[i]`` is the number of terms of the i-th polynomial coefficient;
``exps``/``cofs`` concatenate the terms in order, exponents strictly
increasing within each coefficient.  With a prime ``p`` the coefficients are
residues and every term is reduced mod p (F_p((t))); with ``p == 0`` the
convolution runs over Z (numerators over a common denominator, for Q((t))
and Q_p).  Output coefficients come back in the same encoding, zero terms
dropped.
"""


def _split(counts, exps, cofs):
    """The flat encoding as one list of (exponent, coefficient) per
    polynomial coefficient."""
    out = []
    pos = 0
    for c in counts:
        end = pos + c
        out.append(list(zip(exps[pos:end], cofs[pos:end])))
        pos = end
    return out


def poly_mul_modp(counts_f, exps_f, cofs_f, counts_g, exps_g, cofs_g, p):
    fs = _split(counts_f, exps_f, cofs_f)
    gs = _split(counts_g, exps_g, cofs_g)
    nf, ng = len(fs), len(gs)
    counts_out = []
    exps_out = []
    cofs_out = []
    for k in range(nf + ng - 1):
        bucket = {}
        for j in range(max(0, k - nf + 1), min(k, ng - 1) + 1):
            gj = gs[j]
            for ea, ca in fs[k - j]:
                if p:
                    for eb, cb in gj:
                        e = ea + eb
                        bucket[e] = (bucket.get(e, 0) + ca * cb) % p
                else:
                    for eb, cb in gj:
                        e = ea + eb
                        bucket[e] = bucket.get(e, 0) + ca * cb
        n = 0
        for e, c in sorted(bucket.items()):
            if c:
                exps_out.append(e)
                cofs_out.append(c)
                n += 1
        counts_out.append(n)
    return counts_out, exps_out, cofs_out
