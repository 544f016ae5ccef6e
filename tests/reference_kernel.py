"""The convolution kernel before the keyed pass: the test oracle.

Kept verbatim from ``berkline._purekernel``: it splits both operands into
(exponent, coefficient) pair lists and fills one dict, sorted on its own,
per output coefficient, reducing mod p after every partial product.  Same
flat encoding and outputs as ``berkline.kernel.poly_mul_modp``.
"""


def _split(counts, exps, cofs):
    """The flat encoding as one list of (exponent, coefficient) per
    polynomial coefficient."""
    pairs = list(zip(exps, cofs))
    out = []
    pos = 0
    for c in counts:
        end = pos + c
        out.append(pairs[pos:end])
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
