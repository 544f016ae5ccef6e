"""The convolution kernel of polynomial products, in pure Python.

Inputs are polynomials whose coefficients are sparse series on a common
integer exponent lattice with int coefficients, encoded as flat arrays.
``counts[i]`` is the number of terms of the i-th polynomial coefficient;
``exps``/``cofs`` concatenate the terms in order, exponents strictly
increasing within each coefficient.  With a prime ``p`` the coefficients are
residues and every output term is reduced mod p (F_p((t))); with ``p == 0``
the convolution runs over Z (numerators over a common denominator, for
Q((t)) and Q_p).  Output coefficients come back in the same encoding, zero
terms dropped.

A product is one keyed pass, with the packed exponent vectors of Monagan and
Pearce ("Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  With lo the least and W the span of the
possible exponent sums, the term with exponent e of coefficient i gets the
int key W*i + e, lo subtracted once on the left operand's side, so that the
sum of two keys is W*(i + j) + (e_a + e_b - lo), the key of their product
term.  All term pairs add into one dict, its keys are sorted once, each
output term is reduced mod p once and dropped when zero, and the output
coefficients are cut at multiples of W.
"""

from operator import add

# min and max of an operand without terms; it adds no pair
_NO_TERMS = (0,)


def _keys(counts, exps, w, shift):
    """Each term's key W*i + e + shift, for i its coefficient's index."""
    keys = []
    for c in counts:
        keys += [shift] * c
        shift += w
    return list(map(add, keys, exps))


def poly_mul_modp(counts_f, exps_f, cofs_f, counts_g, exps_g, cofs_g, p):
    lo = min(exps_f or _NO_TERMS) + min(exps_g or _NO_TERMS)
    w = max(exps_f or _NO_TERMS) + max(exps_g or _NO_TERMS) - lo + 1
    g = list(zip(_keys(counts_g, exps_g, w, 0), cofs_g))
    acc = {}
    get = acc.get
    for ka, ca in zip(_keys(counts_f, exps_f, w, -lo), cofs_f):
        for kb, cb in g:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    counts_out = [0] * (len(counts_f) + len(counts_g) - 1)
    exps_out = []
    cofs_out = []
    for k in sorted(acc):
        c = acc[k] % p if p else acc[k]
        if c:
            counts_out[k // w] += 1
            exps_out.append(k % w + lo)
            cofs_out.append(c)
    return counts_out, exps_out, cofs_out
