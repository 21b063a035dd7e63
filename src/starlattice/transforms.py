"""Falling-factorial basis change between lattice samples and coefficients.

With p_l(n) = n!/(n-l)! (zero for n < l), the pair

    z_n = sum_{l=0}^{n} zeta_l * p_l(n)                    (forward)
    zeta_n = sum_{l=0}^{n} (-1)^(n-l) * z_l / (l!(n-l)!)   (inverse)

is triangular and mutually inverse at every length. A power-series prefix
b_0..b_L maps to the lattice through the same forward rule with zeta = b.

The inverse goes through the Newton coefficients w_l = l! * zeta_l, which
are the leading entries (Delta^l z)_0 of the forward-difference table, so
z_n = sum_l C(n,l) w_l. The table and its inverse, the Pascal rule of
`newton_to_lattice`, only add and subtract (and scale by an integer E), so
each is written once for every scalar: integers, Fraction, quadratic surds,
complex and float. The exact paths and the float route share them.

The exact maps run on integers: the falling-factorial basis is of binomial
type, so (n)_k is an integer and a rational sequence needs one common
denominator D. `taylor_to_lattice` runs the nested product on the integers
D b_k, `inverse_transform` the difference table on D z_n, and each divides
once per entry. `newton_to_lattice` is also the forward map's test oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import factorial, perm
from operator import add, sub

from .rational import over_common_denominator
from .sequences import FourierSeq, LatticeSeq, TaylorCoeffs


def falling_factorial(n: int, k: int) -> Fraction:
    """(n)_k = n(n-1)...(n-k+1); equals 0 for k > n and 1 for k = 0."""
    if n < 0 or k < 0:
        raise ValueError("falling_factorial needs nonnegative arguments")
    return Fraction(perm(n, k))


def recip_factorial(k: int) -> Fraction:
    """1/k! for k >= 0 and 0 for k < 0.

    The negative branch encodes the empty-sum convention: kernel sums may
    run over a full index box and out-of-range terms vanish by themselves.
    """
    if k < 0:
        return Fraction(0)
    return Fraction(1, factorial(k))


def difference_rows(values):
    """Rows Delta^0 z, Delta^1 z, ... of the forward-difference table.

    Row l has len(values) - l entries; only the current row is held, so
    reading the leading entries costs O(len) memory, not the whole table.
    """
    row = list(values)
    while row:
        yield row
        row = list(map(sub, islice(row, 1, None), row))


def lattice_to_newton(z) -> list:
    """Newton coefficients w_l = (Delta^l z)_0 for l = 0..len(z)-1."""
    return [row[0] for row in difference_rows(z)]


def newton_to_lattice(w, E: int = 1) -> list:
    """z_n = sum_l C(n,l) E^(n-l) w_l for n < len(w), by the Pascal rule.

    z_n is entry 0 of row n of the table T_0 = w, T_{n+1}[l] = E T_n[l] + T_n[l+1].
    No binomial or factorial is formed, so float input stays inside the
    double range wherever its sums do, and integer input stays integer.
    """
    row, out = list(w), []
    while row:
        out.append(row[0])
        if E == 1:
            row = list(map(add, row, islice(row, 1, None)))
        else:
            row = [E * a + b for a, b in zip(row, row[1:])]
    return out


def forward_transform(zeta: FourierSeq) -> LatticeSeq:
    """z_n = sum_{l<=n} zeta_l (n)_l; entry n depends on zeta_0..zeta_n only."""
    return taylor_to_lattice(zeta.coeffs, zeta.last_index)


def inverse_transform(z: LatticeSeq) -> FourierSeq:
    """zeta_l = (Delta^l z)_0 / l!, the exact inverse of the forward map, run on the integers D z."""
    denominator, Z = over_common_denominator(z.values)
    out = []
    for l, w_l in enumerate(lattice_to_newton(Z)):
        out.append(Fraction(w_l, denominator))
        denominator *= l + 1
    return FourierSeq(tuple(out))


def taylor_to_lattice(b: TaylorCoeffs, L: int) -> LatticeSeq:
    """Lattice image z_n = sum_{k<=n} b_k (n)_k of a series prefix, n = 0..L.

    Coefficients beyond the stored prefix are taken as exact zeros, so a
    polynomial may be passed as its finite coefficient list. For a
    transcendental series supply at least L+1 coefficients.

    With D the common denominator of b_0..b_K (K = min(L, len-1)) and
    B_k = b_k * D, the sum is the integer nested product
    (...(B_K (n-K+1) + B_{K-1}) (n-K+2) ...) n + B_0 over D.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    D, B = over_common_denominator(list(islice(b, L + 1)))
    K = len(B) - 1
    out = []
    for n in range(L + 1):
        acc = 0
        for k in range(min(n, K), 0, -1):
            acc = (acc + B[k]) * (n - k + 1)
        out.append(Fraction(acc + B[0], D))
    return LatticeSeq(tuple(out))
