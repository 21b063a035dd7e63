"""Falling-factorial basis change between lattice samples and coefficients.

With p_l(n) = n!/(n-l)! (zero for n < l), the pair

    z_n = sum_{l=0}^{n} zeta_l * p_l(n)                    (forward)
    zeta_n = sum_{l=0}^{n} (-1)^(n-l) * z_l / (l!(n-l)!)   (inverse)

is triangular and mutually inverse at every length. A power-series prefix
b_0..b_L maps to the lattice through the same forward rule with zeta = b.

Both directions go through the Newton coefficients w_l = l! * zeta_l, which
are the leading entries (Delta^l z)_0 of the forward-difference table, so
z_n = sum_l C(n,l) w_l. The table and its inverse, the Pascal rule of
`newton_to_lattice`, only add and subtract, so each is written once for
every scalar: integers, Fraction, quadratic surds, complex and float. The
exact paths and the float route share them. Both run as prefix sums, one
C-level `itertools.accumulate` per line of the table and no Python call
per entry: `lattice_to_newton` walks the difference table by
anti-diagonals, which are running sums once diagonal n carries the sign
(-1)^n, and `newton_to_lattice` builds the Pascal table column by column,
each column the running sum of the one above. Each entry is the single
addition or subtraction of the row-by-row table, up to an exact negation,
so exact results are unchanged and float ones keep their bits, except the
sign of an exactly cancelled zero in the difference table.

The exact maps run on integers: the falling-factorial basis is of binomial
type, so a rational sequence needs one common denominator, and
`ScaledNewton` holds the integers W_k = k! c E^k zeta_k together with the
readouts that divide once per entry, each quotient a `reduced_fraction`:
one gcd per nonzero entry and none for a zero one. Its lattice readout
cuts the zero tail of W, scales W_k by E^(K-1-k), K one past the last
nonzero W_k, runs the one Pascal rule on those integers and divides every
sum by c E^(K-1). `taylor_to_lattice` builds W_k = k! D b_k and reads it
out as lattice values. The residual tables of a Taylor solution
(`odes.taylor_residuals`) need no W: they evaluate the continuous residual
on D b_k, with no factorial, and only a nonzero one is scaled by k! into
Newton coefficients and read out here; that of a series solution is zero.
`inverse_transform` takes W from the difference table of D z_n. The star
powers, both Taylor solvers, the residual defects, the `corpus` series and
the Jacobi shifted form read their integers out through the same class.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from math import factorial, perm
from operator import mul

from .rational import coprime_fraction, over_common_denominator, reduced_fraction
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
    return coprime_fraction(1, factorial(k))


def lattice_to_newton(z) -> list:
    """Newton coefficients w_l = (Delta^l z)_0 for l = 0..len(z)-1, by anti-diagonals of the difference table.

    Anti-diagonal n holds A_n[l] = (Delta^l z)_{n-l}, l = 0..n, so
    A_n[l] = A_n[l-1] - A_{n-1}[l-1] and w_n = A_n[n]. With the signs
    G_n = (-1)^n A_n the subtraction becomes a running sum,
    G_n[l] = G_n[l-1] + G_{n-1}[l-1], one C-level `accumulate` per n.
    Every entry is the same single difference as in the row-by-row table
    (each row the differences of the one above), up to an exact negation,
    so integers, rationals and surds give the same values; float rounding
    is symmetric in sign, so every nonzero float keeps its bits and only a
    zero may differ in sign (x + (-x) is +0.0 whatever the sign of x).
    """
    out, diagonal = [], []
    for n, z_n in enumerate(z):
        if n % 2:
            diagonal = list(accumulate(diagonal, initial=-z_n))
            out.append(-diagonal[-1])
        else:
            diagonal = list(accumulate(diagonal, initial=z_n))
            out.append(diagonal[-1])
    return out


def newton_to_lattice(w, length: int | None = None) -> list:
    """z_n = sum_l C(n,l) w_l for n < length (default len(w)), with w a sequence, zero past its end.

    These are the entries T_0[n] of the table T_l[0] = w_l,
    T_l[n+1] = T_l[n] + T_{l+1}[n]. Only w_0..w_{K-1}, K = min(len(w),
    length), enter, and T_K is zero, so the column T_{K-1} is constant and
    each lower column is the running sum of the one above, one C-level
    `accumulate` per l down to T_0 = z, at O(length K) cost. The rule only
    adds: no binomial or factorial is formed, so float input stays inside
    the double range wherever its sums do, and integer input stays integer.
    """
    if length is None:
        length = len(w)
    K = min(len(w), length)
    if not K:
        return [0] * length
    top = w[K - 1]
    column = [top] + [top + 0] * (length - K)  # top + T_K: a float -0.0 becomes 0.0, as in the rows
    for l in range(K - 2, -1, -1):
        column = list(accumulate(column, initial=w[l]))
    return column


@dataclass(frozen=True)
class ScaledNewton:
    """Integers W_k = k! c E^k zeta_k, k = 0..len(W)-1, for positive integers c and E.

    w_k = k! zeta_k = W_k / (c E^k) are the Newton coefficients (Delta^k z)_0
    of the lattice sequence z whose transform coefficients are zeta. Both
    readouts divide once per entry through `reduced_fraction`, so an entry
    costs one gcd, and a zero entry, such as each one of the defect of an
    exact solution, costs none.
    """

    c: int
    E: int
    W: tuple[int, ...]

    def taylor_coeffs(self) -> list[Fraction]:
        """zeta_k = W_k / (k! c E^k): the transform, equally the Taylor, coefficients."""
        out, denominator = [], self.c
        for k, w in enumerate(self.W):
            out.append(reduced_fraction(w, denominator))
            denominator *= (k + 1) * self.E
        return out

    def lattice_values(self, length: int | None = None) -> list[Fraction]:
        """z_n = sum_l C(n,l) W_l / (c E^l) for n < length (default len(W)), over one denominator.

        With K the number of entries of W up to its last nonzero one among
        the first `length`, z_n = sum_l C(n,l) W_l E^(K-1-l) / (c E^(K-1)):
        the Pascal rule `newton_to_lattice` runs on the integers
        W_l E^(K-1-l), at O(length K) cost, and each of its sums is divided
        by c E^(K-1). The zero tail of W is cut first, so an all-zero W,
        such as the defect of an exact solution, costs no Pascal step and
        no power of E.
        """
        if length is None:
            length = len(self.W)
        K = min(len(self.W), length)
        while K and not self.W[K - 1]:
            K -= 1
        scaled, power = list(self.W[:K]), 1
        for k in range(K - 2, -1, -1):
            power *= self.E
            scaled[k] *= power
        denominator = self.c * power
        return [reduced_fraction(s, denominator) for s in newton_to_lattice(scaled, length)]


def forward_transform(zeta: FourierSeq) -> LatticeSeq:
    """z_n = sum_{l<=n} zeta_l (n)_l; entry n depends on zeta_0..zeta_n only."""
    return taylor_to_lattice(zeta.coeffs, zeta.last_index)


def inverse_transform(z: LatticeSeq) -> FourierSeq:
    """zeta_l = (Delta^l z)_0 / l!, the exact inverse of the forward map, run on the integers D z."""
    D, Z = over_common_denominator(z.values)
    return FourierSeq(tuple(ScaledNewton(D, 1, tuple(lattice_to_newton(Z))).taylor_coeffs()))


def taylor_to_lattice(b: TaylorCoeffs, L: int) -> LatticeSeq:
    """Lattice image z_n = sum_{k<=n} b_k (n)_k of a series prefix, n = 0..L.

    Coefficients beyond the stored prefix are taken as exact zeros, so a
    polynomial may be passed as its finite coefficient list. For a
    transcendental series supply at least L+1 coefficients. The Newton
    coefficients of D z, D the common denominator of b_0..b_L, are the
    integers W_k = k! D b_k, which stop where the stored prefix does.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    D, B = over_common_denominator(list(islice(b, min(L + 1, sys.maxsize))))  # no sequence holds more
    W = map(mul, B, accumulate(range(1, len(B)), mul, initial=1))  # k! D b_k
    return LatticeSeq(tuple(ScaledNewton(D, 1, tuple(W)).lattice_values(L + 1)))
