"""Falling-factorial basis change between lattice samples and coefficients.

With p_l(n) = n!/(n-l)! (zero for n < l), the pair

    z_n = sum_{l=0}^{n} zeta_l * p_l(n)                    (forward)
    zeta_n = sum_{l=0}^{n} (-1)^(n-l) * z_l / (l!(n-l)!)   (inverse)

is triangular and mutually inverse at every length. A power-series prefix
b_0..b_L maps to the lattice through the same forward rule with zeta = b.

Both directions go through the Newton coefficients w_l = l! * zeta_l, which
are the leading entries (Delta^l z)_0 of the forward-difference table, so
z_n = sum_l C(n,l) w_l. The table and its inverse, the Pascal rule of
`newton_to_lattice`, only add and subtract (and scale by an integer E), so
each is written once for every scalar: integers, Fraction, quadratic surds,
complex and float. The exact paths and the float route share them. Both
run as prefix sums, one C-level `itertools.accumulate` per line of the
table and no Python call per entry: `lattice_to_newton` walks the
difference table by anti-diagonals, which are running sums once diagonal n
carries the sign (-1)^n, and `newton_to_lattice` with E = 1 builds the
Pascal table column by column, each column the running sum of the one
above. Each entry is the single addition or subtraction of the row-by-row
table, up to an exact negation, so exact results are unchanged and float
ones keep their bits, except the sign of an exactly cancelled zero in the
difference table.

The exact maps run on integers: the falling-factorial basis is of binomial
type, so a rational sequence needs one common denominator, and
`ScaledNewton` holds the integers W_k = k! c E^k zeta_k together with the
readouts that divide once per entry, each quotient a `reduced_fraction`:
one gcd per nonzero entry and none for a zero one. `taylor_newton` builds
W_k = k! D b_k, which `taylor_to_lattice` reads out as lattice values; the
residual tables of a Taylor solution (`odes.taylor_residuals`) evaluate a
Newton-space defect on W instead and read out only the defect, which is
zero for a series solution. `inverse_transform` takes W from the
difference table of D z_n. The star powers, the nonlinear solver, the residual defects and the
Jacobi shifted form read their integers out through the same class, whose
lattice readouts cut the zero tail of W before the Pascal rule.
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


def newton_to_lattice(w, E: int = 1, length: int | None = None) -> list:
    """z_n = sum_l C(n,l) E^(n-l) w_l for n < length (default len(w)), with w a sequence, zero past its end.

    These are the entries T_0[n] of the table T_l[0] = w_l,
    T_l[n+1] = E T_l[n] + T_{l+1}[n]. Only w_0..w_{K-1}, K = min(len(w),
    length), enter, and T_K is zero. For E = 1 the column T_{K-1} is
    constant and each lower column is the running sum of the one above,
    one C-level `accumulate` per l down to T_0 = z, at O(length K) cost.
    For E != 1 the rows T_.[n] go down the table as a comprehension, whose
    width stays K while n <= length - K (a running sum with a Python
    function per entry is slower). Either way the rule only adds and
    scales by E: no binomial or factorial is formed, so float input stays
    inside the double range wherever its sums do, and integer input stays
    integer.
    """
    if length is None:
        length = len(w)
    K = min(len(w), length)
    if not K:
        return [0] * length
    if E == 1:
        top = w[K - 1]
        column = [top] + [top + 0] * (length - K)  # top + T_K: a float -0.0 becomes 0.0, as in the rows
        for l in range(K - 2, -1, -1):
            column = list(accumulate(column, initial=w[l]))
        return column
    row = list(w[:K])
    out = []
    for _ in range(length - K):
        row.append(0)
        out.append(row[0])
        row = [E * a + b for a, b in zip(row, row[1:])]
    while row:
        out.append(row[0])
        row = [E * a + b for a, b in zip(row, row[1:])]
    return out


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

    def lattice_numerators(self, length: int | None = None) -> list[int]:
        """S_n = c E^n z_n for n < length (default len(W)): the Pascal rule `newton_to_lattice(W, E, length)`.

        The rule reads W as zero past its end, so it runs on W without its
        zero tail: the numerators of K nonzero leading entries cost
        O(length K), and an all-zero W, such as the defect of an exact
        solution, costs no Pascal step at all.
        """
        K = len(self.W)
        while K and not self.W[K - 1]:
            K -= 1
        return newton_to_lattice(self.W[:K], self.E, len(self.W) if length is None else length)

    def lattice_values(self, length: int | None = None) -> list[Fraction]:
        """z_n = S_n / (c E^n) for n < length (default len(W)), with S the `lattice_numerators`."""
        out, denominator = [], self.c
        for s in self.lattice_numerators(length):
            out.append(reduced_fraction(s, denominator))
            denominator *= self.E
        return out


def forward_transform(zeta: FourierSeq) -> LatticeSeq:
    """z_n = sum_{l<=n} zeta_l (n)_l; entry n depends on zeta_0..zeta_n only."""
    return taylor_to_lattice(zeta.coeffs, zeta.last_index)


def inverse_transform(z: LatticeSeq) -> FourierSeq:
    """zeta_l = (Delta^l z)_0 / l!, the exact inverse of the forward map, run on the integers D z."""
    D, Z = over_common_denominator(z.values)
    return FourierSeq(tuple(ScaledNewton(D, 1, tuple(lattice_to_newton(Z))).taylor_coeffs()))


def taylor_newton(b: TaylorCoeffs, L: int) -> ScaledNewton:
    """ScaledNewton(D, 1, W) of the lattice image of b_0..b_L, with W_k = k! D b_k.

    D is the common denominator of b_0..b_min(L, len-1); W stops where the
    stored prefix does, and the lattice readouts take the coefficients past
    it as exact zeros.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    D, B = over_common_denominator(list(islice(b, min(L + 1, sys.maxsize))))  # no sequence holds more
    W = map(mul, B, accumulate(range(1, len(B)), mul, initial=1))  # k! D b_k
    return ScaledNewton(D, 1, tuple(W))


def taylor_to_lattice(b: TaylorCoeffs, L: int) -> LatticeSeq:
    """Lattice image z_n = sum_{k<=n} b_k (n)_k of a series prefix, n = 0..L.

    Coefficients beyond the stored prefix are taken as exact zeros, so a
    polynomial may be passed as its finite coefficient list. For a
    transcendental series supply at least L+1 coefficients. The Newton
    coefficients of D z are the integers of `taylor_newton`.
    """
    return LatticeSeq(tuple(taylor_newton(b, L).lattice_values(L + 1)))
