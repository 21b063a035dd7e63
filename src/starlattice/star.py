"""The star product on lattice sequences.

The product is defined on the falling-factorial basis by p_i * p_j = p_{i+j};
on coefficients it is the Cauchy convolution, so `star_power` runs
inverse-transform, convolve, forward-transform. Its oracle
`star_power_kernel` sums the closed-form power kernel

    K(n; k_1..k_p) = (-1)^n n! (p-1)^(n-s) / (n-s)!,   s = k_1+...+k_p <= n,

over every index tuple. That sum, `closed_kernel_sum`, is written once for
any scalar: binomial chains off one Pascal table, int weights for exact
input, and `floatmode.star_power_kernel` runs it on floats as the slow
timing subject of `bench`. A literal multi-sum over shift indices serves as
the kernel's own oracle; `monomial_star_kernel` is likewise the oracle of
`monomial_star`.
Everything is triangular: entry n of any product depends only on entries
0..n of the factors, so truncation at a common length is exact.
`star_power` runs on integers: the Newton coefficients of D z (D the common
denominator of z) take their binomial powers, which have integer weights
(`series.extend_binomial_powers`); those are the scaled Newton coefficients
of the power with c = D^p, which `transforms.ScaledNewton` maps back through
the shared Pascal rule with one division per entry. `star_multiply` keeps the
`Fraction` Cauchy product through `mul_trunc` as its cross-check at p = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import add, mul

from .errors import ArityZero, LengthMismatch
from .rational import over_common_denominator
from .sequences import FourierSeq, LatticeSeq
from .series import extend_binomial_powers, mul_trunc
from .transforms import (
    ScaledNewton,
    falling_factorial,
    forward_transform,
    inverse_transform,
    lattice_to_newton,
    recip_factorial,
)


@dataclass(frozen=True)
class StarKernelArgs:
    """Index bundle (n; k_1..k_p) for the arity-p power kernel."""

    n: int
    ks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if self.n < 0 or any(k < 0 for k in self.ks):
            raise ValueError("kernel indices must be nonnegative")
        if not self.ks:
            raise ArityZero("kernel arity must be at least 1")

    @property
    def p(self) -> int:
        return len(self.ks)


def star_multiply(u: LatticeSeq, v: LatticeSeq) -> LatticeSeq:
    """Star product of two equal-length sequences, truncated to that length."""
    if len(u) != len(v):
        raise LengthMismatch(f"lengths {len(u)} and {len(v)} differ")
    L = u.last_index
    cu = inverse_transform(u).coeffs
    cv = inverse_transform(v).coeffs
    conv = mul_trunc(list(cu), list(cv), L)
    return forward_transform(FourierSeq(tuple(conv)))


def star_power(z: LatticeSeq, p: int) -> LatticeSeq:
    """p-fold star power by the integer convolution route, O(p L^2) scalar operations.

    `star_power_kernel` gives the identical exact result by the closed
    kernel in O(L^(p+1)); it exists as a permanently-tested redundancy.
    """
    if p < 1:
        raise ArityZero("star power needs arity >= 1; the unit is the all-ones sequence")
    D, Z = over_common_denominator(z.values)
    w = lattice_to_newton(Z)  # w_l = D l! zeta_l
    powers: list[list[int]] = [[] for _ in range(p - 1)]  # w^(*2) .. w^(*p)
    for _ in w:
        extend_binomial_powers(w, powers)
    return LatticeSeq(tuple(ScaledNewton(D**p, 1, tuple(powers[-1] if powers else w)).lattice_values()))


def closed_kernel_sum(z, p: int, one) -> list:
    """z^(*p) summed over every index tuple of the closed kernel, in the scalar of ``one``.

    With y_k = (-1)^k z_k, K turns entry n into (-1)^n times the sum over
    k_1 + ... + k_p <= n of the multinomial n! / (k_1! ... k_p! (n-s)!),
    times (p-1)^(n-s) y_(k_1) ... y_(k_p). The multinomial is a chain of
    binomials C(r, k) off one Pascal table, r the budget left, and the last
    level is one dot product with the weights C(r, k) (p-1)^(r-k); a zero
    y_k prunes its subtree. ``one`` is 1 for exact input (int weights) or
    1.0 for floats, whose table comes from the same additions, so an
    oversized one holds inf rather than raising.
    """
    L = len(z) - 1
    y = [-v if k % 2 else v for k, v in enumerate(z)]
    binom = [[one]]
    for _ in range(L):
        row = binom[-1]
        binom.append([one, *map(add, row, row[1:]), one])
    powers = [one]
    for _ in range(L):
        powers.append(powers[-1] * (p - 1))
    weights = [list(map(mul, row, reversed(powers[: r + 1]))) for r, row in enumerate(binom)]

    def tuple_sum(level: int, rem: int, chain):
        if level == p - 1:
            return chain * sum(map(mul, y[: rem + 1], weights[rem]))
        crow = binom[rem]
        acc = 0 * one
        for k in range(rem + 1):
            yk = y[k]
            if yk:
                acc += tuple_sum(level + 1, rem - k, chain * crow[k] * yk)
        return acc

    totals = [tuple_sum(0, n, one) for n in range(L + 1)]
    return [-total if n % 2 else total for n, total in enumerate(totals)]


def star_power_kernel(z: LatticeSeq, p: int) -> LatticeSeq:
    """p-fold star power summed over the closed kernel: the oracle of `star_power`."""
    if p < 1:
        raise ArityZero("star power needs arity >= 1; the unit is the all-ones sequence")
    return LatticeSeq(tuple(closed_kernel_sum(z.values, p, 1)))


def star_kernel_closed(args: StarKernelArgs) -> Fraction:
    """Closed form of the power kernel; zero when n < sum(ks), with 0^0 = 1."""
    s = sum(args.ks)
    if args.n < s:
        return Fraction(0)
    sign = -1 if args.n % 2 else 1
    return Fraction(sign * factorial(args.n) * (args.p - 1) ** (args.n - s), factorial(args.n - s))


def star_kernel_bruteforce(args: StarKernelArgs) -> Fraction:
    """Literal multi-sum over shift indices l_1..l_p in [0, n]^p.

    Terms with l_i < k_i or sum(l) > n vanish through the reciprocal-factorial
    and falling-factorial conventions; zero factors prune the recursion, which
    skips exactly the vanishing terms. Intended for small instances.
    """
    n = args.n
    total = Fraction(0)

    def rec(level: int, lsum: int, prod: Fraction) -> None:
        nonlocal total
        if lsum > n:
            return  # falling_factorial(n, lsum) = 0 for every completion
        if level == args.p:
            term = prod * falling_factorial(n, lsum)
            total += term if lsum % 2 == 0 else -term
            return
        k = args.ks[level]
        for l in range(n + 1):
            f = recip_factorial(l - k)
            if f:
                rec(level + 1, lsum + l, prod * f)

    rec(0, 0, Fraction(1))
    return total


def monomial_kernel(k: int, j: int, m: int, n: int) -> Fraction:
    """Weight of w_j in the lattice image of t^m * w: nonzero only for j <= k - m."""
    f = recip_factorial(j) * recip_factorial(k - m - j)
    if f == 0:
        return Fraction(0)
    sign = -1 if (k - j - m) % 2 else 1
    return sign * f * falling_factorial(n, k)


def monomial_star(m: int, w: LatticeSeq) -> LatticeSeq:
    """Lattice image of t^m * w by the shift form (n)_m * w_{n-m}, zero for n < m.

    The shift form is the cheap derived simplification of the kernel form
    that `monomial_star_kernel` keeps as its cross-check.
    """
    if m < 0:
        raise ValueError("monomial power must be nonnegative")
    L = w.last_index
    values = [falling_factorial(n, m) * w[n - m] if n >= m else Fraction(0) for n in range(L + 1)]
    return LatticeSeq(tuple(values))


def monomial_star_kernel(m: int, w: LatticeSeq) -> LatticeSeq:
    """Lattice image of t^m * w by the kernel form sum_{k<=n} sum_j K(k,j,m,n) w_j."""
    if m < 0:
        raise ValueError("monomial power must be nonnegative")
    L = w.last_index
    values = []
    for n in range(L + 1):
        acc = Fraction(0)
        for k in range(m, n + 1):
            for j in range(k - m + 1):
                if w[j]:
                    acc += monomial_kernel(k, j, m, n) * w[j]
        values.append(acc)
    return LatticeSeq(tuple(values))


def unit_sequence(length: int) -> LatticeSeq:
    """The star identity: the all-ones sequence (the basis element p_0)."""
    if length < 1:
        raise ValueError("length must be positive")
    return LatticeSeq((Fraction(1),) * length)
