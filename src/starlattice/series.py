"""Dense exact power-series and polynomial helpers.

Coefficient lists are indexed by power (index 0 = constant term). The
truncated series and polynomial routines stay in `Fraction` arithmetic;
truncation degree D means coefficients 0..D are kept. `mul_trunc` only
adds and multiplies its inputs, so the float route in `floatmode` runs
`pow_trunc` on floats as well, between the two shared Newton maps of
`transforms`; an entry it never accumulates into stays the exact `Fraction(0)`.

`extend_binomial_powers` is the one exact star-power loop. It works on
Newton coefficients w_k = k! zeta_k, where the Cauchy product of
coefficient series becomes the binomial convolution sum_i C(k,i) u_i v_{k-i}
(the falling-factorial basis is of binomial type). Its weights are
integers, so its callers (`odes.solve_newton`, the lattice route of the
nonlinear residuals and `star.star_power`) keep their powers on integers
and never normalise a fraction per index. `extend_cauchy_powers` is the
same loop with the plain weight row v_k, ..., v_0: the Cauchy powers of
integer Taylor coefficients over one denominator, which the Taylor-space
residual of `odes.taylor_residuals` takes with no k! in its integers.
`pow_trunc`, the one power on series coefficients,
serves `floatmode` and the `fourier.constrained_convolution` oracle:
floats cannot take binomial weights, as C(k, k/2) leaves the double range
near k = 1030. The `corpus` series are built on integers from their
closed forms and need no series arithmetic from here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul


def mul_trunc(a: list[Fraction], b: list[Fraction], D: int) -> list[Fraction]:
    """Product of two series modulo x^(D+1).

    The inner loop stops at b's last nonzero entry, so a series with a zero
    tail (`floatmode`'s w_l / l!, exactly 0.0 from l = 171) costs no more
    than its nonzero head.
    """
    out = [Fraction(0)] * (D + 1)
    last = len(poly_trim(b)) - 1
    for i, ai in enumerate(a):
        if i > D or ai == 0:
            continue
        for j in range(min(D - i, last) + 1):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def pow_trunc(a: list[Fraction], e: int, D: int) -> list[Fraction]:
    """a(x)^e modulo x^(D+1) as e - 1 successive products res * a, no squaring; the unit series for e = 0."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if e == 0:
        return [Fraction(1)] + [Fraction(0)] * D
    base = list(a[: D + 1]) + [Fraction(0)] * (D + 1 - len(a))
    res = base
    for _ in range(e - 1):
        res = mul_trunc(res, base, D)
    return res


def extend_binomial_powers(w: list[int], powers: list[list[int]]) -> None:
    """Append the next coefficient to each binomial power w^(*2), w^(*3), ... in place.

    The binomial convolution (u * v)_k = sum_i C(k,i) u_i v_(k-i) is the
    Cauchy product written on Newton coefficients w_k = k! zeta_k, so its
    weights are integers and integer input stays integer. powers[i] holds
    w^(*(i+2)) up to index k-1 and w holds at least k+1 entries; afterwards
    every power holds index k too. Index k of w^(*j) needs only w_0..w_k and
    indices 0..k of w^(*(j-1)), so a sequence known one entry at a time keeps
    all its powers current in O(len(powers) * k) products per entry.
    """
    if not powers:
        return
    k = len(powers[0])
    # weighted[i] = C(k,i) w_(k-i), shared by every power; the square, being
    # symmetric, needs only i <= k/2.
    weighted = []
    binomial = 1
    for i in range(k + 1 if len(powers) > 1 else k // 2 + 1):
        weighted.append(binomial * w[k - i])
        binomial = binomial * (k - i) // (i + 1)
    _append_powers(w, powers, weighted)


def extend_cauchy_powers(v: list[int], powers: list[list[int]]) -> None:
    """Append the next coefficient to each Cauchy power v^2, v^3, ... in place.

    `extend_binomial_powers` with the weight row v_k, v_(k-1), ..., v_0 in
    place of C(k,i) v_(k-i): the plain product of coefficient series, for
    integer Taylor coefficients over one denominator, whose entries stay
    as small as the series' own.
    """
    if powers:
        _append_powers(v, powers, v[len(powers[0]) :: -1])


def _append_powers(w: list[int], powers: list[list[int]], weighted: list[int]) -> None:
    """Index k = len(powers[0]) of each power from the weight row weighted[i] on w_(k-i).

    The square sums the symmetric pairs i < k - i once and doubles them,
    so it reads weighted only up to k/2; each higher power is the dot
    product of the power below it with the whole row.
    """
    k = len(powers[0])
    half = sum(map(mul, w[: (k + 1) // 2], weighted))
    powers[0].append(2 * half + (w[k // 2] * weighted[k // 2] if k % 2 == 0 else 0))
    prev = powers[0]
    for p in powers[1:]:
        p.append(sum(map(mul, prev, weighted)))
        prev = p


def compose_trunc(f: list[Fraction], g: list[Fraction], D: int) -> list[Fraction]:
    """f(g(x)) modulo x^(D+1); requires g(0) = 0 (Horner on the outer series)."""
    if g and g[0] != 0:
        raise ValueError("composition needs a series with zero constant term")
    res = [Fraction(0)] * (D + 1)
    for c in reversed(f):
        res = mul_trunc(res, g, D)
        res[0] += c
    return res


def poly_trim(p: list[Fraction]) -> list[Fraction]:
    """Drop trailing zero coefficients; the zero polynomial becomes []."""
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return list(p[:i])


def poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_shift(p: list[Fraction], c: Fraction) -> list[Fraction]:
    """Coefficients of p(x + c)."""
    out = [Fraction(0)] * len(p)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j in range(i + 1):
            out[j] += a * comb(i, j) * c ** (i - j)
    return out


def poly_derivative(p: list[Fraction]) -> list[Fraction]:
    return [Fraction(i) * p[i] for i in range(1, len(p))]


def poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of dense polynomials; b must be nonzero."""
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = poly_trim(a)
    q = [Fraction(0)] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        factor = r[-1] / b[-1]
        q[shift] = factor
        for i, bi in enumerate(b):
            r[shift + i] -= factor * bi
        r = poly_trim(r)
    return poly_trim(q), r


def poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic greatest common divisor."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, rem = poly_divmod(a, b)
        a, b = b, rem
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def poly_deflate(p: list[Fraction], root: Fraction) -> list[Fraction]:
    """Divide p by (x - root); the root must be exact."""
    q, rem = poly_divmod(p, [-root, Fraction(1)])
    if rem:
        raise ValueError(f"{root} is not a root")
    return q
