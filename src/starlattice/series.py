"""Dense exact power-series and polynomial helpers.

Coefficient lists are indexed by power (index 0 = constant term). All
routines stay in `Fraction` arithmetic; truncation degree D means
coefficients 0..D are kept. `mul_trunc` only adds and multiplies its
inputs, so the float route in `floatmode` runs it on floats as well; an
entry it never accumulates into stays the exact `Fraction(0)`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def mul_trunc(a: list[Fraction], b: list[Fraction], D: int) -> list[Fraction]:
    """Product of two series modulo x^(D+1)."""
    out = [Fraction(0)] * (D + 1)
    for i, ai in enumerate(a):
        if i > D or ai == 0:
            continue
        for j in range(min(D - i, len(b) - 1) + 1):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def pow_trunc(a: list[Fraction], e: int, D: int) -> list[Fraction]:
    """a(x)^e modulo x^(D+1) by repeated squaring; never multiplies by the unit series."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if e == 0:
        return [Fraction(1)] + [Fraction(0)] * D
    res = None
    base = list(a[: D + 1]) + [Fraction(0)] * (D + 1 - len(a))
    while e:
        if e & 1:
            res = base if res is None else mul_trunc(res, base, D)
        e >>= 1
        if e:
            base = mul_trunc(base, base, D)
    return res


def extend_powers(a: list[Fraction], powers: list[list[Fraction]]) -> None:
    """Append the next coefficient to each running power a^2, a^3, ... in place.

    powers[i] holds a^(i+2) modulo x^k and a holds at least k+1 coefficients;
    afterwards every power holds k+1. Coefficient k of a^j needs only a_0..a_k
    and coefficients 0..k of a^(j-1), so a series known one coefficient at a
    time keeps all its powers current in O(len(powers) * k) per coefficient.
    """
    if not powers:
        return
    k = len(powers[0])
    # a^2 is symmetric: each product a_i a_(k-i) with i < k-i counts twice.
    cross = Fraction(0)
    for i in range((k + 1) // 2):
        if a[i] and a[k - i]:
            cross += a[i] * a[k - i]
    powers[0].append(2 * cross + (a[k // 2] ** 2 if k % 2 == 0 else 0))
    prev = powers[0]
    for p in powers[1:]:
        acc = Fraction(0)
        for i in range(k + 1):
            if prev[i] and a[k - i]:
                acc += prev[i] * a[k - i]
        p.append(acc)
        prev = p


def reciprocal_trunc(a: list[Fraction], D: int) -> list[Fraction]:
    """1/a(x) modulo x^(D+1); requires a(0) != 0."""
    if not a or a[0] == 0:
        raise ZeroDivisionError("series has no reciprocal: constant term is zero")
    out = [Fraction(0)] * (D + 1)
    out[0] = 1 / Fraction(a[0])
    for m in range(1, D + 1):
        s = Fraction(0)
        for k in range(1, min(m, len(a) - 1) + 1):
            s += a[k] * out[m - k]
        out[m] = -s / a[0]
    return out


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
