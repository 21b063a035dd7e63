"""Nonlocal discrete analogs of ODEs with polynomial coefficients.

A linear equation sum_l a_l(t) z^(l) + c_0(t) = 0 maps to the lattice by
sending d/dt to the forward difference and each coefficient monomial
t^m * w to its star image (n)_m * w_{n-m}; the inhomogeneity maps termwise,
gamma_r t^r -> gamma_r (n)_r. A nonlinear equation z^(m) = sum_j a_j(t) z^j
additionally replaces powers by star powers. Lattice images of power-series
solutions of the continuous equation satisfy the resulting recurrences
exactly, which is what the residual evaluators check.

Forward stepping solves the recurrences for z_{n+N} (resp. z_{n+m}); for
linear equations this needs a_N(0) != 0, since every nonlocal term reaches
at most index n+N-1 while the local one contributes a_N(0) * z_{n+N}.

Residuals and steps are evaluated online: index n does only the work that
index needs. A linear term c t^p z^(l) reads the entries n-p..n-p+l through
the binomial formula for (Delta^l z)_{n-p}, so a linear index costs
O(terms * order). The linear evaluator runs on the equation scaled once
to integer coefficients, and `lin_residuals` on the sequence scaled to
integer numerators over one denominator. The star powers at n need
z_0..z_n only, so one `StarPowerStream` fed each entry once keeps them
current, and a nonlinear index costs O(degree * n). The kernel form of
`lin_residual` keeps the paper's whole-sequence route as its cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, perm

from .errors import IndexOutOfRange, NotForwardSolvable, OrderTooLarge
from .rational import as_rational, over_common_denominator
from .sequences import LatticeSeq, TaylorCoeffs
from .series import extend_powers
from .star import StarPowerStream, monomial_star
from .transforms import difference_rows, falling_factorial


@dataclass(frozen=True)
class PolyCoeff:
    """Sparse polynomial in t: monomials (power, coefficient), powers increasing."""

    monomials: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        cleaned = []
        last_power = -1
        for power, coeff in self.monomials:
            power = int(power)
            coeff = as_rational(coeff)
            if power < 0:
                raise ValueError("monomial powers must be nonnegative")
            if power <= last_power:
                raise ValueError("monomial powers must be strictly increasing")
            last_power = power
            if coeff != 0:
                cleaned.append((power, coeff))
        object.__setattr__(self, "monomials", tuple(cleaned))

    @classmethod
    def from_pairs(cls, pairs) -> "PolyCoeff":
        merged: dict[int, Fraction] = {}
        for power, coeff in pairs:
            merged[int(power)] = merged.get(int(power), Fraction(0)) + as_rational(coeff)
        return cls(tuple(sorted((p, c) for p, c in merged.items() if c != 0)))

    @classmethod
    def constant(cls, value) -> "PolyCoeff":
        v = as_rational(value)
        return cls(((0, v),) if v != 0 else ())

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    @property
    def constant_term(self) -> Fraction:
        for power, coeff in self.monomials:
            if power == 0:
                return coeff
        return Fraction(0)

    def image_at(self, n: int) -> Fraction:
        """Termwise lattice image sum_r gamma_r (n)_r evaluated at n."""
        return sum((c * falling_factorial(n, p) for p, c in self.monomials), Fraction(0))


@dataclass(frozen=True)
class LinearOde:
    """sum_{l=0}^{N} a_l(t) z^(l) + c_0(t) = 0 with polynomial a_l, c_0."""

    coeffs: tuple[PolyCoeff, ...]  # a_0 .. a_N
    c0: PolyCoeff = PolyCoeff(())

    def __post_init__(self) -> None:
        if len(self.coeffs) < 2:
            raise ValueError("a linear equation needs order at least 1")
        if self.coeffs[-1].is_zero:
            raise ValueError("leading coefficient a_N must not vanish identically")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class NonlinearOde:
    """z^(m) = sum_{j=0}^{N} a_j(t) z^j with polynomial a_j."""

    m: int
    coeffs: tuple[PolyCoeff, ...]  # a_0 .. a_N

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("derivative order m must be positive")
        if len(self.coeffs) < 2:
            raise ValueError("degree must be at least 1")
        if self.coeffs[-1].is_zero:
            raise ValueError("leading coefficient a_N must not vanish identically")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def delta_power(z: LatticeSeq, l: int) -> LatticeSeq:
    """l-fold forward difference: row l of the difference table of z."""
    if l < 0:
        raise ValueError("difference order must be nonnegative")
    if l > z.last_index:
        raise OrderTooLarge(f"difference order {l} exceeds stored range 0..{z.last_index}")
    if l == 0:
        return z
    return LatticeSeq(tuple(next(islice(difference_rows(z.values), l, None))))


def _difference(values, l: int, s: int) -> Fraction:
    """(Delta^l z)_s = sum_i (-1)^(l-i) C(l,i) z_{s+i}; reads z_s..z_{s+l} only."""
    acc = values[s + l]
    for i in range(l):
        term = comb(l, i) * values[s + i]
        acc = acc - term if (l - i) % 2 else acc + term
    return acc


@dataclass(frozen=True)
class _IntegerForm:
    """A linear equation times E, the common denominator of its coefficients.

    ``terms`` holds (l, p, C) for each monomial C t^p of E a_l, ``c0`` holds
    (r, G) for each monomial G t^r of E c_0; every C and G is an integer.
    """

    E: int
    terms: tuple[tuple[int, int, int], ...]
    c0: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, eq: LinearOde) -> "_IntegerForm":
        lhs = [(l, p, c) for l, a_l in enumerate(eq.coeffs) for p, c in a_l.monomials]
        E, scaled = over_common_denominator([c for _, _, c in lhs] + [g for _, g in eq.c0.monomials])
        terms = tuple((l, p, C) for (l, p, _), C in zip(lhs, scaled))
        c0 = tuple((r, G) for (r, _), G in zip(eq.c0.monomials, scaled[len(lhs) :]))
        return cls(E, terms, c0)


def _lin_residual_at(form: _IntegerForm, values, n: int, D: int = 1):
    """D * E times the residual at n of z = values / D, in the shift form.

    Each term C t^p z^(l) contributes C (n)_p (Delta^l values)_{n-p}, and the
    inhomogeneity D * G (n)_r. Integer values give an integer, rational
    values a rational.
    """
    acc = D * sum(g * perm(n, r) for r, g in form.c0)
    for l, p, c in form.terms:
        if p <= n:
            acc += c * perm(n, p) * _difference(values, l, n - p)
    return acc


def lin_residual(eq: LinearOde, z: LatticeSeq, n: int, form: str = "shift") -> Fraction:
    """Left-hand side of the discrete linear equation at index n.

    Exactly zero when z is the lattice image of a power-series solution.
    ``form`` selects the monomial-image evaluation route: the shift form reads
    only the entries n-p..n-p+l of each term, the kernel form builds
    ``delta_power`` and the kernel ``monomial_star`` over the whole sequence
    as the paper's cross-check.
    """
    N = eq.order
    if n < 0 or n + N > z.last_index:
        raise IndexOutOfRange(f"residual at n={n} needs index {n + N}, stored 0..{z.last_index}")
    if form == "shift":
        integer = _IntegerForm.of(eq)
        return Fraction(_lin_residual_at(integer, z.values, n), integer.E)
    if form != "kernel":
        raise ValueError(f"unknown form {form!r}")
    acc = Fraction(0)
    for l, a_l in enumerate(eq.coeffs):
        if a_l.is_zero:
            continue
        dz = delta_power(z, l)
        for power, coeff in a_l.monomials:
            acc += coeff * monomial_star(power, dz, form)[n]
    return acc + eq.c0.image_at(n)


def lin_residuals(eq: LinearOde, z: LatticeSeq, form: str = "shift") -> list[Fraction]:
    """Residuals for every index with all needed entries stored.

    The shift form runs on integers: with D the common denominator of z and
    Z = z * D, each index is one integer sum divided once by D * E.
    """
    count = z.last_index - eq.order + 1
    if form != "shift":
        return [lin_residual(eq, z, n, form) for n in range(count)]
    integer = _IntegerForm.of(eq)
    D, Z = over_common_denominator(z.values)
    return [Fraction(_lin_residual_at(integer, Z, n, D), D * integer.E) for n in range(count)]


def _nonlin_residual_at(eq: NonlinearOde, values, stream: StarPowerStream, n: int) -> Fraction:
    """Residual at n once z_0..z_n are fed to the stream; reads z_n..z_{n+m} too."""
    acc = _difference(values, eq.m, n) - eq.coeffs[0].image_at(n)
    for j in range(1, eq.degree + 1):
        for power, coeff in eq.coeffs[j].monomials:
            if power <= n:
                s = n - power
                zj = values[s] if j == 1 else stream.entry(j, s)
                acc -= coeff * perm(n, power) * zj
    return acc


def nonlin_residual(eq: NonlinearOde, z: LatticeSeq, n: int) -> Fraction:
    """(Delta^m z)_n minus the star image of the right-hand side at n."""
    if n < 0 or n + eq.m > z.last_index:
        raise IndexOutOfRange(f"residual at n={n} needs index {n + eq.m}, stored 0..{z.last_index}")
    stream = StarPowerStream(eq.degree)
    for value in z.values[: n + 1]:
        stream.feed(value)
    return _nonlin_residual_at(eq, z.values, stream, n)


def nonlin_residuals(eq: NonlinearOde, z: LatticeSeq) -> list[Fraction]:
    stream = StarPowerStream(eq.degree)
    out = []
    for n in range(z.last_index - eq.m + 1):
        stream.feed(z[n])
        out.append(_nonlin_residual_at(eq, z.values, stream, n))
    return out


def lin_step(eq: LinearOde, init, L: int) -> LatticeSeq:
    """Unique sequence with the given first N values and zero residual up to L-N.

    The recurrence isolates z_{n+N} with coefficient a_N(0), so that constant
    term must be nonzero: every other term reads at most z_{n+N-1}.
    """
    N = eq.order
    lead = eq.coeffs[-1].constant_term
    if lead == 0:
        raise NotForwardSolvable("a_N(0) = 0: the recurrence does not determine z_{n+N}")
    values = [as_rational(v) for v in init]
    if len(values) != N:
        raise ValueError(f"need exactly {N} initial values, got {len(values)}")
    if L < N - 1:
        raise IndexOutOfRange(f"length L={L} shorter than the {N} initial values")
    integer = _IntegerForm.of(eq)
    scaled_lead = lead.numerator * (integer.E // lead.denominator)
    for n in range(L - N + 1):
        values.append(Fraction(0))
        values[-1] = Fraction(-_lin_residual_at(integer, values, n), scaled_lead)
    return LatticeSeq(tuple(values))


def nonlin_step(eq: NonlinearOde, init, L: int) -> LatticeSeq:
    """Forward-solve the nonlinear recurrence; z_{n+m} always has coefficient 1.

    The star powers at index n need z_0..z_n only, so one stream fed each
    entry once serves every step.
    """
    m = eq.m
    values = [as_rational(v) for v in init]
    if len(values) != m:
        raise ValueError(f"need exactly {m} initial values, got {len(values)}")
    if L < m - 1:
        raise IndexOutOfRange(f"length L={L} shorter than the {m} initial values")
    stream = StarPowerStream(eq.degree)
    for n in range(L - m + 1):
        stream.feed(values[n])
        values.append(Fraction(0))
        values[-1] = -_nonlin_residual_at(eq, values, stream, n)
    return LatticeSeq(tuple(values))


def local_stencil(eq: LinearOde) -> tuple[Fraction, ...] | None:
    """Coefficients of z_{n+N}..z_n when every a_l is constant, else None.

    For constant coefficients the discrete equation collapses to the local
    recurrence sum_l a_l Delta^l z_n = 0; the returned tuple is descending in
    the shift.
    """
    if any(p != 0 for a in eq.coeffs for p, _ in a.monomials):
        return None
    N = eq.order
    out = [Fraction(0)] * (N + 1)  # out[j] multiplies z_{n+j}
    for l, a_l in enumerate(eq.coeffs):
        c = a_l.constant_term
        if c == 0:
            continue
        for j in range(l + 1):
            term = c * comb(l, j)
            out[j] += term if (l - j) % 2 == 0 else -term
    return tuple(reversed(out))


def taylor_solution_linear(eq: LinearOde, init, L: int) -> TaylorCoeffs:
    """Power-series solution b_0..b_L of the continuous equation.

    Solves the coefficient recurrence in t-space from N initial Taylor
    coefficients; requires a_N(0) != 0 (ordinary point at the origin).
    """
    N = eq.order
    lead = eq.coeffs[-1].constant_term
    if lead == 0:
        raise NotForwardSolvable("a_N(0) = 0: origin is a singular point of the equation")
    b = [as_rational(v) for v in init]
    if len(b) != N:
        raise ValueError(f"need exactly {N} initial Taylor coefficients, got {len(b)}")
    for s in range(L - N + 1):
        acc = _poly_coefficient(eq.c0, s)
        for l, a_l in enumerate(eq.coeffs):
            for power, coeff in a_l.monomials:
                if l == N and power == 0:
                    continue  # the unknown slot
                k = s - power + l
                if s - power < 0:
                    continue
                acc += coeff * b[k] * falling_factorial(k, l)
        unknown_weight = lead * falling_factorial(s + N, N)
        b.append(-acc / unknown_weight)
    return TaylorCoeffs(tuple(b[: L + 1]))


def _poly_coefficient(poly: PolyCoeff, power: int) -> Fraction:
    for p, c in poly.monomials:
        if p == power:
            return c
    return Fraction(0)


def taylor_solution_nonlinear(eq: NonlinearOde, init, L: int) -> TaylorCoeffs:
    """Power-series solution of z^(m) = sum_j a_j(t) z^j from m initial coefficients."""
    m = eq.m
    b = [as_rational(v) for v in init]
    if len(b) != m:
        raise ValueError(f"need exactly {m} initial Taylor coefficients, got {len(b)}")
    powers = [[] for _ in range(eq.degree - 1)]  # b^2 .. b^N, extended to degree s
    for s in range(L - m + 1):
        extend_powers(b, powers)
        rhs = _poly_coefficient(eq.coeffs[0], s)
        for j in range(1, eq.degree + 1):
            bj = b if j == 1 else powers[j - 2]
            for power, coeff in eq.coeffs[j].monomials:
                if power <= s:
                    rhs += coeff * bj[s - power]
        b.append(rhs / falling_factorial(s + m, m))
    return TaylorCoeffs(tuple(b[: L + 1]))
