"""Nonlocal discrete analogs of ODEs with polynomial coefficients.

A linear equation sum_l a_l(t) z^(l) + c_0(t) = 0 maps to the lattice by
sending d/dt to the forward difference and each coefficient monomial
t^m * w to its star image (n)_m * w_{n-m}; the inhomogeneity maps termwise,
gamma_r t^r -> gamma_r (n)_r. A nonlinear equation z^(m) = sum_j a_j(t) z^j
additionally replaces powers by star powers. Lattice images of power-series
solutions of the continuous equation satisfy the resulting recurrences
exactly, which is what the residual evaluators check.

Linear forward stepping solves the recurrence for z_{n+N}; this needs
a_N(0) != 0, since every nonlocal term reaches at most index n+N-1 while
the local one contributes a_N(0) * z_{n+N}. It runs on integers carried
from index to index: the window z_{n-P}..z_{n+N-1} (P the largest power of
t) as numerators Z over one denominator D kept minimal. The stencil on
that window, which ends before z_{n+N}, gives D E times the residual with
that slot at zero, so the new entry is that over -D E a_N(0). Every
denominator the loop forms divides a power of c E a_N(0), c the common
denominator of the initial values, so the entry is reduced by stripping
only those primes, one machine digit at a time, instead of a full gcd, and
the stepped entry is built from the reduced pair without a second one.
Scaling the whole sequence by a fixed power of E a_N(0) instead would grow
every numerator by that factor's bits per index even where the reduced
values stay small.

The nonlinear recurrence is solved once, in Newton space. The transform
coefficients zeta of the lattice solution obey the same recurrence as the
Taylor coefficients of the continuous one, so `nonlin_step`,
`taylor_solution_nonlinear` and `fourier.fourier_step` all call
`solve_newton`. It runs on scaled Newton coefficients W_k = k! c E^k zeta_k,
where the star product is the binomial convolution with integer weights,
so every W_k is an integer (the proof is in its docstring) and no index
builds a `Fraction`. `transforms.ScaledNewton` maps W back to Taylor
coefficients or to lattice values with one division per entry.
`taylor_solution_linear` solves the linear defect of `taylor_residuals`
for its one unknown term the same way, on W_k = c S^k k! b_k. Each solver
and each defect is one Newton-space recurrence with one term loop,
`_newton_rhs`: a term (X, shift, p, A) is the source list X read at
k + shift times A (k)_p. A linear term C t^p z^(l) reads W at l - p, a
nonlinear one the binomial power w^(*j), which may still grow, at -p.

Linear residuals of a lattice sequence are evaluated online: a term
c t^p z^(l) reads only the entries n-p..n-p+l, through the binomial formula
for (Delta^l z)_{n-p}. `_LinearStencil` collects those binomial weights
once per equation, scaled to integers and summed per power of t, so index n
costs one integer dot product per power; `lin_step`, `lin_residual` and
`lin_residuals` all evaluate through it. The nonlinear residuals are the
Newton-space defect of the recurrence that `solve_newton` solves, scaled to
integers and read out through `transforms.ScaledNewton` like the solution,
`nonlin_residual` included: it reads the last entry of the table up to n.
Both evaluators run on the equation scaled once to integer coefficients and
on the sequence scaled to integer numerators over one denominator, and
divide once per index.

A Taylor solution b never becomes a lattice sequence: `taylor_residuals`
takes the integers W_k = k! D b_k, the Newton coefficients of D times its
lattice image, and evaluates a Newton-space defect for both kinds of
equation. For a nonlinear one this is the defect above with W as w. For a
linear one it is the equation's own Taylor-space defect: the forward map is
a functor, F(t^p g^(l))_n = (n)_p (Delta^l F g)_{n-p}, so the residual
table of F b is F R, R the continuous residual of b, and its Newton
coefficients k! R_k cost O(terms) integer products each. Only the defect
goes through the Pascal rule, and the defect of a series solution is zero,
so checking one builds no lattice image at all. The stencil route of
`lin_residuals` on `taylor_to_lattice(b, L + N)` is the independent
cross-check of this one.
`lin_residual_kernel` keeps the paper's whole-sequence route, through
`star.monomial_star_kernel`, as the cross-check of `lin_residual`; no
production path calls it.

Both equation classes have an ``order`` N (m for a nonlinear one). Every
solver, `fourier.fourier_step` too, takes exactly N initial values and
L >= N - 1 through `_initial`; every residual at n reads z_0..z_{n+N}
through `_check_index`, the tables at n = 0 too, so none is ever empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm
from operator import mul

from .errors import IndexOutOfRange, LengthMismatch, NotForwardSolvable, OrderTooLarge
from .rational import as_rational, coprime_fraction, over_common_denominator, reduced_fraction
from .sequences import LatticeSeq, TaylorCoeffs
from .series import extend_binomial_powers
from .star import monomial_star_kernel
from .transforms import (
    ScaledNewton,
    falling_factorial,
    inverse_transform,
    lattice_to_newton,
    taylor_newton,
)


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
    def is_constant(self) -> bool:
        """Whether no power of t occurs: the zero polynomial counts as constant."""
        return all(power == 0 for power, _ in self.monomials)

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of t^power; a zero is built only when the power is absent."""
        for p, coeff in self.monomials:
            if p == power:
                return coeff
        return Fraction(0)

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient(0)

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

    @property
    def order(self) -> int:
        return self.m


def _initial(eq: LinearOde | NonlinearOde, init, L: int, what: str) -> list[Fraction]:
    """The order-many initial values of a route solving eq up to index L >= order - 1, as rationals.

    ``what`` names them in a refusal: "values", "Taylor coefficients" or "coefficients".
    """
    values = [as_rational(v) for v in init]
    if len(values) != eq.order:
        raise LengthMismatch(f"need exactly {eq.order} initial {what}, got {len(values)}")
    if L < eq.order - 1:
        raise IndexOutOfRange(f"length L={L} shorter than the {eq.order} initial {what}")
    return values


def _check_index(eq: LinearOde | NonlinearOde, z: LatticeSeq, n: int) -> None:
    """Refuse the residual at n unless z stores z_0..z_{n+N}, all it reads, N the order of eq."""
    if n < 0 or n + eq.order > z.last_index:
        raise IndexOutOfRange(f"residual at n={n} needs index {n + eq.order}, stored 0..{z.last_index}")


def delta_power(z: LatticeSeq, l: int) -> LatticeSeq:
    """l-fold forward difference, (Delta^l z)_n = sum_k C(n,k) w_{k+l} with w the Newton coefficients of z."""
    if l < 0:
        raise ValueError("difference order must be nonnegative")
    if l > z.last_index:
        raise OrderTooLarge(f"difference order {l} exceeds stored range 0..{z.last_index}")
    D, Z = over_common_denominator(z.values)
    return LatticeSeq(tuple(ScaledNewton(D, 1, tuple(lattice_to_newton(Z)[l:])).lattice_values()))


@dataclass(frozen=True)
class _IntegerForm:
    """sum_l a_l(t) X_l + c_0(t) times E, the common denominator of its coefficients.

    ``terms`` holds (l, p, C) for each monomial C t^p of E a_l, ``c0`` holds
    (r, G) for each monomial G t^r of E c_0; every C and G is an integer.
    A linear equation has X_l = z^(l); the right-hand side of a nonlinear
    one has X_j = z^{*j} for j >= 1, with a_0 in the place of c_0.
    """

    E: int
    terms: tuple[tuple[int, int, int], ...]
    c0: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, coeffs, c0: PolyCoeff) -> "_IntegerForm":
        lhs = [(l, p, c) for l, a_l in enumerate(coeffs) for p, c in a_l.monomials]
        E, scaled = over_common_denominator([c for _, _, c in lhs] + [g for _, g in c0.monomials])
        terms = tuple((l, p, C) for (l, p, _), C in zip(lhs, scaled))
        return cls(E, terms, tuple((r, G) for (r, _), G in zip(c0.monomials, scaled[len(lhs) :])))


@dataclass(frozen=True)
class _LinearStencil:
    """E times the linear residual at n as integer weights on z, one row per power of t.

    A term C t^p z^(l) of `_IntegerForm` contributes C (n)_p (Delta^l z)_{n-p}
    = (n)_p sum_i C (-1)^(l-i) C(l,i) z_{n-p+i}, so ``rows`` holds
    (p, weights) with weights[i] the sum of C (-1)^(l-i) C(l,i) over the
    terms with that p. ``reach`` is the largest p: the residual at n reads
    only z_{n-reach}..z_{n+N}.
    """

    E: int
    reach: int
    rows: tuple[tuple[int, tuple[int, ...]], ...]
    c0: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, eq: LinearOde) -> "_LinearStencil":
        form = _IntegerForm.of(eq.coeffs, eq.c0)
        rows: dict[int, list[int]] = {}
        for l, p, c in form.terms:
            row = rows.setdefault(p, [])
            row.extend([0] * (l + 1 - len(row)))
            for i in range(l + 1):
                row[i] += (-1) ** (l - i) * comb(l, i) * c
        return cls(form.E, max(rows), tuple((p, tuple(w)) for p, w in sorted(rows.items())), form.c0)

    def scaled_residual(self, Z, start: int, n: int, D: int) -> int:
        """D E times the residual at n of z, where Z[k - start] = D z_k are integers.

        Each row's weights zip with a slice of Z, so a window Z cut short
        before z_{n+N} leaves that slot out of the sum.
        """
        acc = D * sum(g * perm(n, r) for r, g in self.c0)
        for p, weights in self.rows:
            if p <= n:
                i = n - p - start
                acc += perm(n, p) * sum(map(mul, weights, Z[i : i + len(weights)]))
        return acc


def lin_residual(eq: LinearOde, z: LatticeSeq, n: int) -> Fraction:
    """Left-hand side of the discrete linear equation at index n.

    Exactly zero when z is the lattice image of a power-series solution. The
    stencil reads only the entries n-p..n-p+l of each term;
    `lin_residual_kernel` is the whole-sequence cross-check.
    """
    _check_index(eq, z, n)
    stencil = _LinearStencil.of(eq)
    start = max(0, n - stencil.reach)
    D, Z = over_common_denominator(z.values[start : n + eq.order + 1])
    return reduced_fraction(stencil.scaled_residual(Z, start, n, D), D * stencil.E)


def lin_residual_kernel(eq: LinearOde, z: LatticeSeq, n: int) -> Fraction:
    """`lin_residual` by the paper's route: `delta_power` and `monomial_star_kernel` over the whole sequence."""
    _check_index(eq, z, n)
    acc = Fraction(0)
    for l, a_l in enumerate(eq.coeffs):
        if a_l.is_zero:
            continue
        dz = delta_power(z, l)
        for power, coeff in a_l.monomials:
            acc += coeff * monomial_star_kernel(power, dz)[n]
    return acc + eq.c0.image_at(n)


def lin_residuals(eq: LinearOde, z: LatticeSeq) -> list[Fraction]:
    """Residuals for every index with all needed entries stored, on Z = z * D with D the common denominator of z.

    One integer stencil sum per index, divided once by D E; a z too short
    for n = 0 is refused. The Taylor route of `taylor_residuals` never runs
    the stencil, so this is its independent cross-check.
    """
    _check_index(eq, z, 0)
    stencil = _LinearStencil.of(eq)
    D, Z = over_common_denominator(z.values)
    return [reduced_fraction(stencil.scaled_residual(Z, 0, n, D), D * stencil.E) for n in range(z.last_index - eq.order + 1)]


def _lin_residual_newton(eq: LinearOde, D: int, W, count: int) -> ScaledNewton:
    """The residuals at n = 0..count-1 as scaled Newton coefficients rho_k with c = E D.

    W are the integers k! D b_k of a series prefix b, at least count + N of
    them, N the order. The forward map F sends t^p g^(l) to
    (n)_p (Delta^l F g)_{n-p}, so the lattice residual of F b is F R, R the
    continuous residual of b, whose Newton coefficients are k! R_k. With the
    integer form (l, p, C), (r, G) over E,
    rho_k = E D k! R_k = D k! G_k + sum C (k)_p W_{k-p+l},
    `_newton_rhs` on the terms (W, l - p, p, C).
    """
    form = _IntegerForm.of(eq.coeffs, eq.c0)
    gamma = {r: D * g for r, g in form.c0}
    terms = [(W, l - p, p, C) for l, p, C in form.terms]
    rho, k_factorial = [], 1
    for k in range(count):
        rho.append(_newton_rhs(gamma, terms, k, k_factorial))
        k_factorial *= k + 1
    return ScaledNewton(form.E * D, 1, tuple(rho))


def _nonlin_residual_newton(eq: NonlinearOde, D: int, w, count: int) -> ScaledNewton:
    """The residuals at n = 0..count-1 as scaled Newton coefficients rho_k with c = D^N E.

    w are the integer Newton coefficients of D z, at least count of them,
    read as zero past their end; N is the degree and E the common
    denominator of the coefficients. The
    residuals have the Newton coefficients rho_k / (D^N E), where the bracket in
    rho_k = E D^(N-1) w_{k+m} - [D^N k! G_k + sum C_{j,p} D^(N-j) (k)_p (w^(*j))_{k-p}]
    is `solve_newton`'s right-hand side, on the terms (w^(*j), -p, p, C_{j,p} D^(N-j)).
    """
    form = _IntegerForm.of((PolyCoeff(()), *eq.coeffs[1:]), eq.coeffs[0])
    N = eq.degree
    scale = [D ** (N - j) for j in range(N + 1)]
    gamma = {r: scale[0] * g for r, g in form.c0}
    powers: list[list[int]] = [[] for _ in range(N - 1)]  # w^(*2) .. w^(*N)
    sources = (w, *powers)
    terms = [(sources[j - 1], -p, p, C * scale[j]) for j, p, C in form.terms]
    rho, k_factorial = [], 1
    for k in range(count):
        extend_binomial_powers(w, powers)
        ahead = w[k + eq.m] if k + eq.m < len(w) else 0
        rho.append(form.E * scale[1] * ahead - _newton_rhs(gamma, terms, k, k_factorial))
        k_factorial *= k + 1
    return ScaledNewton(scale[0] * form.E, 1, tuple(rho))


def nonlin_residual(eq: NonlinearOde, z: LatticeSeq, n: int) -> Fraction:
    """(Delta^m z)_n minus the star image of the right-hand side at n."""
    _check_index(eq, z, n)
    D, Z = over_common_denominator(z.values[: n + eq.m + 1])
    return _nonlin_residual_newton(eq, D, lattice_to_newton(Z), n + 1).lattice_values()[n]


def nonlin_residuals(eq: NonlinearOde, z: LatticeSeq) -> list[Fraction]:
    """Residuals for every index with all needed entries stored, from the Newton coefficients of z * D; never empty."""
    _check_index(eq, z, 0)
    D, Z = over_common_denominator(z.values)
    return _nonlin_residual_newton(eq, D, lattice_to_newton(Z), z.last_index - eq.m + 1).lattice_values()


def taylor_residuals(eq: LinearOde | NonlinearOde, b: TaylorCoeffs, length: int) -> list[Fraction]:
    """Residuals at n = 0..length of the lattice image of the series prefix b.

    The same rationals as `lin_residuals` or `nonlin_residuals` of
    `taylor_to_lattice(b, length + order)`, and like it this reads only
    b_0..b_{length+order}, but the lattice image of b is never formed: the
    integers W_k = k! D b_k of `transforms.taylor_newton`, zero past a
    polynomial prefix, are the Newton coefficients of D z, and both kinds
    of equation evaluate a Newton-space defect on them. Since the forward
    map is a functor, F(t^p g^(l))_n = (n)_p (Delta^l F g)_{n-p}, the
    residual table of F b is F R, R the continuous residual of b, so the
    linear defect is k! R_k, scaled to integers. The nonlinear one takes W
    as the w of the recurrence `solve_newton` solves. Only the defect goes
    through the Pascal rule, and that of a series solution is zero.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    needed = length + eq.order + 1
    newton = taylor_newton(b, needed - 1)
    linear = isinstance(eq, LinearOde)
    # The nonlinear defect reads W_{k+m} as zero past W, so m never sizes a list.
    W = list(newton.W) + [0] * (length + 1 + (eq.order if linear else 0) - len(newton.W))
    residual_newton = _lin_residual_newton if linear else _nonlin_residual_newton
    defect = residual_newton(eq, newton.c, W, length + 1)
    return defect.lattice_values()


def lin_step(eq: LinearOde, init, L: int) -> LatticeSeq:
    """Unique sequence with the given first N values and zero residual up to L-N.

    The recurrence isolates z_{n+N} with coefficient a_N(0), so that constant
    term must be nonzero: every other term reads at most z_{n+N-1}. The
    window z_{n-P}..z_{n+N-1} is carried as integers Z over one denominator
    D with gcd(D, Z) = 1. Index n forms X = D E (residual at n with
    z_{n+N} = 0) by the stencil on Z, which ends before the slot of
    z_{n+N}, and the entry x / q = -X / (D s) with s = E a_N(0), sign folded
    into x. By induction every D divides (c s)^k, c the common denominator
    of the initial values, so `_strip_common_factor` reduces x / q over the
    primes of c s alone, and the reduced pair is the stepped `Fraction`.
    The next window is Z s (less its first entry once it slides) and x over
    q; the factor g it cancelled is all a common factor of that window can
    hold, so gcd(g, Z s) makes it minimal again, and g = 1 needs no gcd.
    """
    N = eq.order
    if eq.coeffs[-1].constant_term == 0:
        raise NotForwardSolvable("a_N(0) = 0: the recurrence does not determine z_{n+N}")
    values = _initial(eq, init, L, "values")
    stencil = _LinearStencil.of(eq)
    s = stencil.rows[0][1][N]  # E a_N(0), the weight of the unknown z_{n+N} in the row of p = 0
    sign, s = (-1, s) if s > 0 else (1, -s)
    D, Z = over_common_denominator(values)
    base = _one_digit_power(D * s)
    for n in range(L - N + 1):
        x, q, g = _strip_common_factor(sign * stencil.scaled_residual(Z, n + N - len(Z), n, D), D * s, base)
        values.append(coprime_fraction(x, q))
        if n >= stencil.reach:
            del Z[0]  # the window slides: z_{n-P} leaves it
        Z = [z * s for z in Z]
        if g > 1:
            common = gcd(g, *Z)
            if common > 1:
                Z = [z // common for z in Z]
            g //= common
        Z.append(x * g)
        D = q * g
    return LatticeSeq(tuple(values))


def _one_digit_power(m: int) -> int:
    """The largest power of m below 2^30, one CPython digit, or m itself when m is 1 or past that."""
    power = m
    while 1 < m and power * m < 1 << 30:
        power *= m
    return power


def _strip_common_factor(x: int, q: int, base: int) -> tuple[int, int, int]:
    """(x / g, q / g, g) with g = gcd(x, q), for q > 0 whose primes all divide base.

    Each round divides out h = gcd(x, q, B), B a power of base, from the
    residues of x and q mod B: one pass over each when B is one digit,
    where gcd(x, q) runs a Lehmer gcd on both (Knuth, TAOCP Vol. 2,
    4.5.2). h = 1 leaves no prime of base in both, so none of q. A round
    that strips all of B squares it, so heavy cancellation takes
    logarithmically many rounds.
    """
    g, B = 1, base
    while (h := gcd(x % B, q % B, B)) != 1:
        x, q, g = x // h, q // h, g * h
        if h == B:
            B *= B
    return x, q, g


def nonlin_step(eq: NonlinearOde, init, L: int) -> LatticeSeq:
    """Forward-solve the nonlinear recurrence from z_0..z_{m-1}.

    The first m transform coefficients come from the initial values through
    their Newton coefficients; `solve_newton` extends them to zeta_0..zeta_L
    and maps them back to z_0..z_L.
    """
    zeta = inverse_transform(LatticeSeq(_initial(eq, init, L, "values"))).coeffs
    return LatticeSeq(tuple(solve_newton(eq, zeta, L).lattice_values()))


def local_stencil(eq: LinearOde) -> tuple[Fraction, ...] | None:
    """Coefficients of z_{n+N}..z_n when every a_l is constant, else None.

    For constant coefficients the discrete equation collapses to the local
    recurrence sum_l a_l Delta^l z_n = 0, the one row of `_LinearStencil`
    over E; the returned tuple is descending in the shift.
    """
    if not all(a.is_constant for a in eq.coeffs):
        return None
    stencil = _LinearStencil.of(eq)
    ((_, weights),) = stencil.rows  # weights[j] multiplies z_{n+j}
    return tuple(reduced_fraction(w, stencil.E) for w in reversed(weights))


def taylor_solution_linear(eq: LinearOde, init, L: int) -> TaylorCoeffs:
    """Power-series solution b_0..b_L of the continuous equation from N initial Taylor coefficients.

    Requires a_N(0) != 0 (ordinary point at the origin). Coefficient s of
    the equation times s! is the Newton-space defect of `taylor_residuals`,
    E s! R_s = s! G_s + sum C (s)_p w_{s-p+l} over the integer form
    (l, p, C), (r, G) of `_IntegerForm`, with w_k = k! b_k; the term
    (N, 0, C) carries the unknown w_{s+N}, so setting the defect to zero
    solves for it. With S = |E a_N(0)| and c the common denominator of the
    initial values, the scaled W_k = c S^k k! b_k obey

        W_{s+N} = -sign(E a_N(0)) [c S^(s+N-1) s! G_s + sum C S^(N-1+p-l) (s)_p W_{s-p+l}],

    every exponent nonnegative (p >= 1 where l = N), so every W_k is an
    integer and `ScaledNewton(c, S, W)` reads each b_k out once. The bracket
    is `_newton_rhs` on the terms (W, l - p, p, C S^(N-1+p-l)), appended to
    W itself. A power above L - N never reaches W_L, so it sizes no weight.
    """
    N = eq.order
    if eq.coeffs[-1].constant_term == 0:
        raise NotForwardSolvable("a_N(0) = 0: origin is a singular point of the equation")
    b = _initial(eq, init, L, "Taylor coefficients")
    form = _IntegerForm.of(eq.coeffs, eq.c0)
    lead = next(C for l, p, C in form.terms if (l, p) == (N, 0))
    sign, S = (-1, lead) if lead > 0 else (1, -lead)
    c, B = over_common_denominator(b)
    W = [x * factorial(k) * S**k for k, x in enumerate(B)]
    gamma = {r: c * G * S ** (r + N - 1) for r, G in form.c0 if r <= L - N}
    terms = [(W, l - p, p, C * S ** (N - 1 + p - l)) for l, p, C in form.terms if (l, p) != (N, 0) and p <= L - N]
    s_factorial = 1
    for s in range(L - N + 1):
        W.append(sign * _newton_rhs(gamma, terms, s, s_factorial))
        s_factorial *= s + 1
    return TaylorCoeffs(tuple(ScaledNewton(c, S, tuple(W)).taylor_coeffs()))


def taylor_solution_nonlinear(eq: NonlinearOde, init, L: int) -> TaylorCoeffs:
    """Power-series solution of z^(m) = sum_j a_j(t) z^j from m initial coefficients."""
    return TaylorCoeffs(tuple(solve_newton(eq, _initial(eq, init, L, "Taylor coefficients"), L).taylor_coeffs()))


def solve_newton(eq: NonlinearOde, zeta_init, L: int) -> ScaledNewton:
    """Solve eq, z^(m) = sum_{j=0}^N a_j(t) z^j, for zeta_0..zeta_L on integers.

    ``zeta_init`` holds the m coefficients zeta_0..zeta_{m-1}, checked by
    `_initial`; `nonlin_step`, `taylor_solution_nonlinear` and
    `fourier.fourier_step` all solve here.
    Multiplying coefficient k of the equation by k! turns the Cauchy powers
    of zeta into binomial powers of w_k = k! zeta_k:

        w_{k+m} = k! gamma_k + sum_{j>=1, p} a_{j,p} (k)_p (w^(*j))_{k-p},

    with gamma_r the monomials of a_0, a_{j,p} those of a_j and
    (u * v)_k = sum_i C(k,i) u_i v_{k-i}. Let c be the common denominator of
    zeta_0..zeta_{m-1}, and E that of every c gamma_r and every
    a_{j,p} / c^(j-1). Since (W^(*j))_s = c^j E^s (w^(*j))_s, the scaled
    W_k = c E^k w_k obey

        W_{k+m} = k! c E^(k+m) gamma_k + sum A_{j,p} (k)_p (W^(*j))_{k-p},
        A_{j,p} = a_{j,p} c^(1-j) E^(m+p).

    Every W_k is an integer, by induction on k. For k < m,
    W_k = k! E^k (c zeta_k) and c clears zeta_k. For the step, each weight
    is an integer: m + r >= 1 and m + p >= 1 leave at least one factor E,
    and E times c gamma_r or a_{j,p} / c^(j-1) is an integer by the choice
    of E; (k)_p and k! are integers, and binomial powers of the integers
    W_0..W_{k+m-1} are integers because C(k,i) is. So the loop runs on
    integers alone and divides nowhere.
    """
    m, coeffs = eq.m, eq.coeffs
    c, Z = over_common_denominator(_initial(eq, zeta_init, L, "coefficients"))
    # A power r > L - m first enters W_{r+m}, past W_L, so it never sizes E or E^(m+r-1).
    a0 = [(r, c * g) for r, g in coeffs[0].monomials if r <= L - m]
    rest = [(j, p, a / c ** (j - 1)) for j, a_j in enumerate(coeffs[1:], 1) for p, a in a_j.monomials if p <= L - m]
    E = lcm(*(x.denominator for _, x in a0), *(x.denominator for _, _, x in rest))
    W = [x * factorial(k) * E**k for k, x in enumerate(Z)]
    powers: list[list[int]] = [[] for _ in range(len(coeffs) - 2)]  # W^(*2) .. W^(*N)
    sources = (W, *powers)
    # E x is an integer for each x above, and every exponent m + r - 1, m + p - 1 is >= 0.
    gamma = {r: (x * E).numerator * E ** (m + r - 1) for r, x in a0}
    terms = [(sources[j - 1], -p, p, (x * E).numerator * E ** (m + p - 1)) for j, p, x in rest]
    k_factorial = 1
    for k in range(L - m + 1):
        extend_binomial_powers(W, powers)
        W.append(_newton_rhs(gamma, terms, k, k_factorial))
        k_factorial *= k + 1
    return ScaledNewton(c, E, tuple(W))


def _newton_rhs(gamma: dict, terms, k: int, k_factorial: int) -> int:
    """k! gamma_k + sum A (k)_p X[k + shift] over the terms (X, shift, p, A) with p <= k.

    The one term loop of the module's Newton-space recurrences: the solvers
    append it, the nonlinear defect subtracts it, and it is the linear defect
    itself. Each X is read, not copied, so a power list may grow between calls.
    """
    acc = k_factorial * gamma.get(k, 0)
    for X, shift, p, A in terms:
        if p <= k:
            acc += A * perm(k, p) * X[k + shift]
    return acc
