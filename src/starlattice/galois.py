"""Fundamental systems for constant-coefficient equations on both sides.

For a monic operator T with rational constants, the solution t^j e^(lt) of
the differential form maps to the lattice generator z_n = (n)_j (1+l)^(n-j),
which satisfies the difference form T[Delta] z = 0 with the same
coefficients. Roots are kept exact whenever possible (closed forms up to
degree 2; above, each real Aberth-Ehrlich approximation names one candidate
rational root, tested exactly); what is left of degree >= 3 gets float
roots, found in pure Python by Aberth-Ehrlich sweeps started from the
Newton polygon and each proved, on integers, to be the centre of a Smith
inclusion disc that holds exactly one root (`char_roots`).

Generators of exact roots come from an integer recurrence: with 1+l =
(u + w sqrt(d)) / T for integers u, w and w d (w = 0 for a rational root),
(1+l)^n = (x_n + y_n sqrt(d)) / T^n, and x_n, y_n follow a Lucas-type
recurrence on plain ints, so no index costs a field product
(`map_solution`). `verify_fundamental` checks every index with one
(N+1)-term dot product against the local stencil of T[Delta]
(`odes.local_stencil`), on integer numerators for exact columns;
`apply_operator`, the literal Delta^N z_n + sum a_i Delta^i z_n, stays as the
definitional per-index oracle that the tests compare it with.

The modified Wronskian is the determinant of iterated forward differences
of the solution set; a nonzero value certifies a fundamental system.
`verify_fundamental` takes it from the roots (a confluent Vandermonde
determinant), `modified_wronskian` from the columns of explicit sequences.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, floor, frexp, gcd, inf, isqrt, lcm, ldexp, log2, perm, pi, prod
from operator import mul

from .errors import FloatOverflow, IndexOutOfRange, RootCertificationError, SingularSystem
from .odes import LinearOde, PolyCoeff, local_stencil
from .rational import as_rational, coprime_fraction, format_rational, over_common_denominator, reduced_fraction
from .series import poly_deflate, poly_derivative, poly_divmod, poly_eval, poly_gcd, poly_trim
from .transforms import lattice_to_newton

# Aberth-Ehrlich converges cubically once near the roots: from the Newton
# polygon start every root settles within 4-9 sweeps on the perfbench const
# factors of seeds 1-10, and within 8-12 on random degree-64 polynomials.
# Approximations that never settle, as for two roots closer together than the
# doubles near them, stop after this many, and the certificate refuses them.
_ABERTH_SWEEPS = 100
_START_ANGLE = 0.4  # keeps the starting circle off the real axis, where a real polynomial's iteration would stay
_EPSILON = 2.0**-52
# Smith radii squared are rounded up to multiples of 2^-64 grid units, so the
# pair tests run on numbers of about the grid's size.
_RADIUS_BITS = 64
# Relative: a float column fails at n when |T[Delta] z_n| exceeds this times
# sum_k |s_k| |z_{n+k}| over the local stencil s, the running error bound of
# that dot product (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., 2002, section 3.1). The columns grow like |1+l|^n, so an
# absolute bound would fail correct columns once n is large enough.
FLOAT_SOLUTION_RESIDUAL_BOUND = 1e-9
_FLOAT_ZERO = 1e-12


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*sqrt(d) of a quadratic extension of the rationals."""

    a: Fraction
    b: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))
        object.__setattr__(self, "d", as_rational(self.d))

    def __add__(self, other):
        o = _lift(other, self.d)
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-_lift(other, self.d))

    def __rsub__(self, other):
        return _lift(other, self.d) - self

    def __mul__(self, other):
        o = _lift(other, self.d)
        return QuadExt(self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _lift(other, self.d)
        norm = o.a * o.a - o.b * o.b * o.d
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic extension")
        conj = QuadExt(o.a / norm, -o.b / norm, self.d)
        return self * conj

    def __rtruediv__(self, other):
        return _lift(other, self.d) / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return 1 / (self**-exponent)
        result = QuadExt(Fraction(1), Fraction(0), self.d)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __complex__(self) -> complex:
        return complex(self.a) + complex(self.b) * cmath.sqrt(complex(self.d))

    def __str__(self) -> str:
        if self.b == 0:
            return format_rational(self.a)
        sign = "-" if self.b < 0 else "+"
        return (
            f"{format_rational(self.a)}{sign}"
            f"{format_rational(abs(self.b))}*sqrt({format_rational(self.d)})"
        )


def _lift(value, d: Fraction) -> QuadExt:
    if isinstance(value, QuadExt):
        if value.d != d and value.b != 0:
            raise ValueError(f"mixed extensions sqrt({value.d}) and sqrt({d})")
        return QuadExt(value.a, value.b, d)
    return QuadExt(as_rational(value), Fraction(0), d)


Scalar = Fraction | QuadExt | complex


@dataclass(frozen=True)
class ConstLinearEq:
    """Monic operator of order N with constant coefficients a_0..a_{N-1}."""

    a: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(as_rational(v) for v in self.a))
        if not self.a:
            raise ValueError("order must be at least 1")

    @property
    def order(self) -> int:
        return len(self.a)

    def char_poly(self) -> list[Fraction]:
        return [*self.a, Fraction(1)]

    def as_linear_ode(self) -> LinearOde:
        """The operator as a `LinearOde` with constant coefficients a_0..a_{N-1}, 1."""
        return LinearOde(tuple(PolyCoeff.constant(c) for c in self.char_poly()))


@dataclass(frozen=True)
class RootDatum:
    value: Scalar
    multiplicity: int
    exact: bool


@dataclass(frozen=True)
class FundamentalSystem:
    """Materialized solution set; one column per generator."""

    solutions: tuple[tuple[Scalar, ...], ...]
    generators: tuple[tuple[Scalar, int], ...] = ()  # (root, power j) when known

    def __post_init__(self) -> None:
        lengths = {len(s) for s in self.solutions}
        if len(lengths) != 1:
            raise ValueError("all solutions must share one length")

    @property
    def size(self) -> int:
        return len(self.solutions)

    @property
    def length(self) -> int:
        return len(self.solutions[0])


def _squarefree_factors(poly: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun decomposition: pairs (squarefree factor, multiplicity).

    For a = prod f_i^i over the rationals, g = gcd(a, a') = prod f_i^(i-1) and
    w = a/g = prod f_i; pass i splits off f_i and divides g by prod_{j>i} f_j,
    so g reaches 1 together with w and nothing is left after the loop.
    """
    out = []
    a = poly_trim(poly)
    g = poly_gcd(a, poly_derivative(a))
    if len(g) <= 1:
        return [(a, 1)]
    w, _ = poly_divmod(a, g)
    mult = 1
    while len(w) > 1:
        y = poly_gcd(w, g)
        factor, _ = poly_divmod(w, y)
        if len(factor) > 1:
            out.append((factor, mult))
        w = y
        g, _ = poly_divmod(g, y)
        mult += 1
    return out


def _exact_ratio(ints: list[int], w: complex, e: int) -> tuple[complex, bool]:
    """p(z)/p'(z) / 2^e at z = w 2^e for integer p, exact and rounded once, and whether it is below one ulp of w."""
    s, ((x, y),) = _dyadic_grid([w], e)
    re, im, dre, dim = _scaled_horner(ints, s, x, y)
    den = (dre * dre + dim * dim) << (s + e)  # |2^(s (n-1)) p'(z)|^2 2^(s+e), and s + e >= 0
    try:
        ratio = complex((re * dre + im * dim) / den, (im * dre - re * dim) / den)
    except (ZeroDivisionError, OverflowError):  # p'(z) = 0, or p/p' beyond the double range
        raise RootCertificationError(f"no Newton step from the float root approximation {w} * 2^{e}") from None
    return ratio, abs(ratio) <= _EPSILON * abs(w)


def _normalised(w: complex, e: int) -> tuple[complex, int]:
    """(w 2^-k, e + k), which stands for the same w 2^e, with the larger part of w 2^-k in [1/2, 1)."""
    k = frexp(max(abs(w.real), abs(w.imag)))[1]
    return complex(ldexp(w.real, -k), ldexp(w.imag, -k)), e + k


def _rescaled(w: complex, shift: int) -> complex:
    """w 2^shift for normalised w; a shift past 1023 stops there, so w only stands for something far larger."""
    return w * ldexp(1.0, min(shift, 1023))


def _newton_polygon_start(ints: list[int]) -> list[tuple[complex, int]]:
    """Starting approximations (w, e), each w 2^e, on circles read off the Newton polygon of p.

    D. A. Bini, Numer. Algorithms 13 (1996): every edge from i to j of the
    upper convex hull of the points (k, log2 |a_k|) stands for j - i roots
    of modulus about (|a_i| / |a_j|)^(1/(j-i)). They start evenly spread on
    that circle, turned by 2 pi i / n and by _START_ANGLE. The logarithms of
    the integers are taken without converting them to doubles, so no
    coefficient is too large and roots of very different sizes each start
    near their own circle.
    """
    n = len(ints) - 1
    hull: list[tuple[int, float]] = []
    for k, c in enumerate(ints):
        if not c:
            continue
        y = log2(abs(c))
        while len(hull) > 1 and (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0]) <= (y - hull[-2][1]) * (
            hull[-1][0] - hull[-2][0]
        ):
            hull.pop()  # on or below the chord from hull[-2] to (k, y)
        hull.append((k, y))
    start = []
    for (i, log_i), (j, log_j) in zip(hull, hull[1:]):
        log_radius = (log_i - log_j) / (j - i)
        e = floor(log_radius)
        for k in range(j - i):
            w = cmath.rect(2 ** (log_radius - e), 2 * pi * k / (j - i) + 2 * pi * i / n + _START_ANGLE)
            start.append(_normalised(w, e))
    return start


def _aberth(ints: list[int]) -> list[tuple[complex, int]]:
    """Approximate roots of a square-free integer polynomial by Aberth-Ehrlich sweeps.

    O. Aberth, Math. Comp. 27 (1973). Each approximation is a pair (w, e)
    standing for w 2^e, with w a complex double, so roots beyond the double
    range are approximated too. Each Newton ratio p/p' is evaluated
    exactly, so no power of z overflows and roots closer together than the
    rounding error of a double evaluation are still pulled apart. The update
    of approximation i runs in units of 2^e_i; scaling by a power of two is
    exact, so wherever z stays in the double range it is the update of the
    doubles z themselves. The start is Bini's (`_newton_polygon_start`).
    Gauss-Seidel sweeps move each approximation until its correction is
    below one ulp. The result is only a guess: `_grid_root` and
    `_smith_certificate` decide.
    """
    z = _newton_polygon_start(ints)
    settled = [False] * len(z)
    for _ in range(_ABERTH_SWEEPS):
        for i, (wi, ei) in enumerate(z):
            if settled[i]:
                continue
            try:
                ratio, settled[i] = _exact_ratio(ints, wi, ei)
                repulsion = sum(1 / (wi - _rescaled(wj, ej - ei)) for j, (wj, ej) in enumerate(z) if j != i)
                z[i] = _normalised(wi - ratio / (1 - ratio * repulsion), ei)
            except (ZeroDivisionError, OverflowError):
                raise RootCertificationError(f"Aberth iteration broke down at {wi} * 2^{ei}") from None
        if all(settled):
            break
    return z


def _conjugate_centres(approx: list[tuple[complex, int]]) -> list[tuple[complex, int]]:
    """The approximations made symmetric under conjugation, as the roots of a real factor are.

    Each approximation is matched with the one nearest its conjugate. One
    that is its own match becomes real (imaginary part 0.0); a matched pair
    becomes an exact conjugate pair. Anything else is refused.
    """
    mates = [
        min(range(len(approx)), key=lambda j: abs(_rescaled(approx[j][0], approx[j][1] - e) - w.conjugate()))
        for w, e in approx
    ]
    centres = []
    for i, j in enumerate(mates):
        (a, e), (b, f) = approx[i], approx[j]
        if mates[j] != i:
            raise RootCertificationError(f"float root {a} * 2^{e} has no conjugate partner")
        if i == j:
            centres.append((complex(a.real, 0.0), e))
        elif i < j:
            b = _rescaled(b, f - e)
            upper = complex((a.real + b.real) / 2, (abs(a.imag) + abs(b.imag)) / 2)
            centres += [(upper, e), (upper.conjugate(), e)]
    return centres


def _dyadic_grid(centres: list[complex], e: int = 0) -> tuple[int, list[tuple[int, int]]]:
    """(s, [(X, Y), ...]) with s, s + e >= 0 and every centre times 2^e exactly (X + iY) / 2^s: doubles are dyadic."""
    if not all(cmath.isfinite(c) for c in centres):
        raise RootCertificationError("the float root iteration left the double range")
    ratios = [x.as_integer_ratio() for c in centres for x in (c.real, c.imag)]
    s = max(max(den.bit_length() - 1 for _, den in ratios) - e, 0)
    grid = [num << (s + e - den.bit_length() + 1) for num, den in ratios]
    return s, list(zip(grid[::2], grid[1::2]))


def _scaled_horner(ints: list[int], s: int, x: int, y: int) -> tuple[int, int, int, int]:
    """2^(s n) P and 2^(s (n-1)) P' at (x + iy) / 2^s for integer P of degree n, as Gaussian integers."""
    n = len(ints) - 1
    re, im, dre, dim = ints[n], 0, 0, 0
    for k in range(n - 1, -1, -1):
        dre, dim = dre * x - dim * y + re, dre * y + dim * x + im
        re, im = re * x - im * y + (ints[k] << (s * (n - k))), re * y + im * x
    return re, im, dre, dim


def _smith_certificate(ints: list[int], centres: list[complex]) -> None:
    """Prove that each centre lies in a disc holding exactly one root of p.

    p is sum ints[k] x^k made monic. B. T. Smith, J. ACM 17 (1970): for
    monic p of degree n and distinct z_1..z_n, the discs |x - z_i| <= r_i =
    n |p(z_i)| / prod_(j != i) |z_i - z_j| cover every root, and a disc
    disjoint from all others holds exactly one. Everything runs on
    integers: the centres, as Gaussian integers on one dyadic grid, and p,
    evaluated there exactly. r_i^2 is rounded up to a multiple of
    2^-_RADIUS_BITS grid units, so the test of each pair,
    d^2 - r_i^2 - r_j^2 > 0 and its square > 4 r_i^2 r_j^2, needs no square
    root. A real factor's disc centred on the axis that holds one root holds
    a real root, since the conjugate of that root lies in the same disc.
    Raises ``RootCertificationError`` unless the discs are pairwise
    disjoint.
    """
    n = len(centres)
    s, points = _dyadic_grid(centres)
    values = [_scaled_horner(ints, s, x, y)[:2] for x, y in points]
    squared = [[(xi - xj) ** 2 + (yi - yj) ** 2 for xj, yj in points] for xi, yi in points]
    bounds = []  # r_i^2 in grid units is at most bounds[i] / 2^_RADIUS_BITS
    for i, (re, im) in enumerate(values):
        den = ints[n] ** 2
        for j, d in enumerate(squared[i]):
            if j != i:
                den *= d
        if den == 0:
            raise RootCertificationError(f"float root {centres[i]} is repeated")
        bounds.append(-(-((n * n * (re * re + im * im)) << _RADIUS_BITS) // den))
    for i in range(n):
        for j in range(i):
            gap = (squared[i][j] << _RADIUS_BITS) - bounds[i] - bounds[j]
            if gap <= 0 or gap * gap <= 4 * bounds[i] * bounds[j]:
                raise RootCertificationError(
                    f"float roots {centres[j]} and {centres[i]} have overlapping Smith discs"
                )


def _grid_root(poly: list[Fraction], ints: list[int], x: Fraction) -> Fraction | None:
    """The rational root of poly (ints over a common denominator) that the real approximation x names, if any.

    Every rational root is a grid point k/a, a the leading integer, so x
    names one candidate, the k/a nearest it, and an exact evaluation decides.
    x, a double times a power of two that an exact Newton step left, is
    within |r| 2^-53 of a simple root r, below half the grid spacing while
    a|x| < 2^50. Beyond that, each exact Newton step doubles the bits of x
    that are right, until they cover a|x|; the iterates are rounded to the
    grid 2^-u, spacing < 1/(4a).
    """
    a = abs(ints[-1])
    u = a.bit_length() + 2
    X = round(x * (1 << u))  # x on the grid 2^-u
    bits = ((abs(X) * a) >> u).bit_length()  # a|x| < 2^bits
    correct = 50
    while correct < bits:
        P, _, dP, _ = _scaled_horner(ints, u, X, 0)  # 2^(u n) p and 2^(u (n-1)) p' at X / 2^u
        if not dP:
            return None
        X -= round(Fraction(P, dP))
        correct *= 2
    root = Fraction(round(Fraction(X * a, 1 << u)), a)
    return root if poly_eval(poly, root) == 0 else None


def _as_double(w: complex, e: int) -> complex:
    try:
        return complex(ldexp(w.real, e), ldexp(w.imag, e))
    except OverflowError:
        raise RootCertificationError(f"float root {w} * 2^{e} leaves the double range") from None


def _factor_roots(poly: list[Fraction]) -> list[Scalar]:
    """Roots of a square-free rational polynomial; see `char_roots`."""
    roots: list[Scalar] = []
    if poly[0] == 0:
        roots.append(Fraction(0))
        poly = poly[1:]
    while len(poly) > 3:
        _, ints = over_common_denominator(poly)
        # One more Newton step with p/p' evaluated exactly makes each coordinate
        # (all but always) the double nearest its root; it commutes with
        # conjugation, so pairs stay exact conjugates and real centres real.
        centres = [_normalised(w - _exact_ratio(ints, w, e)[0], e) for w, e in _conjugate_centres(_aberth(ints))]
        found: list[Fraction] = []
        for w, e in centres:
            if not w.imag:
                root = _grid_root(poly, ints, Fraction(w.real) * Fraction(2) ** e)
                if root is not None and root not in found:
                    found.append(root)
        if not found:
            floats = [_as_double(w, e) for w, e in centres]
            _smith_certificate(ints, floats)
            return roots + floats
        for root in found:
            roots.append(root)
            poly = poly_deflate(poly, root)
    if len(poly) == 2:
        roots.append(-poly[0] / poly[1])
    elif len(poly) == 3:
        c0, c1, c2 = poly
        beta, gamma = c1 / c2, c0 / c2
        disc = beta * beta - 4 * gamma
        sqrt_num, sqrt_den = isqrt(max(disc.numerator, 0)), isqrt(disc.denominator)
        if sqrt_num**2 == disc.numerator and sqrt_den**2 == disc.denominator:
            roots += [(-beta + sign * Fraction(sqrt_num, sqrt_den)) / 2 for sign in (1, -1)]
        else:
            roots += [QuadExt(-beta / 2, sign, disc) for sign in (Fraction(1, 2), Fraction(-1, 2))]
    return roots


def char_roots(eq: ConstLinearEq) -> list[RootDatum]:
    """Exact roots where possible, certified float roots otherwise.

    Per square-free factor, x = 0 is split off. Degree 1 gives -c0/c1;
    degree 2 two rationals if the discriminant d is a rational square, else
    the surd pair (-beta +- sqrt(d)) / 2. Above, the factor loses the
    rational roots its real Aberth-Ehrlich approximations name (`_grid_root`)
    and is approximated again until none is left; then each approximation,
    paired into exact conjugates and real values and rounded to a double,
    is proved to be the centre of a Smith disc holding exactly one root
    (`_smith_certificate`), or ``RootCertificationError`` is raised, as it
    is for a float root beyond the double range. A rational root is only
    kept after an exact evaluation, so one that the approximations miss
    ends up as a certified float root or as that error, never as a wrong
    exact root.
    """
    out = [
        RootDatum(value, mult, exact=not isinstance(value, complex))
        for factor, mult in _squarefree_factors(eq.char_poly())
        for value in _factor_roots(factor)
    ]
    out.sort(key=_root_sort_key)
    return out


def _root_sort_key(r: RootDatum):
    """Rationals, then surds, then float roots, each by real and then imaginary part.

    Exact roots compare without a conversion to doubles, which a root or a
    discriminant beyond the double range would not survive: sqrt|d| is
    taken to a relative 2^-64.
    """
    v = r.value
    if isinstance(v, Fraction):
        return (0, v, 0)
    if isinstance(v, QuadExt):
        num, den = abs(v.d.numerator), v.d.denominator
        root = Fraction(isqrt((num * den) << 128), den << 64)
        return (1, v.a + v.b * root, 0) if v.d > 0 else (1, v.a, v.b * root)
    return (2, v.real, v.imag)


def map_solution(root: RootDatum, j: int, L: int) -> tuple[Scalar, ...]:
    """Lattice generator (n)_j (1+root)^(n-j) for n = 0..L; zero (0j for a float root) below n = j.

    An exact root a + b sqrt(d) (b = 0 for a rational one) gives 1+root =
    (u + w sqrt(d)) / T, with T the least common denominator of 1+a, b and
    b d, so u, w and w d are integers. Then (1+root)^k = (x_k + y_k sqrt(d)) / T^k
    with x_{k+1} = u x_k + (w d) y_k and y_{k+1} = w x_k + u y_k, a
    Lucas-type recurrence on plain integers (D. H. Lehmer, Ann. of Math. 31,
    1930): entry n is (n)_j (x_{n-j} + y_{n-j} sqrt(d)) / T^(n-j), one
    `Fraction` per part and no field product. For a rational root u/T is in
    lowest terms, so x_k = u^k is prime to T^k and only (n)_j can share a
    factor with T^k: entry n is reduced by g = gcd((n)_j, T^k), a gcd
    against a small number (u = 0 only with T = 1). The parts of a surd
    entry each take a `reduced_fraction`. Float roots take each power
    from complex `pow`; an entry that leaves the double range raises
    ``FloatOverflow``, naming the root and the index.
    """
    if not 0 <= j < root.multiplicity:
        raise ValueError(f"power j={j} must lie below the multiplicity {root.multiplicity}")
    one_plus = 1 + root.value
    values: list[Scalar] = [0j if isinstance(one_plus, complex) else Fraction(0)] * min(j, L + 1)
    if isinstance(one_plus, complex):
        for n in range(j, L + 1):
            try:
                value = perm(n, j) * one_plus ** (n - j)
            except OverflowError:
                value = complex(inf)
            if not cmath.isfinite(value):
                raise FloatOverflow(f"float root {root.value}: column j={j} leaves the double range at n={n}")
            values.append(value)
        return tuple(values)
    surd = isinstance(one_plus, QuadExt)
    a, b, d = (one_plus.a, one_plus.b, one_plus.d) if surd else (one_plus, Fraction(0), Fraction(0))
    T = lcm(a.denominator, b.denominator, (b * d).denominator)
    u, w, wd = (a * T).numerator, (b * T).numerator, (b * d * T).numerator
    x, y, scale = 1, 0, 1
    for n in range(j, L + 1):
        c = perm(n, j)
        if surd:
            values.append(QuadExt(reduced_fraction(c * x, scale), reduced_fraction(c * y, scale), d))
        else:
            g = gcd(c, scale)
            values.append(coprime_fraction(c // g * x, scale // g))
        x, y, scale = u * x + wd * y, w * x + u * y, scale * T
    return tuple(values)


def _map_roots(roots: list[RootDatum], L: int) -> FundamentalSystem:
    pairs = [(root, j) for root in roots for j in range(root.multiplicity)]
    return FundamentalSystem(
        tuple(map_solution(root, j, L) for root, j in pairs),
        tuple((root.value, j) for root, j in pairs),
    )


def build_fundamental_system(eq: ConstLinearEq, L: int) -> FundamentalSystem:
    return _map_roots(char_roots(eq), L)


def system_from_sequences(seqs) -> FundamentalSystem:
    """Wrap explicit solution sequences (e.g. images of real Taylor series)."""
    return FundamentalSystem(tuple(tuple(as_rational(v) for v in s) for s in seqs))


def apply_operator(eq: ConstLinearEq, values, n: int):
    """T[Delta] z at index n: Delta^N z_n + sum a_i Delta^i z_n."""
    N = eq.order
    if n + N > len(values) - 1:
        raise IndexOutOfRange(f"operator at n={n} needs index {n + N}")
    w = lattice_to_newton(values[n : n + N + 1])
    acc = w[N]
    for i, a_i in enumerate(eq.a):
        if a_i:
            acc = acc + a_i * w[i]
    return acc


def _is_zero_scalar(x) -> bool:
    if isinstance(x, Fraction):
        return x == 0
    if isinstance(x, QuadExt):
        return x.is_zero
    return abs(x) < _FLOAT_ZERO


def _det(rows: list[list]) -> Scalar:
    """Gaussian elimination with exact division; entries may be any one field."""
    n = len(rows)
    mat = [list(r) for r in rows]
    det: Scalar = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if not _is_zero_scalar(mat[r][col])), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = det * Fraction(-1)
        det = det * mat[col][col]
        pivot_row = mat[col]
        for r in range(col + 1, n):
            if _is_zero_scalar(mat[r][col]):
                continue
            factor = mat[r][col] / pivot_row[col]
            mat[r] = [mat[r][c] - factor * pivot_row[c] for c in range(n)]
    return det


def _common_field(values: list) -> list:
    """Lift to a common field: rationals, one quadratic extension, or complex.

    An exact value beyond the double range has no complex lift and raises
    FloatOverflow.
    """
    ds = {v.d for v in values if isinstance(v, QuadExt)}
    if len(ds) > 1 or any(isinstance(v, complex) for v in values):
        try:
            return [complex(v) for v in values]
        except OverflowError:
            raise FloatOverflow("an exact value leaves the double range when converted to complex") from None
    if ds:
        d = ds.pop()
        return [_lift(v, d) for v in values]
    return values


def modified_wronskian(sys: FundamentalSystem) -> Scalar:
    """Determinant of [Delta^i z^(j)] at index 0, from the columns themselves; zero raises SingularSystem."""
    N = sys.size
    if sys.length < N:
        raise IndexOutOfRange(f"need indices up to {N - 1}, solutions stored to {sys.length - 1}")
    newton = _common_field([w for sol in sys.solutions for w in lattice_to_newton(sol[:N])])
    det = _det([newton[i::N] for i in range(N)])  # row i holds Delta^i z_0 of every column
    if _is_zero_scalar(det):
        raise SingularSystem("modified Wronskian vanishes at n=0")
    return det


def _root_wronskian(roots: list[RootDatum]) -> Scalar:
    """The modified Wronskian of the mapped system at 0, from its roots alone.

    Delta^i of the generator (n)_j (1+l)^(n-j) at n = 0 is (i)_j l^(i-j), so
    the matrix is the confluent Vandermonde matrix of the roots in generator
    order: prod_l prod_(j < m_l) j! * prod_(a < b) (l_b - l_a)^(m_a m_b).
    Exact when every root lies in one field (the rationals, or Q(sqrt d) for
    one d), complex otherwise; nothing is differenced, so nothing cancels.
    The roots are distinct, so a complex factor or product of 0 is lost to
    the doubles and raises FloatOverflow, as an overflow does.
    """
    values = _common_field([r.value for r in roots])
    w = values[0] ** 0 * prod(factorial(j) for r in roots for j in range(r.multiplicity))  # in the roots' field
    for b, rb in enumerate(roots):
        for a, ra in enumerate(roots[:b]):
            difference = values[b] - values[a]
            if isinstance(difference, complex) and not difference:
                raise FloatOverflow(f"roots {ra.value} and {rb.value} are equal as doubles, so the complex Wronskian is lost")
            w = w * prod([difference] * (ra.multiplicity * rb.multiplicity))  # complex pow raises OverflowError
    if isinstance(w, complex) and not (cmath.isfinite(w) and w):
        raise FloatOverflow("the modified Wronskian leaves the double range")
    return w


def _rational_parts(column) -> tuple[list[Fraction], ...]:
    """The column itself if rational, else its rational and sqrt(d) parts.

    `char_roots` builds a QuadExt only when d is not a rational square, so
    sqrt(d) is irrational and a + b sqrt(d) = 0 exactly when a = b = 0: a
    QuadExt column satisfies a rational stencil exactly when both parts do.
    """
    if not any(isinstance(x, QuadExt) for x in column):
        return (column,)
    zero = Fraction(0)
    return (
        [x.a if isinstance(x, QuadExt) else x for x in column],
        [x.b if isinstance(x, QuadExt) else zero for x in column],
    )


def _stencil_vanishes(stencil_ints: list[int], column, N: int) -> bool:
    """Whether sum_k S_k z_{n+k} = 0 at every n = 0..len(column)-N-1.

    S is the stencil over its common denominator and the whole column is put
    over one, so each index is one dot product of integers.
    """
    _, Z = over_common_denominator(column)
    return not any(sum(map(mul, stencil_ints, Z[n : n + N + 1])) for n in range(len(Z) - N))


def _float_residuals_ok(stencil, column, N: int) -> bool:
    """Whether every |sum_k s_k z_{n+k}| passes its relative bound."""
    coeffs = [complex(s) for s in stencil]
    weights = [abs(c) for c in coeffs]
    column = [complex(z) for z in column]
    magnitudes = [abs(z) for z in column]
    for n in range(len(column) - N):
        mag = abs(sum(map(mul, coeffs, column[n : n + N + 1])))
        scale = sum(map(mul, weights, magnitudes[n : n + N + 1]))
        if not mag <= FLOAT_SOLUTION_RESIDUAL_BOUND * scale < inf:  # NaN or overflow fails too
            return False
    return True


@dataclass(frozen=True)
class FundamentalReport:
    order: int
    dimension: int
    roots: tuple[RootDatum, ...]
    all_exact: bool
    residuals_ok: bool
    wronskian: Scalar | None
    wronskian_nonzero: bool
    system: FundamentalSystem

    @property
    def ok(self) -> bool:
        return self.residuals_ok and self.wronskian_nonzero


def verify_fundamental(eq: ConstLinearEq, L: int, roots: list[RootDatum] | None = None) -> FundamentalReport:
    """Build the mapped system, check the defining certificates and report both.

    At every n = 0..L-N the residual is one dot product sum_k s_k z_{n+k}
    with the local stencil s of T[Delta] (`odes.local_stencil`); it equals
    `apply_operator` at n. Exact solutions must satisfy it identically, on
    integers; float solutions must stay below FLOAT_SOLUTION_RESIDUAL_BOUND
    relative to the scale sum_k |s_k| |z_{n+k}|. The modified Wronskian at
    0, from the roots, must not be exactly zero. The operator at n reads
    index n+N, so a length L below the order N leaves no index to check and
    is refused.
    ``roots`` are `char_roots(eq)` when the caller has found them already.
    """
    N = eq.order
    if L < N:
        raise IndexOutOfRange(f"length L={L} leaves no operator index to check: order {N} needs L >= {N}")
    if roots is None:
        roots = char_roots(eq)
    system = _map_roots(roots, L)
    exact = [root.exact for root in roots for _ in range(root.multiplicity)]
    stencil = local_stencil(eq.as_linear_ode())[::-1]  # stencil[k] goes with z_{n+k}
    _, stencil_ints = over_common_denominator(stencil)
    residuals_ok = True
    for sol, sol_exact in zip(system.solutions, exact):
        if sol_exact:
            column_ok = all(_stencil_vanishes(stencil_ints, part, N) for part in _rational_parts(sol))
        else:
            column_ok = _float_residuals_ok(stencil, sol, N)
        residuals_ok = residuals_ok and column_ok
    w = _root_wronskian(roots)
    nonzero = not (w.is_zero if isinstance(w, QuadExt) else w == 0)
    return FundamentalReport(
        order=N,
        dimension=sum(r.multiplicity for r in roots),
        roots=tuple(roots),
        all_exact=all(r.exact for r in roots),
        residuals_ok=residuals_ok,
        wronskian=w if nonzero else None,
        wronskian_nonzero=nonzero,
        system=system,
    )
