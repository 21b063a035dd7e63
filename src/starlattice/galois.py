"""Fundamental systems for constant-coefficient equations on both sides.

For a monic operator T with rational constants, the solution t^j e^(lt) of
the differential form maps to the lattice generator z_n = (n)_j (1+l)^(n-j),
which satisfies the difference form T[Delta] z = 0 with the same
coefficients. Roots are kept exact whenever possible (rational roots by the
rational root theorem, conjugate pairs as quadratic surds); factors of
degree >= 3 without rational roots get float roots, found in pure Python by
Aberth-Ehrlich sweeps and each proved, on integers, to be the centre of a
Smith inclusion disc that holds exactly one root (`char_roots`).

Generators are running products: each index costs one field product of
the previous power by 1+l. `verify_fundamental` checks every index with one
(N+1)-term dot product against the local stencil of T[Delta]
(`odes.local_stencil`), on integer numerators for exact columns;
`apply_operator`, the literal Delta^N z_n + sum a_i Delta^i z_n, stays as the
definitional per-index oracle that the tests compare it with.

The modified Wronskian is the determinant of iterated forward differences
of the solution set; a nonzero value certifies a fundamental system, and an
exactly-zero value raises ``SingularSystem``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import hypot, inf, perm, pi
from operator import mul

from .errors import FloatOverflow, IndexOutOfRange, RootCertificationError, SingularSystem
from .odes import LinearOde, PolyCoeff, local_stencil
from .rational import as_rational, format_rational, over_common_denominator
from .series import poly_deflate, poly_derivative, poly_divmod, poly_eval, poly_gcd, poly_trim
from .transforms import falling_factorial, lattice_to_newton

# Aberth-Ehrlich converges cubically once near the roots: on the perfbench
# const factors and at degree 64 each root settles within 4-7 sweeps.
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
    residual: float = 0.0  # |f(value)| for the monic factor f of a float root, evaluated exactly; 0 for exact roots


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


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return sorted(out)


def _rational_roots(poly: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """All rational roots (with repetition) plus the deflated cofactor."""
    poly = poly_trim(poly)
    roots: list[Fraction] = []
    while len(poly) > 1 and poly[0] == 0:
        roots.append(Fraction(0))
        poly = poly[1:]
    if len(poly) <= 1:
        return roots, poly
    _, ints = over_common_denominator(poly)
    candidates = [
        Fraction(sp * p, q)
        for p in _divisors(ints[0])
        for q in _divisors(ints[-1])
        for sp in (1, -1)
    ]
    for cand in dict.fromkeys(candidates):
        while len(poly) > 1 and poly_eval(poly, cand) == 0:
            roots.append(cand)
            poly = poly_deflate(poly, cand)
    return roots, poly


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


def _exact_ratio(ints: list[int], z: complex) -> tuple[complex, bool]:
    """p(z)/p'(z) for integer p, evaluated exactly and rounded once, and whether it is below one ulp of z."""
    s, ((x, y),) = _dyadic_grid([z])
    re, im, dre, dim = _scaled_horner(ints, s, x, y)
    den = (dre * dre + dim * dim) << s  # |2^(s (n-1)) p'(z)|^2 2^s
    try:
        ratio = complex((re * dre + im * dim) / den, (im * dre - re * dim) / den)
    except (ZeroDivisionError, OverflowError):  # p'(z) = 0, or p/p' beyond the double range
        raise RootCertificationError(f"no Newton step from the float root approximation {z}") from None
    return ratio, abs(ratio) <= _EPSILON * abs(z)


def _aberth(ints: list[int]) -> list[complex]:
    """Approximate roots of a square-free integer polynomial by Aberth-Ehrlich sweeps.

    O. Aberth, Math. Comp. 27 (1973). The approximations are complex
    doubles, and each Newton ratio p/p' is evaluated exactly, so no power of
    z overflows and roots closer together than the rounding error of a
    double evaluation are still pulled apart. The start is a circle of half
    Fujiwara's bound 2 max(|a_(n-k)|^(1/k), |a_0/2|^(1/n)) on the root
    moduli of the monic form, which cannot overflow, turned off the real
    axis (a start on the bound itself took 2.7 times as long at degree 64).
    Gauss-Seidel sweeps move each approximation until its correction is
    below one ulp. The result is only a guess: `_smith_certificate` decides.
    """
    try:
        moduli = [abs(c / ints[-1]) for c in ints]
    except OverflowError:
        raise RootCertificationError("a coefficient of a float-root factor leaves the double range") from None
    n = len(ints) - 1
    radius = max([moduli[n - k] ** (1 / k) for k in range(1, n)] + [(moduli[0] / 2) ** (1 / n)])
    z = [cmath.rect(radius, 2 * pi * k / n + _START_ANGLE) for k in range(n)]
    settled = [False] * n
    for _ in range(_ABERTH_SWEEPS):
        for i, zi in enumerate(z):
            if settled[i]:
                continue
            try:
                ratio, settled[i] = _exact_ratio(ints, zi)
                repulsion = sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
                z[i] = zi - ratio / (1 - ratio * repulsion)
            except (ZeroDivisionError, OverflowError):
                raise RootCertificationError(f"Aberth iteration broke down at {zi}") from None
        if all(settled):
            break
    return z


def _conjugate_centres(approx: list[complex]) -> list[complex]:
    """The approximations made symmetric under conjugation, as the roots of a real factor are.

    Each approximation is matched with the one nearest its conjugate. One
    that is its own match becomes real (imaginary part 0.0); a matched pair
    becomes an exact conjugate pair. Anything else is refused.
    """
    mates = [min(range(len(approx)), key=lambda j: abs(approx[j] - z.conjugate())) for z in approx]
    centres = []
    for i, j in enumerate(mates):
        if mates[j] != i:
            raise RootCertificationError(f"float root {approx[i]} has no conjugate partner")
        if i == j:
            centres.append(complex(approx[i].real, 0.0))
        elif i < j:
            a, b = approx[i], approx[j]
            upper = complex((a.real + b.real) / 2, (abs(a.imag) + abs(b.imag)) / 2)
            centres += [upper, upper.conjugate()]
    return centres


def _dyadic_grid(centres: list[complex]) -> tuple[int, list[tuple[int, int]]]:
    """(s, [(X, Y), ...]) with every centre exactly (X + iY) / 2^s: doubles are dyadic."""
    if not all(cmath.isfinite(c) for c in centres):
        raise RootCertificationError("the float root iteration left the double range")
    ratios = [x.as_integer_ratio() for c in centres for x in (c.real, c.imag)]
    s = max(den.bit_length() - 1 for _, den in ratios)
    grid = [num << (s - den.bit_length() + 1) for num, den in ratios]
    return s, list(zip(grid[::2], grid[1::2]))


def _scaled_horner(ints: list[int], s: int, x: int, y: int) -> tuple[int, int, int, int]:
    """2^(s n) P and 2^(s (n-1)) P' at (x + iy) / 2^s for integer P of degree n, as Gaussian integers."""
    n = len(ints) - 1
    re, im, dre, dim = ints[n], 0, 0, 0
    for k in range(n - 1, -1, -1):
        dre, dim = dre * x - dim * y + re, dre * y + dim * x + im
        re, im = re * x - im * y + (ints[k] << (s * (n - k))), re * y + im * x
    return re, im, dre, dim


def _smith_certificate(ints: list[int], centres: list[complex]) -> list[float]:
    """Prove that each centre lies in a disc holding exactly one root of p; return |p| at the centres.

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
    den = abs(ints[n]) << (s * n)
    try:
        return [hypot(re / den, im / den) for re, im in values]
    except OverflowError:
        return [inf] * n


def char_roots(eq: ConstLinearEq) -> list[RootDatum]:
    """Exact roots where possible, certified float roots otherwise.

    Rational roots come from the rational root theorem, which leaves none in
    the remainder, so a square-free quadratic remainder is irreducible and
    gives a quadratic-surd pair (-beta +- sqrt(d)) / 2. A remainder
    of degree >= 3 gets float roots: Aberth-Ehrlich approximations, paired
    into exact conjugates and real values, each proved to be the centre of a
    Smith disc that holds exactly one root (`_smith_certificate`); a factor
    whose discs cannot be separated raises ``RootCertificationError``.
    """
    out: list[RootDatum] = []
    for factor, mult in _squarefree_factors(eq.char_poly()):
        rational, rest = _rational_roots(factor)
        for r in rational:
            out.append(RootDatum(r, mult, exact=True))
        deg = len(rest) - 1
        if deg <= 0:
            continue
        if deg == 2:  # no rational root is left, so d is not a rational square
            c0, c1, c2 = rest
            beta, gamma = c1 / c2, c0 / c2
            disc = beta * beta - 4 * gamma
            for sign in (Fraction(1, 2), Fraction(-1, 2)):
                out.append(RootDatum(QuadExt(-beta / 2, sign, disc), mult, exact=True))
            continue
        _, ints = over_common_denominator(rest)
        # One more Newton step with p/p' evaluated exactly makes each coordinate
        # (all but always) the double nearest its root; it commutes with
        # conjugation, so pairs stay exact conjugates and real centres real.
        centres = [c - _exact_ratio(ints, c)[0] for c in _conjugate_centres(_aberth(ints))]
        residuals = _smith_certificate(ints, centres)
        out += [RootDatum(c, mult, exact=False, residual=r) for c, r in zip(centres, residuals)]
    out.sort(key=_root_sort_key)
    return out


def _root_sort_key(r: RootDatum):
    v = r.value
    if isinstance(v, Fraction):
        return (0, float(v), 0.0)
    if isinstance(v, QuadExt):
        c = complex(v)
        return (1, c.real, c.imag)
    return (2, v.real, v.imag)


def map_solution(root: RootDatum, j: int, L: int) -> tuple[Scalar, ...]:
    """Lattice generator (n)_j (1+root)^(n-j) for n = 0..L; zero (0j for a float root) below n = j.

    Exact roots keep a running power of 1+root, one field product per index.
    Float roots take each power from complex `pow`; an entry that leaves the
    double range raises ``FloatOverflow``, naming the root and the index.
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
    power = QuadExt(Fraction(1), Fraction(0), one_plus.d) if isinstance(one_plus, QuadExt) else Fraction(1)
    for n in range(j, L + 1):
        values.append(falling_factorial(n, j) * power if j else power)
        power = power * one_plus
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


def _promote_matrix(rows: list[list]) -> list[list]:
    """Lift to a common field: rationals, one quadratic extension, or complex."""
    ds = {e.d for row in rows for e in row if isinstance(e, QuadExt)}
    has_complex = any(isinstance(e, complex) for row in rows for e in row)
    if has_complex or len(ds) > 1:
        return [[complex(e) if not isinstance(e, complex) else e for e in row] for row in rows]
    if len(ds) == 1:
        d = ds.pop()
        return [[_lift(e, d) for e in row] for row in rows]
    return rows


def modified_wronskian(sys: FundamentalSystem, n0: int = 0) -> Scalar:
    """Determinant of [Delta^i z^(j)] at base index n0; zero raises SingularSystem."""
    N = sys.size
    if sys.length - 1 < n0 + N - 1:
        raise IndexOutOfRange(f"need indices up to {n0 + N - 1}, solutions stored to {sys.length - 1}")
    newton = [lattice_to_newton(sol[n0 : n0 + N]) for sol in sys.solutions]
    rows = [[w[i] for w in newton] for i in range(N)]
    det = _det(_promote_matrix(rows))
    if _is_zero_scalar(det):
        raise SingularSystem(f"modified Wronskian vanishes at n0={n0}")
    return det


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

    S is the stencil over its common denominator; each window z_n..z_{n+N}
    is put over its own, so the test runs on integer numerators only.
    """
    for n in range(len(column) - N):
        _, window = over_common_denominator(column[n : n + N + 1])
        if sum(map(mul, stencil_ints, window)):
            return False
    return True


def _float_residuals(stencil, column, N: int) -> tuple[float, bool]:
    """Largest |sum_k s_k z_{n+k}| over n, and whether each passes its relative bound."""
    coeffs = [complex(s) for s in stencil]
    weights = [abs(c) for c in coeffs]
    column = [complex(z) for z in column]
    magnitudes = [abs(z) for z in column]
    largest = 0.0
    ok = True
    for n in range(len(column) - N):
        mag = abs(sum(map(mul, coeffs, column[n : n + N + 1])))
        largest = max(largest, mag)
        scale = sum(map(mul, weights, magnitudes[n : n + N + 1]))
        if not mag <= FLOAT_SOLUTION_RESIDUAL_BOUND * scale < inf:  # NaN or overflow fails too
            ok = False
    return largest, ok


@dataclass(frozen=True)
class FundamentalReport:
    order: int
    dimension: int
    roots: tuple[RootDatum, ...]
    all_exact: bool
    residuals_ok: bool
    max_float_residual: float
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
    relative to the scale sum_k |s_k| |z_{n+k}|. The modified
    Wronskian at n0 = 0 must be nonzero. The operator at n reads index n+N,
    so a length L below the order N leaves no index to check and is refused.
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
    max_float = 0.0
    for sol, sol_exact in zip(system.solutions, exact):
        if sol_exact:
            column_ok = all(_stencil_vanishes(stencil_ints, part, N) for part in _rational_parts(sol))
        else:
            column_max, column_ok = _float_residuals(stencil, sol, N)
            max_float = max(max_float, column_max)
        residuals_ok = residuals_ok and column_ok
    try:
        w = modified_wronskian(system, 0)
        nonzero = True
    except SingularSystem:
        w = None
        nonzero = False
    return FundamentalReport(
        order=N,
        dimension=sum(r.multiplicity for r in roots),
        roots=tuple(roots),
        all_exact=all(r.exact for r in roots),
        residuals_ok=residuals_ok,
        max_float_residual=max_float,
        wronskian=w,
        wronskian_nonzero=nonzero,
        system=system,
    )
