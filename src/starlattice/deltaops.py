"""Finite difference stencils acting as lattice derivatives.

A stencil (1/sigma) * sum_{k=l}^{m} alpha_k T^k with sum alpha_k = 0 and
sum k*alpha_k = 1 lowers polynomial degree by one, exactly like d/dt. Its
exponential symbol (1/sigma) * sum alpha_k e^(k sigma v) expands as
v + O(v^(p+1)); the module computes that approximation order symbolically,
inverts symbol series compositionally, and constructs the basic polynomial
sequence q_0, q_1, ... with q_n(0) = 0 (n >= 1) and Q q_n = n q_{n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ConstraintViolation, IndexOutOfRange, NotInvertible
from .rational import as_rational
from .sequences import LatticeSeq
from .series import compose_trunc, poly_eval, poly_shift
from . import series


@dataclass(frozen=True)
class DeltaStencil:
    """Shift-operator stencil: weights alpha_l..alpha_m at spacing sigma."""

    sigma: Fraction
    l: int
    alphas: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", as_rational(self.sigma))
        object.__setattr__(self, "alphas", tuple(as_rational(a) for a in self.alphas))
        if self.sigma <= 0:
            raise ConstraintViolation("lattice spacing must be positive")
        if len(self.alphas) < 2:
            raise ConstraintViolation("a stencil needs weights at two or more shifts (l < m)")

    @property
    def m(self) -> int:
        return self.l + len(self.alphas) - 1


FORWARD_DIFFERENCE = DeltaStencil(Fraction(1), 0, (Fraction(-1), Fraction(1)))
SYMMETRIC_DIFFERENCE = DeltaStencil(
    Fraction(1), -1, (Fraction(-1, 2), Fraction(0), Fraction(1, 2))
)


def symbol_coefficients(s: DeltaStencil, degree: int) -> list[Fraction]:
    """Coefficients of v^0..v^degree in the exponential symbol of the stencil."""
    coeffs = []
    for j in range(degree + 1):
        acc = sum(
            (a * Fraction(k + s.l) ** j for k, a in enumerate(s.alphas)),
            Fraction(0),
        )
        coeffs.append(acc * s.sigma ** (j - 1) / factorial(j))
    return coeffs


def validate_stencil(s: DeltaStencil, max_order: int) -> int:
    """Check the stencil constraints and return its approximation order.

    The order is the largest p <= max_order with symbol = v + O(v^(p+1)).
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if s.alphas[0] == 0 or s.alphas[-1] == 0:
        raise ConstraintViolation("endpoint weights must be nonzero")
    if sum(s.alphas) != 0:
        raise ConstraintViolation("stencil weights must sum to zero")
    moment = sum((a * (k + s.l) for k, a in enumerate(s.alphas)), Fraction(0))
    if moment != 1:
        raise ConstraintViolation(f"first moment must be 1, got {moment}")
    coeffs = symbol_coefficients(s, max_order)  # coeffs[1] is the first moment, so the symbol starts with v
    order = max_order
    for j in range(2, max_order + 1):
        if coeffs[j] != 0:
            order = j - 1
            break
    return order


def apply_stencil(s: DeltaStencil, z: LatticeSeq, n: int) -> Fraction:
    """(1/sigma) * sum_k alpha_k z_{n+k}; every shifted index must be stored."""
    if n + s.l < 0 or n + s.m > z.last_index:
        raise IndexOutOfRange(
            f"stencil at n={n} needs indices {n + s.l}..{n + s.m}, stored 0..{z.last_index}"
        )
    acc = sum((a * z[n + s.l + k] for k, a in enumerate(s.alphas)), Fraction(0))
    return acc / s.sigma


@dataclass(frozen=True)
class FormalSeries:
    """Series c_1 u + c_2 u^2 + ... with no constant term; coeffs[i] is c_{i+1}."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(as_rational(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a formal series needs at least the linear coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def padded(self) -> list[Fraction]:
        """Dense coefficients with the implicit zero constant term in front."""
        return [Fraction(0), *self.coeffs]


def series_compose(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    D = min(f.degree, g.degree)
    res = compose_trunc(f.padded(), g.padded(), D)
    return FormalSeries(tuple(res[1:]))


def series_inverse(F: FormalSeries) -> FormalSeries:
    """Compositional inverse G with F(G(v)) = v through the stored degree."""
    c1 = F.coeffs[0]
    if c1 == 0:
        raise NotInvertible("linear coefficient is zero")
    D = F.degree
    f = F.padded()
    g = [Fraction(0)] * (D + 1)
    g[1] = 1 / c1
    for d in range(2, D + 1):
        residue = compose_trunc(f, g, d)[d]
        g[d] = -residue / c1
    return FormalSeries(tuple(g[1:]))


@dataclass(frozen=True)
class BasicSequence:
    """Polynomials q_0..q_D attached to a stencil: q_0 = 1, Q q_n = n q_{n-1}."""

    stencil: DeltaStencil
    polys: tuple[tuple[Fraction, ...], ...]

    def evaluate(self, n: int, x: Fraction) -> Fraction:
        return poly_eval(list(self.polys[n]), as_rational(x))


def stencil_apply_poly(s: DeltaStencil, poly: list[Fraction]) -> list[Fraction]:
    """Image of a polynomial under the stencil, one degree lower."""
    out = [Fraction(0)] * len(poly)
    for k, a in enumerate(s.alphas):
        if a == 0:
            continue
        shifted = poly_shift(poly, (k + s.l) * s.sigma)
        for i, c in enumerate(shifted):
            out[i] += a * c
    out = [c / s.sigma for c in out]
    return series.poly_trim(out)


def basic_sequence(s: DeltaStencil, D: int) -> BasicSequence:
    """Construct q_0..q_D by triangular solve over monomial coefficients."""
    validate_stencil(s, 1)
    # column i holds the coefficients of Q(x^i), a polynomial of degree i-1
    columns: list[list[Fraction]] = [[]]
    for i in range(1, D + 1):
        mono = [Fraction(0)] * i + [Fraction(1)]
        columns.append(stencil_apply_poly(s, mono))
    polys: list[tuple[Fraction, ...]] = [(Fraction(1),)]
    for n in range(1, D + 1):
        rhs = [Fraction(0)] * n
        prev = polys[n - 1]
        for r, c in enumerate(prev):
            rhs[r] = n * c
        coeffs = [Fraction(0)] * (n + 1)  # q_n(0) = 0 keeps index 0 at zero
        for i in range(n, 0, -1):
            col = columns[i]
            lead = col[i - 1]
            coeffs[i] = rhs[i - 1] / lead
            for r in range(i - 1 + 1):
                if r < len(col):
                    rhs[r] -= coeffs[i] * col[r]
        polys.append(tuple(coeffs))
    return BasicSequence(s, tuple(polys))
