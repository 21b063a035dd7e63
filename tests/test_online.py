"""Online residuals and stepping against the whole-sequence formulas.

A seeded sweep over small random equations with polynomial coefficients
checks that the per-index residual evaluators equal the paper's
whole-sequence route (delta_power, kernel star powers, monomial images),
that lattice stepping reproduces the lattice image of the Taylor solution,
and that the Fourier stream reproduces the Taylor coefficients. A second
sweep checks the integer Newton-space solver, the integer residuals and the
integer star powers against the `Fraction` routes written out below as the
reference, and a third checks the integer linear stencil of `lin_step`,
`lin_residual` and `lin_residuals` against the `Fraction` stepping loop.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm, prod

import pytest

from starlattice import (
    FourierSeq,
    IndexOutOfRange,
    LatticeSeq,
    TaylorCoeffs,
    forward_transform,
    inverse_transform,
    odes,
    taylor_to_lattice,
    transforms,
)
from starlattice.cli import run
from starlattice.corpus import hypergeometric_case
from starlattice.fourier import constrained_convolution, fourier_step
from starlattice.galois import ConstLinearEq, FundamentalSystem, apply_operator, modified_wronskian
from starlattice.odes import (
    LinearOde,
    NonlinearOde,
    PolyCoeff,
    delta_power,
    lin_residual,
    lin_residual_kernel,
    lin_residuals,
    lin_step,
    nonlin_residual,
    nonlin_residuals,
    nonlin_step,
    solve_newton,
    taylor_solution_linear,
    taylor_solution_nonlinear,
)
from starlattice.rational import coprime_fraction, over_common_denominator
from starlattice.series import extend_binomial_powers, extend_cauchy_powers, pow_trunc
from starlattice.star import monomial_star, star_multiply, star_power, star_power_kernel
from starlattice.transforms import falling_factorial, lattice_to_newton


def extend_powers(a: list[Fraction], powers: list[list[Fraction]]) -> None:
    """Reference stream: append the next coefficient to each Cauchy power a^2, a^3, ... in place.

    powers[i] holds a^(i+2) modulo x^k and a holds at least k+1 coefficients;
    afterwards every power holds k+1. This is the `Fraction` loop that the
    package's solvers ran before they moved to integer Newton coefficients.
    """
    if not powers:
        return
    k = len(powers[0])
    cross = Fraction(0)
    for i in range((k + 1) // 2):
        cross += a[i] * a[k - i]
    powers[0].append(2 * cross + (a[k // 2] ** 2 if k % 2 == 0 else 0))
    prev = powers[0]
    for p in powers[1:]:
        p.append(sum((prev[i] * a[k - i] for i in range(k + 1)), Fraction(0)))
        prev = p


class ReferenceStarPowers:
    """Reference star powers of a sequence fed one `Fraction` at a time.

    zeta_k = (Delta^k z)_0 / k! from the last diagonal of the difference
    table, Cauchy powers of zeta through `extend_powers`, and
    (z^{*j})_s = sum_l (zeta^j)_l (s)_l.
    """

    def __init__(self, degree: int) -> None:
        self.diagonal: list[Fraction] = []
        self.zeta: list[Fraction] = []
        self.powers: list[list[Fraction]] = [[] for _ in range(degree - 1)]

    def feed(self, value: Fraction) -> None:
        row = [value]
        for d in self.diagonal:
            row.append(row[-1] - d)
        self.diagonal = row
        self.zeta.append(row[-1] / factorial(len(self.zeta)))
        extend_powers(self.zeta, self.powers)

    def entry(self, j: int, s: int) -> Fraction:
        return sum((c * perm(s, l) for l, c in enumerate(self.powers[j - 2][: s + 1])), Fraction(0))


def reference_rhs(eq: NonlinearOde, values, stream: ReferenceStarPowers, n: int) -> Fraction:
    """Star image of sum_j a_j(t) z^j at n, once z_0..z_n are fed."""
    acc = eq.coeffs[0].image_at(n)
    for j in range(1, eq.degree + 1):
        for p, c in eq.coeffs[j].monomials:
            if p <= n:
                acc += c * perm(n, p) * (values[n - p] if j == 1 else stream.entry(j, n - p))
    return acc


def reference_nonlin_step(eq: NonlinearOde, init, L: int) -> list[Fraction]:
    """Lattice stepping: (Delta^m z)_n = right-hand side at n, solved for z_{n+m}."""
    m, values = eq.m, [Fraction(v) for v in init]
    stream = ReferenceStarPowers(eq.degree)
    for n in range(L - m + 1):
        stream.feed(values[n])
        known = sum(((-1) ** (m - i) * comb(m, i) * values[n + i] for i in range(m)), Fraction(0))
        values.append(reference_rhs(eq, values, stream, n) - known)
    return values


def reference_nonlin_residuals(eq: NonlinearOde, z: LatticeSeq) -> list[Fraction]:
    m, values, out = eq.m, z.values, []
    stream = ReferenceStarPowers(eq.degree)
    for n in range(z.last_index - m + 1):
        stream.feed(values[n])
        delta = sum(((-1) ** (m - i) * comb(m, i) * values[n + i] for i in range(m + 1)), Fraction(0))
        out.append(delta - reference_rhs(eq, values, stream, n))
    return out


def reference_taylor(m: int, coeffs, init, L: int) -> list[Fraction]:
    """(s+m)!/s! b_{s+m} = gamma_s + sum_{j,p} a_{j,p} (b^j)_{s-p}, Cauchy powers through `extend_powers`."""
    b = [Fraction(v) for v in init]
    powers = [[] for _ in range(len(coeffs) - 2)]
    for s in range(L - m + 1):
        extend_powers(b, powers)
        rhs = sum((c for p, c in coeffs[0].monomials if p == s), Fraction(0))
        for j, a_j in enumerate(coeffs[1:], 1):
            bj = b if j == 1 else powers[j - 2]
            rhs += sum((c * bj[s - p] for p, c in a_j.monomials if p <= s), Fraction(0))
        b.append(rhs / perm(s + m, m))
    return b[: L + 1]


def reference_lin_residual(eq: LinearOde, values, n: int) -> Fraction:
    """Residual at n term by term: c (n)_p (Delta^l z)_{n-p} by the binomial formula, plus c_0's image."""
    acc = eq.c0.image_at(n)
    for l, a_l in enumerate(eq.coeffs):
        for p, c in a_l.monomials:
            if p <= n:
                diff = sum(((-1) ** (l - i) * comb(l, i) * values[n - p + i] for i in range(l + 1)), Fraction(0))
                acc += c * perm(n, p) * diff
    return acc


def reference_lin_step(eq: LinearOde, init, L: int) -> list[Fraction]:
    """The `Fraction` stepping loop: the residual at n with z_{n+N} = 0, divided by -a_N(0).

    This is the loop `lin_step` ran before its integer stencil.
    """
    N, values = eq.order, [Fraction(v) for v in init]
    lead = eq.coeffs[-1].constant_term
    for n in range(L - N + 1):
        values.append(Fraction(0))
        values[-1] = -reference_lin_residual(eq, values, n) / lead
    return values


def rand_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))


def rand_poly(rng: random.Random, nonzero_constant: bool = False) -> PolyCoeff:
    pairs = [(p, rand_rat(rng)) for p in rng.sample(range(3), rng.randrange(0, 3))]
    if nonzero_constant:
        pairs = [(p, c) for p, c in pairs if p != 0] + [(0, Fraction(rng.choice([-2, -1, 1, 3]), 2))]
    return PolyCoeff.from_pairs(pairs)


def rand_linear(rng: random.Random) -> LinearOde:
    N = rng.randrange(1, 4)
    coeffs = [rand_poly(rng) for _ in range(N)] + [rand_poly(rng, nonzero_constant=True)]
    return LinearOde(tuple(coeffs), c0=rand_poly(rng))


def rand_nonlinear(rng: random.Random) -> NonlinearOde:
    degree = rng.randrange(1, 4)
    coeffs = [rand_poly(rng) for _ in range(degree)] + [rand_poly(rng, nonzero_constant=True)]
    return NonlinearOde(rng.randrange(1, 3), tuple(coeffs))


def rand_seq(rng: random.Random, length: int) -> LatticeSeq:
    return LatticeSeq(tuple(rand_rat(rng) for _ in range(length)))


WIDE_DENOMINATORS = (1, 2, 3, 7, 12, 25, 101, 2**20 + 7)


def wide_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-10**6, 10**6), rng.choice(WIDE_DENOMINATORS))


def wide_linear(rng: random.Random) -> LinearOde:
    """Coefficients and inhomogeneity over many denominators, so the common ones are far from 1."""
    N = rng.randrange(1, 4)
    coeffs = [PolyCoeff.from_pairs((p, wide_rat(rng)) for p in rng.sample(range(4), rng.randrange(0, 4))) for _ in range(N)]
    coeffs.append(PolyCoeff.from_pairs([(0, wide_rat(rng) or Fraction(1)), (rng.randrange(1, 3), wide_rat(rng))]))
    return LinearOde(tuple(coeffs), c0=PolyCoeff.from_pairs((p, wide_rat(rng)) for p in rng.sample(range(4), 2)))


def whole_lin_residual(eq: LinearOde, z: LatticeSeq, n: int) -> Fraction:
    acc = Fraction(0)
    for l, a_l in enumerate(eq.coeffs):
        dz = delta_power(z, l)
        for power, coeff in a_l.monomials:
            acc += coeff * monomial_star(power, dz)[n]
    return acc + eq.c0.image_at(n)


def whole_nonlin_residual(eq: NonlinearOde, z: LatticeSeq, n: int) -> Fraction:
    acc = delta_power(z, eq.m)[n]
    for j in range(1, eq.degree + 1):
        zj = star_power_kernel(z, j)
        for power, coeff in eq.coeffs[j].monomials:
            acc -= coeff * monomial_star(power, zj)[n]
    return acc - eq.coeffs[0].image_at(n)


def test_sweep_residuals_match_whole_sequence_formula():
    rng = random.Random(20)
    for _ in range(25):
        eq = rand_linear(rng)
        z = rand_seq(rng, eq.order + rng.randrange(1, 8))
        table = lin_residuals(eq, z)
        assert len(table) == z.last_index - eq.order + 1
        for n, r in enumerate(table):
            assert r == whole_lin_residual(eq, z, n) == lin_residual_kernel(eq, z, n)
    wide = random.Random(25)
    for _ in range(25):  # sequences that are not lattice images, over mixed denominators
        eq = wide_linear(wide)
        z = LatticeSeq(tuple(wide_rat(wide) for _ in range(eq.order + wide.randrange(1, 10))))
        table = lin_residuals(eq, z)
        assert table == [lin_residual_kernel(eq, z, n) for n in range(len(table))]
        assert table == [lin_residual(eq, z, n) for n in range(len(table))]
        assert all(type(r) is Fraction for r in table)
    for _ in range(25):
        eq = rand_nonlinear(rng)
        z = rand_seq(rng, eq.m + rng.randrange(1, 7))
        table = nonlin_residuals(eq, z)
        assert len(table) == z.last_index - eq.m + 1
        for n, r in enumerate(table):
            assert r == whole_nonlin_residual(eq, z, n) == nonlin_residual(eq, z, n)


def test_sweep_stepping_matches_taylor_image():
    rng = random.Random(21)
    for _ in range(20):
        eq = rand_linear(rng)
        L = rng.randrange(eq.order - 1, 14)
        b_init = [rand_rat(rng) for _ in range(eq.order)]
        z_init = taylor_to_lattice(TaylorCoeffs(b_init), eq.order - 1).values
        expected = taylor_to_lattice(taylor_solution_linear(eq, b_init, L), L)
        assert lin_step(eq, z_init, L) == expected
    wide = random.Random(26)
    for _ in range(10):
        eq = wide_linear(wide)
        b_init = [wide_rat(wide) for _ in range(eq.order)]
        z_init = taylor_to_lattice(TaylorCoeffs(b_init), eq.order - 1).values
        expected = taylor_to_lattice(taylor_solution_linear(eq, b_init, 10), 10)
        assert lin_step(eq, z_init, 10) == expected
    for _ in range(20):
        eq = rand_nonlinear(rng)
        L = rng.randrange(eq.m - 1, 14)
        b_init = [rand_rat(rng) for _ in range(eq.m)]
        z_init = taylor_to_lattice(TaylorCoeffs(b_init), eq.m - 1).values
        expected = taylor_to_lattice(taylor_solution_nonlinear(eq, b_init, L), L)
        assert nonlin_step(eq, z_init, L) == expected


def test_sweep_fourier_stream_matches_taylor_coefficients():
    rng = random.Random(22)
    for _ in range(20):
        m = rng.randrange(1, 3)
        a = [rand_rat(rng) for _ in range(rng.randrange(0, 3))] + [Fraction(rng.choice([-1, 1, 2]))]
        b0 = rand_rat(rng)
        L = rng.randrange(m - 1, 16)
        init = [rand_rat(rng) for _ in range(m)]
        eq = NonlinearOde(m, tuple(PolyCoeff.constant(c) for c in [b0] + a))
        zeta = fourier_step(eq, init, L)
        assert zeta.coeffs == taylor_solution_nonlinear(eq, init, L).coeffs
        # The stream obeys the per-index definition through constrained_convolution.
        for n in range(L - m + 1):
            rhs = sum((a_j * constrained_convolution(zeta, j, n) for j, a_j in enumerate(a, 1)), Fraction(0))
            assert falling_factorial(n + m, m) * zeta[n + m] == rhs + (b0 if n == 0 else 0)


def test_extend_powers_matches_pow_trunc():
    rng = random.Random(23)
    a = [rand_rat(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(12)]
    powers = [[] for _ in range(4)]
    for k in range(len(a)):
        extend_powers(a[: k + 1], powers)
    assert powers == [pow_trunc(a, j, len(a) - 1) for j in range(2, 6)]


def test_extend_binomial_powers_is_the_cauchy_power_on_newton_coefficients():
    rng = random.Random(27)
    w = [rng.randrange(-10**6, 10**6) if rng.random() < 0.7 else 0 for _ in range(14)]
    zeta = [Fraction(x, factorial(k)) for k, x in enumerate(w)]
    for degree in (2, 3, 5):
        powers = [[] for _ in range(degree - 1)]
        for k in range(len(w)):
            extend_binomial_powers(w[: k + 1], powers)
        for j, power in enumerate(powers, 2):
            assert all(type(x) is int for x in power)
            assert power == [factorial(k) * c for k, c in enumerate(pow_trunc(zeta, j, len(w) - 1))]


def test_extend_cauchy_powers_is_pow_trunc_on_integers():
    # The Taylor-space power of the residual defect: plain Cauchy powers of integer
    # coefficients, grown one index at a time from a prefix or from the whole list.
    rng = random.Random(29)
    v = [rng.randrange(-10**6, 10**6) if rng.random() < 0.7 else 0 for _ in range(14)]
    for degree in (2, 3, 5):
        want = [pow_trunc([Fraction(x) for x in v], j, len(v) - 1) for j in range(2, degree + 1)]
        for whole in (False, True):
            powers = [[] for _ in range(degree - 1)]
            for k in range(len(v)):
                extend_cauchy_powers(v if whole else v[: k + 1], powers)
            assert all(type(x) is int for power in powers for x in power)
            assert powers == want


def sweep_nonlinear(rng: random.Random, wide: bool) -> NonlinearOde:
    """m <= 3, degree <= 4, polynomial coefficients, over small or wide denominators."""
    rat = wide_rat if wide else rand_rat
    m, degree = rng.randrange(1, 4), rng.randrange(1, 5)

    def poly(lead: bool) -> PolyCoeff:
        pairs = [(p, rat(rng)) for p in rng.sample(range(3), rng.randrange(0, 3))]
        if lead:
            pairs = [(p, c) for p, c in pairs if p != 0] + [(0, rat(rng) or Fraction(1))]
        return PolyCoeff.from_pairs(pairs)

    return NonlinearOde(m, tuple(poly(False) for _ in range(degree)) + (poly(True),))


def test_sweep_integer_solver_matches_fraction_streams():
    rng = random.Random(28)
    for i in range(60):
        wide = i % 2 == 1
        rat = wide_rat if wide else rand_rat
        eq = sweep_nonlinear(rng, wide)
        m = eq.m
        L = rng.randrange(m - 1, 9 if wide else 16)
        zero = i % 4 < 2
        init = [Fraction(0) if zero else rat(rng) for _ in range(m)]
        solution = solve_newton(eq, init, L)
        assert all(type(w) is int for w in solution.W)
        if zero:
            assert solution.c == 1
        assert taylor_solution_nonlinear(eq, init, L).coeffs == tuple(reference_taylor(m, eq.coeffs, init, L))
        assert nonlin_step(eq, init, L).values == tuple(reference_nonlin_step(eq, init, L))
        z = LatticeSeq(tuple(rat(rng) for _ in range(m + rng.randrange(1, 8))))
        assert nonlin_residuals(eq, z) == reference_nonlin_residuals(eq, z)
        a = tuple(rat(rng) for _ in range(eq.degree - 1)) + (rat(rng) or Fraction(1),)
        coeffs = tuple(PolyCoeff.constant(c) for c in (rat(rng), *a))
        assert fourier_step(NonlinearOde(m, coeffs), init, L).coeffs == tuple(reference_taylor(m, coeffs, init, L))


def test_sweep_integer_star_powers_match_the_fraction_route():
    rng = random.Random(30)
    for i in range(120):
        length = rng.randrange(1, 31)
        z = [Fraction(0) if i % 6 == 0 else wide_rat(rng) for _ in range(length)]
        if i % 6 == 1:
            z[0] = Fraction(0)
        seq = LatticeSeq(tuple(z))
        # The Fraction route: zeta_l = w_l / l! from the difference table, Cauchy power, forward map.
        zeta = [w / factorial(l) for l, w in enumerate(lattice_to_newton(z))]
        coeffs = inverse_transform(seq).coeffs
        assert coeffs == tuple(zeta) and all(type(c) is Fraction for c in coeffs)
        p = i % 5 + 1  # with i % 6 above, every arity meets every kind of sequence
        power = star_power(seq, p).values
        assert power == forward_transform(FourierSeq(tuple(pow_trunc(zeta, p, length - 1)))).values
        assert all(type(v) is Fraction for v in power)
        assert star_power(seq, 2) == star_multiply(seq, seq)


def sweep_linear(rng: random.Random) -> LinearOde:
    """N <= 4, powers of t up to 3, a lead a_N(t) with t-monomials and any nonzero a_N(0), a c_0."""
    N = rng.randrange(1, 5)
    rat = wide_rat if rng.random() < 0.3 else rand_rat

    def poly(powers) -> PolyCoeff:
        return PolyCoeff.from_pairs((p, rat(rng)) for p in rng.sample(powers, rng.randrange(0, len(powers) + 1)))

    lead = rng.choice((1, -1, Fraction(-7, 3), Fraction(7, 3), 2, Fraction(1, 5), rat(rng) or 3))
    a_N = PolyCoeff.from_pairs([(0, lead), *((p, rat(rng)) for p in rng.sample((1, 2), rng.randrange(0, 3)))])
    if rng.random() < 0.2:
        a_N = PolyCoeff.from_pairs([(0, lead), (2, -lead)])  # Jacobi-type lead a_N(0) (1 - t^2)
    c0 = poly([0, 1, 2]) if rng.random() < 0.7 else PolyCoeff(())
    return LinearOde(tuple(poly([0, 1, 2, 3]) for _ in range(N)) + (a_N,), c0=c0)


def test_sweep_integer_linear_stencil_matches_the_fraction_loop():
    rng = random.Random(31)
    Ns, leads_with_t, c0s, longest = set(), 0, 0, 0
    for i in range(220):
        eq = sweep_linear(rng)
        N = eq.order
        L = rng.randrange(N - 1, 81) if i % 4 == 0 else rng.randrange(N - 1, 25)
        init = [Fraction(rng.randrange(-10**6, 10**6), rng.choice((1, 3, 2**20 + 7))) for _ in range(N)]
        z = lin_step(eq, init, L).values
        assert z == tuple(reference_lin_step(eq, init, L))
        assert all(type(v) is Fraction for v in z)
        w = LatticeSeq(tuple(wide_rat(rng) for _ in range(N + rng.randrange(1, 12))))
        table = lin_residuals(eq, w)
        assert table == [reference_lin_residual(eq, w.values, n) for n in range(len(table))]
        assert all(type(r) is Fraction for r in table)
        n = rng.randrange(len(table))
        one = lin_residual(eq, w, n)
        assert one == table[n] and type(one) is Fraction
        Ns.add(N)
        leads_with_t += len(eq.coeffs[-1].monomials) > 1
        c0s += not eq.c0.is_zero
        longest = max(longest, L)
    assert Ns == {1, 2, 3, 4} and leads_with_t > 50 and c0s > 100 and longest > 70


def test_lin_step_builds_one_fraction_per_stepped_index(monkeypatch):
    """Entries normalised by `Fraction` or built by `coprime_fraction` (which bypasses `Fraction.__new__`) both count."""
    built = []

    class CountedFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    def counted_coprime_fraction(*args):
        built.append(args)
        return coprime_fraction(*args)

    eq = LinearOde(
        (
            PolyCoeff.constant(Fraction(5, 4)),
            PolyCoeff.from_pairs([(0, Fraction(1, 2)), (1, Fraction(-3, 2))]),
            PolyCoeff.from_pairs([(0, Fraction(7, 3)), (2, -1)]),
        ),
        c0=PolyCoeff.from_pairs([(0, Fraction(1, 3)), (1, Fraction(-2, 5))]),
    )
    init, L = (Fraction(1, 2), Fraction(-1, 3)), 40
    monkeypatch.setattr(odes, "Fraction", CountedFraction)
    monkeypatch.setattr(odes, "coprime_fraction", counted_coprime_fraction)
    z = lin_step(eq, init, L).values
    assert 0 < len(built) <= L - eq.order + 1
    monkeypatch.undo()
    assert z == tuple(reference_lin_step(eq, init, L))


def linear_ode(*coeffs, c0=()) -> LinearOde:
    """a_0..a_N and c_0 as lists of (power, coefficient) pairs."""
    return LinearOde(tuple(PolyCoeff.from_pairs(a) for a in coeffs), c0=PolyCoeff.from_pairs(c0))


BIG_PRIME = 2**31 - 1  # an initial denominator past one 30-bit digit


def carried_window_cases(rng: random.Random):
    """(name, eq, init, L) for the carried window of `lin_step`, in the shapes its reduction must meet.

    - negative lead weight s = E a_N(0);
    - initial denominators whose lcm is past 2^30, so the prime base has several digits;
    - zero entries after growing denominators: z'' + 2z' - 5/4 z = 0 steps z_{n+2} = 9/4 z_n,
      so from (1, 0) every odd entry is 0 over a window denominator 4^k, which takes
      several stripping rounds once 4^k passes the one-digit base 2^28;
    - integer-valued entries: z_{n+1} = 2 z_n with s = 2, and the image of a Hermite
      polynomial under a lead of 3, where each index cancels all of q;
    - N = 1 with P = 0, a one-entry window;
    - `c0` terms, and seeded equations over the same shapes.
    """
    yield "zeros", linear_ode([(0, Fraction(-5, 4))], [(0, 2)], [(0, 1)]), [1, 0], 90
    yield "zeros, negative lead", linear_ode([(0, Fraction(5, 4))], [(0, -2)], [(0, -1)]), [Fraction(1, 3), 0], 90
    yield "integer doubling", linear_ode([(0, -2)], [(0, 2)]), [3], 40
    hermite_m4 = linear_ode([(0, 24)], [(1, -6)], [(0, 3)])  # 3 (z'' - 2t z' + 8z) = 0
    yield "integer hermite", hermite_m4, [12, 12], 50  # z_0, z_1 of the image of H_4 = 16t^4 - 48t^2 + 12
    yield "one-entry window", linear_ode([(0, 2)], [(0, 3)], c0=[(0, 1)]), [Fraction(1, 7)], 60
    yield "one-entry window, wide", linear_ode([(0, Fraction(2, 5))], [(0, Fraction(-3, 11))], c0=[(0, 1)]), [Fraction(1, BIG_PRIME)], 40
    wide_init = [Fraction(1, BIG_PRIME), Fraction(-5, 3**19 * 7)]
    yield "wide base", linear_ode([(0, 1)], [(1, Fraction(1, 2))], [(0, Fraction(-7, 3)), (2, 1)], c0=[(1, 2)]), wide_init, 60
    for i in range(60):
        eq = sweep_linear(rng)
        N = eq.order
        dens = rng.choice(((1,), (2, 3), (BIG_PRIME, 3**19, 2**31), (5**14, 7)))
        init = [Fraction(rng.randrange(-10**3, 10**3), rng.choice(dens)) for _ in range(N)]
        if i % 5 == 0:
            init[-1] = Fraction(0)
        yield f"seeded {i}", eq, init, rng.randrange(N - 1, 70 if i % 3 == 0 else 25)


def test_sweep_carried_window_lin_step_matches_the_fraction_loop():
    negative_leads, wide, zeros, integers_after_fractions, one_entry, c0s = 0, 0, 0, 0, 0, 0
    for name, eq, init, L in carried_window_cases(random.Random(32)):
        z = lin_step(eq, init, L).values
        assert z == tuple(reference_lin_step(eq, init, L)), name
        for v in z[eq.order :]:
            assert type(v) is Fraction and v.denominator > 0 and gcd(v.numerator, v.denominator) == 1, name
        stencil = odes._LinearStencil.of(eq)
        negative_leads += stencil.rows[0][1][eq.order] < 0
        wide += lcm(*(Fraction(v).denominator for v in init)) > 2**30
        zeros += any(v == 0 for v in z[eq.order :])
        integers_after_fractions += any(z[n].denominator > 1 and z[n + 1].denominator == 1 for n in range(len(z) - 1))
        one_entry += eq.order == 1 and stencil.reach == 0
        c0s += not eq.c0.is_zero
    assert min(negative_leads, wide, zeros, integers_after_fractions, one_entry, c0s) >= 3


def test_lin_step_carries_the_minimal_window(monkeypatch):
    """At every index the window is the one a rebuild would give: z_{n-P}..z_{n+N-1} over the lcm of their denominators."""
    scaled_residual, seen = odes._LinearStencil.scaled_residual, []

    def recording(self, Z, start, n, D):
        seen.append((list(Z), start, n, D))
        return scaled_residual(self, Z, start, n, D)

    monkeypatch.setattr(odes._LinearStencil, "scaled_residual", recording)
    for name, eq, init, L in carried_window_cases(random.Random(33)):
        seen.clear()
        z = lin_step(eq, init, L).values
        N, reach = eq.order, odes._LinearStencil.of(eq).reach
        assert [n for _, _, n, _ in seen] == list(range(L - N + 1)), name
        for Z, start, n, D in seen:
            assert start == max(0, n - reach), name
            assert (D, Z) == over_common_denominator(z[start : n + N]), name


def test_strip_common_factor_is_the_gcd_over_the_primes_of_its_base():
    assert odes._one_digit_power(1) == 1 and odes._one_digit_power(BIG_PRIME) == BIG_PRIME
    assert odes._one_digit_power(4) == 2**28 and odes._one_digit_power(2**15 * 3) == 2**15 * 3
    rng = random.Random(34)
    for i in range(400):
        m = rng.choice((1, 2, 6, 35, 2**15 * 3, BIG_PRIME * 10))
        base = odes._one_digit_power(m)
        primes = [p for p in (2, 3, 5, 7, BIG_PRIME) if m % p == 0]
        q = prod(p ** rng.randrange(0, 90) for p in primes)  # up to 90 factors of each: many rounds
        x = rng.choice((0, 1, -1)) if i % 7 == 0 else rng.randrange(-(2**200), 2**200)
        x *= prod(p ** rng.randrange(0, 90) for p in primes)
        g = gcd(x, q)
        assert odes._strip_common_factor(x, q, base) == (x // g, q // g, g)


FAULT_EQUATIONS = {
    "square": (NonlinearOde(1, (PolyCoeff(()), PolyCoeff(()), PolyCoeff.constant(1))), [Fraction(1, 2)]),
    "riccati": (
        NonlinearOde(1, tuple(PolyCoeff.constant(c) for c in (Fraction(2, 5), Fraction(1, 3), Fraction(-2, 3)))),
        [Fraction(-1, 7)],
    ),
    "forced m=2": (
        NonlinearOde(
            2,
            (
                PolyCoeff.from_pairs([(0, 1), (1, Fraction(1, 3))]),
                PolyCoeff.constant(-1),
                PolyCoeff.from_pairs([(0, Fraction(1, 2)), (1, 2)]),
            ),
        ),
        [Fraction(1, 3), Fraction(-2, 5)],
    ),
}


@pytest.mark.parametrize("name", FAULT_EQUATIONS)
def test_nonlinear_residuals_place_a_fault_at_its_first_index(name):
    # A defect at z_s enters (Delta^m z)_{s-m} with weight 1 and no earlier index,
    # so the one Newton back-map must neither smear it earlier nor drop it.
    eq, init = FAULT_EQUATIONS[name]
    m, L = eq.m, 14
    z = nonlin_step(eq, init, L).values
    assert nonlin_residuals(eq, LatticeSeq(z)) == [0] * (L - m + 1)
    delta = Fraction(3, 11)
    for s in range(m, L + 1):
        table = nonlin_residuals(eq, LatticeSeq(z[:s] + (z[s] + delta,) + z[s + 1 :]))
        assert table[: s - m] == [0] * (s - m)
        assert table[s - m] == delta


def test_lattice_solution_is_the_image_of_the_taylor_solution():
    # The paper's identity: stepping from z_0..z_{m-1} equals the lattice image of
    # the Taylor solution whose first m coefficients are the transform of those values.
    rng = random.Random(29)
    for i in range(40):
        wide = i % 2 == 1
        eq = sweep_nonlinear(rng, wide)
        L = rng.randrange(eq.m - 1, 10 if wide else 18)
        init = LatticeSeq(tuple((wide_rat if wide else rand_rat)(rng) for _ in range(eq.m)))
        zeta_init = inverse_transform(init).coeffs
        assert nonlin_step(eq, init.values, L) == taylor_to_lattice(taylor_solution_nonlinear(eq, zeta_init, L), L)


def test_sweep_taylor_residuals_match_the_lattice_route():
    # taylor_residuals on the series integers against the oracles lin_residuals and
    # nonlin_residuals of taylor_to_lattice(b, L + order): on series solutions, on one
    # perturbed coefficient, on polynomial prefixes shorter than L + order + 1 (the
    # Newton integers zero-padded), and at L = 0.
    rng = random.Random(32)
    kinds = {"linear": 0, "nonlinear": 0, "short": 0, "perturbed nonzero": 0, "L = 0": 0}
    for i in range(60):
        wide = i % 3 == 2
        rat = wide_rat if wide else rand_rat
        if i % 2 == 0:
            eq = sweep_linear(rng)
            if eq.c0.is_zero:
                eq = LinearOde(eq.coeffs, c0=PolyCoeff.from_pairs([(rng.randrange(3), rat(rng) or Fraction(1))]))
            order, oracle, solve = eq.order, lin_residuals, taylor_solution_linear
        else:
            m, degree = rng.randrange(1, 3), rng.randrange(2, 4)
            coeffs = [PolyCoeff.from_pairs((p, rat(rng)) for p in rng.sample(range(3), rng.randrange(0, 3))) for _ in range(degree)]
            eq = NonlinearOde(m, (*coeffs, PolyCoeff.from_pairs([(0, rat(rng) or Fraction(1)), (1, rat(rng))])))
            order, oracle, solve = m, nonlin_residuals, taylor_solution_nonlinear
        kinds["linear" if i % 2 == 0 else "nonlinear"] += 1
        L = 0 if i % 5 == 0 else rng.randrange(1, 8 if wide else 13)
        kinds["L = 0"] += L == 0
        b = list(solve(eq, [rat(rng) for _ in range(order)], L + order + rng.randrange(0, 3)).coeffs)
        s = rng.randrange(order, L + order + 1)  # b_s enters the top-derivative term at n = s - order
        perturbed = b[:s] + [b[s] + rat(rng) + Fraction(1, 7)] + b[s + 1 :]
        short = [rat(rng) for _ in range(rng.randrange(1, L + order + 1))]
        for prefix in (b, perturbed, short):
            series = TaylorCoeffs(tuple(prefix))
            table = odes.taylor_residuals(eq, series, L)
            assert table == oracle(eq, taylor_to_lattice(series, L + order))
            assert len(table) == L + 1 and all(type(r) is Fraction for r in table)
        assert odes.taylor_residuals(eq, TaylorCoeffs(tuple(b)), L) == [0] * (L + 1)
        kinds["short"] += len(short) < L + order + 1
        kinds["perturbed nonzero"] += any(odes.taylor_residuals(eq, TaylorCoeffs(tuple(perturbed)), L))
    assert kinds["linear"] == kinds["nonlinear"] == 30 and kinds["short"] == 60
    assert kinds["L = 0"] >= 10 and kinds["perturbed nonzero"] == 60
    # Shapes the loop above reaches rarely or never: t-powers past the order (t^3 z'),
    # a Jacobi-type lead (1 - t^2) z'', inhomogeneous monomials above L, transcendental
    # prefixes at L up to 60, and a perturbation in each of the last order + 1 coefficients.
    rng = random.Random(33)
    shapes = dict.fromkeys(("reach", "jacobi", "c0 above L", "nonlinear"), 0)
    long_prefixes = 0
    for i in range(24):
        shape = tuple(shapes)[i % 4]
        L = rng.randrange(40, 61) if i % 8 < 4 else rng.randrange(0, 12)
        eq = structured_equation(rng, shape, L)
        linear = isinstance(eq, LinearOde)
        order, oracle, solve = (
            (eq.order, lin_residuals, taylor_solution_linear) if linear else (eq.m, nonlin_residuals, taylor_solution_nonlinear)
        )
        b = list(solve(eq, [rand_rat(rng) for _ in range(order)], L + order).coeffs)
        series = TaylorCoeffs(tuple(b))
        assert odes.taylor_residuals(eq, series, L) == oracle(eq, taylor_to_lattice(series, L + order)) == [0] * (L + 1)
        for s in range(L, L + order + 1):  # b_s first enters the residual at n = s - order
            perturbed = TaylorCoeffs(tuple(b[:s] + [b[s] + rand_rat(rng) + Fraction(1, 7)] + b[s + 1 :]))
            table = odes.taylor_residuals(eq, perturbed, L)
            assert table == oracle(eq, taylor_to_lattice(perturbed, L + order))
            assert all(type(r) is Fraction for r in table)
            first = max(s - order, 0)
            assert table[:first] == [0] * first
            assert s < order or table[first] != 0
        shapes[shape] += 1
        long_prefixes += L >= 40
    assert list(shapes.values()) == [6] * 4 and long_prefixes == 12


def structured_equation(rng: random.Random, shape: str, L: int) -> LinearOde | NonlinearOde:
    """One equation of the named shape; every lead has a nonzero constant term, so the origin is ordinary."""
    if shape == "jacobi":  # (1 - t^2) z'' + (beta - alpha - (alpha + beta + 2) t) z' + lambda z = 0
        alpha, beta = rand_rat(rng), rand_rat(rng)
        return LinearOde(
            (
                PolyCoeff.constant(rand_rat(rng) or 1),
                PolyCoeff.from_pairs([(0, beta - alpha), (1, -(alpha + beta + 2))]),
                PolyCoeff.from_pairs([(0, 1), (2, -1)]),
            )
        )
    high = PolyCoeff.from_pairs([(rng.randrange(0, 3), rand_rat(rng)), (L + rng.randrange(1, 4), rand_rat(rng) or 1)])
    if shape == "nonlinear":  # t^3 in every power's coefficient, a_0 with a monomial above L
        rest = [PolyCoeff.from_pairs([(rng.randrange(0, 3), rand_rat(rng)), (3, rand_rat(rng) or 1)]) for _ in range(rng.randrange(1, 3))]
        lead = PolyCoeff.from_pairs([(0, rand_rat(rng) or 1), (3, rand_rat(rng))])
        return NonlinearOde(rng.randrange(1, 3), (high, *rest, lead))
    N = rng.randrange(1, 3)
    reach = 3 if shape == "reach" else 1
    coeffs = [PolyCoeff.from_pairs([(rng.randrange(0, 3), rand_rat(rng)), (reach, rand_rat(rng) or 1)]) for _ in range(N)]
    lead = PolyCoeff.from_pairs([(0, rand_rat(rng) or 1), (reach, rand_rat(rng) or 1)])
    return LinearOde((*coeffs, lead), c0=high if shape == "c0 above L" else PolyCoeff.from_pairs([(0, rand_rat(rng))]))


def test_taylor_residuals_of_a_solution_build_no_pascal_image(monkeypatch):
    # The residual table of a series solution is the lattice image of a zero defect, so the
    # Pascal rule must only ever see an empty W; the lattice image of b itself would read
    # L + order + 1 of them. A perturbed solution shows that the recorder sees the calls.
    widths: list[int] = []
    pascal = transforms.newton_to_lattice

    def recording(w, *args):
        widths.append(len(w))
        return pascal(w, *args)

    monkeypatch.setattr(transforms, "newton_to_lattice", recording)
    L = 60
    hyper = hypergeometric_case(Fraction(1, 4), Fraction(-2, 3), Fraction(7, 4), length=L)
    riccati, riccati_init = FAULT_EQUATIONS["riccati"]
    forced, forced_init = FAULT_EQUATIONS["forced m=2"]
    jacobi = structured_equation(random.Random(34), "jacobi", L)
    solutions = [
        (hyper.equation, hyper.solutions[0]),
        (jacobi, taylor_solution_linear(jacobi, [Fraction(1, 3), Fraction(-2, 5)], L + 4)),
        (riccati, taylor_solution_nonlinear(riccati, riccati_init, L + 1)),
        (forced, taylor_solution_nonlinear(forced, forced_init, L + 3)),
    ]
    for eq, b in solutions:
        assert len(b.coeffs) >= L + (eq.order if isinstance(eq, LinearOde) else eq.m) + 1
        widths.clear()
        assert odes.taylor_residuals(eq, b, L) == [0] * (L + 1)
        assert widths == [0]
        widths.clear()
        bumped = TaylorCoeffs(b.coeffs[:L] + (b.coeffs[L] + 1,) + b.coeffs[L + 1 :])
        assert any(odes.taylor_residuals(eq, bumped, L))
        assert widths and max(widths) > 0


def test_taylor_residuals_of_nonlinear_equations_never_run_the_lattice_defect(monkeypatch):
    # The Taylor-space defect and the Newton defect of `nonlin_residuals` share no code, so
    # that the sweep above compares two implementations: with the lattice one refusing to
    # run, known nonzero tables and the zero tables of closed-form solutions still come out.
    def refuse(*args):
        raise AssertionError("taylor_residuals ran the lattice route's defect")

    monkeypatch.setattr(odes, "_nonlin_residual_newton", refuse)
    square = NonlinearOde(1, (PolyCoeff(()), PolyCoeff(()), PolyCoeff.constant(1)))
    cube = NonlinearOde(1, (PolyCoeff(()), PolyCoeff(()), PolyCoeff(()), PolyCoeff.constant(1)))
    forced = NonlinearOde(1, (PolyCoeff.constant(Fraction(1, 3)), PolyCoeff(()), PolyCoeff(((1, Fraction(1)),))))
    # z' = z^2 on 1 + 2t: R = 1 - 4t - 4t^2, whose image is 1 - 4n - 4n(n-1).
    assert odes.taylor_residuals(square, TaylorCoeffs((1, 2)), 3) == [1, -3, -15, -35]
    # z' = z^3 on 1 + t: R = -3t - 3t^2 - t^3, whose image is -3n - 3n(n-1) - n(n-1)(n-2).
    assert odes.taylor_residuals(cube, TaylorCoeffs((1, 1)), 3) == [0, -3, -12, -33]
    # z' = 1/3 + t z^2 on 1/2: R = -1/3 - t/4, whose image is -1/3 - n/4.
    want = [Fraction(-1, 3), Fraction(-7, 12), Fraction(-5, 6)]
    assert odes.taylor_residuals(forced, TaylorCoeffs((Fraction(1, 2),)), 2) == want
    # 1/(2 - t) solves z' = z^2, and (1 - 2t)^(-1/2), b_k = C(2k, k) / 2^k, solves z' = z^3.
    L = 30
    geometric = TaylorCoeffs(tuple(Fraction(1, 2 ** (k + 1)) for k in range(L + 2)))
    central = TaylorCoeffs(tuple(Fraction(comb(2 * k, k), 2**k) for k in range(L + 2)))
    assert odes.taylor_residuals(square, geometric, L) == odes.taylor_residuals(cube, central, L) == [0] * (L + 1)
    with pytest.raises(AssertionError, match="lattice route"):
        nonlin_residuals(square, LatticeSeq((1, 1, 2)))


def test_residual_ignores_entries_beyond_its_window():
    rng = random.Random(24)
    for make, residual, order in (
        (rand_linear, lin_residual, lambda eq: eq.order),
        (rand_nonlinear, nonlin_residual, lambda eq: eq.m),
    ):
        for _ in range(15):
            eq = make(rng)
            z = rand_seq(rng, order(eq) + 8)
            for n in range(z.last_index - order(eq) + 1):
                keep = z.values[: n + order(eq) + 1]
                changed = LatticeSeq(keep + tuple(rand_rat(rng) + 7 for _ in z.values[len(keep) :]))
                assert residual(eq, changed, n) == residual(eq, z, n)


def test_index_guards_and_messages():
    lin = LinearOde((PolyCoeff.constant(1), PolyCoeff(()), PolyCoeff.constant(1)))
    nonlin = NonlinearOde(2, (PolyCoeff(()), PolyCoeff(()), PolyCoeff.constant(1)))
    z = LatticeSeq((1, 1, 3))
    for residual, eq, at_zero in ((lin_residual, lin, 3), (nonlin_residual, nonlin, 1)):
        with pytest.raises(IndexOutOfRange, match=r"^residual at n=1 needs index 3, stored 0\.\.2$"):
            residual(eq, z, 1)
        with pytest.raises(IndexOutOfRange, match=r"^residual at n=-1 needs index 1, stored 0\.\.2$"):
            residual(eq, z, -1)
        assert residual(eq, z, 0) == at_zero
    with pytest.raises(IndexOutOfRange, match=r"^length L=0 shorter than the 2 initial values$"):
        lin_step(lin, (0, 1), 0)
    with pytest.raises(IndexOutOfRange, match=r"^length L=0 shorter than the 2 initial values$"):
        nonlin_step(nonlin, (0, 1), 0)
    const = ConstLinearEq((Fraction(1), Fraction(0)))
    with pytest.raises(IndexOutOfRange, match=r"^operator at n=1 needs index 3$"):
        apply_operator(const, [Fraction(v) for v in (0, 1, 2)], 1)
    one_entry = FundamentalSystem(((Fraction(1),), (Fraction(0),)))
    with pytest.raises(IndexOutOfRange, match=r"^need indices up to 1, solutions stored to 0$"):
        modified_wronskian(one_entry)


def test_solve_never_calls_the_taylor_solver(tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("stepping must solve the lattice recurrence itself")

    for name, module in list(sys.modules.items()):
        if name == "starlattice" or name.startswith("starlattice."):
            for attr in ("taylor_solution_linear", "taylor_solution_nonlinear"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    docs = {
        "0,1": {"type": "linear", "order": 2, "coeffs": [[[0, "1"]], [[1, "-2"]], [[0, "1"]]], "c0": []},
        "1/2": {"type": "nonlinear", "m": 1, "coeffs": [[[1, "1"]], [], [[0, "1"]], [[0, "-1"]]]},
    }
    for init, doc in docs.items():
        path = tmp_path / "eq.json"
        path.write_text(json.dumps(doc))
        assert run(["solve", "--input", str(path), "--length", "12", "--init", init]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 14
