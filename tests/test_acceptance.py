"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact unless stated otherwise; the two timed criteria assert
their stated wall-clock budgets, and the performance criterion asserts only
the ordinal relation between the two star-power routes.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import factorial

from starlattice import (
    FourierSeq,
    LatticeSeq,
    TaylorCoeffs,
    falling_factorial,
    forward_transform,
    inverse_transform,
    taylor_to_lattice,
)
from starlattice.corpus import (
    damped_case,
    gaussian_case,
    harmonic_case,
    hermite_case,
    hypergeometric_case,
    riccati_case,
)
from starlattice.deltaops import (
    FORWARD_DIFFERENCE,
    SYMMETRIC_DIFFERENCE,
    DeltaStencil,
    basic_sequence,
    validate_stencil,
)
from starlattice.floatmode import bench_star_power, geometric_lattice, star_power_convolution
from starlattice.fourier import fourier_solution, fourier_step
from starlattice.galois import (
    ConstLinearEq,
    apply_operator,
    build_fundamental_system,
    modified_wronskian,
    system_from_sequences,
)
from starlattice.odes import lin_step, nonlin_residuals, nonlin_step
from starlattice.star import StarKernelArgs, star_kernel_bruteforce, star_kernel_closed, star_multiply


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-99, 100), rng.randrange(1, 30))


def test_criterion_01_transform_duality():
    rng = random.Random(101)
    start = time.perf_counter()
    for i in range(200):
        length = rng.randrange(1, 65)
        zeta = FourierSeq(tuple(_rand_fraction(rng) for _ in range(length)))
        assert inverse_transform(forward_transform(zeta)) == zeta
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"duality sweep took {elapsed:.2f}s"
    _report("criterion-01 transform duality", f"200 round trips, {elapsed:.2f}s")


def test_criterion_02_star_kernel_oracle():
    start = time.perf_counter()
    checked = 0
    for p in range(1, 5):
        for n in range(9):
            for ks in itertools.product(range(n + 1), repeat=p):
                if sum(ks) > n:
                    continue
                args = StarKernelArgs(n, ks)
                assert star_kernel_closed(args) == star_kernel_bruteforce(args)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"kernel oracle sweep took {elapsed:.2f}s"
    _report("criterion-02 star-kernel oracle", f"{checked} kernels, {elapsed:.2f}s")


def test_criterion_03_leibniz_axiom():
    rng = random.Random(103)
    for _ in range(100):
        u = LatticeSeq(tuple(_rand_fraction(rng) for _ in range(12)))
        v = LatticeSeq(tuple(_rand_fraction(rng) for _ in range(12)))
        du = LatticeSeq(tuple(u[n + 1] - u[n] for n in range(11)))
        dv = LatticeSeq(tuple(v[n + 1] - v[n] for n in range(11)))
        uv = star_multiply(u, v)
        lhs = [uv[n + 1] - uv[n] for n in range(11)]
        rhs1 = star_multiply(du, v.truncate(11))
        rhs2 = star_multiply(u.truncate(11), dv)
        assert all(lhs[n] == rhs1[n] + rhs2[n] for n in range(11))
    _report("criterion-03 Leibniz axiom", "100 random length-12 pairs, exact")


def test_criterion_04_linear_solution_transfer():
    length = 20
    cases = [harmonic_case(length=length), damped_case(Fraction(1), Fraction(1, 2), length=length),
             gaussian_case(length=length), hypergeometric_case(length=length)]
    cases.extend(hermite_case(m, length=length) for m in range(7))
    for case in cases:
        for table in case.residual_table(length):
            assert all(r == 0 for r in table), case.name
    harmonic = harmonic_case(length=length)
    stepped = lin_step(harmonic.equation, (0, 1), 12)
    assert stepped.values[:6] == (0, 1, 2, 2, 0, -4)
    assert stepped == taylor_to_lattice(harmonic.solutions[0], 12)
    _report(
        "criterion-04 linear solution transfer",
        f"{len(cases)} cases, residuals 0 for n<=20; flagship stepping matches",
    )


def test_criterion_05_nonlinear_solution_transfer():
    square = riccati_case(k=0, c1=Fraction(-1), length=14)
    stepped = nonlin_step(square.equation, (1,), 12)
    assert stepped.values[:5] == (1, 2, 5, 16, 65)
    assert stepped == taylor_to_lattice(TaylorCoeffs((1,) * 13), 12)
    quad = riccati_case(k=1, c1=Fraction(-2), c2=Fraction(0), length=12)
    z = taylor_to_lattice(quad.solutions[0], 11)
    residuals = nonlin_residuals(quad.equation, z)[:11]
    assert all(r == 0 for r in residuals)
    _report(
        "criterion-05 nonlinear solution transfer",
        "quadratic growth sequence matches; t*z^2 family residual 0 for n<=10",
    )


def test_criterion_06_morphism_homomorphy():
    two = LatticeSeq(tuple(Fraction(2) ** n for n in range(31)))
    three = LatticeSeq(tuple(Fraction(3) ** n for n in range(31)))
    assert star_multiply(two, two) == three
    _report("criterion-06 morphism homomorphy", "2^n star-square equals 3^n for n<=30")


def test_criterion_07_fourier_dynamics():
    from starlattice.odes import NonlinearOde, PolyCoeff

    eq = NonlinearOde(1, (PolyCoeff(()), PolyCoeff(()), PolyCoeff.constant(1)))
    zeta = fourier_step(eq, (1,), 30)
    assert zeta.coeffs == (Fraction(1),) * 31
    assert forward_transform(zeta) == nonlin_step(eq, (1,), 30)
    rng = random.Random(107)
    for _ in range(50):
        length = rng.randrange(1, 22)
        b = TaylorCoeffs(tuple(_rand_fraction(rng) for _ in range(length)))
        n = rng.randrange(0, 21)
        expected = b[n] if n < length else Fraction(0)
        assert fourier_solution(b, n) == expected
    _report(
        "criterion-07 transform-domain dynamics",
        "zeta streams match lattice stepping; solution formula collapses, 50 random series",
    )


def test_criterion_08_fundamental_systems():
    rng = random.Random(109)
    pool = sorted({Fraction(k, d) for d in (1, 2, 3) for k in range(-3 * d, 3 * d + 1)})
    for _ in range(20):
        N = rng.randrange(1, 5)
        roots = rng.sample(pool, N)
        coeffs = [Fraction(1)]
        for r in roots:
            shifted = [Fraction(0), *coeffs]
            for i in range(len(coeffs)):
                shifted[i] -= r * coeffs[i]
            coeffs = shifted
        eq = ConstLinearEq(tuple(coeffs[:-1]))
        L = 20 + N
        system = build_fundamental_system(eq, L)
        for sol in system.solutions:
            assert all(apply_operator(eq, sol, n) == 0 for n in range(L - N + 1))
        assert modified_wronskian(system) != 0
    sin_b, cos_b = [], []
    for k in range(12):
        if k % 2 == 0:
            sin_b.append(Fraction(0))
            cos_b.append(Fraction((-1) ** (k // 2), factorial(k)))
        else:
            sin_b.append(Fraction((-1) ** ((k - 1) // 2), factorial(k)))
            cos_b.append(Fraction(0))
    harmonic_system = system_from_sequences(
        [
            taylor_to_lattice(TaylorCoeffs(tuple(sin_b)), 10).values,
            taylor_to_lattice(TaylorCoeffs(tuple(cos_b)), 10).values,
        ]
    )
    assert modified_wronskian(harmonic_system) == -1
    _report(
        "criterion-08 fundamental systems",
        "20 random systems exact with nonzero Casoratian; harmonic Wronskian -1",
    )


def test_criterion_09_stencil_orders():
    assert validate_stencil(FORWARD_DIFFERENCE, 8) == 1
    assert validate_stencil(SYMMETRIC_DIFFERENCE, 8) == 2
    four_point = DeltaStencil(
        Fraction(1), -1, (Fraction(-1, 3), Fraction(-1, 2), Fraction(1), Fraction(-1, 6))
    )
    # independent symbolic expansion: first nonvanishing moment of power >= 2
    weights = {-1: Fraction(-1, 3), 0: Fraction(-1, 2), 1: Fraction(1), 2: Fraction(-1, 6)}
    expected = None
    for j in range(2, 9):
        if sum(a * k**j for k, a in weights.items()) != 0:
            expected = j - 1
            break
    assert validate_stencil(four_point, 8) == expected == 3
    basis = basic_sequence(FORWARD_DIFFERENCE, 12)
    for n in range(13):
        for k in range(13):
            assert basis.evaluate(k, Fraction(n)) == falling_factorial(n, k)
    _report(
        "criterion-09 stencil orders",
        "orders 1/2/3 as expanded; forward-difference basis is the falling factorials",
    )


def test_criterion_10_performance_ordinal():
    big = geometric_lattice(0.5, 2001)
    start = time.perf_counter()
    star_power_convolution(big, 3)
    big_elapsed = time.perf_counter() - start
    rows = bench_star_power(p=3, sizes=(256,), kernel_cap=256)
    row = rows[0]
    assert row["kernel_seconds"] is not None
    assert row["kernel_seconds"] > row["convolution_seconds"]
    _report(
        "criterion-10 performance ordinal",
        f"convolution L=2000 in {big_elapsed:.2f}s; "
        f"L=256 kernel {row['kernel_seconds']:.2f}s vs convolution {row['convolution_seconds']:.4f}s",
    )
