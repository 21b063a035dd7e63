from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from starlattice import (
    ArityZero,
    LatticeSeq,
    LengthMismatch,
    TaylorCoeffs,
    taylor_to_lattice,
)
from starlattice import floatmode
from starlattice.floatmode import geometric_lattice, star_power_convolution
from starlattice.series import mul_trunc
from starlattice.star import (
    StarKernelArgs,
    monomial_star,
    monomial_star_kernel,
    star_kernel_bruteforce,
    star_kernel_closed,
    star_multiply,
    star_power,
    star_power_kernel,
    unit_sequence,
)


def rand_seq(rng: random.Random, length: int) -> LatticeSeq:
    return LatticeSeq(tuple(Fraction(rng.randrange(-20, 21), rng.randrange(1, 8)) for _ in range(length)))


def geometric(base: Fraction, length: int) -> LatticeSeq:
    return LatticeSeq(tuple(Fraction(base) ** n for n in range(length)))


def delta(z: LatticeSeq) -> LatticeSeq:
    return LatticeSeq(tuple(z[n + 1] - z[n] for n in range(len(z) - 1)))


def test_basis_shift_rule():
    # p_1 * p_1 = p_2 on the lattice.
    p1 = LatticeSeq(tuple(range(8)))
    sq = star_multiply(p1, p1)
    assert sq.values == tuple(n * (n - 1) for n in range(8))


def test_unit_element():
    rng = random.Random(5)
    v = rand_seq(rng, 9)
    assert star_multiply(unit_sequence(9), v) == v
    assert star_multiply(v, unit_sequence(9)) == v


def test_exponential_morphism():
    two = geometric(Fraction(2), 12)
    assert star_multiply(two, two) == geometric(Fraction(3), 12)


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        star_multiply(unit_sequence(3), unit_sequence(4))


def test_commutative_associative():
    rng = random.Random(11)
    for _ in range(12):
        length = rng.randrange(2, 13)
        u, v, w = (rand_seq(rng, length) for _ in range(3))
        assert star_multiply(u, v) == star_multiply(v, u)
        assert star_multiply(star_multiply(u, v), w) == star_multiply(u, star_multiply(v, w))


def test_leibniz_rule():
    rng = random.Random(13)
    for _ in range(100):
        length = 12
        u, v = rand_seq(rng, length), rand_seq(rng, length)
        lhs = delta(star_multiply(u, v))
        cut = length - 1
        rhs1 = star_multiply(delta(u), v.truncate(cut))
        rhs2 = star_multiply(u.truncate(cut), delta(v))
        for n in range(cut):
            assert lhs[n] == rhs1[n] + rhs2[n]


def test_star_power_identity_arity_one():
    rng = random.Random(17)
    z = rand_seq(rng, 10)
    assert star_power(z, 1) == z
    assert star_power_kernel(z, 1) == z


def test_star_power_exponential_cube():
    z = geometric(Fraction(2), 10)
    assert star_power(z, 3) == geometric(Fraction(4), 10)


def test_star_power_zero_arity_rejected():
    with pytest.raises(ArityZero):
        star_power(unit_sequence(4), 0)
    with pytest.raises(ArityZero):
        star_power_kernel(unit_sequence(4), 0)
    with pytest.raises(ValueError):
        floatmode.star_power_kernel([1.0] * 4, 0)


def test_star_power_paths_agree():
    rng = random.Random(23)
    for p in range(1, 5):
        for _ in range(4):
            length = rng.randrange(2, 10)
            z = rand_seq(rng, length)
            assert star_power(z, p) == star_power_kernel(z, p)


def test_float_convolution_route_returns_floats():
    # z_0 = 0 makes the Cauchy product skip entries, which must still come back as floats
    z = [0.0, 1.0, 3.0, -2.0, 0.5]
    for p in (1, 2, 3):
        got = star_power_convolution(z, p)
        exact = star_power(LatticeSeq(tuple(Fraction(x) for x in z)), p)
        assert all(type(v) is float for v in got)
        assert got == pytest.approx([float(v) for v in exact.values])


def test_float_kernel_route_matches_the_exact_power_on_short_inputs():
    """`floatmode.star_power_kernel` is a timing subject only; its values are pinned where they still hold.

    Its alternating tuple sum cancels: at p = 3 on the geometric 0.6 input the
    error against the exact power is 7.8e-12 at L = 10, 2.9e-6 at L = 20 and
    1.4 at L = 30, so only L <= 10 is checked.
    """
    rng = random.Random(61)
    inputs = [geometric_lattice(0.6, L + 1) for L in range(11)]
    inputs += [[rng.uniform(-1, 1) for _ in range(rng.randrange(1, 12))] for _ in range(20)]
    for z in inputs:
        for p in (1, 2, 3):
            got = floatmode.star_power_kernel(z, p)
            exact = star_power(LatticeSeq(tuple(Fraction(x) for x in z)), p)
            tol = 1e-10 * max(abs(x) for x in z) ** p
            assert len(got) == len(z)
            assert all(abs(g - float(e)) <= tol for g, e in zip(got, exact.values))


# floatmode.star_power_kernel(geometric_lattice(0.5, 41), 3) as float.hex, written
# by the float route's own copy of the tuple sum before it shared the exact one.
# The exact power is (-1/2)^n; from n = 26 on the float sum's cancellation shows.
GEOMETRIC_HALF_CUBE_BITS = [
    *(f"{'-' if n % 2 else ''}0x1.0000000000000p{-n:+d}" for n in range(26)),
    '-0x1.4000000000000p-23', '0x1.6000000000000p-22', '0x1.5400000000000p-22',
    '0x1.3840000000000p-18', '0x1.45c0000000000p-20', '0x1.3552000000000p-16',
    '-0x1.a300000000000p-19', '0x1.377c000000000p-15', '0x1.80d7000000000p-15',
    '-0x1.f69b580000000p-11', '-0x1.c3e6d24000000p-10', '0x1.a9f9ad5000000p-9',
    '-0x1.6bffa9c200000p-7', '-0x1.a3e85c6780000p-6', '0x1.4f7dc08d80000p-7',
]


def test_float_kernel_route_keeps_its_bits_past_the_short_inputs():
    got = floatmode.star_power_kernel(geometric_lattice(0.5, 41), 3)
    assert [x.hex() for x in got] == GEOMETRIC_HALF_CUBE_BITS


def full_scan_mul_trunc(a: list, b: list, D: int) -> list:
    """Reference: the Cauchy product scanning every entry of b."""
    out = [Fraction(0)] * (D + 1)
    for i, ai in enumerate(a):
        if i > D or ai == 0:
            continue
        for j in range(min(D - i, len(b) - 1) + 1):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def test_mul_trunc_skips_a_zero_tail_of_b():
    rng = random.Random(47)
    for _ in range(60):
        head = rng.randrange(0, 8)
        scalars = (0.0, Fraction(0), rng.uniform(-2, 2), Fraction(rng.randrange(-9, 10), 7))
        a = [rng.choice(scalars) for _ in range(rng.randrange(1, 12))]
        b = [rng.choice(scalars) for _ in range(head)]
        b += [rng.choice((0.0, Fraction(0), 0)) for _ in range(rng.randrange(0, 10))]
        D = rng.randrange(0, 20)
        got, want = mul_trunc(a, b, D), full_scan_mul_trunc(a, b, D)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
    # an all-zero b leaves every entry the untouched Fraction(0)
    got = mul_trunc([1.5, 2.0], [0.0, Fraction(0)], 3)
    assert got == [0] * 4 and all(type(v) is Fraction for v in got)


# The benchmark's float tolerance: entries 0..10 within FLOAT_TOL * max|z|^p.
FLOAT_TOL = 1e-8
FLOAT_PREFIX = 10


def test_float_route_on_long_geometric_inputs_is_finite_exactly_through_170():
    """Known defect: l! leaves the double range at l = 171, and from there every entry is non-finite."""
    rng = random.Random(53)
    for L in (171, 240, 600):
        for p in (2, 3, 4):
            ratio, scale = rng.uniform(0.3, 0.9), rng.uniform(0.5, 2.0)
            z = [scale * ratio**n for n in range(L + 1)]
            got = star_power_convolution(z, p)
            assert len(got) == L + 1
            assert all(math.isfinite(v) for v in got[:171])
            assert not any(math.isfinite(v) for v in got[171:])
            exact = star_power(LatticeSeq(tuple(Fraction(x) for x in z[: FLOAT_PREFIX + 1])), p)
            tol = FLOAT_TOL * max(abs(x) for x in z) ** p
            assert all(abs(g - float(e)) <= tol for g, e in zip(got, exact.values))


def test_star_power_sum_of_falling_factorials():
    b = TaylorCoeffs((1,) * 13)
    z = taylor_to_lattice(b, 12)
    assert z.values[:5] == (1, 2, 5, 16, 65)
    assert star_power(z, 2) == star_power_kernel(z, 2)


def test_kernel_closed_examples():
    assert star_kernel_closed(StarKernelArgs(2, (1, 1))) == 2
    assert star_kernel_closed(StarKernelArgs(1, (0, 0))) == -1
    assert star_kernel_closed(StarKernelArgs(1, (1, 1))) == 0


def test_kernel_bruteforce_examples():
    assert star_kernel_bruteforce(StarKernelArgs(1, (1, 1))) == 0
    assert star_kernel_bruteforce(StarKernelArgs(2, (1, 1))) == 2
    args = StarKernelArgs(3, (0, 1))
    assert star_kernel_bruteforce(args) == star_kernel_closed(args)


def test_kernel_oracle_sweep():
    for p in range(1, 5):
        for n in range(9):
            for ks in itertools.product(range(n + 1), repeat=p):
                if sum(ks) > n:
                    continue
                args = StarKernelArgs(n, ks)
                assert star_kernel_closed(args) == star_kernel_bruteforce(args)


def test_monomial_star_zero_power():
    rng = random.Random(31)
    w = rand_seq(rng, 8)
    assert monomial_star(0, w) == w
    assert monomial_star_kernel(0, w) == w


def test_monomial_star_constant():
    c = Fraction(3, 4)
    w = LatticeSeq((c,) * 6)
    out = monomial_star(1, w)
    assert out.values == tuple(n * c for n in range(6))


def test_monomial_star_forms_agree():
    rng = random.Random(37)
    for m in range(5):
        for _ in range(3):
            w = rand_seq(rng, 16)
            shift = monomial_star(m, w)
            kernel = monomial_star_kernel(m, w)
            assert shift == kernel
    w = rand_seq(rng, 11)
    assert monomial_star_kernel(1, w)[2] == 2 * w[1]


def test_morphism_homomorphy():
    rng = random.Random(41)
    for _ in range(10):
        length = rng.randrange(1, 13)
        b = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(length)]
        c = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(length)]
        prod = mul_trunc(b, c, length - 1)
        lhs = taylor_to_lattice(TaylorCoeffs(tuple(prod)), length - 1)
        rhs = star_multiply(
            taylor_to_lattice(TaylorCoeffs(tuple(b)), length - 1),
            taylor_to_lattice(TaylorCoeffs(tuple(c)), length - 1),
        )
        assert lhs == rhs
