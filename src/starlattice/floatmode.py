"""Float evaluation paths, used only for benchmarking.

Verification stays exact elsewhere; nothing here feeds back into it. The
convolution route runs the Newton maps of `transforms`, the very maps the
exact paths run, and between them the Cauchy power `series.pow_trunc` on
floats. The difference table and the Pascal rule only add and subtract, so
they form no factorial or binomial. Both are prefix sums in C, the difference
table by signed anti-diagonals and the Pascal rule by columns, so each
float entry is one IEEE addition, with the bits of the row-by-row table
(an exactly cancelled zero Newton coefficient may come out as -0.0). Only
the scaling between Newton and series coefficients forms l!, which leaves
double range past l = 170.

The direct power route evaluates the closed kernel term-by-term over all
index tuples, exactly like its exact counterpart; per-tuple weights are
built as binomial chains to avoid bare factorials. Its cost is
O(L^(p+1))-ish by construction, which is the point of the benchmark.
"""

from __future__ import annotations

import time
from operator import mul

from .series import pow_trunc
from .transforms import lattice_to_newton, newton_to_lattice


def star_power_convolution(z: list[float], p: int) -> list[float]:
    """Transform, convolve p-1 times on scaled coefficients, transform back."""
    if p < 1:
        raise ValueError("arity must be at least 1")
    w = lattice_to_newton(z)
    # scale to series coefficients zeta_l = w_l / l!
    zeta = list(w)
    fact = 1.0
    for l in range(1, len(zeta)):
        fact *= l
        zeta[l] /= fact
    acc = pow_trunc(zeta, p, len(zeta) - 1)
    # back to w_l = l! * acc_l, index 0 included: an entry the product
    # skipped as zero is still the exact Fraction(0) and must become 0.0
    fact = 1.0
    for l in range(len(acc)):
        acc[l] *= fact
        fact *= l + 1
    return newton_to_lattice(acc)


def star_power_kernel(z: list[float], p: int) -> list[float]:
    """Literal tuple sum over the closed kernel; slow by design, and a timing subject only.

    Its alternating sum cancels: at p = 3 on the geometric 0.6 input it is off by about 1e-11 at L = 10, 1 at L = 30.
    """
    if p < 1:
        raise ValueError("arity must be at least 1")
    L = len(z) - 1
    y = [(-z[k] if k % 2 else z[k]) for k in range(L + 1)]
    # binomial rows and last-level weights C(r, k) * (p-1)^(r-k)
    binom = [[0.0] * (L + 1) for _ in range(L + 1)]
    for r in range(L + 1):
        binom[r][0] = 1.0
        for k in range(1, r + 1):
            binom[r][k] = binom[r - 1][k - 1] + (binom[r - 1][k] if k <= r - 1 else 0.0)
    base = float(p - 1)
    weights = [[0.0] * (r + 1) for r in range(L + 1)]
    for r in range(L + 1):
        pw = 1.0
        for k in range(r, -1, -1):
            weights[r][k] = binom[r][k] * pw
            pw *= base
    out = []
    for n in range(L + 1):
        total = 0.0

        def rec(level: int, rem: int, chain: float) -> float:
            if level == p - 1:
                wrow = weights[rem]
                return chain * sum(map(mul, y[: rem + 1], wrow))
            crow = binom[rem]
            acc = 0.0
            for k in range(rem + 1):
                yk = y[k]
                if yk != 0.0:
                    acc += rec(level + 1, rem - k, chain * crow[k] * yk)
            return acc

        total = rec(0, n, 1.0)
        out.append(-total if n % 2 else total)
    return out


def geometric_lattice(ratio: float, length: int) -> list[float]:
    """Bounded benchmark input: lattice image of a decaying exponential."""
    out = [1.0]
    for _ in range(length - 1):
        out.append(out[-1] * ratio)
    return out


def bench_star_power(p: int = 3, sizes=(64, 256), kernel_cap: int = 512) -> list[dict]:
    """Time both routes per size; the kernel route is skipped above the cap."""
    rows = []
    for length in sizes:
        z = geometric_lattice(0.5, length + 1)
        t0 = time.perf_counter()
        star_power_convolution(z, p)
        conv_s = time.perf_counter() - t0
        kernel_s = None
        if length <= kernel_cap:
            t0 = time.perf_counter()
            star_power_kernel(z, p)
            kernel_s = time.perf_counter() - t0
        rows.append(
            {
                "length": length,
                "arity": p,
                "convolution_seconds": conv_s,
                "kernel_seconds": kernel_s,
                "kernel_slower": None if kernel_s is None else kernel_s > conv_s,
            }
        )
    return rows
