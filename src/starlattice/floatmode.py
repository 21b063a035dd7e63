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

The direct power route is the exact oracle's tuple sum over the closed
kernel, `star.closed_kernel_sum`, run on floats: the same binomial chains
off a float Pascal table, so no bare factorial is formed. Its cost is
O(L^(p+1))-ish by construction, which is the point of the benchmark.
"""

from __future__ import annotations

import time

from .series import pow_trunc
from .star import closed_kernel_sum
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
    """`star.closed_kernel_sum` on floats; slow by design, and a timing subject only.

    Its alternating sum cancels: at p = 3 on the geometric 0.6 input it is off by about 1e-11 at L = 10, 1 at L = 30.
    Its float Pascal table overflows near n = 1030, where C(n, n/2) leaves the double range,
    and from there a weight inf times a 0.0 makes the entries NaN, at p = 1 too:
    `star_power_kernel(geometric_lattice(0.5, 1100), 1)` is NaN at every n >= 1030.
    """
    if p < 1:
        raise ValueError("arity must be at least 1")
    return closed_kernel_sum(z, p, 1.0)


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
