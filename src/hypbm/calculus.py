"""Exact combinatorics of the radial operator D = (1/sinh r) d/dr on sinh powers.

Repeated application of D to sinh^n r stays inside the family
c * cosh^a(r) * sinh^b(r) with integer coefficients, and the coefficients
admit one closed form, summed over the cosh powers j = k, k-2, ... >= 0 with
h = (k-j)/2:

  D^k sinh^n = sum_j k! / (2^h h! j!) * prod_{m=0}^{k-h-1}(n-2m)
                     * cosh^j sinh^{n-k-j}

For odd powers n = 2l+1 the l-fold application collapses to the single
closed form (2l+1)!!/(l+1) * sinh((l+1) r), which is what drives the
odd-dimension kernel reductions elsewhere in this package.

Coefficients are kept as exact Python ints (factorials up to 128! appear);
conversion to floating point happens only at evaluation, in log space, with
logspace.py's hyperbolic logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .logspace import LN2, logsinh, vlog_sum, vlogcosh_minus_x, vlogsinh_minus_x


def double_factorial(m: int) -> int:
    """m!! = m (m-2) (m-4) ... down to 2 or 1, with 0!! = (-1)!! = 1."""
    if m < -1:
        raise ValueError(f"double factorial undefined for m={m}")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def log_surface_area(d: int) -> float:
    """log of the surface area of the unit sphere S^{d-1}, 2 pi^{d/2} / Gamma(d/2)."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return LN2 + (d / 2.0) * math.log(math.pi) - math.lgamma(d / 2.0)


@dataclass(frozen=True)
class SinhPowerExpansion:
    """Exact expansion of D^k sinh^n r as sum of c * cosh^a r * sinh^b r.

    Terms are ordered by ascending cosh exponent with zero coefficients
    dropped, so equality of expansions is equality of term tuples.
    """

    base_power: int
    operator_applications: int
    terms: tuple[tuple[int, int, int], ...]  # (coefficient, cosh_exp, sinh_exp)

    def min_sinh_exponent(self) -> int:
        return min((b for _, _, b in self.terms), default=0)


def _falling_even_product(n: int, count: int) -> int:
    """prod_{m=0}^{count-1} (n - 2m); empty product is 1."""
    out = 1
    for m in range(count):
        out *= n - 2 * m
    return out


@lru_cache(maxsize=None)
def sinh_power_derivative(n: int, k: int) -> SinhPowerExpansion:
    """Exact expansion of D^k sinh^n r, D = (1/sinh r) d/dr."""
    if n < 1:
        raise ValueError(f"base power must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"operator applications must be >= 0, got {k}")

    terms: list[tuple[int, int, int]] = []
    for j in range(k % 2, k + 1, 2):  # the cosh power
        h = (k - j) // 2
        num = math.factorial(k) * _falling_even_product(n, k - h)
        den = (1 << h) * math.factorial(h) * math.factorial(j)
        c, rem = divmod(num, den)
        if rem:
            raise AssertionError("noninteger expansion coefficient")
        if c:
            terms.append((c, j, n - k - j))
    return SinhPowerExpansion(n, k, tuple(terms))


def evaluate_expansion_log_shifted(e: SinhPowerExpansion, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The expansion without its growth, e^{-(n-k) r} D^k sinh^n r, at every
    r >= 0 of a 1-d array, as a (sign, log) pair of arrays, each entry
    depending on its own r alone.

    Every term c cosh^a sinh^b has total degree a + b = n - k, so each
    contributes log|c| + a (log cosh r - r) + b (log sinh r - r), which stays
    bounded: large r costs no digits. At r = 0 only the sinh^0 terms survive.
    """
    rs = np.asarray(rs, dtype=float)
    if (rs < 0.0).any():
        raise ValueError(f"evaluation requires r >= 0, got {rs[rs < 0.0][0]}")
    if e.min_sinh_exponent() < 0 and (rs == 0.0).any():
        raise ValueError("expansion has negative sinh powers; r = 0 is outside its domain")
    # log sinh r - r is -inf at r = 0; past r = 9e307, -2r overflows harmlessly
    with np.errstate(divide="ignore", over="ignore"):
        lc, ls = vlogcosh_minus_x(rs), vlogsinh_minus_x(rs)
    return vlog_sum((1 if c > 0 else -1, math.log(abs(c)) + a * lc + (b * ls if b else 0.0)) for c, a, b in e.terms)


def evaluate_expansion(e: SinhPowerExpansion, r: float) -> float:
    """Float value of the expansion at r >= 0: the shifted log plus its growth
    (n - k) r, exponentiated once; OverflowError where the value exceeds the
    double range."""
    sign, lg = evaluate_expansion_log_shifted(e, np.array([r], dtype=float))
    return 0.0 if sign[0] == 0 else int(sign[0]) * math.exp(lg[0].item() + (e.base_power - e.operator_applications) * r)


def millson_identity_value(l: int, r: float) -> float:
    """Closed form (2l+1)!!/(l+1) * sinh((l+1) r) that D^l sinh^{2l+1} must equal."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    return double_factorial(2 * l + 1) / (l + 1) * math.sinh((l + 1) * r)


def log_millson_identity_value(l: int, r: float) -> float:
    """log of the closed form above, overflow-safe for large (l+1) r."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    return math.log(double_factorial(2 * l + 1) / (l + 1)) + logsinh((l + 1) * r)
