"""Radial density and normalized-fluctuation tail probabilities.

The quantity of interest is

  P( (R_t^{(d)} - (d-1)t/2) / sqrt(t) >= x )
    = omega_d int_T^inf q_d(t,r) sinh^{d-1} r dr,   T = (x sqrt(t) + (d-1)t/2) v 0,

compared against the Gaussian upper tail Phi(x). Direct integration of the
density (direct_kernel_quadrature) is exact but only overflow-safe for
t <= 50; the production paths use exact dimension reductions instead:

  d = 3     single stable Gaussian-weighted integral (no e^{t} cancellation):
            tail = (1/sqrt(2 pi)) int_{x v -sqrt t} (1 + v/sqrt t) e^{-v^2/2}
                   (1 - e^{-2(t + v sqrt t)}) dv
  odd d     boundary sum of kernel * operator-expansion values at T, plus the
            d=3 tail evaluated at time n^2 t (d = 2n+1)
  even d    boundary block J1, singular-free quadratures K1, and a stabilized
            unit-prefactor integral for the dominant block; for
            x <= -(n-1/2) sqrt(t) the threshold T pins at 0 and the dominant
            block switches to two Gaussian-shifted integrals N1 + N2

Every block is assembled in log space: the raw even-d decomposition pairs
e^{-n(n-1)t/2} against integrals growing like e^{+n(n-1)t/2}, which is
hopeless in doubles beyond t ~ 50 unless the growth is cancelled analytically
first (that is exactly what the stabilized forms do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .calculus import (
    double_factorial,
    evaluate_expansion_log,
    log_surface_area,
    sinh_power_derivative,
)
from .kernels import (
    Dimension,
    EvaluationPoint,
    LogValue,
    heat_kernel,
    q_odd,
)
from .logspace import LN2, LN2PI, log_sum, logsinh, vlogcosh, vlogsinh
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    integrate_adaptive,
    integrate_exp_log,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)

TailMethod = Literal[
    "closed_form_d3",
    "odd_reduction",
    "even_decomposition",
    "direct_kernel_quadrature",
    "monte_carlo",
]

T_MIN = 1e-3


@dataclass(frozen=True)
class FluctuationPoint:
    """Normalized deviation x at time t with its radius threshold T."""

    d: Dimension
    t: float
    x: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t >= T_MIN):
            raise ValueError(f"t must be finite and >= {T_MIN}, got {self.t}")
        if not math.isfinite(self.x):
            raise ValueError(f"x must be finite, got {self.x}")

    @property
    def boundary_x(self) -> float:
        """x below which the threshold pins at zero: -(d-1) sqrt(t) / 2."""
        return -0.5 * (self.d.d - 1) * math.sqrt(self.t)

    @property
    def threshold(self) -> float:
        if self.x <= self.boundary_x:
            return 0.0
        return math.sqrt(self.t) * (self.x - self.boundary_x)


@dataclass(frozen=True)
class TailEstimate:
    value: float
    error_estimate: float
    method: TailMethod


def normal_tail(x: float) -> float:
    """Standard normal upper tail Phi(x) = P(Z >= x)."""
    if math.isnan(x):
        raise ValueError("normal_tail requires a non-NaN argument")
    if x == math.inf:
        return 0.0
    if x == -math.inf:
        return 1.0
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def radial_density(d: Dimension | int, p: EvaluationPoint, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """omega_d q_d(t,r) sinh^{d-1} r, the density of the radial law."""
    dd = d.d if isinstance(d, Dimension) else int(d)
    if p.r == 0.0:
        return 0.0
    q = heat_kernel(dd, p, spec)
    return math.exp(log_surface_area(dd) + q.log + (dd - 1) * logsinh(p.r))


def _finalize(value: float, err: float, method: TailMethod) -> TailEstimate:
    # clamp to [0,1]; a clamp beyond the quoted error widens the error instead
    if value < 0.0:
        err = max(err, -value)
        value = 0.0
    elif value > 1.0:
        err = max(err, value - 1.0)
        value = 1.0
    return TailEstimate(value, err, method)


def _gaussian_window(lower: float, mult: float) -> tuple[float, float]:
    """Effective [lo, hi] for integrands bounded by poly * e^{-u^2/2}."""
    lo = max(lower, -mult)
    hi = max(lower, 0.0) + mult
    return lo, hi


def tail_d3(t: float, x: float, spec: QuadratureSpec = DEFAULT_SPEC) -> TailEstimate:
    """d=3 tail probability, exact up to quadrature error for every t >= T_MIN."""
    FluctuationPoint(Dimension(3), t, x)
    sqrt_t = math.sqrt(t)
    lower = max(x, -sqrt_t)
    lo, hi = _gaussian_window(lower, spec.tail_sigma_multiplier)

    def f(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return (1.0 + v / sqrt_t) * np.exp(-0.5 * v * v) * (-np.expm1(-2.0 * (t + v * sqrt_t)))

    res = integrate_adaptive(f, lo, hi, spec)
    value = res.value / _SQRT_2PI
    err = res.error_estimate / _SQRT_2PI + 1e-30
    return _finalize(value, err, "closed_form_d3")


def tail_odd(d: Dimension | int, t: float, x: float, spec: QuadratureSpec = DEFAULT_SPEC) -> TailEstimate:
    """Odd-dimension tail: boundary sum at T plus the d=3 tail at time n^2 t."""
    dd = d if isinstance(d, Dimension) else Dimension(int(d))
    if not dd.is_odd:
        raise ValueError(f"odd dimension required, got {dd.d}")
    n = dd.n
    base = tail_d3(n * n * t, x, spec)
    value, err = base.value, base.error_estimate
    fp = FluctuationPoint(dd, t, x)
    T = fp.threshold
    if n >= 2 and T > 0.0:
        parts: list[LogValue] = []
        for m in range(1, n):
            expansion = evaluate_expansion_log(sinh_power_derivative(2 * n - 1, m - 1), T)
            if expansion.sign == 0:
                continue
            qv = q_odd(2 * n + 1 - 2 * m, EvaluationPoint(t, T))
            lg = (
                log_surface_area(2 * n + 1)
                - (2 * n - m) * m * t / 2.0
                - m * LN2PI
                + qv.log
                + expansion.log
            )
            parts.append(LogValue(1, lg))
        boundary = log_sum(parts)
        value += boundary.value
    return _finalize(value, err, "odd_reduction")


def _log_a_n(n: int, t: float) -> float:
    """log of omega_{2n} e^{-n(n-1)t/2} / (2 pi)^{n-1}."""
    return log_surface_area(2 * n) - n * (n - 1) * t / 2.0 - (n - 1) * LN2PI


def _log_q2_prefactor(t: float) -> float:
    return 0.5 * LN2 - t / 8.0 - 1.5 * math.log(2.0 * math.pi * t)


def _cosh_power_integral(T: float, t: float, half_power_k: int, spec: QuadratureSpec) -> tuple[LogValue, float]:
    """int_T^inf s e^{-s^2/(2t)} (cosh s - cosh T)^{k-1/2} ds in log space.

    Regularized by s = T + w^2; log(cosh s - cosh T) = log 2 +
    log sinh((s+T)/2) + log sinh(w^2/2), exact at the endpoint.
    """
    k = half_power_k
    sqrt_t = math.sqrt(t)
    peak = (k - 0.5) * t
    s_max = max(T, peak) + spec.tail_sigma_multiplier * sqrt_t + sqrt_t
    w_hi = math.sqrt(s_max - T)

    def logf(w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        s = T + w * w
        return (
            np.log(2.0 * w)
            + np.log(s)
            - s * s / (2.0 * t)
            + (k - 0.5) * (LN2 + vlogsinh(0.5 * (s + T)) + vlogsinh(0.5 * w * w))
        )

    val, rel_err, _ = integrate_exp_log(logf, 0.0, w_hi, spec)
    return val, rel_err


def _boundary_block_even(n: int, t: float, T: float, spec: QuadratureSpec) -> tuple[LogValue, float]:
    """J1: kernel * expansion boundary terms of the even-d decomposition."""
    parts: list[LogValue] = []
    err = 0.0
    for m in range(1, n):
        expansion = evaluate_expansion_log(sinh_power_derivative(2 * n - 2, m - 1), T)
        if expansion.sign == 0:
            continue
        sub = 2 * n - 2 * m
        qv = heat_kernel(sub, EvaluationPoint(t, T), spec)
        lg = (
            log_surface_area(2 * n)
            - m * (n - (m + 1) / 2.0) * t
            - m * LN2PI
            + qv.log
            + expansion.log
        )
        parts.append(LogValue(1, lg))
        err += spec.rel_tol * math.exp(lg)
    return log_sum(parts), err


def _singular_free_block_even(n: int, t: float, T: float, spec: QuadratureSpec) -> tuple[LogValue, float]:
    """a_n K1: expansion-weighted (cosh s - cosh T)^{k-1/2} quadratures."""
    parts: list[LogValue] = []
    err = 0.0
    base = _log_a_n(n, t) + _log_q2_prefactor(t)
    for k in range(1, n):
        expansion = evaluate_expansion_log(sinh_power_derivative(2 * n - 2, n - 2 + k), T)
        if expansion.sign == 0:
            continue
        integral, rel_err = _cosh_power_integral(T, t, k, spec)
        if integral.sign == 0:
            continue
        lg = (
            base
            + k * LN2
            - math.log(double_factorial(2 * k - 1))
            + expansion.log
            + integral.log
        )
        parts.append(LogValue(1, lg))
        err += rel_err * math.exp(lg)
    return log_sum(parts), err


def tail_even(d: Dimension | int, t: float, x: float, spec: QuadratureSpec = DEFAULT_SPEC) -> TailEstimate:
    """Even-dimension tail via the stabilized decomposition (d = 2n)."""
    dd = d if isinstance(d, Dimension) else Dimension(int(d))
    if dd.is_odd:
        raise ValueError(f"even dimension required, got {dd.d}")
    n = dd.n
    sqrt_t = math.sqrt(t)
    nmh = n - 0.5
    fp = FluctuationPoint(dd, t, x)
    T = fp.threshold
    mult = spec.tail_sigma_multiplier

    if x <= fp.boundary_x:
        # T pinned at zero: the whole mass lies above the threshold. The
        # decomposition reproduces 1 as a_n K1 + N1 + N2 (J1 vanishes).
        k1, k1_err = _singular_free_block_even(n, t, 0.0, spec)

        def n_block(shift: float) -> tuple[float, float]:
            lower = -shift * sqrt_t
            lo, hi = _gaussian_window(lower, mult)

            def f(u: np.ndarray) -> np.ndarray:
                u = np.asarray(u, dtype=float)
                z = (u - lower) * sqrt_t
                base = np.exp(-0.5 * u * u)
                if n == 1:
                    return base
                return base * (-np.expm1(-z)) ** (2 * n - 2)

            res = integrate_adaptive(f, lo, hi, spec)
            return res.value / _SQRT_2PI, res.error_estimate / _SQRT_2PI

        n1, e1 = n_block(nmh)
        n2, e2 = n_block(n - 1.5)
        value = k1.value + n1 + math.exp(-(n - 1) * t) * n2
        err = k1_err + e1 + e2 + 1e-30
        return _finalize(value, err, "even_decomposition")

    # branch x > boundary: J1 + a_n K1 + stabilized dominant integral
    j1, j1_err = _boundary_block_even(n, t, T, spec)
    k1, k1_err = _singular_free_block_even(n, t, T, spec)

    u_hi = max(x, 0.0) + mult
    w_hi = math.sqrt(u_hi - x)

    def f(w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        u = x + w * w
        y = u * sqrt_t + nmh * t
        # (1 - cosh T / cosh y) = 2 sinh((y+T)/2) sinh((y-T)/2) / cosh y with
        # y - T = (u - x) sqrt(t) known exactly: no cancellation anywhere
        log_gap = LN2 + vlogsinh(0.5 * (y + T)) + vlogsinh(0.5 * sqrt_t * w * w) - vlogcosh(y)
        log_plus = np.log1p(np.exp(-2.0 * y))
        with np.errstate(divide="ignore"):
            return (
                2.0
                * w
                * (1.0 + u / (nmh * sqrt_t))
                * np.exp(-0.5 * u * u + nmh * (log_plus + log_gap))
            )

    res = integrate_adaptive(f, 0.0, w_hi, spec)
    value = j1.value + k1.value + res.value / _SQRT_2PI
    err = j1_err + k1_err + res.error_estimate / _SQRT_2PI + 1e-30
    return _finalize(value, err, "even_decomposition")


def tail(d: Dimension | int, t: float, x: float, spec: QuadratureSpec = DEFAULT_SPEC) -> TailEstimate:
    """Tail probability for any d >= 2, dispatching to the right reduction."""
    dd = d if isinstance(d, Dimension) else Dimension(int(d))
    if dd.d == 3:
        return tail_d3(t, x, spec)
    if dd.is_odd:
        return tail_odd(dd, t, x, spec)
    return tail_even(dd, t, x, spec)


def direct_kernel_quadrature(
    d: Dimension | int, t: float, x: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> TailEstimate:
    """Brute-force tail by integrating the radial density from T.

    The internal oracle for the reduction paths; restricted to d in [2, 7]
    and t <= 50, where the density stays inside the double range.
    """
    dd = d if isinstance(d, Dimension) else Dimension(int(d))
    if not (2 <= dd.d <= 7):
        raise ValueError(f"direct quadrature supports d in [2, 7], got {dd.d}")
    if t > 50.0:
        raise ValueError(f"direct quadrature supports t <= 50, got t={t}")
    fp = FluctuationPoint(dd, t, x)
    T = fp.threshold
    # relative error of each density value: the even kernel's own quadrature
    # tolerance, or the float round-off of the symbolic odd kernel
    kernel_rel_err = spec.rel_tol if dd.d % 2 == 0 else 1e-11
    sqrt_t = math.sqrt(t)
    center = 0.5 * (dd.d - 1) * t
    upper = max(T, center) + spec.tail_sigma_multiplier * sqrt_t

    def f(rs: np.ndarray) -> np.ndarray:
        out = np.empty(len(rs))
        for j, r in enumerate(np.asarray(rs, dtype=float)):
            out[j] = radial_density(dd, EvaluationPoint(t, float(r)), spec) if r > 0 else 0.0
        return out

    seeds = [
        p
        for p in (center - spec.tail_sigma_multiplier * sqrt_t, center - sqrt_t, center, center + sqrt_t)
        if T < p < upper
    ]
    res = integrate_adaptive(f, T, upper, spec, seed_points=seeds)
    err = res.error_estimate + kernel_rel_err * abs(res.value)
    return _finalize(res.value, err, "direct_kernel_quadrature")
