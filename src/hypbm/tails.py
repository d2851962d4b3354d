"""Radial density and normalized-fluctuation tail probabilities.

The quantity of interest is

  P( (R_t^{(d)} - (d-1)t/2) / sqrt(t) >= x )
    = omega_d int_T^inf q_d(t,r) sinh^{d-1} r dr,   T = (x sqrt(t) + (d-1)t/2) v 0,

compared against the Gaussian upper tail Phi(x). Direct integration of the
density (direct_kernel_quadrature) is the brute-force oracle; tail is exact
for every t, one formula per parity:

  odd d     the d=3 tail at time n^2 t (d = 2n+1) plus a boundary sum of
            kernel * operator-expansion values at T: no quadrature at all.
            d = 3 is the n = 1 case, with an empty sum; with l = x v -sqrt t,
            tail = Phi(l) + Phi(l + 2 sqrt t) + phi(l) (1 - e^{-2 sqrt t (l + sqrt t)}) / sqrt t
  even d    the descent identity q_d = sqrt 2 e^{(2d-1)t/8} int_r^inf q_{d+1}
            sinh s (cosh s - cosh r)^{-1/2} ds with the order of integration
            swapped (d = 2k+2):

              tail = omega_d sqrt 2 e^{(2d-1)t/8} int_T^inf q_{d+1}(t,s) sinh s I_k(T,s) ds,
              I_k(T,s) = int_T^s sinh^{2k+1} r (cosh s - cosh r)^{-1/2} dr
                       = sum_j b_j B(j+1, 1/2) V^{j+1/2},   V = cosh s - cosh T,

            where b_j are the (nonnegative) coefficients of
            (v + 2 sinh^2(T/2))^k (v + 2 cosh^2(T/2))^k: one quadrature over the
            exact odd kernel; at T = 0 the tail is exactly 1.

The even-d integrand is assembled with every e^{O(t)} and e^{O(s)} factor
cancelled analytically: it is a probability density in s (bounded by the
T = 0 one) times the substitution's Jacobian, computed from quantities that
stay O(1) for every t, so no shift, probe grid or log-space sum is needed.

tail(d, t, x) answers as normal_tail does: at a number x one TailEstimate
of floats, at a 1-d array x one TailEstimate of arrays in x order, each
entry bitwise the one-point call's; a number is the one-point case of the
same path. tail dispatches on parity to the private array paths _tail_odd
and _tail_even, which take their thresholds from one rule (_thresholds).
For even d the points are the intervals of one stacked quadrature
(integrate_adaptive), each seeded at its integrand's own widths, so that a
grid of x converges in one or two rounds, each one integrand call, instead
of one quadrature per point; for odd d every piece of the closed form is an
array over x, so a 401-point grid costs about as much as a few scalar calls.

The density likewise takes an array of r (_radial_density), from one kernel
call over the whole array, so the brute-force mass integral (_radial_mass)
evaluates each batch of its nodes at once; direct_kernel_quadrature and
verify's normalization suite share that one integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .calculus import evaluate_expansion_log_shifted, log_surface_area, sinh_power_derivative
from .kernels import (
    Dimension,
    EvaluationPoint,
    KernelError,
    _check_r,
    _log_gauss,
    _log_kernel,
    _log_odd_bracket,
    descent_gap,
    log_descent_fold,
)
from .logspace import LN2, vlogsinh_minus_x
from .quadrature import (
    DEFAULT_SPEC,
    TAIL_SIGMA_MULTIPLIER,
    QuadratureError,
    QuadratureResult,
    QuadratureSpec,
    integrate_adaptive,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)

TailMethod = Literal[
    "closed_form_d3",
    "odd_reduction",
    "even_decomposition",
    "direct_kernel_quadrature",
]
TailParts = tuple[np.ndarray, np.ndarray, TailMethod]

T_MIN = 1e-3


def _check_t(t: float) -> None:
    """ValueError for a t that no tail accepts: one not finite or below T_MIN."""
    if not (math.isfinite(t) and t >= T_MIN):
        raise ValueError(f"t must be finite and >= {T_MIN}, got {t}")


def _thresholds(d: Dimension, t: float, xs: np.ndarray) -> np.ndarray:
    """The radius threshold T = sqrt(t) (x - boundary_x) v 0 at every x of a
    1-d array, with boundary_x = -(d-1) sqrt(t) / 2: the one threshold rule of
    every tail. ValueError for a t or an x that no tail accepts."""
    _check_t(t)
    if not np.isfinite(xs).all():
        raise ValueError(f"x must be finite, got {xs[~np.isfinite(xs)][0]}")
    boundary = -0.5 * (d.d - 1) * math.sqrt(t)
    # T overflows to inf only for x near the double maximum
    with np.errstate(over="ignore"):
        return np.where(xs <= boundary, 0.0, math.sqrt(t) * (xs - boundary))


@dataclass(frozen=True)
class TailEstimate:
    """A tail and its error estimate: floats at one x, arrays over an array of x.
    Arrays compare by content; floats never equal a one-point array."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    method: TailMethod

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, TailEstimate) and self.method == other.method
        return same and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in ("value", "error_estimate"))


# erfc elementwise: numpy has none, and scipy stays off the import path
_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_tail(x):
    """Standard normal upper tail Phi(x) = P(Z >= x): a float at a number x, an
    array at an array x, each entry bitwise the one-point value."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.isnan(xs).any():
        raise ValueError("normal_tail requires a non-NaN argument")
    q = 0.5 * _erfc(xs / math.sqrt(2.0)).astype(float)
    return q if np.ndim(x) else float(q[0])


def radial_density(d: Dimension | int, p: EvaluationPoint, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """omega_d q_d(t,r) sinh^{d-1} r, the density of the radial law: the
    one-point case of _radial_density."""
    return _radial_density(Dimension.of(d).d, p.t, np.array([p.r], dtype=float), spec)[0].item()


# math's exp elementwise: it raises OverflowError where numpy's gives inf,
# and the CLI turns that into exit code 1, never a printed inf
_exp = np.frompyfunc(math.exp, 1, 1)


def _radial_density(d: int, t: float, rs: np.ndarray, spec: QuadratureSpec = DEFAULT_SPEC) -> np.ndarray:
    """radial_density at every r of a 1-d array, from one _log_kernel call
    over the r > 0; at r = 0 it is 0, with no kernel evaluated."""
    rs = np.asarray(rs, dtype=float)
    _check_r(t, rs)
    out = np.zeros(len(rs))
    pos = (rs > 0.0).nonzero()[0]
    log_q = _log_kernel(d, t, rs[pos], spec)
    # where q is 0, so is the density, though sinh^{d-1} r may overflow
    keep = log_q > -math.inf
    pos, log_q = pos[keep], log_q[keep]
    # e^{-2r} meets -2r = -inf harmlessly past r = 9e307
    with np.errstate(over="ignore"):
        log_sinh = rs[pos] + vlogsinh_minus_x(rs[pos])
    out[pos] = _exp(log_surface_area(d) + log_q + (d - 1) * log_sinh).astype(float)
    return out


def _radial_mass(d: int, t: float, T: float, spec: QuadratureSpec) -> QuadratureResult:
    """omega_d int_T^upper q_d sinh^{d-1}: the radial mass above T by brute-force
    integration of _radial_density, unclamped, with upper mult sqrt(t) past the
    larger of T and the bulk's center (d-1)t/2. t is checked as EvaluationPoint
    checks it before anything is integrated."""
    EvaluationPoint(t, 0.0)
    sqrt_t = math.sqrt(t)
    center = 0.5 * (d - 1) * t
    mult = TAIL_SIGMA_MULTIPLIER
    upper = max(T, center) + mult * sqrt_t
    seeds = [p for p in (center - mult * sqrt_t, center - sqrt_t, center, center + sqrt_t) if T < p < upper]
    return integrate_adaptive(lambda rs: _radial_density(d, t, rs, spec), T, upper, spec, seed_points=seeds)


def _clamp(value: np.ndarray, err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp every value to [0,1]; a clamp beyond the quoted error widens the error instead."""
    # max(0 - value, value - 1) is the clamp's size where it acts, else at most
    # 0 <= err; 0 - value is +0.0 at a value of 0, where -value is -0.0 and
    # np.maximum, given equal operands, returns the second
    return np.minimum(np.maximum(value, 0.0), 1.0), np.maximum(err, np.maximum(0.0 - value, value - 1.0))


def _finalize(value: np.ndarray, err: np.ndarray, method: TailMethod) -> TailParts:
    bad = ~np.isfinite(value)
    if bad.any():
        raise KernelError(f"{method} tail is not finite ({value[bad][0].item()!r})")
    return *_clamp(value, err), method


def _d3_parts(t: float, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The d=3 tail's value and error at every x, before the clamp: a closed
    form for every t >= T_MIN.

    With l = max(x, -sqrt t), integrating (1 + v/sqrt t) e^{-v^2/2}
    (1 - e^{-2(t + v sqrt t)}) / sqrt(2 pi) over v >= l gives
    Phi(l) + phi(l)/sqrt t + Phi(l + 2 sqrt t) - phi(l + 2 sqrt t)/sqrt t; the two
    phi terms are combined through expm1, so all three terms are nonnegative
    and nothing cancels.
    """
    sqrt_t = math.sqrt(t)
    lo = np.maximum(xs, -sqrt_t)
    hi = lo + 2.0 * sqrt_t
    q = normal_tail(np.concatenate((lo, hi)))
    q_lo, q_hi = q[: len(lo)], q[len(lo) :]
    # lo * lo and the expm1 argument overflow to inf harmlessly at huge x
    with np.errstate(over="ignore"):
        p = np.exp(-0.5 * lo * lo) / _SQRT_2PI * -np.expm1(-2.0 * sqrt_t * (lo + sqrt_t)) / sqrt_t
    value = q_lo + q_hi + p
    # a few ulps per term, plus the rounding of each Gaussian argument a, which
    # moves a decaying term by a relative a^2 eps; a * (a * term) stays 0, not
    # inf * 0, where a huge argument has flushed its term to 0
    lo_pos = np.maximum(lo, 0.0)
    err = _EPS * (4.0 * value + lo_pos * (lo_pos * q_lo) + hi * (hi * q_hi) + lo * (lo * p))
    return value, err


def _tail_odd(dd: Dimension, t: float, xs: np.ndarray) -> TailParts:
    """Odd-dimension tail (d = 2n+1) at every x of a 1-d array: the d=3 tail
    at time n^2 t plus a boundary sum at T over m < n of

      omega_d (2 pi)^{-m} e^{-(2n-m)mt/2} q_{2m'+1}(t,T) D^{m-1} sinh^{2n-1} T,   m' = n - m.

    At n = 1 the sum is empty and the d=3 closed form is the whole tail.
    q_{2m'+1}'s bracket is e^{-m'T} times _log_odd_bracket's, and the
    expansion, of total degree 2n - m, is e^{(2n-m)T} times its shifted log.
    With the kernel's prefactor e^{-m'^2 t/2 - T^2/(2t)}, every O(t) exponent
    cancels exactly: -(2n-m)mt/2 - m'^2 t/2 - T^2/(2t) + (2n-m-m')T = -x^2/2.
    Each term's log is -x^2/2 plus pieces that stay bounded for every t, so
    the tail holds to t = 1e300, and the error estimate adds a few eps per
    term to the d=3 tail's. KernelError is raised only where n^2 t overflows.
    Every piece is an array over x.
    """
    T = _thresholds(dd, t, xs)
    n = dd.n
    if not math.isfinite(n * n * t):
        raise KernelError(f"base time n^2 t overflows at d={dd.d}, t={t}")
    value, err = _clamp(*_d3_parts(n * n * t, xs))
    if n == 1:
        return _finalize(value, err, "closed_form_d3")
    # past x*x = inf every term's factor e^{-x^2/2} is 0 (and T may be inf)
    with np.errstate(over="ignore"):
        live = ((T > 0.0) & (xs * xs < math.inf)).nonzero()[0]
    if live.size:
        x, T = xs[live], T[live]
        log_c = log_surface_area(dd.d) - 0.5 * x * x + _log_gauss(n, t)
        # every coefficient of D^{m-1} sinh^{2n-1} is a product of positive
        # factors, as is the bracket, so every term is positive
        total = 0.0
        for m in range(1, n):
            expansion = evaluate_expansion_log_shifted(sinh_power_derivative(2 * n - 1, m - 1), T)
            total = total + np.exp(log_c + _log_odd_bracket(2 * (n - m) + 1, t, T) + expansion)
        value[live] += total
        # each term's log sums O(d) bounded pieces, a few eps each, and
        # -x^2/2, whose rounding moves the term by a relative x^2 eps
        err[live] += _EPS * (4.0 * dd.d + x * x) * total
    return _finalize(value, err, "odd_reduction")


def _tail_even(dd: Dimension, t: float, xs: np.ndarray, spec: QuadratureSpec) -> TailParts:
    """Even-dimension tail (d = 2k+2) at every x of a 1-d array by the swapped
    descent integral, each point its own interval of one stacked quadrature.

    With s = T + w^2, u = (s - (d-1)t/2)/sqrt t = x + w^2/sqrt t and
    nu = descent_gap(T, w^2) = (cosh s - cosh T) e^{-s}, the
    integrand in w is

      2w omega_d sqrt 2 (2 pi t)^{-3/2} (2 pi)^{-k} e^{-u^2/2 + log_descent_fold(s)}
         * sqrt(nu) sum_j b_j e^{-(2k-j)T} B(j+1, 1/2) nu^j e^{-(2k-j)w^2}:

    the factors e^{(2d-1)t/8 - (k+1)^2 t/2 - s^2/(2t)}, the fold's e^{-ks}
    and the V^{j+1/2} growth cancel exactly into e^{-u^2/2}, and the rescaled
    coefficients b_j e^{-(2k-j)T} are those of
    (v^2 + (1 + e^{-2T}) v + expm1(-2T)^2/4)^k, all nonnegative and O(1).
    With c_j the coefficient of the sum's j-th term, the sum is homogeneous
    of degree 2k in (nu, e^{-w^2}), so it runs as Horner's scheme, P = c_0,
    then P = P e^{-w^2} + c_j nu^j, with no array power; at d = 2 (k = 0) it
    is c_0 alone. Every factor is computed in doubles without cancellation
    for every t, the fold's bracket included, so the quadrature's estimate is
    the whole error.
    Each round of the stacked quadrature is one integrand call over every
    point still open, so the rounds, not the nodes, set the cost, and every
    interval starts from panels cut at its integrand's own widths: at w = 1,
    where the gap's factor 1 - e^{-w^2} bends at every t, at the Gaussian
    units u = -1, 0, 1 (the bulk) and u = 2.5, 5, which split the top panel,
    and, at large t, at w = 2, 4, 8, 16 inside the bend. Most one-point
    tails converge in one or two rounds; seeded in the bulk alone, they took
    two to five.
    At T = 0 the tail is exactly P(R_t >= 0) = 1, and where T overflows to inf
    exactly 0; only the points with 0 < T < inf are integrated.
    """
    Ts = _thresholds(dd, t, xs)
    # T overflows to inf only for x near the double maximum, where the tail is
    # exactly 0; inside the integrand it would meet inf - inf
    value, err = np.where(Ts == math.inf, 0.0, 1.0), np.zeros(len(xs))
    above = ((Ts > 0.0) & (Ts < math.inf)).nonzero()[0]
    if not above.size:
        return _finalize(value, err, "even_decomposition")
    x, T = xs[above], Ts[above]
    k = dd.n - 1
    sqrt_t = math.sqrt(t)
    # b_j e^{-(2k-j)T} B(j+1, 1/2) for j = 0..2k, a column per point: the
    # coefficients of (v^2 + (1 + e^{-2T}) v + expm1(-2T)^2/4)^k by repeated
    # convolution, times B(j+1, 1/2) = 2 prod_{i<=j} i/(i+1/2)
    m2T = -2.0 * np.minimum(T, 400.0)  # e^{-2T} is 0 past T = 373; the clamp keeps 2T finite
    constant, linear = 0.25 * np.expm1(m2T) ** 2, 1.0 + np.exp(m2T)
    coef = np.ones((1, len(T)))
    for _ in range(k):
        power = np.zeros((len(coef) + 2, len(T)))
        power[:-2] = constant * coef
        power[1:-1] += linear * coef
        power[2:] += coef
        coef = power
    beta = [2.0]
    for i in range(1, 2 * k + 1):
        beta.append(beta[-1] * (i / (i + 0.5)))
    # T, x and the weights of every point as rows, gathered per node in one indexing
    table = np.empty((2 * k + 3, len(T)))
    table[0], table[1] = T, x
    np.multiply(coef, np.array(beta)[:, None], out=table[2:])
    log_c = log_surface_area(dd.d) + 0.5 * LN2 + _log_gauss(k + 1, t)

    def f(w: np.ndarray, owner: np.ndarray) -> np.ndarray:
        rows = np.take(table, owner, axis=1)
        T_w, x_w = rows[0], rows[1]
        ww = w * w
        s = T_w + ww
        u = x_w + ww / sqrt_t
        # a non-finite value fails the quadrature; 2T overflows harmlessly past 9e307
        with np.errstate(divide="ignore", over="ignore"):
            nu = descent_gap(T_w, ww)
            decay, nu_j, poly = np.exp(-ww), 1.0, rows[2]
            for c_j in rows[3:]:
                nu_j = nu_j * nu
                poly = poly * decay + c_j * nu_j
            return 2.0 * w * (np.sqrt(nu) * poly) * np.exp(log_c - 0.5 * u * u + log_descent_fold(dd.d, t, s))

    # the seeds: w = 1; w = 2, 4, 8, 16, each where it lies at or below 1/8
    # of the top, since the gap's factor bends over w = 0.3 ... 4, and at
    # large t a panel over the whole bend holds too few nodes in it, so that
    # G10 and K21 agree on a wrong value; and w = sqrt(sqrt(t) (u - x)) at
    # u = -1, 0, 1, 2.5, 5, each where it lies above x; 2.5 and 5 split the
    # top panel, over which e^{-u^2/2} falls from e^{-1/2} to e^{-84} before
    # the top at u = max(x, 0) + mult + 1, past the bulk
    gaps = np.array([-1.0, 0.0, 1.0, 2.5, 5.0]) - x[:, None]
    top = np.sqrt(sqrt_t * (np.maximum(-x, 0.0) + TAIL_SIGMA_MULTIPLIER + 1.0))
    bends = np.array([2.0, 4.0, 8.0, 16.0])
    gauss = np.sqrt(sqrt_t * np.where(gaps > 0.0, gaps, np.nan))
    seeds = np.concatenate((np.ones((len(x), 1)), np.where(bends <= top[:, None] / 8.0, bends, np.nan), gauss), axis=1)
    stack = integrate_adaptive(f, np.zeros(len(x)), top, spec, seed_points=seeds)
    value[above], err[above] = stack.values, stack.errors
    return _finalize(value, err, "even_decomposition")


def tail(d: Dimension | int, t: float, x, spec: QuadratureSpec = DEFAULT_SPEC) -> TailEstimate:
    """Tail probability for any d >= 2: the odd reduction for odd d (its n = 1
    case is the d=3 closed form), the descent integral for even d.

    At a number x the TailEstimate holds floats. At a 1-d array x it holds
    arrays in x order, each entry bitwise a call with that x alone; a number
    is the one-point case of the same array path.
    """
    dd = Dimension.of(d)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"x must be a number or a 1-d array, got shape {xs.shape}")
    points = np.atleast_1d(xs)
    value, err, method = _tail_odd(dd, t, points) if dd.is_odd else _tail_even(dd, t, points, spec)
    return TailEstimate(value, err, method) if xs.ndim else TailEstimate(value[0].item(), err[0].item(), method)


def direct_kernel_quadrature(
    d: Dimension | int, t: float, x: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> TailEstimate:
    """Brute-force tail by integrating the radial density from T.

    The internal oracle for the reduction paths: the density comes from one
    log-space kernel call over each batch of quadrature nodes, so for even d
    every node is one interval of one stacked descent quadrature. The mass is
    asked for no more than the density's own rounding, 2 eps (d-1)^2 t, so it
    converges up to t ~ 1e13 (d = 2) or 1e11 (d = 12); past the t where that
    rounding exceeds 1e-2, the loosest rel_tol, it raises QuadratureError.
    The mass integral is the one normalization_suite runs from T = 0; only
    this oracle clamps it to [0, 1].
    """
    dd = Dimension.of(d)
    T = float(_thresholds(dd, t, np.array([x], dtype=float))[0])
    # a few eps of the density's log, whose terms reach about (d-1)^2 t / 2
    # over the bulk: no density value is better than that, so the mass is not
    # asked to be, and past a QuadratureSpec's loosest rel_tol nothing is left
    rounding = 2.0 * _EPS * (dd.d - 1) ** 2 * t
    if rounding > 1e-2:
        raise QuadratureError(f"density rounding {rounding:.3g} exceeds any rel_tol at d={dd.d}, t={t!r}")
    res = _radial_mass(dd.d, t, T, replace(spec, rel_tol=max(spec.rel_tol, rounding)))
    # relative error of each density value: the even kernel's own quadrature
    # tolerance, or the odd kernel's 1e-11 from its Bell sum, plus the rounding
    kernel_rel_err = (spec.rel_tol if dd.d % 2 == 0 else 1e-11) + rounding
    err = res.error_estimate + kernel_rel_err * abs(res.value)
    value, err, method = _finalize(np.array([res.value]), np.array([err]), "direct_kernel_quadrature")
    return TailEstimate(value[0].item(), err[0].item(), method)
