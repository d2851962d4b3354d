"""Uniform-discrepancy experiments: sup_x |tail - Phi|, rate fits, sharpness.

The headline quantity is Delta(t) = sup_x |P((R_t - (d-1)t/2)/sqrt(t) >= x)
- Phi(x)|, which should decay like t^{-1/2} with a matching lower bound at
x = 0 (for d = 2 and odd d). The sup over the real line is replaced by a
search over [-10, 10]: outside that window both the tail and Phi sit within
1e-20 of their limits, far below every tolerance in play. The search's
coarse grid is a grid plus a certificate: one array call of tail (for even d
one stacked quadrature, for odd d closed forms over arrays) evaluates its
points with |x| <= 4; since the tail and Phi both fall in x, the window's
edge values bound |tail - Phi| beyond it, and the points beyond are
evaluated, in one more call, only where that bound fails to stay below the
window's maximum. Each golden-section step depends on the last, so the
refinement's array calls look ahead: one call evaluates the point a step
needs together with both candidates of each of the next few steps, and the
search keeps only the points its path reaches. Both parities search alike:
a search makes 6 array calls of tail, 7 when the sup is too small to
certify the outer points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import Dimension
from .logspace import LN2, vlogcosh_minus_x, vlogsinh_minus_x
from .quadrature import DEFAULT_SPEC, TAIL_SIGMA_MULTIPLIER, QuadratureSpec, integrate_adaptive
from .tails import _SQRT_2PI, _tail_arrays, normal_tail, tail

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# golden steps planned per array tail call of a refinement, for up to
# 2^_LOOKAHEAD - 1 points a call: an array call's cost is mostly its fixed
# overhead (for even d the one or two rounds of a stacked quadrature, each
# one integrand call over every point still open), so 15 points
# cost little more than one. Against one point a call, depths 3, 4 and 5 cut
# the C7 searches (t = 10 to 1000, five t per d) by 32%, 37% and 35% for
# d = 2, 4 and by 36%, 44% and 38% for d = 3, 5 (medians of seven runs).
_LOOKAHEAD = 4
# the coarse grid is evaluated at |x| <= _WINDOW and certified beyond: at
# x = +-4 the tail and Phi lie within about 1e-4 of their limits, so the edge
# bounds sit far below every sup of the sweeps (0.01 to 0.17), while the
# window holds 160 of the grid's 401 points
_WINDOW = 4.0
# the coarse grid, -10 to 10 in steps of 0.05, and the width at which the
# golden-section refinement stops; sup_discrepancy reads both when called
_GRID = np.arange(-10.0, 10.0 + 0.5 * 0.05, 0.05)
_RESOLUTION = 1e-4


@dataclass(frozen=True)
class SupResult:
    delta: float
    argmax_x: float
    evaluations: int


@dataclass(frozen=True)
class DiscrepancyRecord:
    t: float
    delta: float
    argmax_x: float
    evaluations: int


@dataclass(frozen=True)
class DiscrepancyCurve:
    dimension: int
    records: tuple[DiscrepancyRecord, ...]

    def __post_init__(self) -> None:
        ts = [rec.t for rec in self.records]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("records must be strictly increasing in t")
        if any(rec.delta < 0.0 for rec in self.records):
            raise ValueError("delta must be nonnegative")


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float


def _golden_step(a: float, b: float, c: float, e: float, keep_left: bool) -> tuple[float, float, float, float]:
    """One golden-section step on [a, b] with interior points c < e.

    keep_left (f(c) >= f(e)) keeps [a, e] and adds a new c, otherwise [c, b]
    is kept and a new e added. The search and its lookahead both step through
    here, so a planned x is bitwise the x the search later asks for.
    """
    if keep_left:
        b, e = e, c
        return a, b, b - _GOLDEN * (b - a), e
    a, c = c, e
    return a, b, c, a + _GOLDEN * (b - a)


def _lookahead(a: float, b: float, c: float, e: float, depth: int, resolution: float) -> list[float]:
    """c, e and the interior points of every bracket the next depth - 1 steps can reach."""
    points = [c, e]
    if depth > 1 and b - a > resolution:
        for keep_left in (True, False):
            points += _lookahead(*_golden_step(a, b, c, e, keep_left), depth - 1, resolution)
    return points


def sup_discrepancy(d: Dimension | int, t: float, spec: QuadratureSpec = DEFAULT_SPEC) -> SupResult:
    """sup_x |tail(d, t, x) - Phi(x)| by coarse grid plus golden-section refine.

    The coarse grid is _GRID, and the refinement stops at width _RESOLUTION.
    One array call of tail evaluates the grid's points with |x| <= _WINDOW.
    The tail and Phi both fall in x, so every grid point right of the
    window's last point x_b has |tail - Phi| <= max(tail(x_b) + err_b,
    Phi(x_b)), and every point left of its first point x_a at most
    max(1 - tail(x_a) + err_a, 1 - Phi(x_a)), each plus abs_tol + rel_tol for
    the outer point's own error. A side whose bound lies strictly below the
    window's maximum is certified: none of its points can be the grid's
    first maximum, so none is evaluated, and none can fail the search. The
    points not certified are evaluated in one more array call. The
    refinement evaluates each needed point together with the candidates of
    the next _LOOKAHEAD - 1 steps in one array call, at every d; points its
    path never reaches are dropped. evaluations counts the points actually
    evaluated: the grid points not certified, the points the refinement
    visits and the check points. Ties on the coarse grid break toward the
    smallest x. A three-point check around the refined maximizer guards the
    unimodality assumption. The returned delta is the max over the grid, the
    refinement's visited steps and the check, so refinement can never lose
    against the grid; delta and argmax_x are bitwise those of a search that
    evaluates the whole grid.
    """
    dd = Dimension.of(d)
    xs, resolution = _GRID, _RESOLUTION

    def evaluate(at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """|tail - Phi| at every x, with the tail's values, its errors and Phi."""
        values, errors, _ = _tail_arrays(dd, t, at, spec)
        phi = normal_tail(at)
        return np.abs(values - phi), values, errors, phi

    def f(points) -> list[float]:
        return evaluate(np.asarray(points, dtype=float))[0].tolist()

    # the window is a mask and the outer points its complement, so the two
    # partition the grid; on the sorted grid the window is one run
    vals = np.full(len(xs), -math.inf)  # a certified point stays -inf
    outer = np.abs(xs) > _WINDOW
    window = (~outer).nonzero()[0]
    fw, value, err, phi = evaluate(xs[window])
    vals[window] = fw
    # the docstring's bounds: |a - b| <= max(a, b) and <= max(1 - a, 1 - b)
    # for a, b in [0, 1] hold in doubles too; the margin, the quadrature's
    # target for a tail in [0, 1], covers the outer point's own error
    top, margin = fw.max(), spec.abs_tol + spec.rel_tol
    if max(1.0 - value[0] + err[0], 1.0 - phi[0]) + margin < top:
        outer[: window[0]] = False
    if max(value[-1] + err[-1], phi[-1]) + margin < top:
        outer[window[-1] + 1 :] = False
    rest = outer.nonzero()[0]
    if rest.size:
        vals[rest] = evaluate(xs[rest])[0]
    evals = window.size + rest.size
    i = int(np.argmax(vals))  # first max = smallest x on ties
    best_x, best_v = float(xs[i]), float(vals[i])

    # golden-section maximization of f on [a, b], reading f from the points
    # evaluated so far; each array call looks _LOOKAHEAD - 1 steps ahead
    known: dict[float, float] = {}

    def ensure(a: float, b: float, c: float, e: float) -> tuple[float, float]:
        if c not in known or e not in known:
            new = [x for x in dict.fromkeys(_lookahead(a, b, c, e, _LOOKAHEAD, resolution)) if x not in known]
            known.update(zip(new, f(new)))
        return known[c], known[e]

    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, len(xs) - 1)])
    c = b - _GOLDEN * (b - a)
    e = a + _GOLDEN * (b - a)
    fc, fe = ensure(a, b, c, e)
    evals += 2
    while b - a > resolution:
        a, b, c, e = _golden_step(a, b, c, e, fc >= fe)
        fc, fe = ensure(a, b, c, e)
        evals += 1
        for xx, vv in ((c, fc), (e, fe)):
            if vv > best_v:
                best_v, best_x = vv, float(xx)
    # unimodality sanity: the refined point should not be dominated nearby
    check = [xx for xx in (best_x - 2 * resolution, best_x + 2 * resolution) if xs[0] <= xx <= xs[-1]]
    evals += len(check)
    for xx, vv in zip(check, f(check)):
        if vv > best_v:
            best_v, best_x = vv, float(xx)
    return SupResult(best_v, best_x, evals)


def discrepancy_curve(d: Dimension | int, ts: Sequence[float]) -> DiscrepancyCurve:
    dd = Dimension.of(d)
    records = []
    for t in sorted(float(t) for t in ts):
        res = sup_discrepancy(dd, t)
        records.append(DiscrepancyRecord(t, res.delta, res.argmax_x, res.evaluations))
    return DiscrepancyCurve(dd.d, tuple(records))


def sharpness_at_zero(d: Dimension | int, t: float) -> float:
    """sqrt(t) * (tail(d, t, 0) - 1/2), the scaled excess at the center."""
    return math.sqrt(t) * (tail(d, t, 0.0).value - 0.5)


def rate_fit(curve: DiscrepancyCurve) -> RateFit:
    """Least-squares slope of log delta against log t."""
    if len(curve.records) < 4:
        raise ValueError(f"rate fit needs >= 4 records, got {len(curve.records)}")
    if any(rec.delta <= 0.0 for rec in curve.records):
        raise ValueError("rate fit needs strictly positive deltas")
    lt = np.log([rec.t for rec in curve.records])
    ld = np.log([rec.delta for rec in curve.records])
    slope, intercept = np.polyfit(lt, ld, 1)
    resid = ld - (slope * lt + intercept)
    return RateFit(float(slope), float(intercept), float(np.sqrt(np.mean(resid**2))))


def sharpness_d2_integral(t: float) -> float:
    """d=2 center excess tail(2,t,0) - 1/2 through an independent integral.

    Uses the exact representation (1/sqrt(2 pi)) int_0^inf e^{-u^2/2} F_t(u) du
    with

      F_t(u) = (1 - cosh(t/2)/cosh(u sqrt t + t/2))^{-1/2}
               (1 - e^{-2(u sqrt t + t/2)}) (1 + e^{-2(u sqrt t + t/2)})^{-1/2} - 1,

    an integration-by-parts form that shares no code with tail(2, ...) (the
    swapped-order descent integral over q_3 in _tail_even), so the two serve
    as independent cross-checks. F_t has an integrable u^{-1/2}
    endpoint singularity, removed by u = w^2. Valid for all t > 0; the
    integrand is provably positive for t >= log 6.
    """
    if not (t > 0.0):
        raise ValueError(f"t must be positive, got {t}")
    sqrt_t = math.sqrt(t)
    mult = TAIL_SIGMA_MULTIPLIER
    # F_t dies off like e^{-u sqrt t}; keep both that scale and the Gaussian one
    u_hi = min(mult, max(2.0, mult * 4.0 / sqrt_t))
    w_hi = math.sqrt(u_hi)

    def f(w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        u = w * w
        y = u * sqrt_t + 0.5 * t
        # 1 - cosh(t/2)/cosh(y) = 2 sinh(half + t/2) sinh(half) / cosh y, whose x terms cancel
        half = 0.5 * u * sqrt_t
        log_gap = LN2 + vlogsinh_minus_x(half + 0.5 * t) + vlogsinh_minus_x(half) - vlogcosh_minus_x(y)
        e2y = np.exp(-2.0 * y)
        log_g = np.log1p(-e2y) - 0.5 * np.log1p(e2y)
        ft = np.expm1(log_g - 0.5 * log_gap)
        return 2.0 * w * np.exp(-0.5 * u * u) * ft

    seeds = [w for w in (0.25 * t ** -0.25, t ** -0.25, 4.0 * t ** -0.25) if 0.0 < w < w_hi]
    res = integrate_adaptive(f, 0.0, w_hi, seed_points=seeds)
    return res.value / _SQRT_2PI
