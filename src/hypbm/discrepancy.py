"""Uniform-discrepancy experiments: sup_x |tail - Phi|, rate fits, sharpness.

The headline quantity is Delta(t) = sup_x |P((R_t - (d-1)t/2)/sqrt(t) >= x)
- Phi(x)|, which should decay like t^{-1/2} with a matching lower bound at
x = 0 (for d = 2 and odd d). The sup over the real line is replaced by a
search over [-10, 10]: outside that window both the tail and Phi sit within
1e-20 of their limits, far below every tolerance in play. The search's
coarse grid is a grid plus a certificate: since the tail and Phi both fall
in x, the values at two evaluated grid points bound |tail - Phi| at every
grid point between them, and a gap whose bound stays below the maximum found
so far is never evaluated: an even search evaluates every 8th point with
|x| <= 4 and then only the gaps left open, an odd one all of them. Each
golden-section step depends on the last, so the refinement's array calls
look ahead: one call evaluates the point a step needs together with both
candidates of each of the next few steps, and the search keeps only the
points its path reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import Dimension
from .logspace import LN2, vlogcosh_minus_x, vlogsinh_minus_x
from .quadrature import DEFAULT_SPEC, TAIL_SIGMA_MULTIPLIER, QuadratureSpec, integrate_adaptive
from .tails import _SQRT_2PI, _check_t, normal_tail, tail

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# golden steps planned per array tail call of a refinement, for up to
# 2^_LOOKAHEAD - 1 points a call: an array call's cost is mostly its fixed
# overhead (for even d the one or two rounds of a stacked quadrature, each
# one integrand call over every point still open), so 15 points
# cost little more than one. Against one point a call, depths 3, 4 and 5 cut
# the C7 searches (t = 10 to 1000, five t per d) by 32%, 37% and 35% for
# d = 2, 4 and by 36%, 44% and 38% for d = 3, 5 (medians of seven runs).
_LOOKAHEAD = 4
# the coarse grid's first call covers |x| <= _WINDOW, and gap bounds certify
# the rest: at x = +-4 the tail and Phi lie within about 1e-4 of their limits,
# so the edge gaps' bounds sit far below every sup of the sweeps (0.01 to
# 0.17), while the window holds 160 of the grid's 401 points
_WINDOW = 4.0
# the grid-index strides of the coarse stage's calls, counted from the
# window's first point. An even call's cost grows with its points, and
# strides 8, 2, 1 evaluate 38 to 93 grid points of an even search (d = 2..8,
# t = 1 to 1000) instead of 160; an odd call costs mostly fixed overhead, and
# strides 8, 2, 1 took the ten odd C7 searches 8.2 ms against 6.9 ms for the
# whole window (medians of 15 runs)
_EVEN_STRIDES = (8, 2, 1)
_ODD_STRIDES = (1, 1)
# the coarse grid, -10 to 10 in steps of 0.05, and the width at which the
# golden-section refinement stops; sup_discrepancy reads both when called
_GRID = np.arange(-10.0, 10.0 + 0.5 * 0.05, 0.05)
_RESOLUTION = 1e-4


@dataclass(frozen=True)
class SupResult:
    t: float
    delta: float
    argmax_x: float
    evaluations: int


@dataclass(frozen=True)
class DiscrepancyCurve:
    dimension: int
    records: tuple[SupResult, ...]

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
    The tail and Phi both fall in x, so between two evaluated grid points
    x_l < x_r every grid point has |tail - Phi| <= max(tail(x_l) + err_l -
    Phi(x_r), Phi(x_l) - tail(x_r) + err_r) + abs_tol + rel_tol, the margin
    covering the point's own error. The grid's ends act as evaluated points
    with tail = Phi = 1 on the left and 0 on the right, each with error 0, so
    the same rule bounds the points beyond the outermost evaluated ones. A
    gap whose bound lies strictly below the maximum found so far is
    certified: none of its points can be the grid's first maximum, so none
    is evaluated, and none can fail the search. The coarse stage makes one
    array call of tail per stride of _EVEN_STRIDES or _ODD_STRIDES (three
    for even d, two for odd), none where it has no point to evaluate: the
    first evaluates the points of |x| <= _WINDOW on its stride together with
    the window's last point, each later one the points on its stride inside
    the gaps still open. The refinement evaluates each needed point together
    with the candidates of the next _LOOKAHEAD - 1 steps in one array call,
    at every d; points its path never reaches are dropped. evaluations
    counts the points actually evaluated: the grid points not certified, the
    points the refinement visits and the check points. Ties on the coarse
    grid break toward the smallest x. A three-point check around the refined
    maximizer guards the unimodality assumption. The returned delta is the max over the grid, the
    refinement's visited steps and the check, so refinement can never lose
    against the grid; delta and argmax_x are bitwise those of a search that
    evaluates the whole grid.
    """
    dd = Dimension.of(d)
    xs, resolution = _GRID, _RESOLUTION

    def evaluate(at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """|tail - Phi| at every x, with the tail's values, its errors and Phi."""
        est = tail(dd, t, at, spec)
        phi = normal_tail(at)
        return np.abs(est.value - phi), est.value, est.error_estimate, phi

    def f(points) -> list[float]:
        return evaluate(np.asarray(points, dtype=float))[0].tolist()

    # grid point i sits at slot i + 1 of the arrays below; slots 0 and n + 1
    # are the grid's virtual ends, where tail = Phi = 1 (left) and 0 (right),
    # each with error 0
    n = len(xs)
    value, err, phi = np.zeros(n + 2), np.zeros(n + 2), np.zeros(n + 2)
    value[0] = phi[0] = 1.0
    done = np.zeros(n + 2, dtype=bool)
    done[[0, -1]] = True
    vals = np.full(n, -math.inf)  # a certified point stays -inf
    window = np.abs(xs) <= _WINDOW  # one run on the sorted grid
    first, last = window.nonzero()[0][[0, -1]]
    offset = np.arange(n) - first
    top, margin = -math.inf, spec.abs_tol + spec.rel_tol
    for k, stride in enumerate(_ODD_STRIDES if dd.is_odd else _EVEN_STRIDES):
        if k == 0:
            pick = window & (offset % stride == 0)
            pick[last] = True
        else:
            # the docstring's gap bound between consecutive evaluated slots,
            # whose margin also covers its rounding; a gap stays open unless
            # its bound lies strictly below the top
            slots = done.nonzero()[0]
            lo, hi = slots[:-1], slots[1:]
            bound = np.maximum(value[lo] + err[lo] - phi[hi], phi[lo] - value[hi] + err[hi]) + margin
            pick = np.repeat(~(bound < top), hi - lo)[1:] & ~done[1:-1] & (offset % stride == 0)
        at = pick.nonzero()[0]
        if at.size:
            slot = at + 1
            vals[at], value[slot], err[slot], phi[slot] = evaluate(xs[at])
            done[slot] = True
            top = max(top, float(vals[at].max()))
    evals = int(np.count_nonzero(done)) - 2
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
    return SupResult(t, best_v, best_x, evals)


def discrepancy_curve(d: Dimension | int, ts: Sequence[float]) -> DiscrepancyCurve:
    """One sup_discrepancy search per t, in increasing t."""
    dd = Dimension.of(d)
    return DiscrepancyCurve(dd.d, tuple(sup_discrepancy(dd, t) for t in sorted(float(t) for t in ts)))


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
    endpoint singularity, removed by u = w^2. It takes exactly the t that
    tail takes, finite and >= T_MIN, and raises ValueError for any other; the
    integrand is provably positive for t >= log 6.
    """
    _check_t(t)
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
