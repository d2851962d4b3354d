"""Adaptive one-dimensional Gauss-Kronrod quadrature over a stack of intervals.

A nested 10/21 Gauss-Kronrod rule with batched bisection drives everything.
integrate_adaptive takes one interval [a, b] and a vectorized integrand
f(nodes) -> values, or a stack of intervals [a_i, b_i] and an integrand
f(nodes, owner) -> values, where owner[n] is the index of the interval that
node n belongs to. Every interval keeps its own panels, split threshold,
convergence test and _MAX_PANELS panel limit, and leaves the loop once it
converges; each round evaluates the new panels of all the others in one
integrand call, which keeps pure-Python overhead out of the hot loop. A
panel's rule and an interval's sums run in an order of its own, so each
interval's result is bitwise the one it gets when integrated alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

# 21-point Kronrod extension of 10-point Gauss (QUADPACK dqk21 constants).
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208643474115,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

# symmetric node/weight tables over [-1, 1]
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # ascending, 21 nodes
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_wg_full = np.zeros(21)
_wg_full[1::2] = np.concatenate([_WG, _WG[::-1]])          # Gauss nodes sit at odd slots; none at the centre
_KG = np.stack([_WK, _wg_full])                             # K21 and G10 weights as rows


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for adaptive integration."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol <= 1e-2):
            raise ValueError(f"abs_tol must lie in (0, 1e-2], got {self.abs_tol}")
        if not (0.0 < self.rel_tol <= 1e-2):
            raise ValueError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")


DEFAULT_SPEC = QuadratureSpec()

# an interval that reaches this many panels unconverged fails
_MAX_PANELS = 2048

# integration ranges end this many standard deviations past the bulk
TAIL_SIGMA_MULTIPLIER = 12.0


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Adaptive refinement failed; carries the best estimate so far."""

    def __init__(self, message: str, best: QuadratureResult | None = None):
        super().__init__(message)
        self.best = best


class QuadratureStack(Sequence):
    """One QuadratureResult per interval of a stack, in order.

    The results are held as arrays, values, errors and counts (each
    interval's evaluations), which callers that need no object per interval
    read directly; indexing builds the QuadratureResult. evaluations is the
    whole call's count, as a single interval's result reports it.
    """

    def __init__(self, results: Iterable[QuadratureResult] = ()):
        results = list(results)
        self.values = np.array([res.value for res in results], dtype=float)
        self.errors = np.array([res.error_estimate for res in results], dtype=float)
        self.counts = np.array([res.evaluations for res in results], dtype=np.int64)

    @classmethod
    def _of(cls, values: np.ndarray, errors: np.ndarray, counts: np.ndarray) -> QuadratureStack:
        stack = cls.__new__(cls)
        stack.values, stack.errors, stack.counts = values, errors, counts
        return stack

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> QuadratureResult:
        return QuadratureResult(self.values[i].item(), self.errors[i].item(), int(self.counts[i]))

    @property
    def evaluations(self) -> int:
        return int(self.counts.sum())


def _panel_rule(f: Callable[[np.ndarray, np.ndarray], np.ndarray], lows: np.ndarray, highs: np.ndarray, owner: np.ndarray):
    """Apply G10/K21 to a batch of panels, each owned by an interval; returns (K21, err)."""
    half = 0.5 * (highs - lows)
    xs = (0.5 * (highs + lows))[:, None] + half[:, None] * _NODES
    fx = np.asarray(f(xs.ravel(), owner.repeat(_NODES.size)), dtype=float).reshape(xs.shape)
    if not np.isfinite(fx).all():
        bad = xs.ravel()[~np.isfinite(fx.ravel())][0]
        raise QuadratureError(f"integrand returned non-finite value near x={float(bad)!r}")
    # one dot product per panel: a BLAS matrix product's sums depend on the
    # panel's place in the batch
    kg = np.vecdot(fx[:, None, :], _KG)
    k21 = half * kg[:, 0]
    diff = np.abs(k21 - half * kg[:, 1])
    resabs = half * np.vecdot(np.abs(fx), _WK)
    # QUADPACK-style sharpened estimate, scale-invariant via resabs (where
    # resabs is 0, so is diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.minimum(diff, (200.0 * diff / np.maximum(resabs, 1e-300)) ** 1.5 * resabs)
    return k21, scaled


def integrate_adaptive(
    f: Callable[..., np.ndarray],
    a,
    b,
    spec: QuadratureSpec = DEFAULT_SPEC,
    *,
    seed_points=(),
):
    """Integrate a vectorized integrand over [a, b], or over each interval of a stack.

    Scalar a and b: f(nodes) is the integrand, seed_points a sequence of
    points that pre-split the interval where the caller knows the integrand
    is concentrated, and the result a QuadratureResult. 1-d arrays a and b:
    f(nodes, owner) is the integrand of interval owner[n] at nodes[n],
    seed_points a 2-d array with a row of points per interval (points
    outside their interval, NaN among them, are ignored), and the result a
    QuadratureStack. An interval with b <= a integrates to 0.
    """
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        if not (b > a):
            return QuadratureResult(0.0, 0.0, 0)
        cuts = np.array(sorted({float(a), float(b), *(float(p) for p in seed_points if a < p < b)}))
        return _integrate(lambda x, owner: f(x), cuts[:-1], cuts[1:], np.zeros(len(cuts) - 1, dtype=np.intp), 1, spec)[0]
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not len(a):
        return QuadratureStack()
    # a panel between every two distinct cuts of a row, once points outside
    # [a, b] are clipped onto its ends (all of them onto b where b <= a) and
    # NaN is sorted last
    lo, hi = a[:, None], b[:, None]
    cuts = np.concatenate((lo, np.asarray(seed_points, dtype=float).reshape(len(a), -1), hi), axis=1)
    cuts = np.minimum(np.maximum(cuts, lo), hi)
    cuts.sort(axis=1)
    valid = cuts[:, 1:] > cuts[:, :-1]
    return _integrate(f, cuts[:, :-1][valid], cuts[:, 1:][valid], valid.nonzero()[0], len(a), spec)


def _integrate(f, lows: np.ndarray, highs: np.ndarray, owner: np.ndarray, m: int, spec: QuadratureSpec) -> QuadratureStack:
    """The panel loop behind integrate_adaptive, over m intervals at once.

    lows, highs and owner give the starting panels in ascending order per
    interval; an interval without any integrates to 0. Panels then sit in
    one flat array in the order [kept, left halves, right halves] of the
    last split, so each interval's own panels keep the order they have when
    it is integrated alone, and np.bincount sums them in that order. A
    converged interval's panels leave the arrays, and its sums fill its slot
    of the result's arrays. QuadratureError carries the best estimate of the
    first interval that reaches _MAX_PANELS panels unconverged.
    """
    # each split adds one panel and evaluates two: 2 * panels - first panels evaluated
    first = np.bincount(owner, minlength=m)
    values, errors, counts = np.zeros(m), np.zeros(m), np.zeros(m, dtype=np.int64)
    result = QuadratureStack._of(values, errors, counts)
    active = first > 0
    if not active.any():
        return result
    vals, errs = _panel_rule(f, lows, highs, owner)

    while True:
        count = np.bincount(owner, minlength=m)
        total = np.bincount(owner, vals, m)
        err_total = np.bincount(owner, errs, m)
        tol = np.maximum(spec.rel_tol * np.abs(total), spec.abs_tol)
        done = active & (err_total <= tol)
        if done.any():
            values[done], errors[done] = total[done], err_total[done]
            counts[done] = _NODES.size * (2 * count[done] - first[done])
            active ^= done
            if not active.any():
                return result
            live = active[owner]
            lows, highs, vals, errs, owner = lows[live], highs[live], vals[live], errs[live], owner[live]
            count[done] = 0
        if count.max() >= _MAX_PANELS:
            i = int(np.argmax(count >= _MAX_PANELS))
            best = QuadratureResult(float(total[i]), float(err_total[i]), _NODES.size * int(2 * count[i] - first[i]))
            raise QuadratureError(
                f"no convergence within {_MAX_PANELS} panels "
                f"(err {err_total[i]:.3e} > tol {tol[i]:.3e})",
                best=best,
            )
        # split every panel carrying a meaningful share of its interval's
        # error: the largest always does, and a NaN error splits them all
        top = np.zeros(m)
        np.maximum.at(top, owner, errs)
        keep = errs < np.maximum(top / 8.0, tol / (2.0 * np.maximum(count, 1)))[owner]
        split = ~keep
        left, right, whose = lows[split], highs[split], owner[split]
        mids = 0.5 * (left + right)
        fresh_lows = np.concatenate([left, mids])
        fresh_highs = np.concatenate([mids, right])
        fresh_owner = np.concatenate([whose, whose])
        fresh_vals, fresh_errs = _panel_rule(f, fresh_lows, fresh_highs, fresh_owner)
        lows = np.concatenate([lows[keep], fresh_lows])
        highs = np.concatenate([highs[keep], fresh_highs])
        vals = np.concatenate([vals[keep], fresh_vals])
        errs = np.concatenate([errs[keep], fresh_errs])
        owner = np.concatenate([owner[keep], fresh_owner])
