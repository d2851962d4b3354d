"""Adaptive one-dimensional Gauss-Kronrod quadrature.

A nested 7/15 Gauss-Kronrod rule with batched bisection drives everything.
Integrands are vectorized callables (ndarray -> ndarray); each refinement
round evaluates every new panel's nodes in one call, which keeps pure-Python
overhead out of the hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# 15-point Kronrod extension of 7-point Gauss (QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# symmetric node/weight tables over [-1, 1]
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # ascending, 15 nodes
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_wg_full = np.zeros(15)
_wg_full[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])   # Gauss nodes sit at odd slots
_WGF = _wg_full


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation policy for adaptive integration."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2048
    tail_sigma_multiplier: float = 12.0

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol <= 1e-2):
            raise ValueError(f"abs_tol must lie in (0, 1e-2], got {self.abs_tol}")
        if not (0.0 < self.rel_tol <= 1e-2):
            raise ValueError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol}")
        if self.max_subdivisions < 16:
            raise ValueError(f"max_subdivisions must be >= 16, got {self.max_subdivisions}")
        if self.tail_sigma_multiplier < 8.0:
            raise ValueError(f"tail_sigma_multiplier must be >= 8, got {self.tail_sigma_multiplier}")


DEFAULT_SPEC = QuadratureSpec()


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


def _panel_rule(f: Callable[[np.ndarray], np.ndarray], lows: np.ndarray, highs: np.ndarray):
    """Apply G7/K15 to a batch of panels; returns (K15, err, nevals)."""
    half = 0.5 * (highs - lows)
    mid = 0.5 * (highs + lows)
    xs = mid[:, None] + half[:, None] * _NODES[None, :]
    fx = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    if not np.all(np.isfinite(fx)):
        bad = xs.ravel()[~np.isfinite(fx.ravel())][0]
        raise QuadratureError(f"integrand returned non-finite value near x={bad!r}")
    k15 = half * (fx @ _WK)
    g7 = half * (fx @ _WGF)
    resabs = half * (np.abs(fx) @ _WK)
    diff = np.abs(k15 - g7)
    # QUADPACK-style sharpened estimate, scale-invariant via resabs
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(resabs > 0.0, np.minimum(diff, (200.0 * diff / np.maximum(resabs, 1e-300)) ** 1.5 * resabs), 0.0)
    return k15, scaled, xs.size


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    *,
    seed_points: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate a vectorized integrand over the finite interval [a, b].

    seed_points pre-split the interval where the caller knows the integrand
    is concentrated.
    """
    if not (b > a):
        return QuadratureResult(0.0, 0.0, 0)

    cuts = sorted({float(a), float(b), *(float(p) for p in seed_points if a < p < b)})
    lows = np.array(cuts[:-1])
    highs = np.array(cuts[1:])
    vals, errs, n = _panel_rule(f, lows, highs)
    evaluations = n

    while True:
        total = float(np.sum(vals))
        err_total = float(np.sum(errs))
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if err_total <= tol:
            return QuadratureResult(total, err_total, evaluations)
        if len(lows) >= spec.max_subdivisions:
            best = QuadratureResult(total, err_total, evaluations)
            raise QuadratureError(
                f"no convergence within {spec.max_subdivisions} panels "
                f"(err {err_total:.3e} > tol {tol:.3e})",
                best=best,
            )
        # split every panel carrying a meaningful share of the error
        threshold = max(float(np.max(errs)) / 8.0, tol / (2.0 * len(lows)))
        split = errs >= threshold
        if not np.any(split):
            split[np.argmax(errs)] = True
        mids = 0.5 * (lows[split] + highs[split])
        new_lows = np.concatenate([lows[~split], lows[split], mids])
        new_highs = np.concatenate([highs[~split], mids, highs[split]])
        keep_vals, keep_errs = vals[~split], errs[~split]
        fresh_vals, fresh_errs, n = _panel_rule(f, np.concatenate([lows[split], mids]), np.concatenate([mids, highs[split]]))
        evaluations += n
        lows, highs = new_lows, new_highs
        vals = np.concatenate([keep_vals, fresh_vals])
        errs = np.concatenate([keep_errs, fresh_errs])
