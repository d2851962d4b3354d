"""Radial heat kernels q_d(t, r) on d-dimensional hyperbolic space.

Odd dimensions d = 2m+1 start from the closed form

  q_3(t,r) = e^{-t/2} (2 pi t)^{-3/2} (r / sinh r) e^{-r^2/(2t)}

and iterate the Millson recursion

  q_d(t,r) = - e^{-(d-2)t/2} / (2 pi sinh r) * d q_{d-2}/dr (t,r).

In z = cosh r it is (-d/dz)^m applied to r / sinh r = I_1(z), with
I_j(z) = int_0^inf (z + cosh x)^{-j} dx, so the bracket of q_d is a complete
Bell polynomial in positive terms at every r (_log_odd_bracket). Below a
switch radius it takes I_j(cosh r) = ((1-y)/2)^j sum_k C(j+k-1, k) B(k+1/2, j)
y^k, y = tanh^2(r/2), a series in positive terms, and above it the exact
recurrence in j; one rule sets the radius and the series length (_series),
and every odd d <= 31 holds log q to 1e-11 + 4 eps |log q|.
build_odd_kernel iterates the recursion symbolically, with exact integer
coefficients; no runtime path calls it, so it is an independent oracle.

Even dimensions descend from the odd dimension above them,

  q_d(t,r) = 2^{1/2} e^{(2d-1)t/8} int_r^inf q_{d+1}(t,s) sinh s
             (cosh s - cosh r)^{-1/2} ds,

one singularity-regularized quadrature over the exact q_{d+1}, seeded at
its integrand's own widths in w = sqrt(s - r): the bend at sqrt(2r) and the
peak's decay width. At d = 2 the folded factor q_3 sinh s is
e^{-t/2} (2 pi t)^{-3/2} s e^{-s^2/(2t)}, the classical q_2 integral.
log_descent_fold evaluates that folded factor for every even d, for
_log_q_even here and for the even tails in tails.py.

The kernel layer works on a 1-d array of r: _log_kernel(d, t, rs) returns
log q at every r, each bitwise the value a one-point array gives. Odd d
evaluates its Bell sum over the array (_log_q_odd); even d integrates
every r as one interval of one stacked quadrature (_log_q_even), as the even
tails integrate every x. heat_kernel, the one public kernel, takes one
EvaluationPoint and is the one-point case of the same path. It returns a
LogValue: prefactors like e^{-m^2 t/2} underflow doubles by hundreds of
orders across the supported (t, r) ranges. Every kernel and tail takes q_3's
Gaussian normalisation, with one 1/(2 pi) per Millson step, from _log_gauss,
and its hyperbolic logs from logspace.py.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .logspace import LN2, LN2PI, LogValue, logsinh, vlogsinh_minus_x
from .quadrature import DEFAULT_SPEC, TAIL_SIGMA_MULTIPLIER, QuadratureSpec, integrate_adaptive

_EPS = float(np.finfo(float).eps)


class KernelError(RuntimeError):
    """Kernel or tail evaluation failed (integral not positive, step underflow, ...)."""


@dataclass(frozen=True)
class Dimension:
    """Dimension d >= 2 with its parity decomposition d = 2n or d = 2n+1."""

    d: int

    def __post_init__(self) -> None:
        if not isinstance(self.d, numbers.Integral) or self.d < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))

    @classmethod
    def of(cls, d: Dimension | int) -> Dimension:
        """d as a Dimension: the one check every public entry point runs on d."""
        return d if isinstance(d, Dimension) else cls(d)

    @property
    def n(self) -> int:
        return self.d // 2

    @property
    def is_odd(self) -> bool:
        return self.d % 2 == 1


@dataclass(frozen=True)
class EvaluationPoint:
    """Process time t > 0 and hyperbolic distance r >= 0 from the pole."""

    t: float
    r: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise ValueError(f"t must be finite and positive, got {self.t}")
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(f"r must be finite and nonnegative, got {self.r}")


def _check_r(t: float, rs: np.ndarray) -> None:
    """EvaluationPoint's ValueError for t, or for the first r of a 1-d array it rejects."""
    bad = rs[~((rs >= 0.0) & (rs < math.inf))]
    EvaluationPoint(t, bad[0].item() if len(bad) else 0.0)


# --------------------------------------------------------------------------
# odd dimensions: symbolic recursion
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OddKernelExpression:
    """q_d for odd d as exact terms under a shared log prefactor.

    value = exp(log_prefactor(t)) * e^{-r^2/(2t)}
            * sum c * t^{-i} * r^p * cosh^a(r) * sinh^{-b}(r)

    with log_prefactor(t) = -m^2 t/2 - (3/2) log(2 pi t) - (m-1) log(2 pi)
    for d = 2m+1. Terms: (c, i, p, a, b), b >= 1, coefficients exact ints.
    """

    d: int
    terms: tuple[tuple[int, int, int, int, int], ...]

    @property
    def m(self) -> int:
        return (self.d - 1) // 2

    def log_prefactor(self, t: float) -> float:
        return _log_odd_prefactor(self.m, t)


def millson_step_symbolic(expr: OddKernelExpression) -> OddKernelExpression:
    """Apply the dimension-raising recursion d -> d+2 to the term family.

    d/dr of t^{-i} r^p cosh^a sinh^{-b} e^{-r^2/(2t)} produces four term
    shapes; the -1/(2 pi sinh r) factor then bumps every sinh inverse power
    and flips signs, while e^{-(d)t/2} folds into the prefactor.
    """
    acc: dict[tuple[int, int, int], int] = {}

    def add(c: int, i: int, p: int, a: int, b: int) -> None:
        if c:
            key = (i, p, a, b)
            acc[key] = acc.get(key, 0) + c

    for c, i, p, a, b in expr.terms:
        add(-c * p, i, p - 1, a, b + 1)
        add(-c * a, i, p, a - 1, b)
        add(c * b, i, p, a + 1, b + 2)
        add(c, i + 1, p + 1, a, b + 1)
    terms = tuple(
        (c, i, p, a, b)
        for (i, p, a, b), c in sorted(acc.items())
        if c
    )
    return OddKernelExpression(expr.d + 2, terms)


@lru_cache(maxsize=None)
def build_odd_kernel(d: int) -> OddKernelExpression:
    """Exact symbolic kernel for odd d >= 3 (single term r/sinh r at d=3)."""
    if d < 3 or d % 2 == 0:
        raise ValueError(f"odd dimension >= 3 required, got {d}")
    expr = OddKernelExpression(3, ((1, 0, 1, 0, 1),))
    while expr.d < d:
        expr = millson_step_symbolic(expr)
    return expr


def _at(log_q: np.ndarray) -> LogValue:
    """The LogValue of a one-point array of log q."""
    return LogValue(log_q[0].item())


@lru_cache(maxsize=None)
def _series(m: int) -> tuple[float, np.ndarray]:
    """The switch radius and the (m, terms, 1) coefficients of y^k in I_j's
    series, j = 1..m, each the int ratio C(j+k-1, k) (j-1)! 2^j /
    prod_{i<j} (2k+2i+1) = C(j+k-1, k) B(k+1/2, j) rounded once. The
    recurrence multiplies its rounding by about 1/y per step, so it serves
    where y >= y_s = 1e-3^{1/max(m-1, 1)}; below, the series stops at the
    first K with C(m+K-1, K) y_s^K < 1e-18."""
    y_s = 1e-3 ** (1.0 / max(m - 1, 1))
    terms = next(K for K in itertools.count(1) if math.comb(m + K - 1, K) * y_s**K < 1e-18)
    table = [
        [math.comb(j + k - 1, k) * math.factorial(j - 1) * 2**j / math.prod(range(2 * k + 1, 2 * k + 2 * j, 2)) for k in range(terms)]
        for j in range(1, m + 1)
    ]
    return 2.0 * math.atanh(math.sqrt(y_s)), np.array(table)[:, :, None]


def _log_odd_bracket(d: int, t: float, r: np.ndarray) -> np.ndarray:
    """log of q_d's bracket times e^{m r} (odd d = 2m+1 >= 3) at every r >= 0 of
    an array, for _log_q_odd, the odd tails' boundary terms and the descent nodes.

    By Faa di Bruno the bracket is t B_m(a_1, ..., a_m), B_m the complete Bell
    polynomial and a_j = (j-1)! I_j(cosh r) / t > 0. B_m is homogeneous, so
    with nu = 1 / max(t, 1+r) and mu = t nu <= 1 its recurrence runs on
    a_j (e^r mu)^j = (j-1)! L_j, L_j = e^{jr} I_j mu^{j-1} nu, as
    b_k = B_k / k!, (k+1) b_{k+1} = sum_{j<=k} L_{j+1} b_{k-j}: no term
    overflows for any t or r. Below the switch radius of _series(m) L_j comes
    from the series of I_j in y = tanh^2(r/2), all of whose terms are
    positive, scaled by e^r (1-y)/2 = 2/(1+e^{-r})^2 in [1/2, 2]. From it up
    it comes from j (z^2-1) I_{j+1} = (2j-1) z I_j - (j-1) I_{j-1}, whose
    j = 1 case is (z^2-1) I_2 = z I_1 - 1, scaled with s = sinh(r) e^{-r}
    and c = cosh(r) e^{-r}; it divides by s^2, so it cancels as r -> 0.
    Each value depends on its own r alone, bitwise, in an array of any length.
    """
    if len(r) == 1:  # numpy sums a lone column pairwise, two or more in order
        return _log_odd_bracket(d, t, np.repeat(r, 2))[:1]
    m = (d - 1) // 2
    r_switch, table = _series(m)
    top = np.maximum(t, 1.0 + r)
    nu = 1.0 / top
    mu = t * nu
    near = r < r_switch
    n_near = np.count_nonzero(near)
    L = np.empty((m, len(r)))
    if n_near:
        rs = np.minimum(r, r_switch)
        powers = np.empty((table.shape[1], len(r)))
        powers[0], powers[1:] = 1.0, np.tanh(0.5 * rs) ** 2  # y
        np.cumprod(powers, axis=0, out=powers)
        g = 2.0 / (1.0 + np.exp(-rs)) ** 2
        L[0], L[1:] = g * nu, g * mu
        np.cumprod(L, axis=0, out=L)
        L *= (table * powers).sum(axis=1)
    if n_near < len(r):
        rec = np.empty((m, len(r))) if n_near else L
        rt = np.maximum(r, r_switch) if n_near else r
        s = -0.5 * np.expm1(-2.0 * np.minimum(rt, 400.0))  # e^{-2r} is 0 past r = 373
        c = 1.0 - s
        np.divide(rt * nu, s, out=rec[0])
        if m > 1:
            w = mu / (s * s)
            np.multiply(w, c * rec[0] - nu, out=rec[1])
            cm, mm = c * w, mu * w
            for j in range(2, m):
                np.subtract((2 * j - 1) / j * cm * rec[j - 1], (j - 1) / j * mm * rec[j - 2], out=rec[j])
        if n_near:
            L = np.where(near, L, rec)
    b = np.empty((m + 1, len(r)))
    b[0], b[1] = 1.0, L[0]
    for k in range(1, m):
        np.divide((L[: k + 1] * b[k::-1]).sum(axis=0), k + 1, out=b[k + 1])
    return (1 - m) * math.log(t) + math.lgamma(m + 1) + m * np.log(top) + np.log(b[m])


def _log_gauss(m: int, t: float) -> float:
    """log of q_{2m+1}'s Gaussian normalisation (2 pi t)^{-3/2} (2 pi)^{1-m}, with log t
    and log 2 pi apart: 2 pi t rounds at a subnormal t and overflows at the largest t."""
    return -1.5 * math.log(t) - (m + 0.5) * LN2PI


def _log_odd_prefactor(m: int, t: float) -> float:
    """log of q_{2m+1}'s prefactor: -m^2 t/2 plus its Gaussian normalisation."""
    return -0.5 * m * m * t + _log_gauss(m, t)


def _log_q_odd(d: int, t: float, rs: np.ndarray) -> np.ndarray:
    """log q_d at every r of a 1-d array, for odd d >= 3: the prefactor, the
    Gaussian and _log_odd_bracket's bracket."""
    m = (d - 1) // 2
    # r^2 overflows to inf harmlessly near the double maximum: log q is -inf there
    with np.errstate(over="ignore"):
        return _log_odd_prefactor(m, t) - rs * (rs / (2.0 * t)) + (_log_odd_bracket(d, t, rs) - m * rs)


# --------------------------------------------------------------------------
# even dimensions: one descent quadrature over the exact odd kernel
# --------------------------------------------------------------------------

def log_descent_fold(d: int, t: float, s: np.ndarray) -> np.ndarray:
    """The folded factor of the descent identity for even d = 2k+2, shifted by
    its exponential decay: log(bracket(q_{d+1})(t,s) sinh s) + k s, so that

      q_{d+1}(t,s) sinh s = e^{log_prefactor(t) - s^2/(2t) - k s + log_descent_fold(d, t, s)}

    with q_{d+1}'s log_prefactor. It grows only like a polynomial in s and
    1/t. At d = 2 it is log s: q_3's bracket s / sinh s times sinh s.
    """
    if d == 2:
        return np.log(s)
    return _log_odd_bracket(d + 1, t, s) + vlogsinh_minus_x(s)


def descent_gap(r: float, ww: np.ndarray) -> np.ndarray:
    """(cosh s - cosh r) e^{-s} = (1 - e^{-(s+r)}) (1 - e^{-w^2}) / 2 at s = r + w^2.

    The descent identity's singular factor without its e^{s} growth: bounded
    by 1/2, and exact near the endpoint, where s - r = w^2 is known exactly.
    """
    return 0.5 * np.expm1(-(2.0 * r + ww)) * np.expm1(-ww)


def _log_q_even(d: int, t: float, rs: np.ndarray, spec: QuadratureSpec) -> np.ndarray:
    """log q_d at every r of a 1-d array, for even d >= 2, by the descent
    identity over the exact odd kernel,

      q_d(t,r) = 2^{1/2} e^{(2d-1)t/8} int_r^inf q_{d+1}(t,s) sinh s
                 (cosh s - cosh r)^{-1/2} ds.

    With s = r + w^2 the integrand becomes smooth. Factoring out its decay
    e^{-r^2/(2t) - (d-1) r/2} leaves, with the fold's e^{-(d-2)s/2} and the
    gap's e^{s/2} cancelled exactly, the working integrand
    2w e^{fold(s) - w^2 (2r + w^2)/(2t) - (d-1) w^2/2} descent_gap^{-1/2}:
    no term grows with r or t, and the result is assembled in log space.
    At a subnormal t no factor is formed as a subnormal, which keeps a few
    bits: the Gaussian term is w^2 ((2r + w^2)/(2t)), never w^4 ~ t over 2t,
    and the gap's log is the sum of its factors' logs. Where r/t overflows,
    and (2r + w^2)/(2t) with it, the term is (w^2/(2t)) (2r + w^2), whose
    first factor is O(1) over the range.

    log q needs the integral to a relative accuracy, but at small t and
    r < 1 the integral is only about sqrt(t): tested against spec.abs_tol,
    its first panels passed unrefined from t ~ 1e-12 down, and log q was off
    by up to 3e-6. So the integral is tested by spec.rel_tol alone.

    Every r of the array is one interval of one stacked integrate_adaptive
    call, seeded at its integrand's own widths in w so that most r converge
    in the first round: each round is one integrand call over every r still
    open, and its fixed cost outweighs more panels in the first. The seeds
    are the bend at w = sqrt(2r), where the gap w^2 (2r + w^2)/2 changes
    order, at 1, 8 and 64 times it, and the peak width
    min(sqrt(t/r), (2t)^{1/4}, sqrt(2/(d-1))) of the decay
    e^{-r w^2/t - w^4/(2t) - (d-1) w^2/2}, at 0.5, 1, 2 and 4 times it.
    Unseeded, the bend lay below every node of the first panel where sqrt(2r)
    is small against the peak, and log q missed its O(r) area by up to 2.5e-8
    (t = 1e-3, r = 1e-9). Below r = eps peak^2 that area is under a double of
    the integral, and the bend is not seeded, so that no node lies where w^2
    underflows.

    Range and seeds are this kernel's own rule, not the window _tail_even
    places in Gaussian units about the bulk: this integrand peaks at w = 0
    with a width of sqrt(t/r) (at r = 1e17 a range of sqrt(t) in w put that
    peak below every node), so a shared rule would have to branch on its
    caller.
    """
    if d < 2 or d % 2 == 1:
        raise ValueError(f"even dimension >= 2 required, got {d}")
    sqrt_t = math.sqrt(t)
    mult = TAIL_SIGMA_MULTIPLIER
    width = mult * sqrt_t
    # Where r^2/(2t) overflows, log q is -inf, as for odd d. Elsewhere s stops
    # at the Gaussian bound hypot(r, mult sqrt_t) + sqrt_t, with hypot - r
    # formed as width^2 / (hypot + r), which does not cancel to 0. w^2 also
    # stops where the larger rate of e^{-(d-1) w^2/2 - r w^2/t} alone reaches
    # (mult+1)^2, so that the integrand has decayed there by at least
    # e^{-(mult+1)^2}: twice _tail_even's Gaussian margin, the other half for
    # the fold's polynomial growth; at large t, or at r far past sqrt(t), the
    # Gaussian bound in s lies far past this. That growth is factored out at
    # s = max(r, 1) like the decay, so that the integrand stays finite at huge
    # r. Near the double maximum hypot + r and the fold's 2s overflow
    # harmlessly. The rate is halved, (d-1)/4 v r/(2t), which is finite
    # wherever r r/(2t) is, also at a subnormal t where r/t overflows; every
    # quotient by it is the same double as by the whole rate. Near the
    # largest t, width^2 / (hypot + r) meets inf / inf: a NaN range, which
    # integrates to 0 and fails below as "not positive"
    with np.errstate(over="ignore", invalid="ignore"):
        decay = rs * (rs / (2.0 * t))
        live = (decay < math.inf).nonzero()[0]
        r = rs[live]
        s_span = width * width / (np.hypot(r, width) + r) + sqrt_t
        half_rate = np.maximum(0.25 * (d - 1), r / (2.0 * t))
        w_hi = np.sqrt(np.minimum(s_span, 0.5 * (mult + 1.0) ** 2 / half_rate))
        fold_r = log_descent_fold(d, t, np.maximum(r, 1.0))
        # peak^2 = min(t/r, sqrt(2t), 2/(d-1)) over a denominator of at least
        # 1/4, which neither overflows nor divides by 0
        peak2 = 0.5 / np.maximum(half_rate, 0.5 / math.sqrt(2.0 * t))
        wide = r / t == math.inf
        bend = np.sqrt(2.0 * np.where(r > _EPS * peak2, r, math.nan))
        seeds = np.concatenate((bend[:, None] * [1.0, 8.0, 64.0], np.sqrt(peak2)[:, None] * [0.5, 1.0, 2.0, 4.0]), axis=1)

    def f(w: np.ndarray, owner: np.ndarray) -> np.ndarray:
        r_w = r[owner]
        ww = w * w
        s = r_w + ww
        with np.errstate(divide="ignore", over="ignore"):
            gauss = ww * ((2.0 * r_w + ww) / (2.0 * t))
            if wide.any():
                gauss = np.where(wide[owner], ww / (2.0 * t) * (2.0 * r_w + ww), gauss)
            log_j = (
                np.log(2.0 * w)
                + (log_descent_fold(d, t, s) - fold_r[owner])
                - gauss
                - 0.5 * (d - 1) * ww
                # log descent_gap as the sum of its factors' logs
                - 0.5 * (np.log(-np.expm1(-(2.0 * r_w + ww))) + np.log(-np.expm1(-ww)) - LN2)
            )
        return np.exp(log_j)

    out = np.full(len(rs), -math.inf)
    lg = 0.5 * LN2 - (d - 1) ** 2 / 8.0 * t + _log_gauss(d // 2, t)
    integral = integrate_adaptive(f, np.zeros(len(r)), w_hi, replace(spec, abs_tol=math.ulp(0.0)), seed_points=seeds).values
    flat = ~(integral > 0.0)
    if flat.any():
        raise KernelError(f"q{d} integral not positive at t={t}, r={r[flat][0].item()}")
    out[live] = lg - r * (r / (2.0 * t)) - 0.5 * (d - 1) * r + fold_r + np.log(integral)
    return out


def millson_step_numeric(q_lower: Callable[[float], LogValue], d: int, p: EvaluationPoint) -> LogValue:
    """One numerical recursion step: q_d from q_{d-2} by differentiating log q.

    Uses the 4th-order 5-point stencil (central differences with one
    Richardson extrapolation step) on g = log q_{d-2}, then
    q_d = e^{-(d-2)t/2} / (2 pi sinh r) * q_{d-2}(r) * (-g'(r)).
    An independent oracle for the symbolic and descent kernels.
    """
    t, r = p.t, p.r
    if r <= 0.0:
        raise KernelError(f"recursion step requires r > 0, got r={r}")
    h = min(_EPS ** (1.0 / 3.0) * (1.0 + r), 0.25 * r)
    if h < 1e-12:
        raise KernelError(f"step underflow at r={r} (h={h})")
    g = [q_lower(r + k * h).log for k in (-2, -1, 0, 1, 2)]
    gprime = (g[0] - 8.0 * g[1] + 8.0 * g[3] - g[4]) / (12.0 * h)
    if not (gprime < 0.0):
        raise KernelError(f"kernel not decreasing at d={d}, t={t}, r={r} (g'={gprime})")
    lg = -(d - 2) / 2.0 * t - LN2PI - logsinh(r) + g[2] + math.log(-gprime)
    return LogValue(lg)


def heat_kernel(d: Dimension | int, p: EvaluationPoint, spec: QuadratureSpec = DEFAULT_SPEC) -> LogValue:
    """q_d(t, r) for any d >= 2, dispatching on parity: the one-point case of _log_kernel."""
    return _at(_log_kernel(Dimension.of(d).d, p.t, np.array([p.r], dtype=float), spec))


def _log_kernel(d: int, t: float, rs: np.ndarray, spec: QuadratureSpec = DEFAULT_SPEC) -> np.ndarray:
    """log q_d(t, r) at every r of a 1-d array, each bitwise the one-point
    value; every r is checked as EvaluationPoint checks it before any work."""
    rs = np.asarray(rs, dtype=float)
    _check_r(t, rs)
    if d % 2 == 1:
        return _log_q_odd(d, t, rs)
    return _log_q_even(d, t, rs, spec)


def davies_envelope(d: Dimension | int, p: EvaluationPoint) -> LogValue:
    """Two-sided comparison envelope for q_d:

    t^{-d/2} exp(-(d-1)^2 t/8 - (d-1) r/2 - r^2/(2t)) (1+r+t)^{(d-3)/2} (1+r)
    """
    return _at(_log_envelope(Dimension.of(d).d, p.t, np.array([p.r], dtype=float)))


def _log_envelope(d: int, t: float, rs: np.ndarray) -> np.ndarray:
    """log davies_envelope at every r of a 1-d array."""
    with np.errstate(over="ignore"):
        return (
            -0.5 * d * math.log(t)
            - (d - 1) ** 2 / 8.0 * t
            - (d - 1) * rs / 2.0
            - rs * (rs / (2.0 * t))
            + 0.5 * (d - 3) * np.log1p(rs + t)
            + np.log1p(rs)
        )
