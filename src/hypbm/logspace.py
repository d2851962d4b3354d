"""Sign/log-magnitude arithmetic and the package's one hyperbolic-log family.

Quantities like e^{-n(n-1)t/2} * sinh^k(r) span thousands of orders of
magnitude across the parameter ranges this package sweeps, so positive
scalars are carried as (sign, log|value|) pairs and exponentiated only at
the final combination step. The hyperbolic logs are defined here alone, as
log sinh x - x and log cosh x - x: bounded for x >= 0 and elementwise, so
that a one-point value is bitwise its entry in any array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

LN2 = math.log(2.0)
LN2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class LogValue:
    """A real number stored as sign and log of absolute value.

    sign == 0 encodes exact zero (log is -inf by convention).
    """

    sign: int
    log: float

    @property
    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log)


def vlog_sum(parts: Iterable[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Signed log-sum-exp at every point of a 1-d array: each part is a
    (sign, log) pair, log an array and sign an array or a scalar, and the
    parts are summed in order, so each point's result depends on its own
    entries alone. A part with sign 0 or log -inf counts as zero; a zero sum
    has sign 0, log -inf.
    """
    parts = [(sign, np.where(np.equal(sign, 0), -math.inf, lg)) for sign, lg in parts]
    top = np.max([lg for _, lg in parts], axis=0)
    # where every part is zero, any finite shift keeps exp(-inf - shift) = 0
    shift = np.where(top == -math.inf, 0.0, top)
    acc = 0.0
    for sign, lg in parts:
        acc = acc + sign * np.exp(lg - shift)
    with np.errstate(divide="ignore"):
        return np.sign(acc).astype(int), shift + np.log(np.abs(acc))


def vlogcosh_minus_x(x: np.ndarray) -> np.ndarray:
    """log(cosh x) - x = log((1 + e^{-2x}) / 2) for x >= 0. Past x = 9e307 numpy
    warns that -2x overflows, though the value is right; callers silence it."""
    return np.log1p(np.exp(-2.0 * x)) - LN2


def vlogsinh_minus_x(x: np.ndarray) -> np.ndarray:
    """log(sinh x) - x = log((1 - e^{-2x}) / 2) for x > 0, with no cancellation,
    and with vlogcosh_minus_x's overflow past 9e307."""
    return np.log(-np.expm1(-2.0 * x)) - LN2


def logsinh(x: float) -> float:
    """log(sinh x) for x >= 0, as x + vlogsinh_minus_x(x); -inf at x = 0."""
    if x < 0.0:
        raise ValueError(f"logsinh requires x >= 0, got {x}")
    with np.errstate(divide="ignore", over="ignore"):
        return x + vlogsinh_minus_x(x).item()
