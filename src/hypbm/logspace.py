"""Sign/log-magnitude arithmetic and stable hyperbolic-log primitives.

Quantities like e^{-n(n-1)t/2} * sinh^k(r) span thousands of orders of
magnitude across the parameter ranges this package sweeps, so positive
scalars are carried as (sign, log|value|) pairs and exponentiated only at
the final combination step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

LN2 = math.log(2.0)
LN2PI = math.log(2.0 * math.pi)

# beyond this, sinh x and cosh x equal e^x/2 to double precision
_ASYMPTOTIC = 20.0


@dataclass(frozen=True)
class LogValue:
    """A real number stored as sign and log of absolute value.

    sign == 0 encodes exact zero (log is -inf by convention).
    """

    sign: int
    log: float

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(0, -math.inf)

    @classmethod
    def from_value(cls, v: float) -> "LogValue":
        if v == 0.0:
            return cls.zero()
        return cls(1 if v > 0 else -1, math.log(abs(v)))

    @property
    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log)

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0 or other.sign == 0:
            return LogValue.zero()
        return LogValue(self.sign * other.sign, self.log + other.log)

    def scaled(self, log_factor: float) -> "LogValue":
        """Multiply by exp(log_factor) without leaving log space."""
        if self.sign == 0:
            return self
        return LogValue(self.sign, self.log + log_factor)


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


def logsinh(x: float) -> float:
    """log(sinh x) for x >= 0; returns -inf at x = 0."""
    if x < 0.0:
        raise ValueError(f"logsinh requires x >= 0, got {x}")
    if x == 0.0:
        return -math.inf
    if x < _ASYMPTOTIC:
        return math.log(math.sinh(x))
    return x - LN2 + math.log1p(-math.exp(-2.0 * x))


def logcosh(x: float) -> float:
    x = abs(x)
    if x < _ASYMPTOTIC:
        return math.log(math.cosh(x))
    return x - LN2 + math.log1p(math.exp(-2.0 * x))


def vlogsinh(x: np.ndarray) -> np.ndarray:
    """Vectorized logsinh for nonnegative arrays."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _ASYMPTOTIC
    with np.errstate(divide="ignore"):
        out[small] = np.log(np.sinh(x[small]))
    xl = x[~small]
    out[~small] = xl - LN2 + np.log1p(-np.exp(-2.0 * xl))
    return out


def vlogcosh(x: np.ndarray) -> np.ndarray:
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    small = x < _ASYMPTOTIC
    out[small] = np.log(np.cosh(x[small]))
    xl = x[~small]
    out[~small] = xl - LN2 + np.log1p(np.exp(-2.0 * xl))
    return out
