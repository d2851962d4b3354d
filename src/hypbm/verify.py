"""Named verification suites backing the `verify` CLI subcommand.

Each suite returns a list of CheckResult rows; a suite passes iff every row
does. These are the same invariants the test suite pins down, packaged for
scripted use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .calculus import (
    evaluate_expansion,
    millson_identity_value,
    sinh_power_derivative,
)
from .kernels import (
    Dimension,
    EvaluationPoint,
    _log_envelope,
    _log_kernel,
    heat_kernel,
    millson_step_numeric,
)
from .quadrature import DEFAULT_SPEC
from .tails import _radial_mass, direct_kernel_quadrature, tail


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def identities_suite() -> list[CheckResult]:
    """Operator-calculus identity checks on an r-grid over [0, 10]."""
    out = []
    grid = np.linspace(0.0, 10.0, 41)
    worst = 0.0
    for l in range(1, 9):
        e = sinh_power_derivative(2 * l + 1, l)
        for r in grid:
            want = millson_identity_value(l, float(r))
            got = evaluate_expansion(e, float(r))
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    out.append(CheckResult("odd-power collapse l=1..8", worst <= 1e-10, f"max rel err {worst:.2e}"))
    const_ok = all(
        sinh_power_derivative(n, n).terms == ((math.factorial(n), 0, 0),) for n in (2, 4, 6, 8)
    )
    out.append(CheckResult("terminal constancy even n", const_ok, "D^n sinh^n = n!"))
    vanish_ok = all(
        evaluate_expansion(sinh_power_derivative(n, k), 0.0) == 0.0
        for n in range(2, 9)
        for k in range(0, (n + 1) // 2)
        if 2 * k < n
    )
    out.append(CheckResult("vanishing at origin (2k < n)", vanish_ok, "exact zeros"))
    return out


def normalization_suite(
    ds: Sequence[int] = (2, 3, 4, 5, 6, 7),
    ts: Sequence[float] = (0.5, 1.0, 5.0, 20.0),
) -> list[CheckResult]:
    """Total radial mass omega_d int q_d sinh^{d-1} = 1 for each (d, t): the
    brute-force tail oracle's mass integral from T = 0, unclamped, within
    DEFAULT_SPEC.rel_tol."""
    out, tol = [], DEFAULT_SPEC.rel_tol
    for d in [Dimension(d).d for d in ds]:
        for t in ts:
            defect = abs(_radial_mass(d, float(t), 0.0, DEFAULT_SPEC).value - 1.0)
            out.append(
                CheckResult(f"normalization d={d} t={t}", defect <= tol, f"|mass-1| = {defect:.2e} (tol {tol:g})")
            )
    return out


def millson_suite() -> list[CheckResult]:
    """Bell-sum odd kernels and descent even kernels against one numerical
    recursion step from the kernel two dimensions down."""
    out = []
    ts = (0.5, 1.0, 2.0, 5.0, 20.0)
    rs = (0.5, 1.0, 2.0, 4.0, 8.0)
    for d in (5, 7, 4, 6, 8):
        worst = 0.0
        for t in ts:
            for r in rs:
                p = EvaluationPoint(t, r)
                got = heat_kernel(d, p)
                num = millson_step_numeric(lambda rr, t=t: heat_kernel(d - 2, EvaluationPoint(t, rr)), d, p)
                worst = max(worst, abs(math.expm1(got.log - num.log)))
        out.append(CheckResult(f"recursion consistency d={d}", worst <= 1e-6, f"max rel err {worst:.2e}"))
    return out


def davies_suite(ds: Sequence[int] = (2, 3, 4, 5, 6)) -> list[CheckResult]:
    """Kernel/envelope log-ratio bounded and stable under grid refinement."""
    out = []
    for d in [Dimension(d).d for d in ds]:
        widths = []
        for nt, nr in ((8, 9), (15, 17)):
            lo, hi = math.inf, -math.inf
            rs = np.linspace(0.0, 40.0, nr)
            for t in np.geomspace(0.1, 50.0, nt).tolist():
                lr = _log_kernel(d, t, rs) - _log_envelope(d, t, rs)
                lo, hi = min(lo, lr.min()), max(hi, lr.max())
            widths.append(hi - lo)
        change = abs(widths[1] - widths[0]) / widths[0]
        ok = math.isfinite(widths[1]) and change < 0.05
        out.append(
            CheckResult(
                f"envelope ratio d={d}",
                ok,
                f"width {widths[0]:.3f} -> {widths[1]:.3f} ({100*change:.1f}% change)",
            )
        )
    return out


def cross_oracle_suite(
    ds: Sequence[int] = (2, 3, 4, 5),
    ts: Sequence[float] = (1.0, 5.0, 20.0),
    xs: Sequence[float] = (-3.0, -1.0, 0.0, 1.0, 3.0),
) -> list[CheckResult]:
    """Reduction tails against brute-force density integration, within DEFAULT_SPEC.rel_tol."""
    out, tol = [], DEFAULT_SPEC.rel_tol
    for d in ds:
        worst = 0.0
        for t in ts:
            for x, value in zip(xs, tail(d, float(t), xs).value.tolist()):
                b = direct_kernel_quadrature(d, float(t), float(x)).value
                worst = max(worst, abs(value - b))
        out.append(CheckResult(f"cross-oracle d={d}", worst <= tol, f"max |diff| = {worst:.2e} (tol {tol:g})"))
    return out


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "identities": identities_suite,
    "normalization": normalization_suite,
    "millson": millson_suite,
    "davies": davies_suite,
    "cross-oracle": cross_oracle_suite,
}
