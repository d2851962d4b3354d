"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np

from hypbm.calculus import (
    double_factorial,
    evaluate_expansion,
    millson_identity_value,
    sinh_power_derivative,
)
from hypbm.discrepancy import discrepancy_curve, rate_fit, sharpness_d2_integral
from hypbm.kernels import EvaluationPoint, davies_envelope, heat_kernel, millson_step_numeric, q_odd
from hypbm.sim import SimulationConfig, empirical_tail, simulate_radial_pair
from hypbm.tails import direct_kernel_quadrature, tail
from hypbm.verify import normalization_suite

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
D2_CONSTANT = 2.0 * math.log(2.0) / math.sqrt(2.0 * math.pi)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


def test_c01_operator_identity_suite():
    t0 = time.time()
    worst = 0.0
    grid = np.linspace(0.0, 10.0, 41)
    for l in range(1, 9):
        e = sinh_power_derivative(2 * l + 1, l)
        for r in grid:
            want = millson_identity_value(l, float(r))
            got = evaluate_expansion(e, float(r))
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    for k in range(1, 5):
        e1 = sinh_power_derivative(4 * k - 1, 2 * k - 1)
        e2 = sinh_power_derivative(4 * k + 1, 2 * k)
        for r in grid:
            w1 = double_factorial(4 * k - 1) / (2 * k) * math.sinh(2 * k * float(r))
            w2 = double_factorial(4 * k + 1) / (2 * k + 1) * math.sinh((2 * k + 1) * float(r))
            worst = max(worst, abs(evaluate_expansion(e1, float(r)) - w1) / (1.0 + abs(w1)))
            worst = max(worst, abs(evaluate_expansion(e2, float(r)) - w2) / (1.0 + abs(w2)))
    report("C1", worst <= 1e-10, f"identity suite max rel err {worst:.2e} ({time.time()-t0:.2f}s)")


def test_c02_normalization():
    t0 = time.time()
    results = normalization_suite(ds=(2, 3, 4, 5, 6, 7), ts=(0.5, 1.0, 5.0, 20.0))
    failed = "; ".join(f"{res.name}: {res.detail}" for res in results if not res.passed)
    report("C2", not failed, failed or f"all masses within tolerance ({time.time()-t0:.1f}s)")


def test_c03_millson_consistency():
    t0 = time.time()
    worst = 0.0
    for d in (5, 7):
        for t in (0.5, 1.0, 2.0, 5.0, 20.0):
            for r in (0.5, 1.0, 2.0, 4.0, 8.0):
                p = EvaluationPoint(t, r)
                sym = q_odd(d, p)
                num = millson_step_numeric(lambda rr, tt=t, dd=d: q_odd(dd - 2, EvaluationPoint(tt, rr)), d, p)
                worst = max(worst, abs(math.expm1(sym.log - num.log)))
    report("C3", worst <= 1e-6, f"symbolic vs numeric recursion max rel err {worst:.2e} ({time.time()-t0:.1f}s)")


def test_c04_reduction_vs_oracle():
    t0 = time.time()
    ok = True
    detail = []
    for d in (2, 3, 4, 5, 6):
        tol = 1e-4 if d in (4, 6) else 1e-5
        worst = 0.0
        for t in (1.0, 5.0, 20.0):
            for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
                a = tail(d, t, x).value
                b = direct_kernel_quadrature(d, t, x).value
                worst = max(worst, abs(a - b))
        detail.append(f"d={d}:{worst:.1e}")
        ok &= worst <= tol
    report("C4", ok, "reduction vs direct quadrature " + " ".join(detail) + f" ({time.time()-t0:.1f}s)")


def test_c05_d3_sharpness_constant():
    t0 = time.time()
    scaled = {t: math.sqrt(t) * (tail(3, t, 0.0).value - 0.5) for t in (1e2, 1e3, 1e4)}
    # extrapolation confirmation: the sequence settles onto a single constant
    drift_23 = abs(scaled[1e3] - scaled[1e4])
    ok = (
        abs(scaled[1e2] - INV_SQRT_2PI) <= 1e-2
        and abs(scaled[1e4] - INV_SQRT_2PI) <= 1e-3
        and drift_23 <= 1e-3
    )
    report(
        "C5",
        ok,
        f"sqrt(t)(tail3-1/2) = {scaled[1e2]:.6f}/{scaled[1e3]:.6f}/{scaled[1e4]:.6f} vs {INV_SQRT_2PI:.6f} ({time.time()-t0:.1f}s)",
    )


def test_c06_d2_sharpness_constant():
    t0 = time.time()
    agree = max(
        abs(sharpness_d2_integral(t) - (tail(2, t, 0.0).value - 0.5)) for t in (1.0, 10.0, 100.0, 1e4)
    )
    s4 = math.sqrt(1e4) * sharpness_d2_integral(1e4)
    s5 = math.sqrt(1e5) * sharpness_d2_integral(1e5)
    ok = (
        agree <= 1e-8
        and abs(s4 / D2_CONSTANT - 1.0) <= 1e-2
        and abs(s5 / D2_CONSTANT - 1.0) <= 1e-2
    )
    report(
        "C6",
        ok,
        f"independent-path agreement {agree:.1e}; sqrt(t)*excess {s4:.5f},{s5:.5f} vs {D2_CONSTANT:.5f} ({time.time()-t0:.1f}s)",
    )


def test_c07_uniform_rate():
    t0 = time.time()
    ok = True
    detail = []
    for d in (2, 3, 4, 5):
        curve = discrepancy_curve(d, [10.0, 30.0, 100.0, 300.0, 1000.0])
        fit = rate_fit(curve)
        scaled = [math.sqrt(rec.t) * rec.delta for rec in curve.records]
        band = max(scaled) / min(scaled)
        ok &= -0.55 <= fit.slope <= -0.45 and band <= 2.0
        detail.append(f"d={d}: slope {fit.slope:+.3f}, band {band:.2f}")
    report("C7", ok, "; ".join(detail) + f" ({time.time()-t0:.1f}s)")


def test_c08_sharpness_lower_bound():
    t0 = time.time()
    ok = True
    worst = math.inf
    for d in (2, 3, 5, 7):
        for t in (1.0, 10.0, 100.0, 1000.0):
            s = math.sqrt(t) * (tail(d, t, 0.0).value - 0.5)
            worst = min(worst, s)
            ok &= s >= 0.05
    report("C8", ok, f"min sqrt(t)(tail-1/2) over d in {{2,3,5,7}} = {worst:.4f} >= 0.05 ({time.time()-t0:.1f}s)")


def test_c09_monte_carlo_cross_check():
    t0 = time.time()
    ok = True
    detail = []
    for d in (3, 4):
        coarse, fine = simulate_radial_pair(SimulationConfig(d=d, t=10.0, paths=100_000, seed=42, step=1e-3))
        for x in (-1.0, 0.0, 1.0):
            ec = empirical_tail(coarse, d, 10.0, x)
            ef = empirical_tail(fine, d, 10.0, x)
            analytic = tail(d, 10.0, x).value
            z_an = (ec.estimate - analytic) / ec.standard_error
            z_half = (ec.estimate - ef.estimate) / math.hypot(ec.standard_error, ef.standard_error)
            ok &= abs(z_an) <= 3.0 and abs(z_half) <= 2.0
            detail.append(f"d={d},x={x:+.0f}: z={z_an:+.2f}/h={z_half:+.2f}")
    report("C9", ok, "; ".join(detail) + f" ({time.time()-t0:.0f}s)")


def test_c10_envelope_ratio_stability():
    t0 = time.time()
    ok = True
    detail = []
    for d in (2, 3, 4, 5, 6):
        widths = []
        for nt, nr in ((8, 9), (15, 17)):
            lo, hi = math.inf, -math.inf
            for t in np.geomspace(0.1, 50.0, nt):
                for r in np.linspace(0.0, 40.0, nr):
                    p = EvaluationPoint(float(t), float(r))
                    lr = heat_kernel(d, p).log - davies_envelope(d, p).log
                    lo, hi = min(lo, lr), max(hi, lr)
            widths.append(hi - lo)
        change = abs(widths[1] - widths[0]) / widths[0]
        ok &= math.isfinite(widths[1]) and change < 0.05
        detail.append(f"d={d}: width {widths[1]:.2f} ({100*change:.1f}%)")
    report("C10", ok, "log-ratio ranges " + "; ".join(detail) + f" ({time.time()-t0:.1f}s)")
