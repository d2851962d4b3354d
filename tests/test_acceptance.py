"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Tolerances are pinned here, not configurable.
"""

import math
import time

from hypbm.discrepancy import discrepancy_curve, rate_fit, sharpness_at_zero, sharpness_d2_integral
from hypbm.sim import SimulationConfig, empirical_tail, simulate_radial_pair
from hypbm.tails import tail
from hypbm.verify import cross_oracle_suite, davies_suite, identities_suite, millson_suite, normalization_suite

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
D2_CONSTANT = 2.0 * math.log(2.0) / math.sqrt(2.0 * math.pi)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


def report_suite(tag: str, run_suite) -> None:
    """One line for a verify suite: the failing checks, or every check when all pass."""
    t0 = time.time()
    results = run_suite()
    shown = [res for res in results if not res.passed] or results
    detail = "; ".join(f"{res.name}: {res.detail}" for res in shown)
    report(tag, all(res.passed for res in results), f"{detail} ({time.time()-t0:.1f}s)")


def test_c01_operator_identity_suite():
    report_suite("C1", identities_suite)


def test_c02_normalization():
    report_suite("C2", lambda: normalization_suite(ds=range(2, 13), ts=(0.5, 1.0, 5.0, 20.0, 100.0, 1000.0)))


def test_c03_millson_consistency():
    report_suite("C3", millson_suite)


def test_c04_reduction_vs_oracle():
    report_suite("C4", lambda: cross_oracle_suite(ds=range(2, 9), ts=(1.0, 5.0, 20.0, 100.0, 1000.0)))


def test_c05_d3_sharpness_constant():
    t0 = time.time()
    scaled = {t: sharpness_at_zero(3, t) for t in (1e2, 1e3, 1e4)}
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
            s = sharpness_at_zero(d, t)
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
    report_suite("C10", lambda: davies_suite(ds=(2, 3, 4, 5, 6)))
