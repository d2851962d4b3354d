import math

import numpy as np
import pytest

from hypbm import discrepancy as discrepancy_module
from hypbm.discrepancy import (
    DiscrepancyCurve,
    DiscrepancyRecord,
    SearchSpec,
    discrepancy_curve,
    rate_fit,
    sharpness_at_zero,
    sharpness_d2_integral,
    sup_discrepancy,
)
from hypbm.tails import tail, tail_even

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestSupDiscrepancy:
    def test_d3_large_time_profile(self):
        res = sup_discrepancy(3, 1000.0)
        # the center excess dominates: delta ~ 1/sqrt(2 pi t) with argmax at 0
        assert res.delta == pytest.approx(INV_SQRT_2PI / math.sqrt(1000.0), rel=1e-3)
        assert abs(res.argmax_x) < 0.01
        assert res.evaluations > 400

    def test_bounded_below_by_center_excess(self):
        for d, t in [(2, 7.0), (4, 3.0), (5, 12.0)]:
            res = sup_discrepancy(d, t)
            assert res.delta >= abs(tail(d, t, 0.0).value - 0.5) - 1e-12

    def test_small_at_large_time(self):
        assert sup_discrepancy(3, 1e4).delta <= 0.1

    def test_scaled_delta_uniformly_bounded(self):
        # one constant covers every dimension from t = 1 on; the measured
        # sup sits near 0.56 (d=2 largest), so 1.0 leaves real headroom
        worst = 0.0
        for d in (2, 3, 4, 5, 6, 7):
            for t in (1.0, 3.0, 10.0, 100.0):
                worst = max(worst, math.sqrt(t) * sup_discrepancy(d, t).delta)
        assert worst <= 1.0


# the C7 sweep (d = 2..5, t = 10..1000 at 5 log-spaced points) as computed
# one tail call per grid point: (d, t, delta, argmax_x, evaluations)
C7_ROWS = [
    (2, 10.0, 0.17069152281334266, -0.14048915926443392, 420),
    (2, 31.622776601683796, 0.09751103841958908, -0.08444185374849213, 420),
    (2, 100.00000000000001, 0.055149518162838085, -0.04872109512200897, 420),
    (2, 316.227766016838, 0.03107226586615608, -0.027626796742350444, 420),
    (2, 1000.0000000000002, 0.01748399967512637, -0.015586149609432349, 420),
    (3, 10.0, 0.12615662596796134, 1.4210854715202004e-13, 420),
    (3, 31.622776601683796, 0.07094308430318425, 1.4210854715202004e-13, 420),
    (3, 100.00000000000001, 0.039894228040143254, 1.4210854715202004e-13, 420),
    (3, 316.227766016838, 0.022434173063540175, 1.4210854715202004e-13, 420),
    (3, 1000.0000000000002, 0.012615662610100775, 1.4210854715202004e-13, 420),
    (4, 10.0, 0.11205168460221682, 0.04338553438013743, 420),
    (4, 31.622776601683796, 0.06291949646448264, 0.024557833599285633, 420),
    (4, 100.00000000000001, 0.03536570655523569, 0.013841401729595646, 420),
    (4, 316.227766016838, 0.019884647629135888, 0.007783399882618508, 420),
    (4, 1000.0000000000002, 0.011181433718150002, 0.0043845248931336425, 420),
    (5, 10.0, 0.10534015604069674, 0.06300033649581076, 420),
    (5, 31.622776601683796, 0.05915659180830507, 0.035520167240489675, 420),
    (5, 100.00000000000001, 0.033251837075358115, 0.019979328016293707, 420),
    (5, 316.227766016838, 0.018696326491236204, 0.011255588615689123, 420),
    (5, 1000.0000000000002, 0.010513262429771075, 0.006321210645804526, 420),
]


class TestCoarseGridBatch:
    def test_one_array_tail_call(self, monkeypatch):
        calls = []

        def counting(d, t, x, spec):
            calls.append(np.ndim(x))
            return tail(d, t, x, spec)

        monkeypatch.setattr(discrepancy_module, "tail", counting)
        for d in (2, 3):
            calls.clear()
            res = sup_discrepancy(d, 30.0)
            assert calls.count(1) == 1 and calls[0] == 1
            assert len(calls) - 1 + 401 == res.evaluations

    @pytest.mark.parametrize("d,t,delta,argmax_x,evaluations", C7_ROWS)
    def test_c7_rows_unchanged(self, d, t, delta, argmax_x, evaluations):
        res = sup_discrepancy(d, t)
        assert res.delta == pytest.approx(delta, abs=1e-12)
        assert res.argmax_x == pytest.approx(argmax_x, abs=1e-12)
        assert res.evaluations == evaluations


class TestCurveAndFit:
    def test_synthetic_power_law(self):
        records = tuple(
            DiscrepancyRecord(t, 3.0 * t**-0.5, 0.0, 1) for t in (10.0, 30.0, 100.0, 300.0)
        )
        fit = rate_fit(DiscrepancyCurve(3, records))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.residual < 1e-12

    def test_constant_curve_zero_slope(self):
        records = tuple(DiscrepancyRecord(t, 0.25, 0.0, 1) for t in (1.0, 2.0, 4.0, 8.0))
        assert rate_fit(DiscrepancyCurve(3, records)).slope == pytest.approx(0.0, abs=1e-12)

    def test_rejects_short_or_degenerate(self):
        records = tuple(DiscrepancyRecord(t, 0.1, 0.0, 1) for t in (1.0, 2.0, 4.0))
        with pytest.raises(ValueError):
            rate_fit(DiscrepancyCurve(3, records))
        bad = tuple(DiscrepancyRecord(t, 0.0 if t == 4.0 else 0.1, 0.0, 1) for t in (1.0, 2.0, 4.0, 8.0))
        with pytest.raises(ValueError):
            rate_fit(DiscrepancyCurve(3, bad))

    def test_curve_orders_and_validates(self):
        curve = discrepancy_curve(3, [100.0, 10.0, 30.0], search=SearchSpec(coarse_step=0.25))
        assert [rec.t for rec in curve.records] == [10.0, 30.0, 100.0]
        with pytest.raises(ValueError):
            DiscrepancyCurve(3, (DiscrepancyRecord(2.0, 0.1, 0.0, 1), DiscrepancyRecord(1.0, 0.1, 0.0, 1)))

    def test_d3_rate(self):
        curve = discrepancy_curve(3, [10.0, 30.0, 100.0, 300.0, 1000.0])
        fit = rate_fit(curve)
        assert -0.55 <= fit.slope <= -0.45


class TestSharpness:
    def test_d3_constant(self):
        assert sharpness_at_zero(3, 100.0) == pytest.approx(INV_SQRT_2PI, rel=1e-2)

    def test_odd_floor(self):
        for d in (5, 7):
            for t in (1.0, 10.0, 100.0):
                assert sharpness_at_zero(d, t) >= 0.05, (d, t)

    def test_d2_integral_matches_even_path(self):
        for t in (1.0, 10.0, 100.0):
            a = sharpness_d2_integral(t)
            b = tail_even(2, t, 0.0).value - 0.5
            assert a == pytest.approx(b, abs=1e-8), t

    def test_d2_positive_past_threshold(self):
        for t in (math.log(6.0), 2.0, 5.0, 50.0):
            assert sharpness_d2_integral(t) > 0.0

    def test_d2_limit_constant(self):
        got = math.sqrt(1e4) * sharpness_d2_integral(1e4)
        assert got == pytest.approx(2.0 * math.log(2.0) / math.sqrt(2.0 * math.pi), rel=1e-2)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            sharpness_d2_integral(0.0)
