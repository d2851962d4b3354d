import math

import numpy as np
import pytest

from hypbm import discrepancy as discrepancy_module
from hypbm.discrepancy import (
    DiscrepancyCurve,
    DiscrepancyRecord,
    SupResult,
    discrepancy_curve,
    rate_fit,
    sharpness_at_zero,
    sharpness_d2_integral,
    sup_discrepancy,
)
from hypbm import quadrature as quadrature_module
from hypbm.kernels import Dimension
from hypbm.quadrature import DEFAULT_SPEC, QuadratureSpec
from hypbm import tails as tails_module
from hypbm.tails import normal_tail, tail

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestSupDiscrepancy:
    def test_d3_large_time_profile(self):
        res = sup_discrepancy(3, 1000.0)
        # the center excess dominates: delta ~ 1/sqrt(2 pi t) with argmax at 0
        assert res.delta == pytest.approx(INV_SQRT_2PI / math.sqrt(1000.0), rel=1e-3)
        assert abs(res.argmax_x) < 0.01
        # the 160 grid points at |x| <= 4, c and e, 15 golden steps and the check
        assert res.evaluations == 160 + 2 + 15 + 2

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


# the C7 sweep (d = 2..5, t = 10..1000 at 5 log-spaced points): (d, t,
# delta, argmax_x, evaluations). delta and argmax_x are those of a search
# that evaluates all 401 grid points; evaluations counts the grid points the
# search evaluated, the refinement's 17 points and the check's 2: for odd d
# the 160 grid points at |x| <= 4, for even d the 52 to 92 of them whose gaps
# the gap bounds could not certify
C7_ROWS = [
    (2, 10.0, 0.17069152281334266, -0.14048915926443392, 71),
    (2, 31.622776601683796, 0.09751103841958908, -0.08444185374849213, 78),
    (2, 100.00000000000001, 0.055149518162838085, -0.04872109512200897, 84),
    (2, 316.227766016838, 0.03107226586615608, -0.027626796742350444, 96),
    (2, 1000.0000000000002, 0.01748399967512637, -0.015586149609432349, 101),
    (3, 10.0, 0.12615662596796134, 1.4210854715202004e-13, 179),
    (3, 31.622776601683796, 0.07094308430318425, 1.4210854715202004e-13, 179),
    (3, 100.00000000000001, 0.039894228040143254, 1.4210854715202004e-13, 179),
    (3, 316.227766016838, 0.022434173063540175, 1.4210854715202004e-13, 179),
    (3, 1000.0000000000002, 0.012615662610100775, 1.4210854715202004e-13, 179),
    (4, 10.0, 0.11205168460221682, 0.04338553438013743, 76),
    (4, 31.622776601683796, 0.06291949646448264, 0.024557833599285633, 83),
    (4, 100.00000000000001, 0.03536570655523569, 0.013841401729595646, 95),
    (4, 316.227766016838, 0.019884647629135888, 0.007783399882618508, 100),
    (4, 1000.0000000000002, 0.011181433718150002, 0.0043845248931336425, 111),
    (5, 10.0, 0.10534015604069674, 0.06300033649581076, 179),
    (5, 31.622776601683796, 0.05915659180830507, 0.035520167240489675, 179),
    (5, 100.00000000000001, 0.033251837075358115, 0.019979328016293707, 179),
    (5, 316.227766016838, 0.018696326491236204, 0.011255588615689123, 179),
    (5, 1000.0000000000002, 0.010513262429771075, 0.006321210645804526, 179),
]


def _plain_sup_discrepancy(d, t, spec=DEFAULT_SPEC):
    """The golden-section search over the whole of discrepancy._GRID, with one
    scalar tail call per refinement point and no lookahead: the reference
    whose delta and argmax_x sup_discrepancy must equal bitwise."""
    xs, resolution = discrepancy_module._GRID, discrepancy_module._RESOLUTION
    evals = 0

    def f(x):
        return abs(tail(d, t, float(x), spec).value - normal_tail(float(x)))

    coarse = tail(d, t, xs, spec)
    vals = np.array([abs(est.value - normal_tail(float(x))) for est, x in zip(coarse, xs)])
    evals += len(xs)
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, len(xs) - 1)])
    c = b - GOLDEN * (b - a)
    e = a + GOLDEN * (b - a)
    fc, fe = f(c), f(e)
    evals += 2
    while b - a > resolution:
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + GOLDEN * (b - a)
            fe = f(e)
        evals += 1
        for xx, vv in ((c, fc), (e, fe)):
            if vv > best_v:
                best_v, best_x = vv, float(xx)
    for xx in (best_x - 2 * resolution, best_x + 2 * resolution):
        if xs[0] <= xx <= xs[-1]:
            vv = f(xx)
            evals += 1
            if vv > best_v:
                best_v, best_x = vv, float(xx)
    return SupResult(best_v, best_x, evals)


def _assert_same_sup(res, ref):
    assert (res.delta, res.argmax_x) == (ref.delta, ref.argmax_x)


@pytest.fixture
def calls(monkeypatch) -> list[np.ndarray]:
    """The x array of every tail call sup_discrepancy makes, in order."""
    seen = []

    def recording(d, t, xs, spec):
        seen.append(np.array(xs, dtype=float))
        return tails_module._tail_arrays(d, t, xs, spec)

    monkeypatch.setattr(discrepancy_module, "_tail_arrays", recording)
    return seen


def _grid_evaluations(calls, d) -> np.ndarray:
    """The grid points the search evaluated, as a mask over the grid. The
    calls before the refinement's are at most one per stride of the coarse
    stage, in order: the first is the window's points on its stride, counted
    from the window's first point, and the window's last point; each later
    one holds points on a later stride that no earlier call evaluated. A
    stride with no point to evaluate makes no call."""
    grid = discrepancy_module._GRID
    strides = discrepancy_module._ODD_STRIDES if d % 2 else discrepancy_module._EVEN_STRIDES
    window = (np.abs(grid) <= discrepancy_module._WINDOW).nonzero()[0]
    offset = np.arange(len(grid)) - window[0]
    # the refinement's first call holds c, which lies strictly between grid points
    k = next(k for k, at in enumerate(calls) if not np.isin(at, grid).all())
    assert 1 <= k <= len(strides)
    seed = window[offset[window] % strides[0] == 0]
    np.testing.assert_array_equal(calls[0], grid[np.union1d(seed, window[-1:])])
    evaluated = np.isin(grid, calls[0])
    later = iter(strides[1:])
    for at in calls[1:k]:
        i = np.searchsorted(grid, at)
        np.testing.assert_array_equal(grid[i], at)
        assert not evaluated[i].any() and len(np.unique(i)) == len(i)
        # consumes the strides up to the one this call is on
        assert any((offset[i] % stride == 0).all() for stride in later)
        evaluated[i] = True
    return evaluated


def _assert_equals_plain(calls, d, t, spec=DEFAULT_SPEC):
    """delta and argmax_x bitwise the full-grid reference's; evaluations its
    count less the grid points certified instead of evaluated."""
    calls.clear()
    res = sup_discrepancy(d, t, spec)
    evaluated = _grid_evaluations(calls, d)
    ref = _plain_sup_discrepancy(d, t, spec)
    _assert_same_sup(res, ref)
    assert res.evaluations == ref.evaluations - np.count_nonzero(~evaluated)
    return res, evaluated


class TestLookahead:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_equals_plain_golden_section(self, calls, d):
        window = np.abs(discrepancy_module._GRID) <= discrepancy_module._WINDOW
        for t in (1e-3, 0.5, 3.0, 30.0, 300.0, 1e5):
            _, evaluated = _assert_equals_plain(calls, d, t)
            # every point beyond the window certified; an odd search evaluates
            # the whole window, an even one only the gaps left open
            assert not (evaluated & ~window).any(), t
            if d % 2:
                assert evaluated[window].all(), t
            else:
                assert np.count_nonzero(evaluated) < 160, t

    # each search is (x_lo, x_hi, resolution): a grid from x_lo to x_hi in
    # steps of 0.05, refined to resolution. There is no search5: a grid with
    # no point at |x| <= 4 went with the branch that served it, and the other
    # ids keep their numbers
    @pytest.mark.parametrize(
        "search,argmax_lo,argmax_hi",
        [
            # the profile peaks near 0, so the coarse argmax is the first or the last grid point
            pytest.param((1.0, 4.0, 1e-4), 1.0, 1.05, id="search0-1.0-1.05"),
            pytest.param((-4.0, -1.0, 1e-4), -1.05, -1.0, id="search1--1.05--1.0"),
            # a resolution at least the bracket width: the refinement takes no step
            pytest.param((-10.0, 10.0, 0.2), -10.0, 10.0, id="search2--10.0-10.0"),
            # 8 steps: the width test cuts the last batch to the one point its step needs
            pytest.param((-10.0, 10.0, 3e-3), -10.0, 10.0, id="search3--10.0-10.0"),
            # grids partly outside |x| <= 4
            pytest.param((3.0, 8.0, 1e-4), 3.0, 3.05, id="search4-3.0-3.05"),
            pytest.param((-9.0, -3.5, 1e-4), -3.55, -3.45, id="search6--3.55--3.45"),
        ],
    )
    @pytest.mark.parametrize("d", range(2, 10))
    def test_edge_searches_equal_plain(self, calls, monkeypatch, d, search, argmax_lo, argmax_hi):
        # sup_discrepancy reads the grid and the resolution when called
        x_lo, x_hi, resolution = search
        monkeypatch.setattr(discrepancy_module, "_GRID", np.arange(x_lo, x_hi + 0.5 * 0.05, 0.05))
        monkeypatch.setattr(discrepancy_module, "_RESOLUTION", resolution)
        res, _ = _assert_equals_plain(calls, d, 10.0)
        assert argmax_lo <= res.argmax_x <= argmax_hi

    @pytest.mark.parametrize("d", [3, 5])
    def test_uncertified_grid_is_evaluated_whole(self, calls, d):
        # at t = 1e9 the sup, about 1e-5, lies below the tail at x = 4: neither
        # side is certified, so the window and the outer points are the grid
        res, evaluated = _assert_equals_plain(calls, d, 1e9)
        assert evaluated.all() and [len(at) for at in calls[:2]] == [160, 241]
        assert res.evaluations == 401 + 2 + 15 + 2


# (d, t, spec) of each search whose certificate is checked: the C7 grid,
# d = 6, 8 at t = 1 to 1e4, and tolerances off the default on both parities
CERTIFIED = [
    *[(d, t, DEFAULT_SPEC) for d, t, *_ in C7_ROWS],
    *[(d, t, DEFAULT_SPEC) for d in (6, 8) for t in (1.0, 10.0, 100.0, 1e3, 1e4)],
    *[
        (d, t, QuadratureSpec(*tols))
        for tols in ((1e-6, 1e-5), (1e-14, 1e-13), (1e-3, 1e-3))
        for d in (2, 3, 4, 6)
        for t in (1.0, 100.0, 1e4)
    ],
]


class TestCertificate:
    @pytest.mark.parametrize(
        "d,t,spec", CERTIFIED, ids=[f"{d}-{t:g}-{s.abs_tol:g}-{s.rel_tol:g}" for d, t, s in CERTIFIED]
    )
    def test_unevaluated_points_lie_below_the_maximum(self, calls, d, t, spec):
        # every grid point the search skipped lies strictly below the grid's
        # maximum in one call over the whole grid, so it could not have been
        # the first maximum; the search matches the whole-grid one bitwise
        _, evaluated = _assert_equals_plain(calls, d, t, spec)
        grid = discrepancy_module._GRID
        values, _, _ = tails_module._tail_arrays(Dimension(d), t, grid, spec)
        whole = np.abs(values - normal_tail(grid))
        assert not evaluated.all()
        assert whole[~evaluated].max() < whole.max()

    def test_normal_tail_non_increasing(self):
        # the certificate's other premise; the tail's is
        # test_tails.py's test_monotone_on_the_search_grid_within_errors
        assert (np.diff(normal_tail(discrepancy_module._GRID)) <= 0.0).all()
        xs = np.sort(np.random.default_rng(24).uniform(-12.0, 12.0, 10**6))
        assert (np.diff(normal_tail(xs)) <= 0.0).all()


class TestCoarseGridBatch:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_calls_look_ahead(self, calls, d):
        res = sup_discrepancy(d, 30.0)
        sizes = [len(at) for at in calls]
        assert discrepancy_module._LOOKAHEAD == 4
        # the coarse stage: for odd d the grid's 160 points at |x| <= 4,
        # whose edges certify the other 241; for even d every 8th of those
        # 160 points and the last (21 points), then the quarter points and
        # then the rest of each gap the bounds leave open. Then the c, e pair
        # with both candidates of each of the next 3 steps (at most 2 + 2 +
        # 4 + 8 points); for the 15 steps, three batches of a step's point
        # and the candidates of the 3 steps after it (at most 1 + 2 + 4 + 8);
        # the check at +-2 x_resolution. Paths that reach the same bracket
        # share their points, which are evaluated once, so a late batch may
        # be small. The search is deterministic, so each batch is pinned.
        coarse = {2: [21, 21, 17], 3: [160], 4: [21, 24, 19], 5: [160]}
        batches = {2: [14, 13, 13, 14], 3: [16, 15, 15, 15], 4: [16, 15, 13, 7], 5: [16, 13, 13, 13]}
        assert sizes == [*coarse[d], *batches[d], 2]
        assert res.evaluations == sum(coarse[d]) + 2 + 15 + 2

    # one panel-rule call per quadrature round, for each even C7 search in
    # order of t
    @pytest.mark.parametrize("d,rounds", [(2, [8, 8, 8, 11, 9]), (4, [8, 8, 9, 11, 8])])
    def test_even_search_rounds(self, monkeypatch, d, rounds):
        # each round is one sequential integrand call over every point still
        # unconverged, so the count, not the number of nodes, sets a search's
        # cost; the coarse stage's three calls take more rounds than one call
        # over the window, but each over 13 to 36 points instead of 160
        calls = []
        rule = quadrature_module._panel_rule

        def counting(*args):
            calls.append(None)
            return rule(*args)

        monkeypatch.setattr(quadrature_module, "_panel_rule", counting)
        counts = []
        for t in [row[1] for row in C7_ROWS if row[0] == d]:
            calls.clear()
            sup_discrepancy(d, t)
            counts.append(len(calls))
        assert counts == rounds

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
        curve = discrepancy_curve(3, [100.0, 10.0, 30.0])
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
            b = tail(2, t, 0.0).value - 0.5
            assert a == pytest.approx(b, abs=1e-8), t

    def test_d2_integral_matches_even_path_at_large_t(self):
        # the even tail holds its excess over 1/2 to the independent integral
        # at large t; the worst miss is 4.1e-7 of the excess (t = 1e16)
        for t in (10.0**k for k in range(6, 17)):
            want = sharpness_d2_integral(t)
            assert tail(2, t, 0.0).value - 0.5 == pytest.approx(want, rel=1e-5), t

    def test_d2_positive_past_threshold(self):
        for t in (math.log(6.0), 2.0, 5.0, 50.0):
            assert sharpness_d2_integral(t) > 0.0

    def test_d2_limit_constant(self):
        got = math.sqrt(1e4) * sharpness_d2_integral(1e4)
        assert got == pytest.approx(2.0 * math.log(2.0) / math.sqrt(2.0 * math.pi), rel=1e-2)

    def test_rejects_nonpositive_time(self):
        # it takes exactly the t a tail takes; below T_MIN its integral
        # drifts past 1/2 and then fails
        for t in (0.0, math.inf, math.nan, 1e-4, 1e-300):
            with pytest.raises(ValueError, match="t must be finite and >= 0.001"):
                sharpness_d2_integral(t)
