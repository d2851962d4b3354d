import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypbm.calculus import sinh_power_derivative
from hypbm.kernels import Dimension, EvaluationPoint, _series, build_odd_kernel
from hypbm import quadrature as quadrature_module
from hypbm import tails as tails_module
from hypbm.quadrature import QuadratureError, QuadratureSpec, QuadratureStack, integrate_adaptive
from hypbm.tails import direct_kernel_quadrature, normal_tail, radial_density, tail


class TestNormalTail:
    def test_center_and_limits(self):
        assert normal_tail(0.0) == 0.5
        assert normal_tail(math.inf) == 0.0
        assert normal_tail(-math.inf) == 1.0

    def test_reference_value(self):
        assert normal_tail(1.0) == pytest.approx(0.15865525393145705, rel=1e-13)

    @pytest.mark.parametrize("x", [-35.0, -8.0, -2.5, -0.3, 0.7, 3.0, 8.0, 20.0, 35.0])
    def test_against_mpmath(self, x):
        want = float(mp.ncdf(-mp.mpf(x)))
        assert normal_tail(x) == pytest.approx(want, rel=1e-12)

    @given(st.floats(min_value=-30, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_range(self, x):
        assert 0.0 <= normal_tail(x) <= 1.0
        assert normal_tail(x) + normal_tail(-x) == pytest.approx(1.0, abs=1e-14)


def threshold(d: int, t: float, x: float) -> float:
    return float(tails_module._thresholds(Dimension(d), t, np.array([x]))[0])


def boundary_x(d: int, t: float) -> float:
    """x below which the threshold pins at zero."""
    return -0.5 * (d - 1) * math.sqrt(t)


class TestFluctuationPoint:
    # the threshold rule of a normalized deviation x at time t
    def test_threshold_pins_at_zero(self):
        assert threshold(4, 4.0, -4.0) == 0.0
        assert threshold(4, 4.0, -3.0) == 0.0 < threshold(4, 4.0, np.nextafter(-3.0, 0.0))

    def test_threshold_formula(self):
        assert threshold(3, 4.0, 0.5) == pytest.approx(0.5 * 2.0 + 4.0, rel=1e-15)

    def test_zero_exactly_at_boundary(self):
        assert threshold(2, 9.0, -1.5) == 0.0

    def test_rejects_tiny_t(self):
        with pytest.raises(ValueError):
            threshold(3, 1e-5, 0.0)


class TestRadialDensity:
    def test_zero_at_origin(self):
        assert radial_density(3, EvaluationPoint(1.0, 0.0)) == 0.0

    def test_total_mass(self):
        res = direct_kernel_quadrature(3, 1.0, -10.0)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_mode_near_linear_growth(self):
        rs = np.linspace(10.0, 30.0, 401)
        dens = [radial_density(3, EvaluationPoint(20.0, float(r))) for r in rs]
        mode = float(rs[int(np.argmax(dens))])
        assert abs(mode - 20.0) < 2.0


class TestTailD3:
    def test_limits(self):
        assert tail(3, 1.0, 40.0).value == pytest.approx(0.0, abs=1e-12)
        assert tail(3, 1.0, -40.0).value == pytest.approx(1.0, abs=1e-12)

    def test_large_time_center(self):
        assert tail(3, 100.0, 0.0).value == pytest.approx(0.5398942280401433, abs=1e-10)

    def test_unit_time_center(self):
        assert tail(3, 1.0, 0.0).value == pytest.approx(0.8677014458364238, abs=1e-10)

    @pytest.mark.parametrize("x", [-2.0, -0.5, 0.0, 0.7, 2.5])
    def test_matches_direct_quadrature(self, x):
        a = tail(3, 1.0, x)
        b = direct_kernel_quadrature(3, 1.0, x)
        assert a.value == pytest.approx(b.value, abs=1e-8)

    @pytest.mark.parametrize("t,x", [(1.0, math.nan), (1.0, math.inf), (0.0, 0.0), (-4.0, 0.0), (1e-4, 0.0)])
    def test_rejects_invalid_point(self, t, x):
        with pytest.raises(ValueError):
            tail(3, t, x)

    @pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5])
    def test_closed_form_matches_gaussian_weighted_integral(self, t):
        # oracle: the stable Gaussian-weighted integral the closed form sums,
        # (1/sqrt(2 pi)) int_{x v -sqrt t}^inf (1 + v/sqrt t) e^{-v^2/2} (1 - e^{-2(t + v sqrt t)}) dv
        sqrt_t = math.sqrt(t)

        def f(v):
            return (1.0 + v / sqrt_t) * np.exp(-0.5 * v * v) * -np.expm1(-2.0 * (t + v * sqrt_t))

        spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-13)
        for x in np.linspace(-12.0, 12.0, 49):
            lower = max(float(x), -sqrt_t)
            want = integrate_adaptive(f, max(lower, -12.0), max(lower, 0.0) + 12.0, spec).value / math.sqrt(2.0 * math.pi)
            got = tail(3, t, float(x))
            assert got.value == pytest.approx(want, abs=1e-12), (t, x)
            assert got.error_estimate < 1e-14


def _odd_tail_mp(d, t, x):
    """The odd-d reduction evaluated in mpmath from the exact term tables: the
    d=3 tail at n^2 t plus, at T = x sqrt t + (d-1)t/2, the boundary sum over
    m < n of omega_d e^{-(2n-m)mt/2} (2 pi)^{-m} q_{d-2m}(t,T) D^{m-1} sinh^{2n-1} T.
    Its factors are e^{O(t)}, so it works at 50 + log10 t digits."""
    n = d // 2
    with mp.workdps(50 + max(0, int(math.log10(t)))):
        t, x = mp.mpf(t), mp.mpf(x)
        s = n * mp.sqrt(t)
        lo = max(x, -s)
        Q = lambda z: mp.erfc(z / mp.sqrt(2)) / 2
        value = Q(lo) + Q(lo + 2 * s) + mp.npdf(lo) * (1 - mp.exp(-2 * s * (lo + s))) / s
        T = mp.sqrt(t) * x + (d - 1) * t / 2
        if T <= 0:
            return value
        omega = 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
        ch, sh = mp.cosh(T), mp.sinh(T)
        for m in range(1, n):
            expansion = sum(c * ch**a * sh**b for c, a, b in sinh_power_derivative(2 * n - 1, m - 1).terms)
            kernel = build_odd_kernel(d - 2 * m)
            k = kernel.m
            q = mp.exp(-k * k * t / 2 - T * T / (2 * t)) / ((2 * mp.pi * t) ** 1.5 * (2 * mp.pi) ** (k - 1)) * sum(
                c * T**p * ch**a / (t**i * sh**b) for c, i, p, a, b in kernel.terms
            )
            value += omega * mp.exp(-(2 * n - m) * m * t / 2) / (2 * mp.pi) ** m * q * expansion
        return value


class TestTailOdd:
    @pytest.mark.parametrize("d", [5, 7, 9])
    def test_error_estimate_covers_boundary_rounding(self, d):
        # every boundary term's O(t) exponents cancel exactly into e^{-x^2/2},
        # so the estimate stays a few eps per term up to t = 1e300
        for k in [*range(2, 21), *range(30, 301, 30)]:
            for x in (-1.0, 0.0, 1.0):
                est = tail(d, 10.0**k, x)
                assert abs(est.value - float(_odd_tail_mp(d, 10.0**k, x))) <= est.error_estimate < 1e-13, (k, x)

    @pytest.mark.parametrize("d", [5, 7, 9])
    def test_huge_time_is_gaussian(self, d):
        # the deviation from Phi is O(t^{-1/2}) = 1e-150
        for x in (-3.0, 0.0, 1.0, 5.0):
            assert tail(d, 1e300, x).value == pytest.approx(normal_tail(x), rel=1e-8, abs=1e-12), x

    def test_d5_vs_direct(self):
        a = tail(5, 2.0, 0.5)
        b = direct_kernel_quadrature(5, 2.0, 0.5)
        assert a.value == pytest.approx(b.value, abs=1e-7)

    def test_every_summed_term_is_positive(self):
        # the odd tail sums its boundary terms, and the odd bracket its series,
        # with no sign: every expansion the tail uses for d <= 63 and every
        # series coefficient for m <= 15 must be positive
        for n in range(2, 32):
            for m in range(1, n):
                assert all(c > 0 for c, _, _ in sinh_power_derivative(2 * n - 1, m - 1).terms), (n, m)
        for m in range(1, 16):
            assert (_series(m)[1] > 0.0).all(), m

    def test_boundary_terms_vanish_below_threshold(self):
        # T = 0 here, so the value is the reduced d=3 tail alone (= 1)
        t = 2.0
        x = -2.0 * math.sqrt(t) - 1.0
        est = tail(5, t, x)
        assert est.value == pytest.approx(1.0, abs=1e-10)


class TestTailEven:
    def test_d2_vs_direct(self):
        for t, x in [(5.0, 0.3), (1.0, -1.0), (20.0, 1.5)]:
            a = tail(2, t, x)
            b = direct_kernel_quadrature(2, t, x)
            assert a.value == pytest.approx(b.value, abs=1e-6), (t, x)

    def test_d4_vs_direct(self):
        a = tail(4, 2.0, 1.0)
        b = direct_kernel_quadrature(4, 2.0, 1.0)
        assert a.value == pytest.approx(b.value, abs=1e-5)

    def test_pinned_threshold_gives_full_mass(self):
        for d, t in [(2, 1.0), (4, 5.0), (6, 100.0), (4, 1000.0)]:
            xb = boundary_x(d, t)
            assert tail(d, t, xb - 2.5).value == pytest.approx(1.0, abs=1e-9), (d, t)

    def test_branch_continuity(self):
        eps = 1e-6
        for d, t in [(2, 3.0), (4, 7.0), (6, 30.0)]:
            xb = boundary_x(d, t)
            lo = tail(d, t, xb - eps).value
            hi = tail(d, t, xb + eps).value
            assert abs(hi - lo) <= 1e-6 + 2.0 * eps, (d, t)

    def test_large_time_center_excess_constant(self):
        # sqrt(t) * (tail - 1/2) approaches 2 ln 2 / sqrt(2 pi) for d = 2
        got = math.sqrt(1e4) * (tail(2, 1e4, 0.0).value - 0.5)
        assert got == pytest.approx(2.0 * math.log(2.0) / math.sqrt(2.0 * math.pi), rel=1e-3)

    def test_pinned_threshold_is_exactly_one(self):
        for d, t in [(2, 1e-3), (4, 1.0), (8, 100.0), (10, 1e6)]:
            xb = boundary_x(d, t)
            for x in (xb, xb - 1.0, -1e9):
                est = tail(d, t, x)
                assert est.value == 1.0 and est.error_estimate == 0.0, (d, t, x)

    @pytest.mark.parametrize(
        "d,t,x,want",
        [
            # mpmath at 25 digits: the swapped-order descent integral over
            # sympy-differentiated odd kernels (perfbench/refs_mp.py)
            (8, 1.0, -1.0, 0.9770021714571819),
            (8, 1.0, 0.5, 0.6098517938482783),
            (8, 1.0, 2.0, 0.09037188193970211),
            (8, 100.0, -1.0, 0.8594647996933827),
            (8, 100.0, 0.5, 0.33599333123032116),
            (8, 100.0, 2.0, 0.027133344281423534),
            (8, 1e4, -1.0, 0.8432019926659764),
            (8, 1e4, 0.5, 0.3112507823616922),
            (8, 1e4, 2.0, 0.023167908352609297),
            (10, 1.0, -1.0, 0.9715163991099551),
            (10, 1.0, 0.5, 0.6027664067463981),
            (10, 1.0, 2.0, 0.09172279638524432),
            (10, 100.0, -1.0, 0.8590104674662961),
            (10, 100.0, 0.5, 0.3353788540174235),
            (10, 100.0, 2.0, 0.027048094794198636),
            (10, 1e4, -1.0, 0.8431585606176865),
            (10, 1e4, 0.5, 0.31118807382222674),
            (10, 1e4, 2.0, 0.023158367822870406),
        ],
    )
    def test_high_dimension_against_mpmath(self, d, t, x, want):
        assert tail(d, t, x).value == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_huge_time_is_gaussian(self, d):
        # the deviation from Phi is O(t^{-1/2}) = 1e-150: every factor of the
        # integrand must stay exact at t = 1e300, not overflow to 0 or inf
        for x in (-3.0, 0.0, 1.0, 5.0):
            assert tail(d, 1e300, x).value == pytest.approx(normal_tail(x), rel=1e-8, abs=1e-12), x

    def test_even_tail_rounds(self, monkeypatch):
        # each round is one sequential integrand call, so the count, not the
        # number of nodes, sets a one-point tail's cost; seeded at the
        # integrand's own widths, no point of this grid needs more than two
        # (seeded in the bulk alone, 69 of its points needed two and 28 three)
        calls = []
        rule = quadrature_module._panel_rule

        def counting(*args):
            calls.append(None)
            return rule(*args)

        monkeypatch.setattr(quadrature_module, "_panel_rule", counting)
        rounds = {}
        for d in (2, 4, 6, 8, 10):
            for t in (1.0, 10.0, 100.0):
                for x in range(-3, 4):
                    calls.clear()
                    tail(d, t, float(x))
                    rounds[d, t, x] = len(calls)
        assert max(rounds.values()) <= 2, {p: n for p, n in rounds.items() if n > 2}

    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
    def test_error_estimate_covers_tight_reference(self, d):
        # fewer rounds must not let an estimate fall below the true error: the
        # same tail at a tolerance near eps is the reference; the worst use is
        # 0.24 of the estimate (d = 10, t = 0.1, x = 0.75, an error of 3.3e-16),
        # and the worst error 2.3e-15 (d = 2, t = 1e5, x = -6). Without the
        # cuts in the gap's bend, the estimates missed by up to 3e4x from
        # t = 1e5 on; the points just below a Gaussian unit put a cut near
        # w = 1 and the next one far above the bend
        tight = QuadratureSpec(abs_tol=1e-16, rel_tol=1e-15)
        xs = np.concatenate((np.linspace(-6.0, 10.0, 65), np.array([-1.0, 0.0, 1.0, 2.5, 5.0]) - 1e-6))
        for t in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, *(10.0**k for k in range(5, 15))):
            for x, est, ref in zip(xs.tolist(), tail(d, t, xs), tail(d, t, xs, tight)):
                assert abs(est.value - ref.value) <= est.error_estimate, (t, x)


class TestDispatchAndBounds:
    def test_method_tags(self):
        assert tail(3, 1.0, 0.0).method == "closed_form_d3"
        assert tail(5, 1.0, 0.0).method == "odd_reduction"
        assert tail(2, 1.0, 0.0).method == "even_decomposition"
        assert direct_kernel_quadrature(3, 1.0, 0.0).method == "direct_kernel_quadrature"

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_monotone_in_x(self, d):
        xs = np.linspace(-4.0, 4.0, 17)
        vals = [tail(d, 3.0, float(x)).value for x in xs]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-9

    @pytest.mark.parametrize("d", range(2, 10))
    @pytest.mark.parametrize("t", [1e-3, 1.0, 10.0, 1000.0, 1e5])
    def test_monotone_on_the_search_grid_within_errors(self, d, t):
        # the premise of the sup search's certificate: on its 401-point grid
        # the tail never rises by more than the two points' error estimates
        ests = tail(d, t, np.arange(-10.0, 10.025, 0.05))
        for a, b in zip(ests, ests[1:]):
            assert b.value <= a.value + a.error_estimate + b.error_estimate

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_values_in_unit_interval(self, d):
        for x in (-30.0, -3.0, 0.0, 3.0, 30.0):
            v = tail(d, 2.0, x).value
            assert 0.0 <= v <= 1.0

    def test_full_mass_below_pinned_threshold(self):
        for d in (2, 3, 4, 5):
            x = -0.5 * (d - 1) * math.sqrt(2.0) - 10.0
            assert tail(d, 2.0, x).value >= 1.0 - 1e-8

    def test_clt_convergence_monotone(self):
        for d in (2, 5):
            for x in (-1.0, 0.5, 2.0):
                deltas = [abs(tail(d, t, x).value - normal_tail(x)) for t in (10.0, 1e2, 1e3, 1e4)]
                for a, b in zip(deltas, deltas[1:]):
                    assert b <= 1.1 * a, (d, x, deltas)

    def test_clt_value_at_large_time(self):
        assert tail(3, 1e4, 1.0).value == pytest.approx(normal_tail(1.0), abs=2e-2)

    def test_stabilized_integrand_pointwise_bound(self):
        # the dominant even-d integrand (per unit 2w jacobian) is sandwiched
        # between 0 and (1 + |u|) e^{-u^2/2} 2^{n - 1/2}
        from hypbm.logspace import vlogcosh_minus_x, vlogsinh_minus_x

        def vlogsinh(v):
            return v + vlogsinh_minus_x(v)

        def vlogcosh(v):
            return v + vlogcosh_minus_x(v)

        d, t, x = 4, 3.0, -0.7
        n = 2
        sqrt_t = math.sqrt(t)
        T = threshold(d, t, x)
        w = np.linspace(1e-6, 3.0, 200)
        u = x + w * w
        y = u * sqrt_t + (n - 0.5) * t
        log_gap = math.log(2.0) + vlogsinh(0.5 * (y + T)) + vlogsinh(0.5 * sqrt_t * w * w) - vlogcosh(y)
        vals = (1.0 + u / ((n - 0.5) * sqrt_t)) * np.exp(-0.5 * u * u + (n - 0.5) * (np.log1p(np.exp(-2 * y)) + log_gap))
        bound = (1.0 + np.abs(u)) * np.exp(-0.5 * u * u) * 2.0 ** (n - 0.5)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= bound + 1e-12)


class TestArrayX:
    @staticmethod
    def grid(d: int, t: float) -> np.ndarray:
        """x from below the pinned threshold's boundary to past the bulk, the boundary itself included."""
        xb = boundary_x(d, t)
        return np.r_[xb - 1.0, xb, np.nextafter(xb, 0.0), np.linspace(xb + 1e-3, 4.0, 9), -0.0, 0.0, 1e-300]

    @pytest.mark.parametrize("d", range(2, 14))
    @pytest.mark.parametrize("t", [1e-3, 0.5, 10.0, 300.0])
    def test_each_point_bitwise_as_alone(self, d, t):
        # the extremes overflow x * x, T and the Gaussian arguments to inf,
        # which must neither warn nor touch the finite points beside them
        xs = np.r_[self.grid(d, t), -1e308, 1e160, 1.7e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ests = tail(d, t, xs)
            assert isinstance(ests, list) and len(ests) == len(xs)
            for x, est in zip(xs, ests):
                assert est == tail(d, t, float(x)), x

    @pytest.mark.parametrize("d", range(2, 10))
    def test_array_path_is_the_estimates(self, d):
        # the (values, errors, method) arrays a search reads are bitwise the TailEstimates
        xs = np.r_[self.grid(d, 10.0), 1.7e308]
        values, errors, method = tails_module._tail_arrays(Dimension(d), 10.0, xs)
        got = [tails_module.TailEstimate(v, e, method) for v, e in zip(values.tolist(), errors.tolist())]
        assert got == tail(d, 10.0, xs)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_empty_array_gives_empty_list(self, d):
        assert tail(d, 1.0, []) == []

    @pytest.mark.parametrize("d", range(2, 10))
    def test_nan_in_array_raises(self, d):
        with pytest.raises(ValueError, match="x must be finite"):
            tail(d, 1.0, [0.0, math.nan])

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_pinned_points_are_exactly_one(self, d):
        t = 10.0
        xs = self.grid(d, t)
        xb = boundary_x(d, t)
        for x, est in zip(xs, tail(d, t, xs)):
            if x <= xb:
                assert est == tails_module.TailEstimate(1.0, 0.0, "even_decomposition"), x
            else:  # integrated, even where the value clamps to 1
                assert est.error_estimate > 0.0, x

    @pytest.mark.parametrize("d", [2, 4])
    def test_overflowing_threshold_is_exactly_zero(self, d):
        # T = sqrt(t) (x - boundary_x) overflows to inf; the finite point beside it is untouched
        t = 3.0
        ests = tail(d, t, np.array([0.5, 1.7e308]))
        assert ests[1] == tails_module.TailEstimate(0.0, 0.0, "even_decomposition")
        assert tail(d, t, 1.7e308) == ests[1]
        assert ests[0] == tail(d, t, 0.5)

    def test_clamp_widens_the_error_per_point(self, monkeypatch):
        d, t = 4, 10.0
        xs = np.array([-1.0, 0.0, 1.0])
        plain = tail(d, t, xs)

        def overshooting(*args, **kwargs):
            stack = integrate_adaptive(*args, **kwargs)
            values = np.array([1.0 + 1e-7, -2e-7, stack.values[2]])
            errors = np.array([1e-12, 1e-12, stack.errors[2]])
            return QuadratureStack(values, errors, stack.counts)

        monkeypatch.setattr(tails_module, "integrate_adaptive", overshooting)
        ests = tail(d, t, xs)
        assert (ests[0].value, ests[0].error_estimate) == (1.0, pytest.approx(1e-7, rel=1e-6))
        assert (ests[1].value, ests[1].error_estimate) == (0.0, 2e-7)
        assert ests[2] == plain[2]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_no_negative_zero_error(self, d):
        # a tail that is exactly 0 or 1 quotes an error of +0.0, never -0.0
        xs = np.array([-1e308, -40.0, 40.0, 1e308])
        for est in tail(d, 3.0, xs):
            assert not np.signbit(est.error_estimate), est
        _, errs, _ = tails_module._tail_arrays(Dimension(d), 3.0, xs)
        assert not np.signbit(errs).any()

    def test_empty_and_invalid_arrays(self):
        assert tail(4, 1.0, np.array([])) == [] and tail(5, 1.0, []) == []
        with pytest.raises(ValueError):
            tail(4, 1.0, [0.0, math.nan])
        with pytest.raises(ValueError):
            tail(4, 1.0, np.zeros((2, 2)))


class TestDirectOracleGuards:
    # the oracle rejects what no tail accepts, converges wherever the density's
    # rounding leaves digits to integrate, and raises QuadratureError past that
    def test_rejects_large_t(self):
        for t in (math.inf, 1e309):
            with pytest.raises(ValueError):
                direct_kernel_quadrature(3, t, 0.0)

    def test_rejects_unsupported_dimension(self):
        for d in (1, 2.5):
            with pytest.raises(ValueError):
                direct_kernel_quadrature(d, 1.0, 0.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 10.0, 50.0, 100.0, 1000.0])
    def test_tail_within_both_error_estimates(self, d, t):
        # the two routes share no quadrature, so their difference is covered
        # by the sum of the errors they quote wherever both are honest; the
        # worst use is 0.12 of that sum (d = 7, t = 1000), and the 49 cases
        # take about 3 s
        xs = np.linspace(-5.0, 5.0, 21)
        for x, est in zip(xs.tolist(), tail(d, t, xs)):
            ref = direct_kernel_quadrature(d, t, x)
            assert abs(est.value - ref.value) <= est.error_estimate + ref.error_estimate, x

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_converges_at_large_t(self, d):
        # the mass is asked for no more than the density's rounding,
        # 2 eps (d-1)^2 t, which stays below 1e-2 through t = 1e11 at d <= 8
        for t in (1e8, 1e9, 1e10, 1e11):
            for x in (-3.0, 0.0, 2.0):
                ref = direct_kernel_quadrature(d, t, x)
                est = tail(d, t, x)
                assert ref.error_estimate > 0.0, (t, x)
                assert abs(est.value - ref.value) <= est.error_estimate + ref.error_estimate, (t, x)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 12])
    def test_raises_past_its_reach(self, d):
        # the tail at x = 0 is about 1/2 here; the oracle must not return 0.0
        # with error 0, nor overflow
        with pytest.raises(QuadratureError):
            direct_kernel_quadrature(d, 1e40, 0.0)

    def test_error_estimate_within_spec(self):
        spec = QuadratureSpec()
        res = direct_kernel_quadrature(3, 1.0, 0.0, spec)
        assert res.error_estimate <= 1e-7
