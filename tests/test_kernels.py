import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from hypbm import kernels
from hypbm import quadrature as quadrature_module
from hypbm.kernels import (
    Dimension,
    EvaluationPoint,
    KernelError,
    build_odd_kernel,
    davies_envelope,
    heat_kernel,
    millson_step_numeric,
    millson_step_symbolic,
    _log_kernel,
    _log_odd_bracket,
    _series,
    descent_gap,
)
from hypbm.quadrature import DEFAULT_SPEC, integrate_adaptive
from hypbm.tails import _radial_density, _radial_mass, radial_density


def eval_odd_bracket_mp(d: int, t: float, r: float, digits: float) -> float:
    """log of q_d's bracket from build_odd_kernel(d)'s exact terms in mpmath,
    with 25 + digits working digits: the reference for the float evaluation."""
    with mp.workdps(int(25 + digits)):
        rt, tt = mp.mpf(r), mp.mpf(t)
        ch, sh = mp.cosh(rt), mp.sinh(rt)
        total = mp.mpf(0)
        for c, i, p, a, b in build_odd_kernel(d).terms:
            total += c * rt**p * ch**a / (tt**i * sh**b)
        assert total > 0, (d, t, r)
        return float(mp.log(total))


def log_q_odd_mp(d: int, t: float, r: float) -> float:
    """log q_d (odd d) with the bracket in mpmath at 40 digits beyond the
    (d-3) log10(1/r) that its terms cancel near the origin. The bracket is
    even in r and O(r^2) flat, so r = 0 is taken at r = 1e-30."""
    r_mp = max(r, 1e-30)
    lost = (d - 3) * max(0.0, -math.log10(r_mp))
    expr = build_odd_kernel(d)
    return expr.log_prefactor(t) - r * (r / (2.0 * t)) + eval_odd_bracket_mp(d, t, r_mp, 15.0 + lost)


def log_q_even_mp(d: int, t: float, r: float, nodes) -> float:
    """log q_d for d = 2 or 4 from the descent integral in w (s = r + w^2) over
    q_3 or q_5 in mpmath at 50 digits, with mp.quad broken at the nodes."""
    with mp.workdps(50):
        tt, rr = mp.mpf(t), mp.mpf(r)

        def q_upper(s):  # q_3, or q_5 = -e^{-3t/2} / (2 pi sinh s) d/ds q_3
            q3s = mp.exp(-tt / 2 - s * s / (2 * tt)) / (2 * mp.pi * tt) ** 1.5
            if d == 2:
                return q3s * s / mp.sinh(s)
            sh = mp.sinh(s)
            minus_dq3 = q3s * (s * s / (tt * sh) - 1 / sh + s * mp.cosh(s) / sh**2)
            return mp.exp(-3 * tt / 2) * minus_dq3 / (2 * mp.pi * sh)

        def f(w):
            if w < mp.mpf("1e-20"):
                return mp.mpf(0)  # bounded integrand: this piece is far below the tests' bounds
            s = rr + w * w
            return 2 * w * q_upper(s) * mp.sinh(s) / mp.sqrt(2 * mp.sinh((s + rr) / 2) * mp.sinh(w * w / 2))

        return float(mp.log(2) / 2 + (2 * d - 1) * tt / 8 + mp.log(mp.quad(f, nodes)))


def total_mass(d: int, t: float) -> float:
    return _radial_mass(d, t, 0.0, DEFAULT_SPEC).value


class TestDimensionTypes:
    def test_parity_decomposition(self):
        assert Dimension(7).n == 3 and Dimension(7).is_odd
        assert Dimension(6).n == 3 and not Dimension(6).is_odd

    @pytest.mark.parametrize("d", [1, 0, -3])
    def test_rejects_small(self, d):
        with pytest.raises(ValueError):
            Dimension(d)

    @pytest.mark.parametrize("t,r", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1), (math.inf, 1.0)])
    def test_point_validation(self, t, r):
        with pytest.raises(ValueError):
            EvaluationPoint(t, r)


class TestClosedFormD3:
    def test_center_value(self):
        assert heat_kernel(3, EvaluationPoint(1.0, 0.0)).value == pytest.approx(0.038510836890748943, rel=1e-13)

    def test_interior_value(self):
        assert heat_kernel(3, EvaluationPoint(1.0, 1.0)).value == pytest.approx(0.019875748452065723, rel=1e-13)

    def test_far_value(self):
        assert heat_kernel(3, EvaluationPoint(2.0, 5.0)).value == pytest.approx(1.0742305968480592e-06, rel=1e-13)

    def test_no_underflow_in_log_form(self):
        lv = heat_kernel(3, EvaluationPoint(1000.0, 3000.0))
        assert math.isfinite(lv.log) and lv.log < -5000 and lv.value == 0.0

    @pytest.mark.parametrize("d", [3, 5])
    def test_log_finite_where_r_squared_overflows(self, d):
        # r^2 overflows, r^2/(2t) = 2e300 does not: log q is about -4.5e300 (d=3)
        lv = heat_kernel(d, EvaluationPoint(1e300, 2e300))
        assert math.isfinite(lv.log) and lv.log < -4e300
        env = davies_envelope(d, EvaluationPoint(1e300, 2e300))
        assert math.isfinite(env.log) and env.log < -4e300


class TestOddKernels:
    def test_base_expression_single_term(self):
        e = build_odd_kernel(3)
        assert e.terms == ((1, 0, 1, 0, 1),)

    def test_five_dimensional_golden_terms(self):
        # hand-derived: (-1) sinh^-2 + r cosh sinh^-3 + (r^2/t) sinh^-2
        assert build_odd_kernel(5).terms == ((-1, 0, 0, 0, 2), (1, 0, 1, 1, 3), (1, 1, 2, 0, 2))

    def test_prefactor_exponent_growth(self):
        # d=5 carries e^{-4t/2}: the t-coefficient of the log prefactor is -2
        e5 = build_odd_kernel(5)
        dlog = e5.log_prefactor(2.0) - e5.log_prefactor(1.0)
        assert dlog == pytest.approx(-2.0 - 1.5 * math.log(2.0), rel=1e-14)

    def test_step_closure(self):
        # building d=7 directly equals stepping the d=5 expression once
        assert build_odd_kernel(7) == millson_step_symbolic(build_odd_kernel(5))

    @pytest.mark.parametrize("d", [5, 7])
    @pytest.mark.parametrize("t,r", [(1.0, 1.0), (1.0, 2.0), (5.0, 4.0), (0.5, 0.25)])
    def test_matches_numeric_recursion(self, d, t, r):
        got = heat_kernel(d, EvaluationPoint(t, r))
        want = millson_step_numeric(lambda rr: heat_kernel(d - 2, EvaluationPoint(t, rr)), d, EvaluationPoint(t, r))
        assert got.value == pytest.approx(want.value, rel=1e-8)

    def test_small_radius_high_precision_path(self):
        # near the origin the recurrence cancels and the z = cosh r series
        # takes over: exact at r = 0, continuous down to it, for every d
        for d in (5, 7, 9, 11, 13):
            vals = [heat_kernel(d, EvaluationPoint(1.0, r)).value for r in (0.0, 1e-6, 1e-4, 1e-2, 0.05)]
            assert all(v > 0 and math.isfinite(v) for v in vals)
            assert vals[0] == pytest.approx(vals[1], rel=1e-11)
            assert vals[0] == pytest.approx(vals[3], rel=1e-3)
            assert heat_kernel(d, EvaluationPoint(1.0, 0.0)).log == pytest.approx(log_q_odd_mp(d, 1.0, 0.0), abs=1e-13)

    @pytest.mark.parametrize("d", range(3, 32, 2))
    def test_vectorized_bracket_matches_scalar_path(self, d):
        # log q_d, one point at a time and as one array of r, against the
        # scalar mpmath reference on both sides of d's switch radius and out
        # to r = 3; the grid holds (7, 50, 0.06), (9, 2, 0.16), (11, 2, 0.24)
        # and (13, 50, 0.32), where a term-table sum with an mpmath switch by
        # lost digits was off by 1e-9 to 1e-7, r = 1.5, where a signed
        # term-table sum was off by 5x (d = 19) and 13x (d = 21) the bound,
        # and r = 1.4, where an alternating series in cosh r - 1 below a
        # hand-set switch and the recurrence above it missed the bound from
        # d = 25 up (at t = 50 by 1.7x at d = 25 and 31x at d = 31)
        r_switch = _series((d - 1) // 2)[0]
        rs = np.array(sorted([0.0, 1e-6, 1e-4, 1e-3, 0.01, 0.04, 0.06, 0.16, 0.24, 0.32, 0.5, 0.64, 0.66,
                              0.8, 0.94, 0.96, 1.0, 1.24, 1.26, 1.4, 1.5, 1.7, 1.9, 2.0, 2.1, 2.5, 3.0,
                              r_switch * (1.0 - 1e-3), r_switch * (1.0 + 1e-3)]))
        expr = build_odd_kernel(d)
        for t in (1e-3, 0.01, 0.1, 2.0, 10.0, 50.0, 1e3, 1e5):
            vector = expr.log_prefactor(t) - rs * (rs / (2.0 * t)) + _log_odd_bracket(d, t, rs) - expr.m * rs
            for r, v in zip(rs, vector):
                want = log_q_odd_mp(d, t, float(r))
                tol = 1e-11 + 4.0 * np.finfo(float).eps * abs(want)
                assert abs(heat_kernel(d, EvaluationPoint(t, float(r))).log - want) <= tol, (t, r)
                assert abs(v - want) <= tol, (t, r)

    @pytest.mark.parametrize("d", [3, 5, 9, 13, 17])
    def test_bracket_values_independent_of_the_array(self, d):
        # series and recurrence nodes mixed in one array, as a descent quadrature
        # evaluates them: each value is bitwise what it is among other nodes
        # and alone, which stacked quadratures, the array tails and
        # one-point kernels all rely on
        rs = np.array([0.0, 1e-7, 0.01, 0.049, 0.051, 0.3, 0.6, 0.7, 1.2, 1.3, 1.5, 3.0, 40.0])
        for t in (1e-3, 0.7, 30.0):
            whole = _log_odd_bracket(d, t, rs)
            for j in range(len(rs)):
                assert (whole[j : j + 1] == _log_odd_bracket(d, t, rs[j : j + 1])).all(), (t, rs[j])
                assert (whole[j : j + 2] == _log_odd_bracket(d, t, rs[j : j + 2])).all(), (t, rs[j])
            assert (whole[1::4] == _log_odd_bracket(d, t, rs[1::4])).all(), t

    @pytest.mark.parametrize("d", range(3, 32, 2))
    def test_term_table_positive_above_the_switch(self, d):
        # the recurrence serves every r from d's switch radius up: its Bell
        # sum stays positive and finite there for every t, out to the double
        # maximum, so no fallback or error path is needed
        r_switch = _series((d - 1) // 2)[0]
        rs = np.concatenate([np.linspace(r_switch, 3.0, 200), np.geomspace(3.0, 1.7e308, 400)])
        for t in np.geomspace(1e-3, 1e300, 40):
            assert np.isfinite(_log_odd_bracket(d, float(t), rs)).all(), t

    @pytest.mark.parametrize("d", [5, 7])
    def test_within_the_direct_oracles_quoted_error(self, d):
        # direct_kernel_quadrature adds a relative 1e-11 for the odd kernel's
        # own error, and a few eps of log q; (7, 50, 0.06) was off by 1.3e-9
        for t in (1e-3, 0.1, 1.0, 10.0, 50.0):
            for r in (0.0, 1e-3, 0.03, 0.06, 0.2, 0.5, 1.0, 3.0, 20.0):
                got = heat_kernel(d, EvaluationPoint(t, r)).log
                assert abs(got - log_q_odd_mp(d, t, r)) <= 1e-11, (t, r)

    @pytest.mark.parametrize("d,t", [(5, 1.0), (7, 5.0)])
    def test_normalization(self, d, t):
        assert total_mass(d, t) == pytest.approx(1.0, abs=1e-6)


class TestEvenKernels:
    def test_q2_normalization(self):
        for t in (0.5, 1.0, 5.0, 20.0):
            assert total_mass(2, t) == pytest.approx(1.0, abs=1e-6)

    def test_q2_finite_at_origin(self):
        v = heat_kernel(2, EvaluationPoint(1.0, 0.0)).value
        assert 0.0 < v < 1.0

    def test_q2_brute_force_oracle(self):
        # untransformed independent route: QUADPACK's algebraic-endpoint rule
        # integrates f(s) (s-r)^{-1/2} with the singularity handled by the
        # library, no shared code with the production path
        import scipy.integrate as si

        t, r = 1.0, 1.0

        def smooth_factor(s):
            if s <= r:
                return r * math.exp(-0.5 * r * r / t) / math.sqrt(math.sinh(r))
            return s * math.exp(-0.5 * s * s / t) * math.sqrt((s - r) / (math.cosh(s) - math.cosh(r)))

        raw, err = si.quad(smooth_factor, r, 40.0, weight="alg", wvar=(-0.5, 0), limit=400)
        want = math.sqrt(2.0) * math.exp(-t / 8.0) / (2.0 * math.pi * t) ** 1.5 * raw
        assert err < 1e-7 * raw
        assert heat_kernel(2, EvaluationPoint(t, r)).value == pytest.approx(want, rel=1e-6)

    def test_q4_dispatches_and_normalizes(self):
        # an even d reaches the descent quadrature
        want = kernels._log_q_even(4, 1.0, np.array([1.0]), DEFAULT_SPEC)[0]
        assert heat_kernel(4, EvaluationPoint(1.0, 1.0)).log == want
        assert total_mass(4, 1.0) == pytest.approx(1.0, abs=1e-5)

    def test_q4_against_direct_recursion_from_q2(self):
        p = EvaluationPoint(1.0, 1.0)
        got = heat_kernel(4, p)
        want = millson_step_numeric(lambda rr: heat_kernel(2, EvaluationPoint(1.0, rr)), 4, p)
        assert got.value == pytest.approx(want.value, rel=1e-6)

    def test_small_radius_extrapolation_continuous(self):
        lo = heat_kernel(4, EvaluationPoint(1.0, 9.999e-4)).value
        hi = heat_kernel(4, EvaluationPoint(1.0, 1.001e-3)).value
        assert lo == pytest.approx(hi, rel=1e-5)
        assert heat_kernel(4, EvaluationPoint(1.0, 0.0)).value > 0.0

    def test_envelope_ratio_bounded(self):
        p = EvaluationPoint(1.0, 2.0)
        ratio = heat_kernel(4, p).value / davies_envelope(4, p).value
        assert 1e-2 <= ratio <= 1e2

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    @pytest.mark.parametrize("t", [1e-20, 1e-100, 1e-300])
    def test_small_time_is_euclidean(self, d, t):
        # at r ~ sqrt(t) the descent integral is about sqrt(t): tested against
        # spec.abs_tol, it lost digits (3e-6 in log q at t <= 1e-16), while
        # the Euclidean kernel is exact here to O(t + r^2)
        rs = np.array([0.0, 0.1, 1.0, 3.0, 10.0]) * math.sqrt(t)
        want = -0.5 * d * math.log(2.0 * math.pi * t) - rs * rs / (2.0 * t)
        np.testing.assert_allclose(kernels._log_kernel(d, t, rs), want, rtol=0.0, atol=DEFAULT_SPEC.rel_tol)

    @pytest.mark.parametrize("d", [2, 4, 6])
    @pytest.mark.parametrize("t", [1e-18, 1e-30, 1e-300, 1e-310])
    def test_small_time_normalization(self, d, t):
        assert total_mass(d, t) == pytest.approx(1.0, abs=DEFAULT_SPEC.rel_tol)

    @pytest.mark.parametrize("d", [8, 10, 12])
    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
    def test_high_dimension_normalization(self, d, t):
        assert total_mass(d, t) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "d,t,r,log_q",
        [
            # mpmath at 25 digits from sympy-differentiated odd kernels
            (6, 10.0, 0.001, -41.18910411256182),
            (8, 0.1, 0.001, 1.3883908042785207),
            (8, 1.0, 0.001, -12.313104924909336),
            (8, 10.0, 0.01, -72.93074683206773),
            (10, 1.0, 0.01, -17.319774934273948),
        ],
    )
    def test_small_radius_against_mpmath(self, d, t, r, log_q):
        assert heat_kernel(d, EvaluationPoint(t, r)).log == pytest.approx(log_q, abs=1e-8)

    @pytest.mark.parametrize("d,t,r", [(2, 1.0, 1e17), (4, 1.0, 1e17), (2, 1e300, 2e300), (4, 1e300, 2e300), (6, 1.0, 1e8)])
    def test_huge_radius_keeps_its_leading_terms(self, d, t, r):
        # the range hypot(r, 12 sqrt t) + sqrt t - r cancelled to 0 at r ~ 1e16 sqrt t,
        # a range of sqrt t left the peak, of width sqrt(t/r) in w, below every
        # node, and r^2 overflowed: each raised "integral not positive"
        lv = heat_kernel(d, EvaluationPoint(t, r))
        lead = -r * (r / (2.0 * t)) - 0.5 * (d - 1) * r - (d - 1) ** 2 * t / 8.0
        assert math.isfinite(lv.log) and lv.log == pytest.approx(lead, rel=1e-14)

    @pytest.mark.parametrize(
        "d,t,r", [(2, 7.5e15, 0.0), (4, 7.2e15, 7.2e15), (2, 1e6, 0.0), (4, 1e6, 0.0), (4, 1e6, 3e3)]
    )
    def test_huge_time_against_mpmath_descent(self, d, t, r):
        # the integrand decays like e^{-(d-1) w^2/2} whatever t is; a range set
        # by the Gaussian in s alone left every node of the first panel past
        # that decay for t ~ 1e16, and the integral at 0
        want = log_q_even_mp(d, t, r, [0, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24])
        got = heat_kernel(d, EvaluationPoint(t, r)).log
        # the O(t) prefactor terms are good to a few ulps of log q
        assert abs(got - want) <= 1e-8 + 4.0 * np.finfo(float).eps * abs(want)

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("t,r", [(1e-3, 1e-9), (0.01, 1e-9), (1.0, 1e-8), (1.0, 1e-6)])
    def test_small_radius_against_mpmath_descent(self, d, t, r):
        # the integrand bends at w = sqrt(2r), where the gap w^2 (2r + w^2)/2
        # changes order; a first panel over the whole range put that bend, and
        # its O(r) area, below every node: log q was off by up to 2.5e-8
        bend, peak = math.sqrt(2.0 * r), t**0.25
        nodes = sorted({0.0, *(k * bend for k in (0.25, 1, 4, 16, 64, 256)), *(k * peak for k in (0.25, 0.5, 1, 2, 4, 8))})
        want = log_q_even_mp(d, t, r, nodes)
        got = heat_kernel(d, EvaluationPoint(t, r)).log
        assert abs(got - want) <= DEFAULT_SPEC.rel_tol + 4.0 * np.finfo(float).eps * abs(want)

    def test_descent_rounds(self, monkeypatch):
        # each round is one sequential integrand call, so the count, not the
        # number of nodes, sets a one-point kernel's cost; seeded at the
        # integrand's own widths, no point of this grid needs more than two
        # (a first panel over the whole range needed up to 7)
        calls = []
        rule = quadrature_module._panel_rule

        def counting(*args):
            calls.append(None)
            return rule(*args)

        monkeypatch.setattr(quadrature_module, "_panel_rule", counting)
        grid = [(d, t, r) for d in (2, 4, 6, 8) for t in (0.1, 1.0, 10.0) for r in (0.001, 0.01, 0.05, 0.5, 2.0, 10.0)]
        grid += [(10, 1.0, r) for r in (0.01, 0.05, 0.5, 2.0)]
        rounds = {}
        for d, t, r in grid:
            calls.clear()
            heat_kernel(d, EvaluationPoint(t, r))
            rounds[d, t, r] = len(calls)
        assert max(rounds.values()) <= 2, {p: n for p, n in rounds.items() if n > 2}

    # outcome per r in EDGE_RS at each t, the same for every even d but at
    # d = 2 and the largest t: a finite log q, log q = -inf (r^2/(2t) or the
    # e^{-(d-1)^2 t/8} prefactor overflows) or an integral that is not
    # positive (a NaN range)
    EDGE_RS = (0.0, 5e-324, 1e-300, 1e-9, 1e17, 1.7e308)
    EDGE_OUTCOMES = {
        5e-324: ("finite",) * 3 + ("-inf",) * 3,
        1e-3: ("finite",) * 5 + ("-inf",),
        1e300: ("finite",) * 5 + ("-inf",),
        1.7e308: ("-inf",) * 5 + (KernelError,),
    }
    # at d = 2 the prefactor's log -t/8 stays finite at t = 1.7e308, and so
    # does log q, about -t/8 = -2.125e307 (it read -inf while 2 pi t overflowed)
    EDGE_OUTCOMES_D2 = {**EDGE_OUTCOMES, 1.7e308: ("finite",) * 5 + (KernelError,)}

    @pytest.mark.parametrize("d", [2, 4, 8, 12])
    @pytest.mark.parametrize("t", list(EDGE_OUTCOMES))
    def test_edge_inputs_keep_their_outcome(self, d, t):
        # the range, the seeds and the integrand divide by r and t and take
        # their roots: no warning at any of them, and each outcome as pinned
        outcomes = (self.EDGE_OUTCOMES_D2 if d == 2 else self.EDGE_OUTCOMES)[t]
        for r, outcome in zip(self.EDGE_RS, outcomes):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if outcome is KernelError:
                    with pytest.raises(KernelError):
                        heat_kernel(d, EvaluationPoint(t, r))
                    continue
                log_q = heat_kernel(d, EvaluationPoint(t, r)).log
            assert ("finite" if math.isfinite(log_q) else repr(log_q)) == outcome, r
            if t == 1.7e308 and outcome == "finite":
                assert log_q == pytest.approx(-t / 8.0, rel=1e-14)


class TestSubnormalTime:
    @pytest.mark.parametrize("d", range(2, 13))
    @pytest.mark.parametrize("t", [5e-324, 5e-323, 1e-320, 1e-318, 1e-310, 1e-300])
    def test_euclidean_limit(self, d, t):
        # 2 pi t rounded in the subnormal range (log q off by up to 0.1), and
        # w^4 ~ t in the descent integrand kept a few bits, so that no even
        # kernel converged from t = 5e-323 to 1e-318. r r/(2t), not r^2/(2t):
        # r^2 is subnormal here and rounds by up to 6e-5
        for f in (0.0, 0.3, 1.0, 3.0):
            r = f * math.sqrt(t)
            want = -0.5 * d * (math.log(2.0 * math.pi) + math.log(t)) - r * (r / (2.0 * t))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = heat_kernel(d, EvaluationPoint(t, r)).log
            assert got == pytest.approx(want, rel=1e-12), r

    @pytest.mark.parametrize("d", range(2, 13))
    @pytest.mark.parametrize("t,r", [(1e-310, 0.025), (1e-320, 2.5e-12), (1e-320, 1.8e-12), (5e-324, 1e-15)])
    def test_where_r_over_t_overflows(self, d, t, r):
        # r/t overflows but r r/(2t) does not: the even kernels' range was
        # empty there and raised KernelError, while the odd ones were finite
        assert r / t == math.inf and math.isfinite(r * (r / (2.0 * t)))
        want = -0.5 * d * (math.log(2.0 * math.pi) + math.log(t)) - r * (r / (2.0 * t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = heat_kernel(d, EvaluationPoint(t, r)).log
        assert got == pytest.approx(want, rel=1e-12)


class TestArrayR:
    # the origin, a small radius, the switch radius of each bracket that d <= 12
    # evaluates (odd d <= 13, the even folds' included), and radii where the
    # fold's polynomial growth, the peak's sqrt(t/r) width and r^2/(2t)
    # overflowing each need their own care
    RS = np.r_[0.0, 1e-3, sorted({_series(m)[0] for m in range(1, 7)}), 10.0, 1e8, 1e17, 1.7e308]

    @pytest.mark.parametrize("d", range(2, 13))
    @pytest.mark.parametrize("t", [1e-3, 1.0, 50.0, 1e300])
    def test_each_point_bitwise_as_alone(self, d, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_q = _log_kernel(d, t, self.RS)
            assert log_q.tolist() == [heat_kernel(d, EvaluationPoint(t, float(r))).log for r in self.RS]
            rho = _radial_density(d, t, self.RS)
            assert rho.tolist() == [radial_density(d, EvaluationPoint(t, float(r))) for r in self.RS]
        # r^2/(2t) overflows at the largest radius for every t here, where
        # sinh^{d-1} r overflows too: the density is 0 there, not NaN
        assert log_q[-1] == -math.inf and rho[-1] == 0.0 and rho[0] == 0.0

    @pytest.mark.parametrize("d", range(2, 13))
    def test_empty_array_gives_empty_result(self, d):
        assert _log_kernel(d, 1.0, np.array([])).shape == (0,)
        assert _radial_density(d, 1.0, np.array([])).shape == (0,)

    @pytest.mark.parametrize("d", range(2, 10))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_invalid_r_raises_before_any_work(self, d, bad, monkeypatch):
        def never(*args):
            raise AssertionError("a kernel ran on an invalid array")

        monkeypatch.setattr(kernels, "_log_q_odd", never)
        monkeypatch.setattr(kernels, "_log_q_even", never)
        with pytest.raises(ValueError) as point:
            EvaluationPoint(1.0, bad)
        message = re.escape(str(point.value))
        with pytest.raises(ValueError, match=message):
            _log_kernel(d, 1.0, np.array([0.5, 0.0, bad, 2.0]))
        # the density skips the kernel at r = 0, not the check
        with pytest.raises(ValueError, match=message):
            _radial_density(d, 1.0, np.array([0.0, bad]))


class TestDescentGap:
    # int_r^u sinh s (cosh s - cosh r)^{-1/2} ds = 2 sqrt(cosh u - cosh r), with
    # s = r + w^2 and cosh s - cosh r = e^s descent_gap(r, w^2), as the even
    # kernels and tails substitute
    @staticmethod
    def integral(r, upper):
        def f(w):
            ww = w * w
            s = r + ww
            return 2.0 * w * np.sinh(s) * np.exp(-0.5 * s) / np.sqrt(descent_gap(r, ww))

        return integrate_adaptive(f, 0.0, math.sqrt(upper - r), DEFAULT_SPEC).value

    def test_exact_antiderivative_interior(self):
        assert self.integral(1.0, 2.0) == pytest.approx(2.9793388906053555, rel=1e-12)

    def test_exact_antiderivative_origin(self):
        assert self.integral(0.0, 1.0) == pytest.approx(1.4738800966364174, rel=1e-12)


class TestMillsonStepNumeric:
    def test_small_radius_guard(self):
        with pytest.raises(KernelError):
            millson_step_numeric(lambda rr: heat_kernel(3, EvaluationPoint(1.0, rr)), 5, EvaluationPoint(1.0, 1e-13))

    def test_rejects_origin(self):
        with pytest.raises(KernelError):
            millson_step_numeric(lambda rr: heat_kernel(3, EvaluationPoint(1.0, rr)), 5, EvaluationPoint(1.0, 0.0))


class TestDaviesEnvelope:
    def test_reference_value(self):
        assert davies_envelope(3, EvaluationPoint(1.0, 0.0)).value == pytest.approx(
            0.6065306597126334, rel=1e-13
        )

    def test_positive_finite(self):
        assert davies_envelope(2, EvaluationPoint(1.0, 1.0)).value > 0.0

    def test_log_finite_at_the_largest_time(self):
        # (d-1)^2 t = 4e308 overflows, (d-1)^2/8 * t = 5e307 does not
        assert davies_envelope(3, EvaluationPoint(1e308, 1.0)).log == -5e307

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_log_ratio_bounded_on_grid(self, d):
        lo, hi = math.inf, -math.inf
        for t in np.geomspace(0.1, 50.0, 6):
            for r in np.linspace(0.0, 40.0, 7):
                p = EvaluationPoint(float(t), float(r))
                lr = heat_kernel(d, p).log - davies_envelope(d, p).log
                lo, hi = min(lo, lr), max(hi, lr)
        assert math.isfinite(lo) and math.isfinite(hi)
        assert hi - lo < 10.0
