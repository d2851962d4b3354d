import math

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from hypbm.quadrature import (
    QuadratureError,
    QuadratureSpec,
    integrate_adaptive,
    integrate_sqrt_singularity,
)

SPEC = QuadratureSpec()


class TestSpecValidation:
    def test_defaults(self):
        assert SPEC.abs_tol == 1e-10 and SPEC.rel_tol == 1e-9
        assert SPEC.max_subdivisions == 2048 and SPEC.tail_sigma_multiplier == 12.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": 0.5},
            {"rel_tol": -1e-9},
            {"max_subdivisions": 8},
            {"tail_sigma_multiplier": 4.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestAdaptive:
    def test_gaussian_half_line(self):
        res = integrate_adaptive(lambda u: np.exp(-0.5 * u * u), 0.0, math.inf, SPEC, tail_scale=1.0, tail_center=0.0)
        assert res.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
        assert res.error_estimate <= max(SPEC.abs_tol, SPEC.rel_tol * res.value)

    def test_weighted_gaussian_half_line(self):
        res = integrate_adaptive(lambda u: u * np.exp(-0.5 * u * u), 0.0, math.inf, SPEC, tail_scale=1.0, tail_center=0.0)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_constant_after_sqrt_substitution(self):
        # int_0^1 du/sqrt(u) with u = w^2 becomes int_0^1 2 dw
        res = integrate_adaptive(lambda w: 2.0 * np.ones_like(w), 0.0, 1.0, SPEC)
        assert res.value == pytest.approx(2.0, rel=1e-14)

    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=3, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_polynomial_exactness(self, coeffs):
        poly = np.polynomial.Polynomial(coeffs)
        res = integrate_adaptive(lambda x: poly(x), -1.0, 2.0, SPEC)
        want = poly.integ()(2.0) - poly.integ()(-1.0)
        assert res.value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_infinite_bound_requires_scale(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda u: np.exp(-u * u), 0.0, math.inf, SPEC)

    def test_nonconvergence_carries_best_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-9, max_subdivisions=16)
        f = lambda x: np.abs(np.sin(50.0 / (np.abs(x) + 1e-3)))
        with pytest.raises(QuadratureError) as exc:
            integrate_adaptive(f, 0.0, 1.0, spec)
        assert exc.value.best is not None
        assert exc.value.best.value > 0.0

    def test_nonfinite_integrand_rejected(self):
        def f(x):
            with np.errstate(divide="ignore", over="ignore"):
                return 1.0 / x

        with pytest.raises(QuadratureError):
            integrate_adaptive(f, 0.0, 1.0, SPEC)

    def test_monotone_truncation(self):
        # beyond multiplier 10 the Gaussian tail contributes less than abs_tol
        vals = []
        for mult in (10.0, 12.0, 14.0):
            spec = QuadratureSpec(tail_sigma_multiplier=mult)
            vals.append(
                integrate_adaptive(lambda u: np.exp(-0.5 * u * u), 0.0, math.inf, spec, tail_scale=1.0, tail_center=0.0).value
            )
        assert abs(vals[1] - vals[0]) < SPEC.abs_tol
        assert abs(vals[2] - vals[1]) < SPEC.abs_tol


class TestSqrtSingularity:
    def test_exact_antiderivative_interior(self):
        # int_r^u sinh s (cosh s - cosh r)^{-1/2} ds = 2 sqrt(cosh u - cosh r)
        res = integrate_sqrt_singularity(np.sinh, 1.0, 2.0, SPEC)
        assert res.value == pytest.approx(2.9793388906053555, rel=1e-12)

    def test_exact_antiderivative_origin(self):
        res = integrate_sqrt_singularity(np.sinh, 0.0, 1.0, SPEC)
        assert res.value == pytest.approx(1.4738800966364174, rel=1e-12)

    def test_gaussian_factor_vs_subtracted_singularity_oracle(self):
        # independent route near the endpoint: subtract c sinh(s), whose
        # weighted integral has the exact antiderivative 2 sqrt(cosh s -
        # cosh r), so the remainder vanishes at s = r and plain quadrature
        # applies; away from the endpoint integrate the original integrand
        r, mid, upper = 0.5, 3.0, 40.0
        g = lambda s: s * np.exp(-0.5 * s * s)
        res = integrate_sqrt_singularity(g, r, math.inf, SPEC, tail_scale=1.0)
        c = r * math.exp(-0.5 * r * r) / math.sinh(r)

        def regular_part(s):
            if s <= r:
                return 0.0
            num = s * math.exp(-0.5 * s * s) - c * math.sinh(s)
            return num / math.sqrt(math.cosh(s) - math.cosh(r))

        near, _ = si.quad(regular_part, r, mid, limit=400)
        exact_piece = c * 2.0 * math.sqrt(math.cosh(mid) - math.cosh(r))
        far, _ = si.quad(
            lambda s: s * math.exp(-0.5 * s * s) / math.sqrt(math.cosh(s) - math.cosh(r)),
            mid,
            upper,
            limit=400,
        )
        assert res.value == pytest.approx(near + exact_piece + far, rel=1e-6)

    def test_gaussian_factor_vs_weighted_quadpack(self):
        g = lambda s: s * np.exp(-0.5 * s * s)
        res = integrate_sqrt_singularity(g, 0.5, math.inf, SPEC, tail_scale=1.0)
        want, _ = si.quad(
            lambda s: s * math.exp(-0.5 * s * s) * math.sqrt((s - 0.5) / (math.cosh(s) - math.cosh(0.5)))
            if s > 0.5
            else 0.5 * math.exp(-0.125) / math.sqrt(math.sinh(0.5)),
            0.5,
            40.0,
            weight="alg",
            wvar=(-0.5, 0),
            limit=400,
        )
        assert res.value == pytest.approx(want, rel=1e-10)

    def test_empty_interval(self):
        assert integrate_sqrt_singularity(np.sinh, 2.0, 2.0, SPEC).value == 0.0
