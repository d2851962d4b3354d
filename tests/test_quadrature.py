import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypbm import quadrature
from hypbm.quadrature import (
    QuadratureError,
    QuadratureResult,
    QuadratureSpec,
    integrate_adaptive,
)

SPEC = QuadratureSpec()


class TestSpecValidation:
    def test_defaults(self):
        assert SPEC.abs_tol == 1e-10 and SPEC.rel_tol == 1e-9
        assert quadrature._MAX_PANELS == 2048 and quadrature.TAIL_SIGMA_MULTIPLIER == 12.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": 0.5},
            {"rel_tol": -1e-9},
            {"rel_tol": 0.5},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestRule:
    @staticmethod
    def _moment_errors(n):
        """|K21 - exact| and |G10 - exact| for the monomial x^n on [-1, 1]."""
        exact = 0.0 if n % 2 else 2.0 / (n + 1)
        kronrod, gauss = quadrature._KG @ quadrature._NODES**n
        return abs(kronrod - exact), abs(gauss - exact)

    def test_nodes_ascending_and_symmetric(self):
        nodes = quadrature._NODES
        assert nodes.size == 21 and (np.diff(nodes) > 0).all()
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        # the 10-point Gauss rule has no centre node
        assert quadrature._KG[1, 10] == 0.0 and (quadrature._KG[1, 1::2] > 0).all()

    def test_kronrod_exact_through_degree_31(self):
        assert all(self._moment_errors(n)[0] <= 1e-14 for n in range(32))
        assert self._moment_errors(32)[0] > 1e-13

    def test_gauss_exact_through_degree_19(self):
        assert all(self._moment_errors(n)[1] <= 1e-14 for n in range(20))
        assert self._moment_errors(20)[1] > 1e-7


class TestAdaptive:
    def test_gaussian_half_line(self):
        res = integrate_adaptive(lambda u: np.exp(-0.5 * u * u), 0.0, 12.0, SPEC)
        assert res.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
        assert res.error_estimate <= max(SPEC.abs_tol, SPEC.rel_tol * res.value)

    def test_weighted_gaussian_half_line(self):
        res = integrate_adaptive(lambda u: u * np.exp(-0.5 * u * u), 0.0, 12.0, SPEC)
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

    def test_nonconvergence_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)
        f = lambda x: np.abs(np.sin(50.0 / (np.abs(x) + 1e-3)))
        with pytest.raises(QuadratureError) as exc:
            integrate_adaptive(f, 0.0, 1.0, SPEC)
        assert exc.value.best is not None
        assert exc.value.best.value > 0.0

    def test_nonfinite_integrand_rejected(self):
        def f(x):
            with np.errstate(divide="ignore", over="ignore"):
                return 1.0 / x

        with pytest.raises(QuadratureError):
            integrate_adaptive(f, 0.0, 1.0, SPEC)

    def test_monotone_truncation(self):
        # beyond 10 standard deviations the Gaussian tail contributes less than abs_tol
        f = lambda u: np.exp(-0.5 * u * u)
        vals = [integrate_adaptive(f, 0.0, upper, SPEC).value for upper in (10.0, 12.0, 14.0)]
        assert abs(vals[1] - vals[0]) < SPEC.abs_tol
        assert abs(vals[2] - vals[1]) < SPEC.abs_tol


def _bump(c: float, w: float):
    """A peak of width ~1/sqrt(c) with an oscillation of frequency w."""
    return lambda x: np.exp(-c * x * x) * np.cos(w * x)


_INTERVAL = st.tuples(
    st.floats(min_value=-3.0, max_value=1.0),  # a
    st.floats(min_value=0.0, max_value=6.0),  # b - a; 0 leaves the interval empty
    st.floats(min_value=0.1, max_value=400.0),  # c
    st.floats(min_value=0.0, max_value=30.0),  # w
    st.lists(st.one_of(st.floats(min_value=-4.0, max_value=8.0), st.just(math.nan)), min_size=3, max_size=3),
)


class TestStack:
    @given(st.lists(_INTERVAL, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_each_interval_as_if_alone(self, intervals):
        a = np.array([iv[0] for iv in intervals])
        b = a + np.array([iv[1] for iv in intervals])
        cs = np.array([iv[2] for iv in intervals])
        ws = np.array([iv[3] for iv in intervals])
        seeds = np.array([iv[4] for iv in intervals])
        stack = integrate_adaptive(
            lambda x, owner: np.exp(-cs[owner] * x * x) * np.cos(ws[owner] * x), a, b, SPEC, seed_points=seeds
        )
        assert len(stack.values) == len(stack.errors) == len(stack.counts) == len(intervals)
        for i in range(len(intervals)):
            alone = integrate_adaptive(_bump(cs[i], ws[i]), a[i], b[i], SPEC, seed_points=list(seeds[i]))
            row = QuadratureResult(stack.values[i].item(), stack.errors[i].item(), int(stack.counts[i]))
            assert row == alone, i

    def test_arrays_are_the_results(self):
        stack = integrate_adaptive(lambda x, owner: np.exp(-(owner + 1.0) * x * x), [0.0, 0.0, 1.0], [3.0, 1.0, 1.0])
        assert stack.evaluations == stack.counts.sum() > 0
        empty = integrate_adaptive(lambda x, owner: x, [], [])
        assert len(empty.values) == len(empty.errors) == len(empty.counts) == 0 and empty.evaluations == 0

    def test_empty_interval_is_zero(self):
        stack = integrate_adaptive(lambda x, owner: np.ones_like(x), [0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert stack.values[0] == pytest.approx(1.0, rel=1e-14)
        assert stack.values[1:].tolist() == stack.errors[1:].tolist() == [0.0, 0.0]
        assert stack.counts[1:].tolist() == [0, 0]

    def test_subdivision_limit_carries_that_intervals_best(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)
        hard = lambda x: np.abs(np.sin(50.0 / (np.abs(x) + 1e-3)))
        with pytest.raises(QuadratureError) as alone:
            integrate_adaptive(hard, 0.0, 1.0, SPEC)
        f = lambda x, owner: np.where(owner == 1, hard(x), np.exp(-x * x))
        with pytest.raises(QuadratureError) as stacked:
            integrate_adaptive(f, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], SPEC)
        assert stacked.value.best == alone.value.best
        assert stacked.value.best.value > 0.0

    def test_nonfinite_value_names_its_node(self):
        def f(x, owner):
            with np.errstate(divide="ignore"):
                return np.where(owner == 1, 1.0 / (x - 2.5), 1.0)

        # 2.5 is the middle node of [2, 3]'s first panel
        with pytest.raises(QuadratureError, match="non-finite value near x=2.5"):
            integrate_adaptive(f, [0.0, 2.0], [1.0, 3.0], SPEC)
