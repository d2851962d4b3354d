import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypbm.calculus import (
    double_factorial,
    evaluate_expansion,
    evaluate_expansion_log_shifted,
    log_millson_identity_value,
    log_surface_area,
    millson_identity_value,
    sinh_power_derivative,
)


def oracle_expansion(n: int, k: int) -> tuple:
    """Brute-force product rule on (cosh, sinh) words: D maps the word
    cosh^a sinh^b to a*cosh^{a-1} sinh^b + b*cosh^{a+1} sinh^{b-2}."""
    terms = {(0, n): 1}
    for _ in range(k):
        new: dict = {}
        for (a, b), c in terms.items():
            if a:
                new[(a - 1, b)] = new.get((a - 1, b), 0) + a * c
            if b:
                new[(a + 1, b - 2)] = new.get((a + 1, b - 2), 0) + b * c
        terms = {ab: c for ab, c in new.items() if c}
    return tuple(sorted((a, b, c) for (a, b), c in terms.items()))


@pytest.mark.parametrize("m,want", [(5, 15), (0, 1), (7, 105), (-1, 1), (8, 384), (1, 1)])
def test_double_factorial(m, want):
    assert double_factorial(m) == want


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_double_factorial_splits_factorial(m):
    assert double_factorial(m) * double_factorial(m - 1) == math.factorial(m)


@pytest.mark.parametrize(
    "d,want",
    [(3, 4 * math.pi), (2, 2 * math.pi), (4, 2 * math.pi**2), (5, 8 * math.pi**2 / 3)],
)
def test_surface_area(d, want):
    assert math.exp(log_surface_area(d)) == pytest.approx(want, rel=1e-12)


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=30, deadline=None)
def test_surface_area_recurrence(d):
    # omega_{d+2} = (2 pi / d) omega_d
    area, next_area = math.exp(log_surface_area(d)), math.exp(log_surface_area(d + 2))
    assert next_area == pytest.approx(2 * math.pi / d * area, rel=1e-12)


class TestSinhPowerDerivative:
    def test_identity_at_k0(self):
        assert sinh_power_derivative(3, 0).terms == ((1, 0, 3),)

    def test_second_application_power_four(self):
        # D^2 sinh^4 = 4 sinh^2 + 8 cosh^2
        assert sinh_power_derivative(4, 2).terms == ((4, 0, 2), (8, 2, 0))

    def test_terminal_constancy(self):
        for n in (2, 4, 6, 8):
            assert sinh_power_derivative(n, n).terms == ((math.factorial(n), 0, 0),)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10))
    @settings(max_examples=120, deadline=None)
    def test_matches_product_rule_oracle(self, n, k):
        got = tuple(sorted((a, b, c) for c, a, b in sinh_power_derivative(n, k).terms))
        assert got == oracle_expansion(n, k)

    def test_nonnegative_exponents_in_standard_regime(self):
        # even base: any k; odd base: 2k <= n
        for n in range(2, 10):
            for k in range(0, n + 1):
                if n % 2 == 1 and 2 * k > n:
                    continue
                e = sinh_power_derivative(n, k)
                assert e.min_sinh_exponent() >= 0, (n, k)

    def test_negative_exponents_flagged_outside_regime(self):
        # D^2 sinh^3 = 3 sinh + 3 cosh^2 / sinh
        e = sinh_power_derivative(3, 2)
        assert e.min_sinh_exponent() == -1


class TestEvaluateExpansion:
    def test_first_application_cube(self):
        # D sinh^3 at r=1 equals (3/2) sinh 2
        got = evaluate_expansion(sinh_power_derivative(3, 1), 1.0)
        assert got == pytest.approx(5.440290611770528, rel=1e-14)

    def test_double_application_fifth_power(self):
        got = evaluate_expansion(sinh_power_derivative(5, 2), 0.7)
        assert got == pytest.approx(20.10928371078667, rel=1e-13)

    def test_double_application_fifth_power_fd_oracle(self):
        # independent oracle: two numeric (1/sinh) d/dr applications of sinh^5
        def deriv(f, r, h=1e-4):
            return (f(r - 2 * h) - 8 * f(r - h) + 8 * f(r + h) - f(r + 2 * h)) / (12 * h)

        f0 = lambda r: math.sinh(r) ** 5
        d1 = lambda r: deriv(f0, r) / math.sinh(r)
        d2 = lambda r: deriv(d1, r) / math.sinh(r)
        got = evaluate_expansion(sinh_power_derivative(5, 2), 0.7)
        assert got == pytest.approx(d2(0.7), rel=1e-8)

    def test_vanishing_at_origin(self):
        for n in range(2, 9):
            for k in range((n + 1) // 2):
                if 2 * k < n:
                    assert evaluate_expansion(sinh_power_derivative(n, k), 0.0) == 0.0

    def test_origin_domain_error_with_negative_powers(self):
        with pytest.raises(ValueError):
            evaluate_expansion(sinh_power_derivative(3, 2), 0.0)

    def test_log_and_float_paths_agree(self):
        # the float value is the log path exponentiated; an independent float
        # sum of c cosh^a r sinh^b r over the terms checks it
        e = sinh_power_derivative(7, 3)
        for r in (0.3, 1.0, 4.0):
            want = sum(c * math.cosh(r) ** a * math.sinh(r) ** b for c, a, b in e.terms)
            assert evaluate_expansion(e, r) == pytest.approx(want, rel=1e-13)

    def test_no_overflow_at_huge_radius(self):
        # log form stays finite where the float value overflows
        e = sinh_power_derivative(17, 8)
        r = 1.0e4
        sign, shifted = evaluate_expansion_log_shifted(e, np.array([r]))
        log = shifted[0] + (e.base_power - e.operator_applications) * r
        assert sign[0] == 1 and math.isfinite(log)
        assert log == pytest.approx(log_millson_identity_value(8, r), rel=1e-12)
        with pytest.raises(OverflowError):
            evaluate_expansion(e, r)


class TestMillsonIdentity:
    @pytest.mark.parametrize(
        "l,r,want",
        [(1, 1.0, 5.440290611770528), (2, 0.5, 10.646397275474087), (3, 0.0, 0.0)],
    )
    def test_values(self, l, r, want):
        assert millson_identity_value(l, r) == pytest.approx(want, abs=1e-12)

    def test_closed_form_collapse_grid(self):
        for l in range(1, 9):
            e = sinh_power_derivative(2 * l + 1, l)
            for r in [0.25 * i for i in range(41)]:
                want = millson_identity_value(l, r)
                got = evaluate_expansion(e, r)
                assert abs(got - want) <= 1e-10 * (1.0 + abs(want)), (l, r)

    def test_split_parity_collapses(self):
        for k in range(1, 5):
            e1 = sinh_power_derivative(4 * k - 1, 2 * k - 1)
            e2 = sinh_power_derivative(4 * k + 1, 2 * k)
            for r in [0.5 * i for i in range(21)]:
                w1 = double_factorial(4 * k - 1) / (2 * k) * math.sinh(2 * k * r)
                w2 = double_factorial(4 * k + 1) / (2 * k + 1) * math.sinh((2 * k + 1) * r)
                assert abs(evaluate_expansion(e1, r) - w1) <= 1e-10 * (1 + abs(w1))
                assert abs(evaluate_expansion(e2, r) - w2) <= 1e-10 * (1 + abs(w2))

    def test_rejects_l_zero(self):
        with pytest.raises(ValueError):
            millson_identity_value(0, 1.0)
