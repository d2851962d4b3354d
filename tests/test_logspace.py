import math

import numpy as np
import pytest

from hypbm.logspace import (
    LogValue,
    logsinh,
    vlog_sum,
    vlogcosh_minus_x,
    vlogsinh_minus_x,
)


def _log_value(v):
    return LogValue(1 if v > 0 else -1, math.log(abs(v)))


def _log_sum(values):
    sign, lg = vlog_sum((v.sign, np.array([v.log])) for v in values)
    return LogValue(int(sign[0]), float(lg[0]))


def test_log_sum_signed_cancellation():
    vals = [_log_value(v) for v in (1e20, -1e20, 3.5)]
    assert _log_sum(vals).value == pytest.approx(3.5, rel=1e-4)  # 1e20 cancellation eats digits
    vals = [_log_value(v) for v in (2.0, 3.0, -1.0)]
    assert _log_sum(vals).value == pytest.approx(4.0, rel=1e-15)


def test_log_sum_parts_underflowed_to_minus_infinity_are_zero():
    assert _log_sum([LogValue(1, -math.inf), LogValue(-1, -math.inf)]) == LogValue(0, -math.inf)
    assert _log_sum([LogValue(1, -math.inf), LogValue(1, math.log(2.5))]).value == 2.5


@pytest.mark.parametrize("x", [1e-8, 1e-3, 0.5, 1.0, 19.9, 20.1, 100.0, 1e4])
def test_hyperbolic_logs_match_mpmath(x):
    import mpmath as mp

    assert x + vlogsinh_minus_x(x) == pytest.approx(float(mp.log(mp.sinh(x))), rel=1e-13)
    assert x + vlogcosh_minus_x(x) == pytest.approx(float(mp.log(mp.cosh(x))), rel=1e-13)


def test_edge_values():
    with np.errstate(divide="ignore"):
        assert vlogsinh_minus_x(0.0) == -math.inf
    assert vlogcosh_minus_x(0.0) == 0.0
    assert logsinh(0.0) == -math.inf
    with pytest.raises(ValueError):
        logsinh(-1.0)


def test_vectorized_variants_match_scalars():
    # elementwise: each entry of an array is bitwise the one-point value, and
    # the scalar logsinh is the family with x added back
    xs = np.array([1e-300, 1e-6, 0.1, 1.0, 19.0, 20.0, 25.0, 400.0, 1e300])
    with np.errstate(over="ignore"):
        for family in (vlogsinh_minus_x, vlogcosh_minus_x):
            assert family(xs).tolist() == [family(np.array([x]))[0] for x in xs]
            assert family(xs[1:]).tolist() == family(xs).tolist()[1:]
        assert (xs + vlogsinh_minus_x(xs)).tolist() == [logsinh(x) for x in xs.tolist()]
