import inspect
import math

import numpy as np
import pytest

import hypbm
from hypbm import calculus, kernels, sim, tails
from hypbm.kernels import EvaluationPoint

# one-point wrappers that tail and heat_kernel replace
REMOVED = ("tail_d3", "tail_odd", "tail_even", "q2", "q3", "q_odd", "q_even", "FluctuationPoint")

P = EvaluationPoint(1.0, 0.5)
# every public entry point that takes a dimension, called with d alone varying
ENTRY_POINTS = {
    "heat_kernel": lambda d: hypbm.heat_kernel(d, P),
    "radial_density": lambda d: hypbm.radial_density(d, P),
    "davies_envelope": lambda d: hypbm.davies_envelope(d, P),
    "tail": lambda d: hypbm.tail(d, 1.0, 0.0),
    "direct_kernel_quadrature": lambda d: hypbm.direct_kernel_quadrature(d, 1.0, 0.0),
    "sup_discrepancy": lambda d: hypbm.sup_discrepancy(d, 10.0),
    "discrepancy_curve": lambda d: hypbm.discrepancy_curve(d, [10.0]),
}


def test_all_is_unique_and_resolves():
    assert len(hypbm.__all__) == len(set(hypbm.__all__))
    for name in hypbm.__all__:
        assert hasattr(hypbm, name), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_wrapper_is_gone(name):
    assert name not in hypbm.__all__
    for module in (hypbm, tails, kernels):
        assert not hasattr(module, name), module.__name__


def test_expansion_log_is_gone():
    # the float value and the shifted array path cover every caller
    assert "evaluate_expansion_log" not in hypbm.__all__
    for module in (hypbm, calculus):
        assert not hasattr(module, "evaluate_expansion_log"), module.__name__


def test_simulator_has_one_return_shape():
    # simulate_radial returns its samples array and nothing else
    assert not hasattr(sim, "SimStats")
    assert "collect_stats" not in inspect.signature(sim.simulate_radial).parameters


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_dimension_must_be_an_integer_of_at_least_two(entry):
    # int(d) truncated 2.5 to 2, and d = 1 failed only inside the symbolic
    # recursion; numpy integers are integers
    call = ENTRY_POINTS[entry]
    for bad in (2.5, 1):
        with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
            call(bad)
    assert call(np.int64(5)) == call(5)


def test_no_runtime_path_runs_the_symbolic_recursion(monkeypatch):
    # build_odd_kernel and millson_step_symbolic are the tests' independent
    # oracle for odd kernels: no kernel or tail may reach them
    def never(*args):
        raise AssertionError("the symbolic recursion ran")

    monkeypatch.setattr(kernels, "build_odd_kernel", never)
    monkeypatch.setattr(kernels, "millson_step_symbolic", never)
    for d in range(2, 14):
        for r in (0.0, 0.01, 1.0, 5.0):
            assert math.isfinite(hypbm.heat_kernel(d, EvaluationPoint(2.0, r)).log), (d, r)
        assert 0.0 < hypbm.tail(d, 2.0, 0.5).value < 1.0, d
