import pytest

import hypbm
from hypbm import kernels, tails

# one-point wrappers that tail and heat_kernel replace
REMOVED = ("tail_d3", "tail_odd", "tail_even", "q2", "q3", "q_odd", "q_even", "FluctuationPoint")


def test_all_is_unique_and_resolves():
    assert len(hypbm.__all__) == len(set(hypbm.__all__))
    for name in hypbm.__all__:
        assert hasattr(hypbm, name), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_wrapper_is_gone(name):
    assert name not in hypbm.__all__
    for module in (hypbm, tails, kernels):
        assert not hasattr(module, name), module.__name__

