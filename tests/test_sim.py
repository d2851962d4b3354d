import dataclasses
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypbm import sim
from hypbm.sim import (
    SimulationConfig,
    empirical_tail,
    ks_distance_to_normal,
    simulate_radial,
    simulate_radial_pair,
)
from hypbm.tails import tail

FAST = dict(t=2.0, step=1e-2, paths=4000, seed=11)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d": 1},
            {"t": 0.0},
            {"step": 0.0},
            {"step": 3.0},
            {"paths": 0},
            {"seed": -1},
            {"r0": 0.0},
            {"r0": 2.0},
            {"d": 2.5},
            {"d": 3.0},
            {"paths": 10.5},
            {"seed": 1.5},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(d=3, t=2.0, step=1e-2, paths=10, seed=1, r0=1e-3)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SimulationConfig(**base)

    def test_accepts_numpy_integers(self):
        cfg = SimulationConfig(d=np.int64(3), t=2.0, step=1e-2, paths=np.int32(10), seed=np.uint64(1))
        assert (cfg.d, cfg.paths, cfg.seed) == (3, 10, 1)


class TestDeterminism:
    def test_single_path_bit_identical(self):
        cfg = SimulationConfig(d=3, t=1.0, step=1e-2, paths=1, seed=99)
        assert np.array_equal(simulate_radial(cfg), simulate_radial(cfg))

    def test_prefix_stability(self):
        # path i does not depend on how many paths were requested
        a = simulate_radial(SimulationConfig(d=3, t=1.0, step=1e-2, paths=7, seed=5))
        b = simulate_radial(SimulationConfig(d=3, t=1.0, step=1e-2, paths=300, seed=5))
        assert np.array_equal(a, b[:7])
        pa = simulate_radial_pair(SimulationConfig(d=4, t=1.0, step=1e-2, paths=7, seed=5))
        pb = simulate_radial_pair(SimulationConfig(d=4, t=1.0, step=1e-2, paths=300, seed=5))
        assert all(np.array_equal(x, y[:7]) for x, y in zip(pa, pb))

    def test_prefix_stability_across_slabs(self):
        # MULTI_SLAB's steps span several slabs, each from its own SFC64 stream
        few = dataclasses.replace(MULTI_SLAB, paths=7)
        assert round(few.t / few.step) > sim._SLAB
        assert np.array_equal(simulate_radial(few), simulate_radial(MULTI_SLAB)[:7])
        pa = simulate_radial_pair(few)
        pb = simulate_radial_pair(MULTI_SLAB)
        assert all(np.array_equal(x, y[:7]) for x, y in zip(pa, pb))

    def test_seed_changes_output(self):
        a = simulate_radial(SimulationConfig(d=3, t=1.0, step=1e-2, paths=16, seed=1))
        b = simulate_radial(SimulationConfig(d=3, t=1.0, step=1e-2, paths=16, seed=2))
        assert not np.array_equal(a, b)


# five blocks of 8192 paths, the last one partial, and two steps past t = 1
PINNED = SimulationConfig(d=3, t=1.05, step=0.05, paths=40000, seed=17)
# the same five blocks over 200 steps, four slabs
MULTI_SLAB = SimulationConfig(d=3, t=1.0, step=5e-3, paths=40000, seed=5)


class TestPinnedStream:
    # first and last samples recorded from the block/SFC64/slab layout and
    # the implicit step: a change to either shows here bit for bit
    def test_single_chain(self):
        s = simulate_radial(PINNED)
        assert (s[0], s[-1]) == (3.4513960853443613, 1.396656362100391)

    def test_coupled_pair(self):
        coarse, fine = simulate_radial_pair(SimulationConfig(d=4, t=0.5, step=0.05, paths=40000, seed=19))
        assert (coarse[0], coarse[-1]) == (1.1016203230034654, 0.8979320421986758)
        assert (fine[0], fine[-1]) == (1.175981590298588, 0.946062157595517)

    def test_remainder_step(self):
        # t is not a multiple of step: 21 full steps and one of 0.02
        dts = sim._step_sizes(1.07, 0.05)
        assert len(dts) == 22 and dts[-1] == pytest.approx(0.02)
        s = simulate_radial(SimulationConfig(d=2, t=1.07, step=0.05, paths=50, seed=23))
        assert (s[0], s[-1]) == (1.2962222960619285, 1.5531448812419102)

    def test_multi_slab(self):
        # recorded when each slab got its own SFC64 stream
        s = simulate_radial(MULTI_SLAB)
        assert (s[0], s[-1]) == (1.7842775348802644, 1.5420220739044261)
        coarse, fine = simulate_radial_pair(MULTI_SLAB)
        assert (coarse[0], coarse[-1]) == (1.764778666034402, 2.4234419707873576)
        assert (fine[0], fine[-1]) == (1.7762274839719927, 2.4224655112502553)


class TestThreads:
    """MULTI_SLAB's five blocks fall into runs of 1, 2, 2 blocks on one thread
    and of 1, 1, 1, 2 blocks on two threads."""

    @staticmethod
    def _runs(monkeypatch, fn):
        results = []
        for threads in (1, 2):  # set here, so that two threads run on any machine
            monkeypatch.setattr(sim, "_threads", lambda blocks, n=threads: min(n, blocks))
            results.append(fn())
        return results

    def test_samples_do_not_depend_on_thread_count(self, monkeypatch):
        one, two = self._runs(monkeypatch, lambda: simulate_radial(MULTI_SLAB))
        assert np.array_equal(one, two)
        one, two = self._runs(monkeypatch, lambda: simulate_radial_pair(MULTI_SLAB))
        assert all(np.array_equal(x, y) for x, y in zip(one, two))

    def test_floor_hits_do_not_depend_on_thread_count(self, monkeypatch):
        # every path lands at the origin at every step and is clamped to the
        # floor, while the interpreter switches threads as often as it can
        monkeypatch.setattr(sim, "_advance", lambda r, dt, noise, nu, work: np.zeros_like(r))
        cfg = dataclasses.replace(MULTI_SLAB, t=2.0, step=0.05)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = self._runs(monkeypatch, lambda: simulate_radial(cfg))
        finally:
            sys.setswitchinterval(interval)
        for samples in runs:
            assert samples.shape == (cfg.paths,) and np.all(samples == sim.R_FLOOR)

    def test_thread_count(self, monkeypatch):
        # one thread per usable core, from the affinity mask or else the core count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [sim._threads(blocks) for blocks in (1, 2, 5)] == [1, 2, 3]
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert [sim._threads(blocks) for blocks in (1, 5)] == [1, 4]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sim._threads(5) == 1


class _Proxy:
    """`target` with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        vars(self).update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class TestDrawsOnlyRequestedPaths:
    @pytest.fixture
    def normals(self, monkeypatch):
        # numpy as sim sees it, but every Generator counts its standard_normal draws
        drawn = []

        def counted(*args, **kwargs):
            gen = np.random.Generator(*args, **kwargs)

            def standard_normal(*a, **k):
                out = gen.standard_normal(*a, **k)
                drawn.append(out.size)
                return out

            return _Proxy(gen, standard_normal=standard_normal)

        monkeypatch.setattr(sim, "np", _Proxy(np, random=_Proxy(np.random, Generator=counted)))
        return drawn

    # 70 steps: two slabs; 32768 paths is four full blocks, 40000 four and a part
    @pytest.mark.parametrize("paths", [7, 32768, 40000])
    def test_single_chain(self, normals, paths):
        s = simulate_radial(SimulationConfig(d=3, t=0.7, step=0.01, paths=paths, seed=3))
        assert s.shape == (paths,)
        assert sum(normals) == paths * 70 * 1

    @pytest.mark.parametrize("paths", [7, 32768, 40000])
    def test_coupled_pair(self, normals, paths):
        coarse, _ = simulate_radial_pair(SimulationConfig(d=3, t=0.7, step=0.01, paths=paths, seed=3))
        assert coarse.shape == (paths,)
        assert sum(normals) == paths * 70 * 2


class TestLawChecks:
    def test_lln_trend(self):
        means = []
        for t in (5.0, 20.0, 80.0):
            s = simulate_radial(SimulationConfig(d=3, t=t, step=5e-3, paths=4000, seed=3))
            means.append(abs(float(s.mean()) / t - 1.0))
        assert means[2] < means[0]
        assert means[2] < 0.05

    def test_lln_d2_level_against_exact_mean(self):
        # the finite-t law sits measurably above t/2 (that offset is the
        # whole point of the rate experiments), so compare against the exact
        # mean of the radial law rather than the asymptote
        import numpy as np

        from hypbm.kernels import EvaluationPoint
        from hypbm.quadrature import DEFAULT_SPEC, integrate_adaptive
        from hypbm.tails import radial_density

        t = 20.0
        s = simulate_radial(SimulationConfig(d=2, t=t, step=5e-3, paths=4000, seed=4))

        def f(rs):
            return np.array([r * radial_density(2, EvaluationPoint(t, float(r))) if r > 0 else 0.0 for r in rs])

        upper = 0.5 * t + 12.0 * math.sqrt(t)
        exact_mean = integrate_adaptive(f, 0.0, upper, DEFAULT_SPEC, seed_points=[0.5 * t]).value
        se = float(s.std(ddof=1)) / math.sqrt(len(s))
        assert abs(float(s.mean()) - exact_mean) <= 3.0 * se
        assert abs(float(s.mean()) / t - 0.5) < 0.15

    def test_empirical_matches_analytic_tail(self):
        s = simulate_radial(SimulationConfig(d=3, t=5.0, step=2e-3, paths=20000, seed=8))
        for x in (-1.0, 0.0, 1.0):
            est = empirical_tail(s, 3, 5.0, x)
            want = tail(3, 5.0, x).value
            assert abs(est.estimate - want) <= 4.0 * est.standard_error, x

    def test_insensitive_to_starting_radius(self):
        a = simulate_radial(SimulationConfig(d=3, **FAST, r0=1e-3))
        b = simulate_radial(SimulationConfig(d=3, **FAST, r0=1e-2))
        ea = empirical_tail(a, 3, FAST["t"], 0.0)
        eb = empirical_tail(b, 3, FAST["t"], 0.0)
        assert abs(ea.estimate - eb.estimate) <= 4.0 * math.hypot(ea.standard_error, eb.standard_error)

    def test_reflection_floor_rarely_hit(self, monkeypatch):
        # count, at every step, the paths whose root falls below the floor
        counts = []  # (hits, path-steps) per call; list.append is thread-safe
        advance = sim._advance

        def counted(r, dt, noise, nu, work):
            root = advance(r, dt, noise, nu, work)
            counts.append((int(np.count_nonzero(root < sim.R_FLOOR)), root.size))
            return root

        monkeypatch.setattr(sim, "_advance", counted)
        simulate_radial(SimulationConfig(d=2, t=3.0, step=1e-2, paths=2000, seed=21))
        hits, path_steps = map(sum, zip(*counts))
        assert path_steps == 300 * 2000
        assert hits < 1e-3 * path_steps

    def test_coupled_pair_tracks_closely(self):
        coarse, fine = simulate_radial_pair(SimulationConfig(d=3, **FAST))
        assert coarse.shape == fine.shape
        # same Brownian path: the two step sizes agree to the step-level bias
        assert float(np.mean(np.abs(coarse - fine))) < 0.05

    def test_pair_requires_integral_step_count(self):
        with pytest.raises(ValueError):
            simulate_radial_pair(SimulationConfig(d=3, t=1.0, step=0.3, paths=4, seed=1))


class TestEmpiricalTail:
    def test_minus_infinity_is_certain(self):
        s = simulate_radial(SimulationConfig(d=3, **FAST))
        est = empirical_tail(s, 3, FAST["t"], -math.inf)
        assert est.estimate == 1.0 and est.standard_error == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_tail(np.array([]), 3, 1.0, 0.0)

    def test_rejects_nan_x(self):
        with pytest.raises(ValueError, match="x must not be NaN"):
            empirical_tail(np.ones(4), 3, 1.0, math.nan)

    @given(st.integers(min_value=1, max_value=2**31), st.floats(min_value=-2, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_standard_error_formula(self, seed, x):
        rng = np.random.default_rng(seed)
        samples = rng.normal(loc=1.0, scale=1.0, size=256)
        est = empirical_tail(samples, 3, 1.0, x)
        assert est.standard_error == pytest.approx(
            math.sqrt(est.estimate * (1.0 - est.estimate) / 256.0)
        )
        assert 0.0 <= est.estimate <= 1.0


class TestKolmogorovSmirnov:
    def test_bounds(self):
        s = simulate_radial(SimulationConfig(d=3, **FAST))
        dist = ks_distance_to_normal(s, 3, FAST["t"])
        assert 0.0 <= dist <= 1.0

    def test_degenerate_samples(self):
        s = np.full(100, 2.0)
        assert ks_distance_to_normal(s, 3, 1.0) >= 0.5

    def test_matches_scipy(self):
        from scipy.stats import kstest

        rng = np.random.default_rng(7)
        s = rng.normal(size=500)
        got = ks_distance_to_normal(s, 3, 1.0)  # normalization: (s - 1)/1
        want = kstest((s - 1.0), "norm").statistic
        assert got == pytest.approx(want, rel=1e-12)

    def test_exact_normal_samples_close(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=20000)
        samples = z * math.sqrt(4.0) + 4.0  # matches d=3, t=4 normalization
        assert ks_distance_to_normal(samples, 3, 4.0) < 0.02

    def test_long_horizon_gaussianization(self):
        # roughly 35 s: the KS target combines the t^{-1/2} discrepancy scale
        # (~0.013 at t=1e3) with ~3e-3 Monte Carlo resolution at 1e5 paths;
        # the drift is constant to 1e-8 over most of the trajectory, so the
        # coarse step contributes no visible bias here
        s = simulate_radial(SimulationConfig(d=3, t=1000.0, paths=100_000, seed=12, step=0.1))
        assert ks_distance_to_normal(s, 3, 1000.0) <= 0.02
