"""Monte Carlo oracle: Euler-Maruyama for the radial diffusion.

The radial part of the driving process solves

  dR = dB + (d-1)/2 * coth(R) dt,

a Bessel-like repulsion from the origin with unit linear drift at infinity.
The scheme is fixed-step Euler-Maruyama with the singular part of the drift
taken implicitly: writing coth(R) = 1/R + (coth R - 1/R), the bounded
remainder and the noise go in explicitly,

  a_k = R_k + nu dt (coth R_k - 1/R_k) + sqrt(dt) xi_k,     nu = (d-1)/2,

and the 1/R part is resolved by the positive root of
R_{k+1} = a_k + nu dt / R_{k+1}:

  R_{k+1} = (a_k + sqrt(a_k^2 + 4 nu dt)) / 2.

Fully explicit Euler is useless here: one step from R ~ r0 = 1e-3 kicks the
path by nu dt coth(r0) ~ nu, and any path clipped at a small floor takes a
~nu dt/floor teleport; both effects bias the terminal law by tens of Monte
Carlo standard errors. The implicit root is always positive, is exact for
the dominant 1/R repulsion, and keeps the scheme weak order 1; the floor at
r_floor = 1e-6 remains as a safeguard only (it is essentially never hit).

Starting exactly at the origin is ill-posed for any discretization, so paths
start at r0 = 1e-3 by default; for t below ~0.1 the surrogate start is a
known limitation of the simulator, while at the horizons used for
cross-checks (t >= 1) the law is insensitive to r0 at the tested tolerances.

Both runs, the plain chain and the coupled pair of step sizes, go through
one block driver (_run_blocks) and one implicit step (_advance); they differ
only in how a slab of noise advances their chains.

Reproducibility: path i's noise is a fixed function of (seed, i). Paths are
grouped into fixed blocks of 8192, and the steps into slabs of 64. Slab s of
block b draws from its own SFC64 stream, seeded by SeedSequence([seed, b, s]),
path-major: row i of the draw is path b*8192 + i. A block with fewer paths
draws only its own rows, and these are the first rows of the full block's
draw, so results do not depend on the total number of paths requested, and no
path is simulated that was not asked for.

Blocks are independent, so runs of up to two consecutive blocks are the
tasks of a pool of threads; numpy releases the interpreter lock in its ufuncs
and in standard_normal. The pool has one thread per usable core. Each block
keeps its own streams, each task writes only its own slice of the output, and
the step is elementwise, so the samples do not depend on the number of
threads.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernels import Dimension
from .tails import normal_tail

_BLOCK = 8192
_RUN = 2  # blocks per task at most: long numpy calls, few thread hand-offs
_SLAB = 64
_ROWS = 512  # paths drawn per call, so that the transposed copy stays in cache
R_FLOOR = 1e-6


@dataclass(frozen=True)
class SimulationConfig:
    d: int
    t: float
    paths: int
    seed: int
    step: float = 1e-3
    r0: float = 1e-3

    def __post_init__(self) -> None:
        Dimension(self.d)
        for name in ("paths", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise ValueError(f"horizon must be positive, got {self.t}")
        if not (0.0 < self.step <= self.t):
            raise ValueError(f"step must lie in (0, t], got {self.step}")
        if not (1 <= self.paths <= 10**8):
            raise ValueError(f"paths must lie in [1, 1e8], got {self.paths}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not (0.0 < self.r0 <= 1.0):
            raise ValueError(f"r0 must lie in (0, 1], got {self.r0}")


def _step_sizes(t: float, step: float) -> np.ndarray:
    n_full = int(math.floor(t / step + 1e-9))
    rem = t - n_full * step
    if rem > 1e-12 * max(t, 1.0):
        return np.concatenate([np.full(n_full, step), [rem]])
    return np.full(n_full, step)


def _advance(r: np.ndarray, dt: float, noise: np.ndarray, nu: float, work: tuple) -> np.ndarray:
    """One implicit step of every path: the positive root, before the R_FLOOR clamp.

    The root is written into work = _scratch(len(r)) and returned. The
    operations, in their order, are those of
    reg = where(r > 1e-4, coth r - 1/r, r/3), a = r + nu dt reg + noise,
    root = (a + sqrt(a^2 + 4 nu dt)) / 2, so the root is that formula's bit
    for bit.
    """
    u, v, mask = work
    # coth R - 1/R is bounded on (0, inf): ~R/3 at 0, ->1 at inf
    np.divide(1.0, np.tanh(r, out=u), out=u)
    np.subtract(u, np.divide(1.0, r, out=v), out=u)
    reg = np.divide(r, 3.0, out=v)
    np.copyto(reg, u, where=np.greater(r, 1e-4, out=mask))
    a = np.multiply(nu * dt, reg, out=v)
    np.add(r, a, out=a)
    np.add(a, noise, out=a)
    root = np.multiply(a, a, out=u)
    np.add(root, 4.0 * nu * dt, out=root)
    np.sqrt(root, out=root)
    np.add(a, root, out=root)
    return np.multiply(0.5, root, out=root)


def _scratch(n: int) -> tuple:
    """The arrays (u, v, mask) that _advance writes through, for n paths."""
    return np.empty(n), np.empty(n), np.empty(n, dtype=bool)


def _threads(blocks: int) -> int:
    """Threads for `blocks` blocks: one per usable core, at most one per block."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        usable = os.cpu_count() or 1
    return min(usable, blocks)


def _run_blocks(cfg: SimulationConfig, steps: int, normals_per_step: int, chains: int, step_slab) -> list[np.ndarray]:
    """Terminal values of `chains` chains per path, started at cfg.r0.

    Block b holds the requested paths among b*_BLOCK .. (b+1)*_BLOCK - 1.
    Each chunk of at most _SLAB steps is slab s = k // _SLAB: an SFC64 stream
    seeded by SeedSequence([seed, b, s]), from which the block's paths draw
    normals_per_step * chunk normals each, path by path. The draw is made
    _ROWS paths at a time and copied into a step-major buffer xi, so that the
    normals of step slot j are the contiguous row xi[j]. Then
    step_slab(rs, xi, k, noise, work) advances the chains rs over steps
    k .. k + chunk - 1 in place, with a row `noise` and _advance's `work` as
    scratch.

    The blocks are split into runs of at most _RUN consecutive blocks, their
    number a multiple of the thread count, so that the threads get about the
    same number of paths. A run is one task: it allocates its buffers once,
    steps all its paths with one numpy call per operation, and writes only
    its own slice of the outputs. Every operation is elementwise, so a path's
    value does not depend on the run it falls in. The runs go to a pool of
    _threads(blocks) threads.
    """
    outs = [np.empty(cfg.paths) for _ in range(chains)]
    width = normals_per_step * min(_SLAB, steps)

    def run(lo: int, hi: int) -> None:
        live = hi - lo
        rs = [np.full(live, cfg.r0) for _ in range(chains)]
        rows = np.empty(min(_ROWS, live) * width)
        xi = np.empty((width, live))
        noise, work = np.empty(live), _scratch(live)
        for k in range(0, steps, _SLAB):
            cols = normals_per_step * min(_SLAB, steps - k)
            for i in range(0, live, _ROWS):
                if i % _BLOCK == 0:  # lo is a block boundary, and _ROWS divides _BLOCK
                    seq = np.random.SeedSequence([cfg.seed, (lo + i) // _BLOCK, k // _SLAB])
                    rng = np.random.Generator(np.random.SFC64(seq))
                n = min(_ROWS, live - i)
                draw = rows[: n * cols].reshape(n, cols)
                rng.standard_normal(out=draw)  # path-major
                np.copyto(xi[:cols, i : i + n], draw.T)
            step_slab(rs, xi[:cols], k, noise, work)
        for out, r in zip(outs, rs):
            out[lo:hi] = r

    blocks = (cfg.paths + _BLOCK - 1) // _BLOCK
    threads = _threads(blocks)
    runs = threads * -(-blocks // (threads * _RUN))
    edges = [min(j * blocks // runs * _BLOCK, cfg.paths) for j in range(runs + 1)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run, edges[:-1], edges[1:]))  # list() re-raises a run's exception
    return outs


def simulate_radial(cfg: SimulationConfig) -> np.ndarray:
    """Terminal radii R_t for cfg.paths independent paths (one float each).

    Deterministic for a fixed config.
    """
    dts = _step_sizes(cfg.t, cfg.step)
    sqrt_dts = np.sqrt(dts)
    nu = 0.5 * (cfg.d - 1)

    def step_slab(rs: list[np.ndarray], xi: np.ndarray, k: int, noise: np.ndarray, work: tuple) -> None:
        (r,) = rs
        for j, row in enumerate(xi):
            root = _advance(r, dts[k + j], np.multiply(sqrt_dts[k + j], row, out=noise), nu, work)
            np.maximum(root, R_FLOOR, out=r)

    (out,) = _run_blocks(cfg, len(dts), 1, 1, step_slab)
    return out


def simulate_radial_pair(cfg: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Coupled terminal samples at cfg.step and cfg.step/2.

    Both chains ride the same Brownian path (the coarse increment over a step
    is the sum of the two fine ones), so their difference isolates the
    discretization bias instead of drowning it in Monte Carlo noise. Each
    returned sample set is marginally a valid simulation at its step size.
    Requires t to be an integral multiple of step.
    """
    n = round(cfg.t / cfg.step)
    if n < 1 or abs(n * cfg.step - cfg.t) > 1e-9 * max(cfg.t, 1.0):
        raise ValueError("paired run requires t to be an integral multiple of step")
    nu = 0.5 * (cfg.d - 1)
    half = 0.5 * cfg.step
    sq_half = math.sqrt(half)

    def step_slab(rs: list[np.ndarray], xi: np.ndarray, k: int, noise: np.ndarray, work: tuple) -> None:
        rc, rf = rs
        for e1, e2 in zip(xi[0::2], xi[1::2]):
            np.maximum(_advance(rf, half, np.multiply(sq_half, e1, out=noise), nu, work), R_FLOOR, out=rf)
            np.maximum(_advance(rf, half, np.multiply(sq_half, e2, out=noise), nu, work), R_FLOOR, out=rf)
            coarse = np.multiply(sq_half, np.add(e1, e2, out=noise), out=noise)
            np.maximum(_advance(rc, cfg.step, coarse, nu, work), R_FLOOR, out=rc)

    coarse, fine = _run_blocks(cfg, n, 2, 2, step_slab)
    return coarse, fine


@dataclass(frozen=True)
class EmpiricalTail:
    x: float
    estimate: float
    standard_error: float
    paths: int


def empirical_tail(samples: np.ndarray, d: int, t: float, x: float) -> EmpiricalTail:
    """Fraction of normalized samples >= x (x = +-inf included, NaN rejected),
    with binomial standard error."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empirical_tail requires at least one sample")
    if math.isnan(x):
        raise ValueError(f"x must not be NaN, got {x}")
    z = (samples - 0.5 * (d - 1) * t) / math.sqrt(t)
    p = float(np.mean(z >= x))
    se = math.sqrt(p * (1.0 - p) / samples.size)
    return EmpiricalTail(x, p, se, int(samples.size))


def ks_distance_to_normal(samples: np.ndarray, d: int, t: float) -> float:
    """Kolmogorov-Smirnov distance of normalized samples to the standard normal."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("ks distance requires at least one sample")
    z = np.sort((samples - 0.5 * (d - 1) * t) / math.sqrt(t))
    cdf = normal_tail(-z)
    n = z.size
    hi = np.max(np.arange(1, n + 1) / n - cdf)
    lo = np.max(cdf - np.arange(0, n) / n)
    return float(max(hi, lo))
