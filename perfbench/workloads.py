"""The benchmark's fixed operations, shared by run.py and make_refs.py.

Importing this module does not import hypbm, so make_refs.py can use it
without touching the code under test.
"""

from __future__ import annotations

# sweep: the C7 rate experiment, one CLI invocation, 20 sup searches
SWEEP_ARGV = ["sweep", "--d", "2..5", "--t-log-range", "10:1000:5"]
SWEEP_DIMS = (2, 3, 4, 5)
SWEEP_TS = tuple(10.0 * 100.0 ** (i / 4.0) for i in range(5))

# kernel_grid: heat-kernel points for d = 2..8 (plus four d = 10 points) and
# even-d tails; every point is its own operation, so a KernelError fails one
# point and not the rest
KERNEL_TS = (0.1, 1.0, 10.0)
KERNEL_RS = (0.001, 0.01, 0.05, 0.5, 2.0, 10.0)
KERNEL_POINTS = tuple(
    [(d, t, r) for d in range(2, 9) for t in KERNEL_TS for r in KERNEL_RS]
    + [(10, 1.0, r) for r in (0.01, 0.05, 0.5, 2.0)]
)
TAIL_POINTS = tuple((d, t, float(x)) for d in (6, 8) for t in (1.0, 10.0, 100.0) for x in range(-3, 4))

# mc: the CLI simulate run (d = 3) and the coupled-pair route of C9 (d = 4);
# neither path count is a multiple of the 32768-path block
MC_X = (-0.5, 0.0, 0.5, 1.0)
MC_SIM = {"d": 3, "t": 1.0, "paths": 50_000, "step": 1e-3}
MC_PAIR = {"d": 4, "t": 1.0, "paths": 20_000, "step": 1e-3}


def key(*parts: float) -> str:
    """Stable lookup key for a reference: the parts rounded to 9 significant digits."""
    return ",".join(f"{float(p):.9g}" for p in parts)
