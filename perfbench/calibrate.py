"""Machine-speed calibration for the benchmark's timings.

The benchmark shares its machine, whose clock speed swings by up to 2x over
minutes. These loops run none of hypbm's code, so a change to the program
cannot move them, but they slow down and speed up with the machine. The
runner samples one of them between operations, at least every 0.2 s, and
scales each operation's time by

    REFERENCE_S[kind] / median(samples just before and just after it,
                               and those in between or within WINDOW_S),

which reports each time in seconds of a reference machine state: the
2-core x86_64 box described in BASELINE.md in its faster state, where the
factor is about 1. Over 10-s windows in which that box swung by 2x, the
coefficient of variation of a kernel-and-tail workload was 21.6% raw and
2.2% scaled.

Set-up times are mostly process start and imports, which these loops track
badly. They are scaled instead by a fresh interpreter that imports only
hypbm's dependencies (interpreter_s), taken next to each set-up sample.

    python3 perfbench/calibrate.py      # print each unit's time here
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import time

import numpy as np

# each unit's median time on the reference machine, in seconds
REFERENCE_S = {"small": 1.7e-3, "large": 7.0e-3, "mixed": 3.45e-3, "interpreter": 0.3}

INTERPRETER_CODE = "import numpy, scipy.special, mpmath"

# least time between two samples taken by Calibrator.tick
EVERY_S = 0.2

# samples this close to an interval also scale it: the machine's speed swings
# over tens of seconds, while one sample is noisy
WINDOW_S = 2.0


def _small() -> float:
    """Interpreter plus small-array numpy, the shape of the Gauss-Kronrod loop."""
    x = np.linspace(0.1, 3.0, 120)
    acc = 0.0
    for i in range(300):
        y = np.exp(-0.5 * x * x) * np.log1p(x) + np.sinh(0.1 * x)
        acc += float(y @ x) + math.log(i + 1.0)
    return acc


def _large(steps: int = 8) -> float:
    """Block-sized arrays and Philox draws, the shape of the simulator's step."""
    rng = np.random.Generator(np.random.Philox(key=np.array([0, 0], dtype=np.uint64)))
    r = np.full(32768, 0.5)
    for _ in range(steps):
        a = r + 1e-3 * np.tanh(r) + 0.03 * rng.standard_normal(32768)
        r = 0.5 * (a + np.sqrt(a * a + 4e-3))
    return float(r[0])


def _mixed() -> float:
    """The small loop and a quarter of the large one, about equal time each.

    When this machine slows down, the small loop slows more than the sweep's
    rows and the large loop less: over 34 sweep passes in which the raw time
    swung by 1.8x, scaling by the small loop left a 12% coefficient of
    variation, by the large one 10%, and by their geometric mean 7%.
    """
    return _small() + _large(2)


UNITS = {"small": _small, "large": _large, "mixed": _mixed}


def interpreter_s() -> float:
    """Time of one fresh interpreter that imports hypbm's dependencies."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", INTERPRETER_CODE], capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


def unit_s(kind: str, reps: int = 9) -> float:
    """Median time of `reps` runs of one calibration unit."""
    fn = UNITS[kind]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calibrator:
    """Samples one unit between operations and scales intervals by it.

    tick() is called between operations (never inside a timed one) and
    samples the unit (median of 3 runs) when EVERY_S seconds have passed
    since the last sample, or always, and with 9 runs, with force=True; the
    forced samples come around passes and long operations, where they are
    few and scale much time. factor(t0, t1) scales an interval by the
    median of the samples just before t0 and just after t1 and of those in
    between or within WINDOW_S of the interval. `spent` is the time
    spent sampling, so a caller can take it out of a wall time it measured.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.stamps: list[float] = []
        self.units: list[float] = []
        self.spent = 0.0

    def tick(self, force: bool = False) -> None:
        t0 = time.perf_counter()
        if force or not self.stamps or t0 - self.stamps[-1] >= EVERY_S:
            u = unit_s(self.kind, reps=9 if force else 3)
            t1 = time.perf_counter()
            self.stamps.append(t1)
            self.units.append(u)
            self.spent += t1 - t0

    def factor(self, t0: float, t1: float) -> float:
        i = max(min(bisect.bisect_right(self.stamps, t0) - 1, bisect.bisect_left(self.stamps, t0 - WINDOW_S)), 0)
        j = min(max(bisect.bisect_left(self.stamps, t1), bisect.bisect_right(self.stamps, t1 + WINDOW_S) - 1),
                len(self.stamps) - 1)
        return REFERENCE_S[self.kind] / statistics.median(self.units[i : j + 1])


if __name__ == "__main__":
    for kind in UNITS:
        print(kind, [round(unit_s(kind) * 1e3, 4) for _ in range(5)], "ms")
    print("interpreter", [round(interpreter_s() * 1e3, 1) for _ in range(5)], "ms")
