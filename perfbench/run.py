"""hypbm benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the root of a checkout; the hypbm under test is the one in its src/.
Each run warms the caches, then repeats the workload's fixed operations (one
"pass") for --seconds, timing set-up in fresh interpreters between passes,
and checks every output against perfbench/refs.json. A run is correct when
every row either meets its reference or fails as one of the points recorded in
perfbench/known_defects.json, no worse than recorded; rows of the second kind
still count as failed. End-to-end times are
scaled to a reference machine speed by calibrate.py; per-layer times are raw. With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with --trace 1
it alternates untraced and traced passes and reports the per-layer metrics,
the tracing overhead among them. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import spans as S  # noqa: E402
import workloads as W  # noqa: E402

# fresh interpreters per run, whose time counts against --seconds
SETUP_SAMPLES = {0: 9, 1: 5}

# the calibration unit that best follows each workload through the machine's swings
CAL_KIND = {"sweep": "mixed", "kernel_grid": "small", "mc": "large"}

# first calls that fill the lru caches, per workload; run in every set-up sample
SETUP_CALLS = {
    "sweep": "from hypbm.tails import tail\nfor d in (2, 3, 4, 5): tail(d, 10.0, 0.0)",
    "kernel_grid": (
        "from hypbm.kernels import EvaluationPoint, heat_kernel\nfrom hypbm.tails import tail\n"
        "for d in (3, 5, 7): heat_kernel(d, EvaluationPoint(1.0, 1.0))\n"
        "for d in (6, 8): tail(d, 1.0, 0.0)"
    ),
    "mc": (
        "from hypbm.sim import SimulationConfig, simulate_radial\n"
        "simulate_radial(SimulationConfig(d=3, t=1e-3, paths=1, seed=0, step=1e-3))"
    ),
}

# a point of known_defects.json that the program still gets wrong stays a
# known defect while its miss grows by no more than this factor; one that
# raises must raise the recorded exception type
KNOWN_MISS_SLACK = 1.1

SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import hypbm
t1 = time.perf_counter()
import hypbm.cli
t2 = time.perf_counter()
hypbm.cli.build_parser()
exec(sys.argv[1])
t3 = time.perf_counter()
print(json.dumps({"import_hypbm_s": t1 - t0, "import_cli_s": t2 - t1, "first_call_s": t3 - t2}))
"""


def load_known_defects() -> dict:
    path = HERE / "known_defects.json"
    return json.loads(path.read_text()) if path.is_file() else {"points": {}}


class Row:
    """One output row. `ok` is whether it meets its reference; `known` marks
    a row that misses it as one of known_defects.json and no worse."""

    __slots__ = ("start", "latency", "ok", "detail", "known")

    def __init__(self, start: float, latency: float, ok: bool, detail: str = "", known: bool = False):
        self.start, self.latency, self.ok, self.detail, self.known = start, latency, ok, detail, known


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """hypbm.cli.main in-process, with stdout and stderr captured."""
    import hypbm.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hypbm.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _csv_rows(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    cols = lines[0].split(",")
    return [dict(zip(cols, line.split(","))) for line in lines[1:]]


# --------------------------------------------------------------------------
# workloads: each pass returns (wall seconds, rows)
# --------------------------------------------------------------------------


class Sweep:
    """hypbm sweep --d 2..5 --t-log-range 10:1000:5, in-process and serial."""

    def __init__(self, refs: dict, seed: int, argv=W.SWEEP_ARGV,
                 keys=tuple(W.key(d, t) for d in W.SWEEP_DIMS for t in W.SWEEP_TS)):
        self.refs = refs["sweep"]
        self.argv, self.keys = argv, keys
        self.notes: set[str] = set()

    def run_pass(self, tracer=None, cal=None) -> tuple[float, list[Row]]:
        import hypbm.cli

        # the CLI maps every row through cli._sweep_one; timing that call
        # gives each row's latency inside the one invocation. Rows are
        # checked from the CSV alone; the times are used only when the hook
        # saw one call per row
        row_times: list[tuple[float, float]] = []
        one = getattr(hypbm.cli, "_sweep_one", None)

        def timed_row(job):
            if cal is not None:
                cal.tick()
            t0 = time.perf_counter()
            try:
                return one(job)
            finally:
                row_times.append((t0, time.perf_counter() - t0))

        if one is not None:
            hypbm.cli._sweep_one = timed_row
        if tracer is not None:
            tracer.run_id += 1
        t0 = time.perf_counter()
        try:
            code, out, err = _cli(self.argv)
        except Exception as exc:
            code, out, err = None, "", f"{type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - t0
            if one is not None:
                hypbm.cli._sweep_one = one
        n = len(self.keys)
        if len(row_times) != n:
            self.notes.add(f"row times are wall/{n}: cli._sweep_one was called {len(row_times)} times a pass")
            row_times = [(t0 + i * wall / n, wall / n) for i in range(n)]
        if code != 0:
            return wall, [Row(start, lat, False, f"exit {code}: {err.strip()}") for start, lat in row_times]
        got = {}
        for rec in _csv_rows(out):
            got.setdefault(W.key(int(rec["d"]), float(rec["t"])), []).append(float(rec["delta"]))
        rows = []
        for k, (start, lat) in zip(self.keys, row_times):
            deltas = got.pop(k, [])
            if len(deltas) != 1:
                rows.append(Row(start, lat, False, f"sweep d,t={k}: {len(deltas)} rows in the output"))
                continue
            miss = abs(deltas[0] - self.refs[k]["delta"])
            rows.append(Row(start, lat, miss <= self.refs[k]["tol"], f"sweep d,t={k}: |delta-ref|={miss:.2e}"))
        rows += [Row(t0, 0.0, False, f"sweep d,t={k}: unexpected row") for k in got]
        return wall, rows


class KernelGrid:
    """Each heat-kernel point and each even-d tail point as its own call."""

    def __init__(self, refs: dict, seed: int, kernel_points=W.KERNEL_POINTS, tail_points=W.TAIL_POINTS, known=None):
        self.kref, self.tref = refs["kernel"], refs["tail"]
        self.kernel_points, self.tail_points = kernel_points, tail_points
        self.known = load_known_defects()["points"] if known is None else known
        self.notes: set[str] = set()

    def ops(self) -> list[tuple[str, tuple]]:
        return [("kernel", p) for p in self.kernel_points] + [("tail", p) for p in self.tail_points]

    @staticmethod
    def label(kind: str, p: tuple) -> str:
        return f"{kind} d={p[0]} t={p[1]} {'r' if kind == 'kernel' else 'x'}={p[2]}"

    def bind(self) -> None:
        """Look the functions under test up again: tracing rebinds them."""
        from hypbm.kernels import EvaluationPoint, heat_kernel
        from hypbm.tails import tail

        self.fns = EvaluationPoint, heat_kernel, tail

    def call(self, kind: str, p: tuple) -> tuple[float | None, Exception | None]:
        """The point's value (log q for a kernel point), or the exception it raised."""
        EvaluationPoint, heat_kernel, tail = self.fns
        d, t, v = p
        try:
            return (heat_kernel(d, EvaluationPoint(t, v)).log if kind == "kernel" else tail(d, t, v).value), None
        except Exception as exc:  # one failed point must not end the pass
            return None, exc

    def reference(self, kind: str, p: tuple) -> tuple[float, float]:
        """(value, tolerance) of the point's reference."""
        ref = self.kref[W.key(*p)] if kind == "kernel" else self.tref[W.key(*p)]
        return (ref["log_q"] if kind == "kernel" else ref["value"]), ref["tol"]

    def run_pass(self, tracer=None, cal=None) -> tuple[float, list[Row]]:
        self.bind()
        ops = self.ops()
        outcomes = []
        t_start = time.perf_counter()
        for kind, p in ops:
            if tracer is not None:
                tracer.run_id += 1
            if cal is not None:
                cal.tick()
            t0 = time.perf_counter()
            val, exc = self.call(kind, p)
            outcomes.append((t0, time.perf_counter() - t0, val, exc))
        wall = time.perf_counter() - t_start
        rows = []
        for (kind, p), (start, lat, val, exc) in zip(ops, outcomes):
            label = self.label(kind, p)
            rec = self.known.get(label)
            if exc is not None:
                known = rec is not None and rec.get("raises") == type(exc).__name__
                rows.append(Row(start, lat, False, f"{label}: {type(exc).__name__}: {exc}", known))
                continue
            ref, tol = self.reference(kind, p)
            miss = abs(val - ref)
            known = rec is not None and "miss" in rec and miss <= rec["miss"] * KNOWN_MISS_SLACK
            rows.append(Row(start, lat, miss <= tol, f"{label}: miss {miss:.2e} (tol {tol:g})", known))
        return wall, rows


class MonteCarlo:
    """hypbm simulate (d = 3) and the coupled pair of C9 (d = 4); seeded by --seed."""

    def __init__(self, refs: dict, seed: int, sim=W.MC_SIM, pair=W.MC_PAIR):
        self.refs = refs["mc"]
        self.seed = seed % 2**63
        self.pair = pair
        self.notes: set[str] = set()
        self.argv = [
            "simulate", "--d", str(sim["d"]), "--t", repr(sim["t"]),
            "--x", ",".join(repr(x) for x in W.MC_X), "--paths", str(sim["paths"]),
            "--step", repr(sim["step"]), "--seed", str(self.seed),
        ]

    def _z_row(self, start: float, lat: float, d: int, t: float, x: float, ests) -> Row:
        ref = self.refs[W.key(d, t, x)]
        zs = [(e - ref["value"]) / se if se > 0 else math.inf for e, se in ests]
        ok = all(abs(z) <= ref["z_max"] for z in zs)
        return Row(start, lat, ok, f"mc d={d} x={x} z=" + "/".join(f"{z:+.2f}" for z in zs))

    def run_pass(self, tracer=None, cal=None) -> tuple[float, list[Row]]:
        from hypbm.sim import SimulationConfig, empirical_tail, simulate_radial_pair

        t_start = time.perf_counter()
        if tracer is not None:
            tracer.run_id += 1
        try:
            code, out, err = _cli(self.argv)
        except Exception as exc:
            code, out, err = None, "", f"{type(exc).__name__}: {exc}"
        t_sim = time.perf_counter() - t_start
        if tracer is not None:
            tracer.run_id += 1
        if cal is not None:
            cal.tick(force=True)
        t_pair_start = time.perf_counter()
        pair = self.pair  # seeded apart from the CLI run, so the two draw different streams
        cfg = SimulationConfig(d=pair["d"], t=pair["t"], paths=pair["paths"], seed=self.seed ^ 1, step=pair["step"])
        try:
            coarse, fine = simulate_radial_pair(cfg)
            pair_tails = [
                (empirical_tail(coarse, cfg.d, cfg.t, x), empirical_tail(fine, cfg.d, cfg.t, x)) for x in W.MC_X
            ]
            pair_err = None
        except Exception as exc:
            pair_err = f"{type(exc).__name__}: {exc}"
        t_pair = time.perf_counter() - t_pair_start
        wall = time.perf_counter() - t_start
        n = len(W.MC_X)
        rows = []
        if code != 0:
            rows += [Row(t_start, t_sim / n, False, f"simulate exit {code}: {err.strip()}")] * n
        else:
            for rec in _csv_rows(out):
                ests = [(float(rec["estimate"]), float(rec["standard_error"]))]
                rows.append(self._z_row(t_start, t_sim / n, int(rec["d"]), float(rec["t"]), float(rec["x"]), ests))
            rows += [Row(t_start, t_sim / n, False, "simulate: missing row")] * (n - len(rows))
        if pair_err is not None:
            rows += [Row(t_pair_start, t_pair / n, False, f"simulate_radial_pair: {pair_err}")] * n
        else:
            for x, (ec, ef) in zip(W.MC_X, pair_tails):
                ests = [(ec.estimate, ec.standard_error), (ef.estimate, ef.standard_error)]
                rows.append(self._z_row(t_pair_start, t_pair / n, cfg.d, cfg.t, x, ests))
        return wall, rows


WORKLOADS = {"sweep": Sweep, "kernel_grid": KernelGrid, "mc": MonteCarlo}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


class SetupSampler:
    """Set-up in fresh interpreters, each sample scaled by a fresh
    interpreter that imports only hypbm's dependencies, timed right after it."""

    def __init__(self, workload: str):
        self.code = SETUP_CALLS[workload]
        self.env = {k: v for k, v in os.environ.items() if k != "HYPBM_THREADS"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.samples: list[dict] = []
        self.spent = 0.0

    def take_until(self, n: int) -> None:
        while len(self.samples) < n:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, self.code],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120, check=True,
            )
            raw = time.perf_counter() - t0
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
            rec["setup_s"] = raw * calibrate.REFERENCE_S["interpreter"] / calibrate.interpreter_s()
            rec["raw_setup_s"] = raw
            self.samples.append(rec)
            self.spent += time.perf_counter() - t0


def run_passes(wl, kind: str, seconds: float, setup: SetupSampler) -> tuple[list[tuple[float, list[Row]]], list[float]]:
    """Whole passes until another one, with the set-up samples still to
    take, would overrun `seconds`; at least one.

    Returns the passes with their times in reference-machine seconds and
    each pass's raw wall time. Calibration samples taken inside a pass are
    taken out of its wall time; each row is scaled by the samples around it
    and the rest of the pass by the samples around the pass. Between passes
    the set-up samples are taken in step with the elapsed share of the run,
    so that they meet the same swings of machine speed as the passes.
    """
    n_setup = SETUP_SAMPLES[0]
    passes, raw_walls = [], []
    cal = calibrate.Calibrator(kind)
    t0 = time.perf_counter()
    while True:
        setup.take_until(math.ceil(n_setup * (time.perf_counter() - t0) / seconds))
        cal.tick(force=True)
        spent = cal.spent
        p0 = time.perf_counter()
        wall, rows = wl.run_pass(cal=cal)
        wall -= cal.spent - spent
        cal.tick(force=True)
        outside = (wall - sum(row.latency for row in rows)) * cal.factor(p0, p0 + wall)
        scaled = [Row(row.start, row.latency * cal.factor(row.start, row.start + row.latency), row.ok, row.detail,
                      row.known) for row in rows]
        passes.append((outside + sum(row.latency for row in scaled), scaled))
        raw_walls.append(wall)
        elapsed = time.perf_counter() - t0
        per_pass = (elapsed - setup.spent) / len(passes)
        setup_left = (n_setup - len(setup.samples)) * setup.spent / len(setup.samples)
        if elapsed + per_pass + setup_left > seconds:
            setup.take_until(n_setup)
            return passes, raw_walls


def _percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by a beta density centred on q. It follows the
    rows around q rather than the one or two nearest it, so one noisy row,
    or a gap between rows of different kinds at q, moves it little."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    edges = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, edges, edges[1:]))


def end_to_end(passes, setup: list[dict]) -> tuple[dict, dict]:
    """Every pass runs the same rows in the same order. wall_s is the sum of
    each row's median over the passes plus the median of what a pass spends
    outside its rows, so a burst of machine noise moves one pass's share of
    a row, not a whole pass. The row percentiles are Harrell-Davis
    estimates over the same per-row medians, not over a pool of every
    pass's rows, whose extremes are the noisiest rows."""
    n = min(len(rows) for _, rows in passes)
    row_med = [statistics.median(rows[i].latency for _, rows in passes) for i in range(n)]
    outside = statistics.median(w - sum(row.latency for row in rows) for w, rows in passes)
    rows = [row for _, pass_rows in passes for row in pass_rows]
    lat_ms = [t * 1e3 for t in row_med]
    failed = sum(not row.ok for row in rows)
    values = {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s", len(setup)),
        "wall_s": (sum(row_med) + outside, "s", len(passes)),
        "row_p50_ms": (_percentile(lat_ms, 0.5), "ms", n),
        "row_p90_ms": (_percentile(lat_ms, 0.9), "ms", n),
        "pass_frac": (1.0 - failed / len(rows), "frac", len(rows)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    beyond = {"row_p50_ms": n // 2, "row_p90_ms": n // 10}
    notes = {k: f"{b} rows beyond, {len(passes)} passes" + ("" if b >= 10 else " (fewer than ten)") for k, b in beyond.items()}
    notes["pass_frac"] = f"fail_frac = {failed}/{len(rows)} = {failed / len(rows):.4f}"
    return values, notes


def layer_metrics() -> list[dict]:
    """The per-layer metrics of BENCHMARK.json, each with its note from layers.json."""
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    notes = json.loads((HERE / "layers.json").read_text())["per_layer"]
    return [dict(spec, note=notes.get(spec["name"], {}).get("note", "")) for spec in specs]


def _rng_ns_per_normal(seed: int, shape: tuple[int, ...]) -> float:
    """Philox normals drawn standalone at `shape`, the simulator's commonest draw."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        xi = rng.standard_normal(shape)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / xi.size * 1e9


def per_layer(tracer: S.Tracer, n_passes: int, seed: int) -> dict[str, float]:
    """Per-layer metrics of the traced passes; counts and self times are per pass."""
    from hypbm.calculus import sinh_power_derivative
    from hypbm.kernels import build_odd_kernel

    NAME, NOTE, ERROR = S.NAME, S.NOTE, S.ERROR
    spans = tracer.spans
    selfs = S.self_times(spans)
    dur = [rec[S.END] - rec[S.START] for rec in spans]
    per = 1.0 / n_passes
    m: dict[str, float] = {}

    def calls(name):
        return sum(1 for rec in spans if rec[NAME] == name) * per

    def median_ms(pred):
        xs = [dur[i] for i, rec in enumerate(spans) if pred(rec)]
        return statistics.median(xs) * 1e3 if xs else 0.0

    def self_sum(pred):
        return sum(selfs[i] for i, rec in enumerate(spans) if pred(rec)) * per

    layer_self = {layer: self_sum(lambda rec, p=layer + ".": rec[NAME].startswith(p)) for layer in S.LAYERS}

    # quadrature
    qa = [rec for rec in spans if rec[NAME] == "quadrature.integrate_adaptive"]
    m["quadrature.calls"] = len(qa) * per
    m["quadrature.evaluations"] = sum(rec[NOTE] or 0 for rec in qa) * per
    m["quadrature.self_s"] = layer_self["quadrature"]
    m["quadrature.evals_per_s"] = m["quadrature.evaluations"] / layer_self["quadrature"] if layer_self["quadrature"] else 0.0
    m["quadrature.failures"] = sum(1 for rec in spans if rec[NAME].startswith("quadrature.") and rec[ERROR]) * per
    m["quadrature.exp_log_calls"] = calls("quadrature.integrate_exp_log")

    # kernels
    for d in range(2, 11):
        m[f"kernels.heat_kernel.d{d}.ms"] = median_ms(lambda rec, d=d: rec[NAME] == "kernels.heat_kernel" and rec[NOTE] == d)
    m["kernels.q2.calls"] = calls("kernels.q2")
    m["kernels.millson_step_numeric.calls"] = calls("kernels.millson_step_numeric")
    m["kernels.q_odd.calls"] = calls("kernels.q_odd")
    m["kernels.q_odd.self_ms"] = self_sum(lambda rec: rec[NAME] == "kernels.q_odd") * 1e3
    causes = {
        "not_decreasing": "not decreasing",
        "step_underflow": "step underflow",
        "bracket_not_positive": "bracket not positive",
        "q2_not_positive": "q2 integral not positive",
    }
    errs = [rec[ERROR] for rec in spans if rec[NAME].startswith("kernels.") and rec[ERROR]]
    m["kernels.errors"] = len(errs) * per
    for key, text in causes.items():
        m[f"kernels.errors.{key}"] = sum(text in e for e in errs) * per
    m["kernels.build_odd_kernel.misses"] = build_odd_kernel.cache_info().misses
    m["kernels.self_s"] = layer_self["kernels"]

    # calculus
    info = sinh_power_derivative.cache_info()
    m["calculus.sinh_power_derivative.hit_frac"] = info.hits / max(1, info.hits + info.misses)
    m["calculus.evaluate_expansion_log.calls"] = calls("calculus.evaluate_expansion_log")
    m["calculus.evaluate_expansion_log.self_s"] = self_sum(lambda rec: rec[NAME] == "calculus.evaluate_expansion_log")
    m["calculus.self_s"] = layer_self["calculus"]

    # tails
    m["tails.tail.calls"] = calls("tails.tail")
    for d in (2, 3, 4, 5, 6, 8):
        m[f"tails.tail.d{d}.ms"] = median_ms(lambda rec, d=d: rec[NAME] == "tails.tail" and rec[NOTE] == d)
    m["tails.tail_d3.ms"] = median_ms(lambda rec: rec[NAME] == "tails.tail_d3")
    m["tails.tail_odd.self_ms"] = self_sum(lambda rec: rec[NAME] == "tails.tail_odd") * 1e3
    m["tails.tail_even.pinned.ms"] = median_ms(lambda rec: rec[NAME] == "tails.tail_even" and rec[NOTE][1])
    m["tails.tail_even.above.ms"] = median_ms(lambda rec: rec[NAME] == "tails.tail_even" and not rec[NOTE][1])
    m["tails.self_s"] = layer_self["tails"]

    # discrepancy
    # a finished search notes (d, evaluations), one that raised only d
    sups = [(i, rec) for i, rec in enumerate(spans) if rec[NAME] == "discrepancy.sup_discrepancy"]
    for d in (2, 3, 4, 5):
        m[f"discrepancy.sup.d{d}.ms"] = median_ms(
            lambda rec, d=d: rec[NAME] == "discrepancy.sup_discrepancy"
            and (rec[NOTE][0] if isinstance(rec[NOTE], tuple) else rec[NOTE]) == d
        )
    done = [rec[NOTE][1] for _, rec in sups if isinstance(rec[NOTE], tuple)]
    m["discrepancy.tail_calls_per_search"] = statistics.mean(done) if done else 0.0
    sup_total = sum(dur[i] for i, _ in sups)
    m["discrepancy.self_frac"] = self_sum(lambda rec: rec[NAME] == "discrepancy.sup_discrepancy") / (sup_total * per) if sup_total else 0.0
    m["discrepancy.self_s"] = layer_self["discrepancy"]

    # sim: time per requested path-step, and per normal the simulator drew
    # (one per simulated path-step, padding included)
    def sim_spans(name):
        idx = [i for i, rec in enumerate(spans) if rec[NAME] == name]
        secs = sum(dur[i] for i in idx)
        requested = sum(spans[i][NOTE][0] * spans[i][NOTE][1] for i in idx)
        return secs, requested, sum(tracer.normals[i] for i in idx)

    single_s, single_req, single_normals = sim_spans("sim.simulate_radial")
    pair_s, pair_req, pair_normals = sim_spans("sim.simulate_radial_pair")
    m["sim.ns_per_path_step"] = single_s / single_req * 1e9 if single_req else 0.0
    m["sim.pair.ns_per_coarse_step"] = pair_s / pair_req * 1e9 if pair_req else 0.0
    m["sim.normals_per_path_step"] = single_normals / single_req if single_req else 0.0
    m["sim.pair.normals_per_coarse_step"] = pair_normals / pair_req if pair_req else 0.0
    shape = tracer.draw_shapes.most_common(1)[0][0] if tracer.draw_shapes else None
    rng_ns = _rng_ns_per_normal(seed, shape) if shape else 0.0
    m["sim.rng_ns_per_normal"] = rng_ns
    m["sim.step_ns_per_path_step"] = single_s / single_normals * 1e9 - rng_ns if single_normals else 0.0
    m["sim.empirical_tail.ms"] = median_ms(lambda rec: rec[NAME] == "sim.empirical_tail")
    m["sim.self_s"] = layer_self["sim"]

    # cli
    m["cli.main.self_ms"] = layer_self["cli"] * 1e3
    m["trace.spans"] = len(spans) * per
    return m


def provenance(seed: int, hypbm_file: str, threads_env: str | None) -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history to name
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numba": have_numba,
        "HYPBM_THREADS": threads_env,  # as given; the runs themselves are serial
        "git_commit": commit,
        "hypbm": hypbm_file,
        "seed": seed,
    }


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process); the final
    line merges their results, metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(f"# ---- {name}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hypbm" / "__init__.py").is_file():
        print(f"perfbench: no hypbm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    threads_env = os.environ.pop("HYPBM_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import hypbm

    if Path(hypbm.__file__).resolve().parent != (ROOT / "src" / "hypbm").resolve():
        print(f"perfbench: imported hypbm from {hypbm.__file__}, not from this checkout", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "refs.json").read_text())
    prov = provenance(args.seed, str(Path(hypbm.__file__).relative_to(ROOT)), threads_env)
    prov["workload"], prov["trace"], prov["seconds"] = args.workload, args.trace, args.seconds

    setup = SetupSampler(args.workload)
    exec(SETUP_CALLS[args.workload], {})  # warm: imports done and caches filled before timing
    wl = WORKLOADS[args.workload](refs, args.seed)

    if args.trace == 0:
        passes, raw_walls = run_passes(wl, CAL_KIND[args.workload], args.seconds, setup)
        values, notes = end_to_end(passes, setup.samples)
        notes["wall_s"] = f"raw median {statistics.median(raw_walls):.4g} s"
        notes["setup_s"] = f"raw median {statistics.median(s['raw_setup_s'] for s in setup.samples):.4g} s"
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()}
        table = [(k, v, u, n, notes.get(k, "")) for k, (v, u, n) in values.items()]
        measured = passes
    else:
        t0 = time.perf_counter()
        setup.take_until(SETUP_SAMPLES[1])
        # untraced and traced passes alternate, so drift in machine speed
        # during the run reaches both sides of the overhead alike
        tracer = S.Tracer()
        untraced, traced = [], []
        while True:
            untraced.append(wl.run_pass())
            with tracer.installed():
                traced.append(wl.run_pass(tracer))
            elapsed = time.perf_counter() - t0
            if elapsed * (len(traced) + 1) / len(traced) > args.seconds:
                break
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        S.write_csv(tracer.spans, out_dir / f"spans-{args.workload}.csv")
        layer = per_layer(tracer, len(traced), args.seed)
        wall_u = statistics.median(w for w, _ in untraced)
        wall_t = statistics.median(w for w, _ in traced)
        layer["trace.overhead_s"] = wall_t - wall_u
        layer["trace.overhead_frac"] = (wall_t - wall_u) / wall_u
        layer["cli.import_s"] = statistics.median(s["import_cli_s"] + s["import_hypbm_s"] for s in setup.samples)
        metrics = {}
        table = []
        for spec in layer_metrics():
            name = spec["name"]
            metrics[name] = {"value": layer[name], "unit": spec["unit"]}
            table.append((name, layer[name], spec["unit"], len(traced), spec["note"]))
        measured = untraced + traced
        prov["untraced_passes"], prov["traced_passes"] = len(untraced), len(traced)

    # every row that misses its reference counts as failed; the run is
    # correct while each of them is a known defect, failing no worse
    rows = [row for _, pass_rows in measured for row in pass_rows]
    failed_rows = [row for row in rows if not row.ok]
    correct = all(row.known for row in failed_rows)
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    for detail, known in sorted({(row.detail, row.known) for row in failed_rows}):
        print(f"# {'KNOWN' if known else 'FAIL'} {detail}")
    for note in sorted(wl.notes):
        print(f"# note {note}")
    print(f"# {'metric':44s} {'value':>14s} {'unit':6s} {'n':>5s}")
    for name, value, unit, n, note in table:
        print(f"# {name:44s} {value:14.6g} {unit:6s} {n:5d} {note}")
    print(json.dumps({"correct": correct, "attempted": len(rows), "failed": len(failed_rows), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
