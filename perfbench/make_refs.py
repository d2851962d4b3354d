"""Build perfbench/refs.json: the reference value and tolerance of every operation.

    python3 perfbench/make_refs.py            # about ten minutes on two cores

Values come from refs_mp (sympy + mpmath at 25 digits) and never from hypbm.
Tolerances follow the tier-1 suite where it pins one for the quantity and are
chosen here, and recorded in the file, where it does not:

  sup discrepancy  absolute, the C4 tail tier of that d (1e-4 for d = 4 and 6,
                   1e-5 otherwise): delta is a sup of |tail - Phi|, so it can
                   be no better than the tail
  heat kernel      relative (|log q - log q_ref|): 1e-8 for odd d (the pinned
                   symbolic-vs-numeric agreement), 1e-6 for even d (the pinned
                   q2 and q4 agreement, kept for d = 6, 8, 10 because accuracy
                   must not decay with d)
  tail             absolute, the C4 tiers; d = 8 joins the even tier at 1e-4
  Monte Carlo      |estimate - tail| / standard error <= 5 per row: a row of a
                   correct simulator fails with probability about 6e-7,
                   whatever its random stream
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
from pathlib import Path

import mpmath as mp
import sympy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refs_mp  # noqa: E402
import workloads as W  # noqa: E402

DPS = 25
Z_MAX = 5.0
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def tail_tol(d: int) -> float:
    return 1e-4 if d % 2 == 0 and d >= 4 else 1e-5


def kernel_tol(d: int) -> float:
    return 1e-8 if d % 2 == 1 else 1e-6


def _sup(d: int, t: float) -> dict:
    """sup_x |tail - Phi| by a grid on [-4, 4] (step 1/4) and a golden-section refine."""

    def g(x: float) -> float:
        return float(abs(refs_mp.tail(d, t, x) - refs_mp.normal_tail(x)))

    xs = [i / 4.0 for i in range(-16, 17)]
    vals = [g(x) for x in xs]
    i = max(range(len(xs)), key=vals.__getitem__)
    best_x, best_v = xs[i], vals[i]
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    c, e = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fe = g(c), g(e)
    while b - a > 1e-6:
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - _GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, e, fe
            e = a + _GOLDEN * (b - a)
            fe = g(e)
        for xx, vv in ((c, fc), (e, fe)):
            if vv > best_v:
                best_x, best_v = xx, vv
    return {"delta": best_v, "argmax_x": best_x}


def _job(job: tuple) -> tuple[str, str, dict]:
    mp.mp.dps = DPS
    kind, args = job
    if kind == "sweep":
        d, t = args
        out = _sup(d, t)
        out["tol"] = tail_tol(d)
        return kind, W.key(d, t), out
    if kind == "kernel":
        d, t, r = args
        return kind, W.key(d, t, r), {"log_q": float(mp.log(refs_mp.heat_kernel(d, t, r))), "tol": kernel_tol(d)}
    if kind == "tail":
        d, t, x = args
        return kind, W.key(d, t, x), {"value": float(refs_mp.tail(d, t, x)), "tol": tail_tol(d)}
    d, t, x = args  # mc
    return kind, W.key(d, t, x), {"value": float(refs_mp.tail(d, t, x)), "z_max": Z_MAX}


def jobs() -> list[tuple]:
    out = [("sweep", (d, t)) for d in W.SWEEP_DIMS for t in W.SWEEP_TS]
    out += [("kernel", p) for p in W.KERNEL_POINTS]
    out += [("tail", p) for p in W.TAIL_POINTS]
    for cfg in (W.MC_SIM, W.MC_PAIR):
        out += [("mc", (cfg["d"], cfg["t"], x)) for x in W.MC_X]
    # longest first, so two workers finish together
    return sorted(out, key=lambda j: (j[0] != "sweep", -j[1][0]))


def main() -> int:
    refs: dict = {
        "meta": {
            "route": "sympy-differentiated odd kernels, descent for even d, mpmath quadrature",
            "dps": DPS,
            "mpmath": mp.__version__,
            "sympy": sympy.__version__,
            "tolerances": {
                "sweep": "abs on delta: 1e-4 for d in {4, 6}, 1e-5 otherwise (C4 tiers)",
                "kernel": "abs on log q: 1e-8 odd d, 1e-6 even d",
                "tail": "abs: 1e-4 for even d >= 4, 1e-5 otherwise",
                "mc": f"|z| <= {Z_MAX} against the analytic tail",
            },
        },
        "sweep": {},
        "kernel": {},
        "tail": {},
        "mc": {},
    }
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        for n, (kind, k, val) in enumerate(pool.imap_unordered(_job, jobs()), 1):
            refs[kind][k] = val
            print(f"{n:4d} {kind} {k} {val}", flush=True)
    for kind in ("sweep", "kernel", "tail", "mc"):
        refs[kind] = dict(sorted(refs[kind].items()))
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
