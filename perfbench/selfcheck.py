"""Self-check of the benchmark harness on tiny versions of its workloads.

    python3 perfbench/selfcheck.py        # from the repo root; about ten seconds

Confirms that
  1. the trace wrappers replace the traced functions while installed and put
     every original object back afterwards;
  2. CLI output with tracing on is byte-identical to output with it off;
  3. the simulator's normal draws are counted while tracing;
  4. each workload passes against refs.json and fails when its reference
     is perturbed, and sweep rows are still checked when the CLI does not
     call its per-row function once per row;
  5. kernel_grid points of known_defects.json fail as known defects, and
     stop being known when they fail worse than recorded.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans as S  # noqa: E402

TINY_SIM = {"d": 3, "t": 1.0, "paths": 2000, "step": 1e-2}
TINY_PAIR = {"d": 4, "t": 1.0, "paths": 2000, "step": 1e-2}
CLI_CASES = (
    ["sweep", "--d", "3", "--t", "10"],
    ["kernel", "--d", "2..5", "--t", "1", "--r", "0.5,2"],
    ["tail", "--d", "4,6", "--t", "1", "--x", "-3,0,1"],
    ["simulate", "--d", "3", "--t", "0.05", "--x", "0,1", "--paths", "500", "--step", "1e-2", "--seed", "7"],
)


def hypbm_bindings() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(val)
        for name, mod in sys.modules.items()
        if name == "hypbm" or name.startswith("hypbm.")
        for attr, val in vars(mod).items()
    }


def tiny_workloads(refs: dict) -> list:
    return [
        run.Sweep(refs, 0, argv=["sweep", "--d", "3", "--t", "10"], keys=(run.W.key(3, 10.0),)),
        run.KernelGrid(refs, 0, kernel_points=((2, 1.0, 0.5), (5, 1.0, 2.0)), tail_points=((6, 1.0, 0.0),)),
        run.MonteCarlo(refs, 11, sim=TINY_SIM, pair=TINY_PAIR),
    ]


def perturbed(refs: dict) -> dict:
    """Every reference moved far beyond its tolerance."""
    out = copy.deepcopy(refs)
    for rec in out["sweep"].values():
        rec["delta"] += 10 * rec["tol"]
    for rec in out["kernel"].values():
        rec["log_q"] += 10 * rec["tol"]
    for rec in out["tail"].values():
        rec["value"] += 10 * rec["tol"]
    for rec in out["mc"].values():
        rec["value"] += 0.25
    return out


def main() -> int:
    import hypbm.cli  # every traced module is loaded before the snapshot

    checks: list[tuple[str, bool]] = []
    refs = json.loads((HERE / "refs.json").read_text())

    before = hypbm_bindings()
    plain = [run._cli(argv) for argv in CLI_CASES]
    tracer = S.Tracer()
    with tracer.installed():
        during = hypbm_bindings()
        traced = [run._cli(argv) for argv in CLI_CASES]
    after = hypbm_bindings()
    swapped = [k for k in before if during.get(k) != before[k]]
    checks.append((f"wrappers installed on {len(swapped)} bindings", len(swapped) > 40))
    checks.append(("every binding restored", after == before))
    names = {rec[S.NAME].split(".")[0] for rec in tracer.spans}
    checks.append((f"spans recorded in layers {sorted(names)}", names == set(S.LAYERS)))
    for argv, p, t in zip(CLI_CASES, plain, traced):
        checks.append((f"hypbm {argv[0]}: traced output byte-identical", p == t and p[0] == 0))
    normals = sum(tracer.normals.values())
    checks.append((f"{normals} simulator normals counted while tracing", normals > 0))

    for wl in tiny_workloads(refs):
        _, rows = wl.run_pass()
        checks.append((f"{type(wl).__name__}: {len(rows)} rows pass their references", all(r.ok for r in rows)))
    for wl in tiny_workloads(perturbed(refs)):
        _, rows = wl.run_pass()
        checks.append((f"{type(wl).__name__}: perturbed references fail every row", not any(r.ok for r in rows)))

    # a CLI that batches its rows and never calls _sweep_one per row
    one, map_ordered = hypbm.cli._sweep_one, hypbm.cli._map_ordered
    hypbm.cli._map_ordered = lambda fn, jobs: [one(job) for job in jobs]
    try:
        wl = tiny_workloads(refs)[0]
        _, rows = wl.run_pass()
    finally:
        hypbm.cli._map_ordered = map_ordered
    checks.append(("Sweep: rows checked without per-row timing", len(rows) == 1 and rows[0].ok and len(wl.notes) == 1))

    # one recorded point that raises and one that misses
    known = run.load_known_defects()["points"]
    defect_points = ((8, 1.0, 0.001), (6, 1.0, 0.001))
    wl = run.KernelGrid(refs, 0, kernel_points=defect_points, tail_points=(), known=known)
    _, rows = wl.run_pass()
    checks.append(("KernelGrid: recorded defects fail as known", len(rows) == 2 and all(not r.ok and r.known for r in rows)))
    worse = {label: {"miss": rec["miss"] / 2} if "miss" in rec else {"miss": 0.0} for label, rec in known.items()}
    wl = run.KernelGrid(refs, 0, kernel_points=defect_points, tail_points=(), known=worse)
    _, rows = wl.run_pass()
    checks.append(("KernelGrid: defects worse than recorded are not known", len(rows) == 2 and not any(r.known for r in rows)))

    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
