"""Record the kernel_grid points that hypbm gets wrong, as known defects.

    python3 perfbench/known_defects.py     # from the repo root; about ten seconds

Evaluates every kernel_grid point once against refs.json and writes
known_defects.json: for each point outside its tolerance, the exception type
it raised or its miss. run.py counts these points as failed on every pass, so
they lower pass_frac and show in the result's `failed`; the run stays
`correct` while each of them raises the recorded exception type, or misses by
no more than KNOWN_MISS_SLACK times the recorded miss. Any other failure, and
any of these points failing worse, makes the run incorrect.

Rerun it only where a change fixes points (a fixed point drops out of the
file); never to absorb a point that a change broke.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402


def main() -> int:
    refs = json.loads((HERE / "refs.json").read_text())
    wl = run.KernelGrid(refs, 0, known={})
    wl.bind()
    points = {}
    for kind, p in wl.ops():
        val, exc = wl.call(kind, p)
        if exc is not None:
            points[wl.label(kind, p)] = {"raises": type(exc).__name__, "message": str(exc)}
            continue
        ref, tol = wl.reference(kind, p)
        miss = abs(val - ref)
        if miss > tol:
            points[wl.label(kind, p)] = {"miss": miss, "tol": tol}
    out = {
        "meta": {"what": "kernel_grid points outside their refs.json tolerance, as written by known_defects.py"},
        "points": points,
    }
    (HERE / "known_defects.json").write_text(json.dumps(out, indent=1) + "\n")
    for label, rec in points.items():
        print(label, rec)
    print(f"{len(points)} known defects of {len(wl.ops())} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
