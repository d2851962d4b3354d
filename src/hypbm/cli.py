"""Command-line interface.

Subcommands: kernel, density, tail, sweep, simulate, verify. Results go to
stdout or --out as CSV (default) or JSON; numeric formatting uses shortest
round-trip decimals, so identical configurations produce byte-identical
files. Exit codes: 0 success, 1 numerical failure, 2 invalid arguments.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import re
import sys
from dataclasses import replace
from decimal import Decimal, InvalidOperation
from typing import Sequence

from . import __version__
from .discrepancy import sup_discrepancy
from .kernels import Dimension, KernelError, _log_kernel
from .quadrature import DEFAULT_SPEC, QuadratureError, QuadratureSpec
from .sim import SimulationConfig, empirical_tail, simulate_radial
from .tails import _radial_density, tail
from .verify import SUITES


# the most points a range flag may list
_MAX_POINTS = 10**6


def _check_count(count: int, text: str) -> None:
    """Reject a range flag's point count before its list is built."""
    if count > _MAX_POINTS:
        raise argparse.ArgumentTypeError(f"{text!r} gives more than {_MAX_POINTS} points")


def _parse_dims(text: str) -> list[int]:
    """Comma lists and lo..hi ranges: "2,3", "2..7", "2,5..7"."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = (int(v) for v in part.split("..", 1))
        else:
            lo = hi = int(part)
        _check_count(len(out) + hi - lo + 1, text)
        out.extend(range(lo, hi + 1))
    if not out:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return out


def _parse_floats(text: str) -> list[float]:
    out = [float(p) for p in text.split(",") if p.strip()]
    if not out:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return out


def _parse_log_range(text: str) -> list[float]:
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected lo:hi:count, got {text!r}") from exc
    if not (lo > 0 and hi > lo and count >= 2):
        raise argparse.ArgumentTypeError(f"need 0 < lo < hi and count >= 2, got {text!r}")
    _check_count(count, text)
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio**i for i in range(count)]


def _parse_x_range(text: str) -> list[float]:
    """lo + i*step up to hi, in exact decimal arithmetic on the given digits."""
    try:
        lo, hi, step = (Decimal(part) for part in text.split(":"))
    except (ValueError, InvalidOperation) as exc:
        raise argparse.ArgumentTypeError(f"expected lo:hi:step, got {text!r}") from exc
    if not all(v.is_finite() for v in (lo, hi, step)) or not (step > 0 and hi >= lo):
        raise argparse.ArgumentTypeError(f"need finite values, step > 0 and hi >= lo, got {text!r}")
    try:
        count = int((hi - lo) // step) + 1
    except InvalidOperation as exc:  # a quotient of more digits than the decimal context holds
        raise argparse.ArgumentTypeError(f"{text!r} gives more than {_MAX_POINTS} points") from exc
    _check_count(count, text)
    return [float(lo + i * step) for i in range(count)]


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_rows(columns: list[str], rows: list[dict], args) -> None:
    if args.format == "json":
        payload = {
            "meta": {"tool": "hypbm", "version": __version__, "config": _config_echo(args)},
            "rows": rows,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_echo(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _spec_from(args) -> QuadratureSpec:
    spec = DEFAULT_SPEC
    if getattr(args, "abs_tol", None) is not None:
        spec = replace(spec, abs_tol=args.abs_tol)
    if getattr(args, "rel_tol", None) is not None:
        spec = replace(spec, rel_tol=args.rel_tol)
    return spec


def _map_ordered(fn, jobs: list) -> list:
    """The sweep's rows, one fn call per job, in order."""
    return [fn(job) for job in jobs]


def _cmd_kernel(args) -> int:
    spec = _spec_from(args)
    rows = []
    for d in args.d:
        for t in args.t:
            log_q = _log_kernel(Dimension(d).d, t, args.r, spec).tolist()
            # math.exp raises OverflowError where q leaves the double range
            rows.extend({"d": d, "t": t, "r": r, "q": math.exp(lg), "log_q": lg} for r, lg in zip(args.r, log_q))
    _write_rows(["d", "t", "r", "q", "log_q"], rows, args)
    return 0


def _cmd_density(args) -> int:
    spec = _spec_from(args)
    rows = []
    for d in args.d:
        for t in args.t:
            rho = _radial_density(Dimension(d).d, t, args.r, spec).tolist()
            rows.extend({"d": d, "t": t, "r": r, "density": v} for r, v in zip(args.r, rho))
    _write_rows(["d", "t", "r", "density"], rows, args)
    return 0


def _cmd_tail(args) -> int:
    spec = _spec_from(args)
    rows = []
    for d in args.d:
        for t in args.t:
            est = tail(Dimension(d), t, args.x, spec)
            for x, value, err in zip(args.x, est.value.tolist(), est.error_estimate.tolist()):
                rows.append({"d": d, "t": t, "x": x, "value": value, "error_estimate": err, "method": est.method})
    _write_rows(["d", "t", "x", "value", "error_estimate", "method"], rows, args)
    return 0


def _sweep_one(job):
    d, t, spec = job
    res = sup_discrepancy(Dimension(d), t, spec)
    return {"d": d, "t": t, "delta": res.delta, "argmax_x": res.argmax_x, "evaluations": res.evaluations}


def _cmd_sweep(args) -> int:
    spec = _spec_from(args)
    jobs = [(d, t, spec) for d in args.d for t in args.t]
    rows = _map_ordered(_sweep_one, jobs)
    _write_rows(["d", "t", "delta", "argmax_x", "evaluations"], rows, args)
    return 0


def _cmd_simulate(args) -> int:
    rows = []
    for d in args.d:
        for t in args.t:
            cfg = SimulationConfig(d=d, t=t, paths=args.paths, seed=args.seed, step=args.step, r0=args.r0)
            samples = simulate_radial(cfg)
            for x in args.x:
                est = empirical_tail(samples, d, t, x)
                rows.append(
                    {
                        "d": d,
                        "t": t,
                        "x": x,
                        "estimate": est.estimate,
                        "standard_error": est.standard_error,
                        "paths": est.paths,
                        "seed": args.seed,
                    }
                )
    _write_rows(["d", "t", "x", "estimate", "standard_error", "paths", "seed"], rows, args)
    return 0


def _cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    # --d, --t and --x set the suite's ds, ts and xs, where its signature has them
    kwargs = {f"{o}s": getattr(args, o) for o in "dtx" if getattr(args, o) is not None}
    for name in kwargs:
        if name not in inspect.signature(suite).parameters:
            raise ValueError(f"verify {args.suite} takes no --{name[:-1]}")
    results = suite(**kwargs)
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        all_ok &= res.passed
    return 0 if all_ok else 1


# let values like "-1,0,1" or "-3" pass as option arguments, not flags
_NEGATIVE_VALUE = re.compile(r"^-(\d|\.\d)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads _NEGATIVE_VALUE as a value; add_subparsers
    makes each subparser of the parser's own class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypbm",
        description="Heat kernels, radial tails, and Gaussian-fluctuation rate "
        "experiments for Brownian motion on hyperbolic spaces.",
    )
    parser.add_argument("--version", action="version", version=f"hypbm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    # the kernels test their integral by rel_tol alone; only the tails read abs_tol
    def rel_tol_arg(p):
        p.add_argument("--rel-tol", dest="rel_tol", type=float)

    def tol_args(p):
        p.add_argument("--abs-tol", dest="abs_tol", type=float)
        rel_tol_arg(p)

    def t_args(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--t", type=_parse_floats)
        g.add_argument("--t-log-range", dest="t_log_range", type=_parse_log_range)

    def x_args(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--x", type=_parse_floats)
        g.add_argument("--x-range", dest="x_range", type=_parse_x_range)

    p = sub.add_parser("kernel", help="evaluate q_d(t, r)")
    p.add_argument("--d", type=_parse_dims, required=True)
    t_args(p)
    p.add_argument("--r", type=_parse_floats, required=True)
    common_io(p)
    rel_tol_arg(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("density", help="evaluate the radial density")
    p.add_argument("--d", type=_parse_dims, required=True)
    t_args(p)
    p.add_argument("--r", type=_parse_floats, required=True)
    common_io(p)
    rel_tol_arg(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("tail", help="normalized-fluctuation tail probability")
    p.add_argument("--d", type=_parse_dims, required=True)
    t_args(p)
    x_args(p)
    common_io(p)
    tol_args(p)
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("sweep", help="sup-discrepancy curve over t")
    p.add_argument("--d", type=_parse_dims, required=True)
    t_args(p)
    common_io(p)
    tol_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo empirical tails")
    p.add_argument("--d", type=_parse_dims, required=True)
    t_args(p)
    x_args(p)
    p.add_argument("--paths", type=int, default=100000)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r0", type=float, default=1e-3)
    common_io(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--d", type=_parse_dims)
    p.add_argument("--t", type=_parse_floats)
    p.add_argument("--x", type=_parse_floats)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "t_log_range", None) is not None:
        args.t = args.t_log_range
    if getattr(args, "x_range", None) is not None:
        args.x = args.x_range
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"hypbm: invalid argument: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, KernelError, OverflowError) as exc:
        # OverflowError: a result, such as q_d at t near 0, beyond the double range
        print(f"hypbm: numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
