"""Span tracing installed from outside the program.

Tracer.installed() wraps every public function of the traced hypbm modules
and rebinds each name that refers to it, in its own module and in every
hypbm module that imported it with `from .x import y`; leaving the block
puts every original back. Each call records one span

    [name, start, end, parent index, run id, note, error]

in memory. The runner advances the run id before each operation, so the
spans of one operation share it. `note` holds what the metrics need from
the arguments or the result (the dimension of a kernel call, the evaluations
of a quadrature); `error` is set on the span whose call raised the exception
first, so an error propagating through several spans is counted once.

While installed, hypbm.sim also sees numpy through a proxy that counts the
normals each of its generators draws, by the innermost open span and by the
shape of the draw, so the simulator's metrics rest on the draws it makes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Iterator

LAYERS = ("quadrature", "calculus", "kernels", "tails", "discrepancy", "sim", "cli")

NAME, START, END, PARENT, RUN, NOTE, ERROR = range(7)


def _dim(d) -> int:
    return d.d if hasattr(d, "d") else int(d)


def _d_note(args, kwargs) -> int:
    return _dim(args[0] if args else kwargs["d"])


def _cfg_note(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    steps = max(1, math.ceil(cfg.t / cfg.step - 1e-9))
    return (cfg.paths, steps)


def _tail_even_note(args, kwargs):
    d, t, x = (list(args) + [None] * 3)[:3]
    d = _dim(kwargs.get("d", d))
    t = kwargs.get("t", t)
    x = kwargs.get("x", x)
    return (d, x <= -0.5 * (d - 1) * math.sqrt(t))


# span name -> (note from the arguments, note from the result); either may be None
NOTES: dict[str, tuple[Callable | None, Callable | None]] = {
    "kernels.heat_kernel": (_d_note, None),
    "tails.tail": (_d_note, None),
    "tails.tail_even": (_tail_even_note, None),
    "discrepancy.sup_discrepancy": (_d_note, lambda out: out.evaluations),
    "quadrature.integrate_adaptive": (None, lambda out: out.evaluations),
    "sim.simulate_radial": (_cfg_note, None),
    "sim.simulate_radial_pair": (_cfg_note, None),
}


def public_functions(module) -> dict[str, Callable]:
    """Public functions defined in `module`, lru_cache wrappers included."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            out[name] = obj
    return out


class _Delegate:
    """Forwards attribute access to `target`, except for the given overrides."""

    def __init__(self, target, **overrides) -> None:
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        # normals drawn by hypbm.sim: span index (-1 outside any span) -> count,
        # and the shape of each draw -> number of draws of that shape
        self.normals: Counter = Counter()
        self.draw_shapes: Counter = Counter()

    def _counting_numpy(self, np):
        """numpy as hypbm.sim should see it while tracing: the same module,
        but every Generator it makes counts its standard_normal draws."""
        stack, normals, shapes = self._stack, self.normals, self.draw_shapes

        def counted(gen):
            def standard_normal(*args, **kwargs):
                out = gen.standard_normal(*args, **kwargs)
                normals[stack[-1] if stack else -1] += int(np.size(out))
                shapes[tuple(np.shape(out))] += 1
                return out

            return _Delegate(gen, standard_normal=standard_normal)

        random = _Delegate(np.random, Generator=lambda *a, **k: counted(np.random.Generator(*a, **k)))
        return _Delegate(np, random=random)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        pre, post = NOTES.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None, None]
            if pre is not None:
                rec[NOTE] = pre(args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[END] = perf_counter()
                if not getattr(exc, "_perfbench_seen", False):
                    rec[ERROR] = f"{type(exc).__name__}: {exc}"
                    with contextlib.suppress(AttributeError):
                        exc._perfbench_seen = True
                raise
            finally:
                stack.pop()
            rec[END] = perf_counter()
            if post is not None:
                rec[NOTE] = (rec[NOTE], post(out)) if pre is not None else post(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"hypbm.{layer}")
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        saved = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hypbm" and not mod_name.startswith("hypbm."):
                continue
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    saved.append((module, attr, val))
                    setattr(module, attr, hit[1])
        sim = sys.modules["hypbm.sim"]
        np = getattr(sim, "np", None)
        if np is not None and getattr(np, "__name__", None) == "numpy":
            saved.append((sim, "np", np))
            sim.np = self._counting_numpy(np)
        try:
            yield self
        finally:
            for module, attr, val in saved:
                setattr(module, attr, val)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def write_csv(spans: list[list], path) -> None:
    with open(path, "w") as fh:
        fh.write("index,name,start,end,parent,run_id,error\n")
        for i, rec in enumerate(spans):
            err = (rec[ERROR] or "").replace(",", ";").replace("\n", " ")
            fh.write(f"{i},{rec[NAME]},{rec[START]!r},{rec[END]!r},{rec[PARENT]},{rec[RUN]},{err}\n")
