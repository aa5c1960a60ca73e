"""Span recorder for the traced run.

``Tracer.install`` replaces every public function of the dnlsring modules,
and ``cli.main``, by a wrapper that records a span, in every module
namespace that holds the function (so calls between modules, such as
``blocks.full_spectrum_oracle`` calling ``model.hessian_V``, are seen as the
caller sees them).  ``numpy.linalg`` and ``numpy.fft`` functions are wrapped
too; their spans are named after the dnlsring module that called them
(``orbits.linalg``, ``blocks.linalg``, ``orbits.fft``, ...), and calls from
anywhere else pass through unrecorded.

Spans are kept in flat arrays (name, start, end, parent, run id) and written
once, at the end.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("model", "symmetry", "blocks", "classify", "orbits")
NUMPY_FUNCS = {
    "linalg": ("svd", "lstsq", "solve", "eig", "eigh", "eigvals", "eigvalsh",
               "norm", "qr", "inv", "det", "cholesky"),
    "fft": ("fft", "ifft", "rfft", "irfft", "fftfreq"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        # result-derived counters, per run id
        self.counters: dict[tuple[int, str], int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name_id, after=None):
        stack, perf = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.run.append(self.run_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                self.start[idx] = t0
                stack.pop()
            if after is not None:
                after(self, result)
            return result
        return wrapper

    def _wrap_numpy(self, fn, kind):
        recorded = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith("dnlsring."):
                return fn(*args, **kwargs)
            inner = recorded.get(caller)
            if inner is None:
                inner = recorded[caller] = self._wrap(
                    fn, self._id(f"{caller[len('dnlsring.'):]}.{kind}"))
            return inner(*args, **kwargs)
        return wrapper

    def count(self, key: str, amount: int) -> None:
        k = (self.run_id, key)
        self.counters[k] = self.counters.get(k, 0) + amount

    def install(self) -> None:
        import dnlsring
        from dnlsring import cli
        modules = [sys.modules[f"dnlsring.{m}"] for m in LAYERS]
        hooks = {
            "orbits.newton_orbit":
                lambda tr, res: tr.count("orbits.newton_orbit.iterations",
                                         res.newton_iterations),
            "orbits.continue_branch":
                lambda tr, res: tr.count("orbits.branch_points", len(res.points)),
        }
        wrappers = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    name = f"{short}.{attr}"
                    wrappers[id(fn)] = self._wrap(fn, self._id(name), hooks.get(name))
        wrappers[id(cli.main)] = self._wrap(cli.main, self._id("cli.main"))
        for mod in [dnlsring, cli, *modules]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and callable(value):
                    self._patch(mod, attr, wrappers[id(value)])
        for kind, funcs in NUMPY_FUNCS.items():
            mod = getattr(np, kind)
            for attr in funcs:
                self._patch(mod, attr, self._wrap_numpy(getattr(mod, attr), kind))

    def _patch(self, mod, attr, new):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._patched):
            setattr(mod, attr, old)
        self._patched.clear()

    def arrays(self):
        return tuple(np.array(a) for a in
                     (self.name, self.parent, self.run, self.start, self.end))

    def layer_stats(self, run_id: int) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) for one run id."""
        name, parent, run, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        sel = run == run_id
        calls = np.bincount(name[sel], minlength=len(self.names))
        total = np.bincount(name[sel], weights=dur[sel], minlength=len(self.names))
        selfs = np.bincount(name[sel], weights=own[sel], minlength=len(self.names))
        return {nm: (int(calls[i]), float(total[i]), float(selfs[i]))
                for i, nm in enumerate(self.names)}

    def save(self, path) -> None:
        name, parent, run, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            run=run, start=start, end=end)
