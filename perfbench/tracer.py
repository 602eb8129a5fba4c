"""Span tracer that instruments qbcommit from outside the package.

The tracer never edits the package. It rebinds module attributes: every
public function defined in a layer module is replaced by a timing wrapper
in that module and in every other ``qbcommit`` module that imported the
name (``from .optimize import search_sphere`` binds a second reference in
``binding``; both are swapped). Objectives and polish callbacks handed to
the two search engines are wrapped on the way in, so their evaluations
become spans named after the module that built them.

Spans live in flat arrays (name id, parent index, job id, start, end) and
are written out once, after the traced pass. Counts that the package itself
reports -- finite-difference fallback notes, ``converged`` lists, winning
upper-bound routes -- are read from the objects the public calls return.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "fileio", "protocol", "linalg", "optimize", "binding", "concealment", "bounds")
FD_NOTE = "finite-difference fallback"
UPPER_ROUTES = (
    "choi_trace_norm",
    "kraus_gap_identity",
    "kraus_gap_aligned",
    "kraus_gap_supplied",
    "channel_pair_cap",
)


def _owner(fn) -> str:
    """Layer whose module defined ``fn`` (objectives are local closures)."""
    module = getattr(fn, "__module__", "") or ""
    layer = module.rsplit(".", 1)[-1]
    return layer if layer in LAYERS else "optimize"


class Tracer:
    """In-memory span recorder plus the counters read from solver traces."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.job_id = -1
        self.counts: Counter = Counter()
        self._saved: list = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def timed(self, name: str, fn):
        """``fn`` wrapped so that each call records one span called ``name``."""
        nid = self._name_id(name)
        names, parents, jobs, starts, ends = self.name, self.parent, self.job, self.start, self.end

        def wrapper(*args, **kwargs):
            parent = self.current
            idx = len(starts)
            names.append(nid)
            parents.append(parent)
            jobs.append(self.job_id)
            ends.append(0.0)
            self.current = idx
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                self.current = parent

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function hooks ----------------------------------------------

    def _search_sphere(self, fn):
        engines = {}

        def wrapper(fun_grad, *args, **kwargs):
            owner = _owner(fun_grad)
            engine = engines.get(owner)
            if engine is None:
                engine = engines[owner] = self.timed(f"optimize.search_sphere[{owner}]", fn)
            fun_grad = self.timed(f"{owner}.objective", fun_grad)
            if kwargs.get("polish") is not None:
                kwargs["polish"] = self.timed(f"{owner}.polish", kwargs["polish"])
            result = engine(fun_grad, *args, **kwargs)
            self.counts[f"{owner}.fd_fallbacks"] += sum(FD_NOTE in n for n in result.trace.notes)
            return result

        return wrapper

    def _ascend_params(self, fn):
        engines = {}

        def wrapper(fun_grad, *args, **kwargs):
            owner = _owner(fun_grad)
            engine = engines.get(owner)
            if engine is None:
                engine = engines[owner] = self.timed(f"optimize.ascend_params[{owner}]", fn)
            return engine(self.timed(f"{owner}.ascend_objective", fun_grad), *args, **kwargs)

        return wrapper

    def _restarts_hook(self, layer: str, fn, get_trace):
        """Outer-restart iterations and convergence from a returned SolverTrace."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            trace = get_trace(result)
            self.counts[f"{layer}.restarts"] += len(trace.converged)
            self.counts[f"{layer}.restart_iters"] += sum(trace.iterations)
            self.counts[f"{layer}.restarts_converged"] += sum(bool(c) for c in trace.converged)
            return result

        return wrapper

    def _cb_upper_bound(self, fn):
        def wrapper(*args, **kwargs):
            value, routes = fn(*args, **kwargs)
            for route, bound in routes.items():
                if bound == value:
                    self.counts[f"concealment.route_wins.{route}"] += 1
            return value, routes

        return wrapper

    def _instrument(self, layer: str, attr: str, fn):
        if (layer, attr) == ("optimize", "search_sphere"):
            return self._search_sphere(fn)
        if (layer, attr) == ("optimize", "ascend_params"):
            return self._ascend_params(fn)
        wrapped = self.timed(f"{layer}.{attr}", fn)
        if (layer, attr) == ("binding", "minimax_cheat"):
            return self._restarts_hook("binding", wrapped, lambda r: r.solver_trace)
        if (layer, attr) == ("bounds", "minimize_kraus_gap"):
            return self._restarts_hook("bounds", wrapped, lambda r: r.trace)
        if (layer, attr) == ("concealment", "cb_upper_bound"):
            return self._cb_upper_bound(wrapped)
        return wrapped

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Swap every public layer function for its wrapper, at every import site."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qbcommit.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == module.__name__:
                    wrappers[fn] = self._instrument(layer, attr, fn)
        sites = [m for n, m in sys.modules.items() if n == "qbcommit" or n.startswith("qbcommit.")]
        for module in sites:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    # -- reduction -------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path, meta: dict) -> None:
        """Write every span, plus the name table and ``meta``, to one .npz file."""
        np.savez(path, names=np.array(self.names), meta=np.array(json.dumps(meta)), **self.arrays())

    def summary(self):
        """Per-name (count, inclusive seconds), per-layer self seconds,
        seconds inside top-level spans, and the span count."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - child
        n = len(self.names)
        counts = np.bincount(a["name"], minlength=n)
        totals = np.bincount(a["name"], weights=dur, minlength=n)
        selfs = np.bincount(a["name"], weights=self_time, minlength=n)
        per_name = {name: (int(counts[i]), float(totals[i])) for i, name in enumerate(self.names)}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.names):
            layer_self[name.split(".", 1)[0]] += float(selfs[i])
        top_level = float(dur[~nested].sum())
        return per_name, layer_self, top_level, int(dur.size)
