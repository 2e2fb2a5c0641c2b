"""In-memory span tracer that wraps flrwave's public functions from outside.

The package's modules call each other through module attributes and module
globals (``cli`` calls ``pde.run``, ``pde.run`` calls ``step``,
``lifespan_sweep`` maps ``run`` over a thread pool, ``bounds`` calls the
``fujita``/``p_c`` it imported from ``exponents``), so swapping those names
for wrappers sees every call without changing a byte of the package.

A call becomes a span when it crosses a layer boundary (the caller's
innermost open span on this thread belongs to another layer, or there is
none), or when its function is named in ``ALWAYS_SPAN`` because a per-layer
metric needs its timing although it is called from inside its own layer.
Other calls inside a layer pass straight through, which keeps the overhead
of the per-cell closed-form calls bounded.

Each thread appends its spans to its own column arrays, so no lock is held
on the hot path; the columns are joined when the pass ends.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("cli", "exponents", "bounds", "kato", "blowup_ode", "pde", "artifacts")

# Called from inside their own layer, yet timed one by one.
DIAGNOSTICS = (
    "pde.integral_dx",
    "pde.integral_abs_p",
    "pde.support_radius",
    "pde.support_check",
    "pde.holder_check",
    "pde.f_monotone_check",
)
ALWAYS_SPAN = frozenset({"pde.run", "pde.step", "blowup_ode.integrate", *DIAGNOSTICS})
# Spans whose thread CPU time is read (time.thread_time costs ~0.5 us a call).
BUSY_SPANS = frozenset({"pde.run", "blowup_ode.integrate"})


def _step_counts(counts, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    counts["pde.cell_updates"] += result.u_curr.shape[0]
    # Interface traffic only: the two levels read and the level written.
    # numpy temporaries are not counted, and these grids fit in L2.
    counts["pde.bytes_moved_computed"] += (
        state.u_prev.nbytes + state.u_curr.nbytes + result.u_curr.nbytes
    )


def _integrate_counts(counts, args, kwargs, result):
    counts["blowup_ode.steps"] += max(result.t.size - 1, 0)  # accepted steps


def _map_counts(counts, args, kwargs, result):
    counts["bounds.cells"] += len(result.axis1.values()) * len(result.axis2.values())


HOOKS = {
    "pde.step": _step_counts,
    "blowup_ode.integrate": _integrate_counts,
    "bounds.region_map_model": _map_counts,
    "bounds.region_map_flrw": _map_counts,
}


class _ThreadLog:
    """Span columns of one thread; ``stack`` holds (span index, layer id)."""

    def __init__(self):
        self.stack = []
        self.name = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.counts = {
            "pde.cell_updates": 0,
            "pde.bytes_moved_computed": 0,
            "blowup_ode.steps": 0,
            "bounds.cells": 0,
        }


class Tracer:
    """Records spans of the flrwave calls made while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self.cmd = -1  # index of the CLI command in flight; set by the caller
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._restore: list[tuple] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._logs_lock:
                self._logs.append(log)
        return log

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that its calls are recorded as ``name``."""
        layer = LAYERS.index(name.split(".", 1)[0])
        nid = len(self.names)
        self.names.append(name)
        always = name in ALWAYS_SPAN
        busy = name in BUSY_SPANS
        hook = HOOKS.get(name)
        clock = time.perf_counter
        thread_clock = time.thread_time

        def traced(*args, **kwargs):
            log = self._log()
            stack = log.stack
            if not always and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            idx = len(log.name)
            log.name.append(nid)
            log.parent.append(stack[-1][0] if stack else -1)
            log.cmd.append(self.cmd)
            log.start.append(0.0)
            log.end.append(0.0)
            log.busy.append(0.0)
            stack.append((idx, layer))
            b0 = thread_clock() if busy else 0.0
            log.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[idx] = clock()
                if busy:
                    log.busy[idx] = thread_clock() - b0
                stack.pop()
            if hook is not None:
                hook(log.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Swap every reference to a layer's public functions, in every
        flrwave module, for its wrapper."""
        wrappers = {}
        for layer in LAYERS[1:]:
            module = sys.modules[f"flrwave.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self.wrap(fn, f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "flrwave" and not mod_name.startswith("flrwave."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def table(self) -> dict:
        """All spans as numpy columns; ``parent`` indexes the joined table."""
        parts = {key: [] for key in ("name", "parent", "cmd", "start", "end", "busy", "thread")}
        offset = 0
        for thread, log in enumerate(self._logs):
            parent = np.array(log.parent, dtype=np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for key in ("name", "cmd", "start", "end", "busy"):
                parts[key].append(np.array(getattr(log, key)))
            parts["thread"].append(np.full(len(log.name), thread))
            offset += len(log.name)
        cols = {key: np.concatenate(value) for key, value in parts.items()}
        cols["dur"] = cols["end"] - cols["start"]
        covered = np.zeros(offset)
        child = cols["parent"] >= 0
        np.add.at(covered, cols["parent"][child], cols["dur"][child])
        cols["self"] = cols["dur"] - covered
        return cols

    def counts(self) -> dict:
        total: dict = {}
        for log in self._logs:
            for key, value in log.counts.items():
                total[key] = total.get(key, 0) + value
        return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, from its spans and counts.

    Busy time is thread CPU time inside a span, wait time its wall time
    minus busy time, self time its duration minus what its child spans on
    the same thread cover.  ``<layer>.calls`` counts calls into the layer
    from outside it.
    """
    cols = tracer.table()
    names = np.array(tracer.names)[cols["name"]]
    layers = np.array([name.split(".", 1)[0] for name in names])
    counts = tracer.counts()

    def total(mask, key="dur"):
        return float(cols[key][mask].sum())

    def threads(mask):
        # distinct threads per CLI command, so pools of successive commands
        # are not added up
        seen = {}
        for cmd, thread in zip(cols["cmd"][mask], cols["thread"][mask]):
            seen.setdefault(cmd, set()).add(thread)
        return max((len(s) for s in seen.values()), default=0)

    def per(value, count, scale):
        return value / count * scale if count else 0.0

    bounds = layers == "bounds"
    runs = names == "pde.run"
    steps = names == "pde.step"
    integrate = names == "blowup_ode.integrate"
    step_s = total(steps)
    integrate_s = total(integrate)
    return {
        "bounds.cells": counts["bounds.cells"],
        "bounds.self_s": total(bounds, "self"),
        "bounds.us_per_cell": per(total(bounds), counts["bounds.cells"], 1e6),
        "exponents.calls": int(np.count_nonzero(layers == "exponents")),
        "exponents.self_s": total(layers == "exponents", "self"),
        "artifacts.self_s": total(layers == "artifacts", "self"),
        "pde.wait_s": total(runs) - total(runs, "busy"),
        "pde.busy_s": total(runs, "busy"),
        "pde.threads": threads(runs),
        "pde.runs": int(np.count_nonzero(runs)),
        "pde.steps": int(np.count_nonzero(steps)),
        "pde.cell_updates": counts["pde.cell_updates"],
        "pde.us_per_step": per(step_s, np.count_nonzero(steps), 1e6),
        "pde.ns_per_cell_update": per(step_s, counts["pde.cell_updates"], 1e9),
        "pde.bytes_moved_computed": counts["pde.bytes_moved_computed"],
        "pde.diagnostics_s": total(np.isin(names, DIAGNOSTICS)),
        "blowup_ode.runs": int(np.count_nonzero(integrate)),
        "blowup_ode.steps": counts["blowup_ode.steps"],
        "blowup_ode.us_per_step": per(integrate_s, counts["blowup_ode.steps"], 1e6),
        "blowup_ode.busy_s": total(integrate, "busy"),
        "blowup_ode.wait_s": integrate_s - total(integrate, "busy"),
        "blowup_ode.threads": threads(integrate),
        "kato.calls": int(np.count_nonzero(layers == "kato")),
        "kato.self_s": total(layers == "kato", "self"),
        "cli.self_s": total(layers == "cli", "self"),
    }
