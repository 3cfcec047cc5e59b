"""Spans around the program's public functions, taken from outside.

:func:`install` wraps the public functions that make up each layer
(``graphs``, ``separators``, ``core``, ``stream``, ``service``) so every call
records a span ``[name, start, end, parent, tag]`` in memory.  Spans are kept
in the process until it ends; :meth:`Tracer.dump` writes them as JSON.  Self
time is a span's duration minus the time its direct child spans cover.

The program is not edited: wrappers replace the functions on their modules
and classes, and every other module of the package that imported a function
by name (``from .x import f``) or stores it in a dict (the kernel registry)
gets the wrapper too.  ``perf_counter`` reads ``CLOCK_MONOTONIC``, so spans
written by the server and shard processes share the client's clock and are
windowed to the client's timed phase.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
from time import perf_counter

#: (span name, module, attribute) — ``attribute`` may be ``Class.method``.
#: ``split`` methods are found on every class of the separators package that
#: defines one (see :func:`_split_targets`).
TARGETS = [
    ("graphs.build_instance", "repro.runtime.instances", "build_instance"),
    ("graphs.subgraph", "repro.graphs.graph", "Graph.subgraph"),
    ("graphs.bfs_levels", "repro.graphs.components", "bfs_levels"),
    ("graphs.patch_graph", "repro.graphs.incremental", "patch_graph"),
    ("separators.fiedler", "repro.separators.orders", "fiedler_vector"),
    ("separators.sweep_split", "repro.separators.orders", "sweep_split"),
    ("core.prop7", "repro.core.boundary_balance", "boundary_balanced_coloring"),
    ("core.prop11", "repro.core.strictify", "improve_balance"),
    ("core.prop12", "repro.core.binpack", "binpack_strict"),
    ("core.refine", "repro.core.refine", "kway_refine"),
    # a pair pass enters through one of the two public kernels and runs one
    # of three inner passes: the bucket loop, or a gain-table heap pass
    # (non-integral costs, oversized bucket tables, sparse streaming halos)
    ("core.kernel_pass", "repro.core.kernels", "fm_pair_pass_bucket"),
    ("core.kernel_pass", "repro.core.kernels", "fm_pair_pass"),
    ("core.kernel_bucket", "repro.core.kernels", "_bucket_dense_pass"),
    ("core.kernel_gaintable", "repro.core.kernels", "_dense_pass"),
    ("core.kernel_gaintable", "repro.core.kernels", "_restricted_pass"),
    ("stream.apply", "repro.stream.mutations", "GraphState.apply"),
    ("stream.repair", "repro.stream.repair", "restore_window"),
    ("stream.repair", "repro.stream.repair", "local_repair"),
    ("stream.repair", "repro.stream.repair", "seed_new_vertices"),
    ("stream.step", "repro.stream.session", "StreamSession.step"),
    ("stream.journal_append", "repro.stream.journal", "JournalStore.append"),
    ("stream.journal_sync", "repro.stream.journal", "JournalStore.sync_session"),
    ("service.shard_call", "repro.service.shards", "ShardPool.submit_batch"),
    ("service.shard_call", "repro.service.shards", "ShardPool.submit_session"),
    ("service.shard_compute", "repro.service.shards", "shard_run"),
    ("service.shard_compute", "repro.service.sessions", "session_call"),
]

#: every span of a pair pass (entry point and inner pass)
KERNEL_SPANS = ("core.kernel_pass", "core.kernel_bucket", "core.kernel_gaintable")

#: modules whose classes' own ``split`` methods are the oracle layer
SPLIT_MODULES = ("repro.separators.oracles", "repro.separators.grid",
                 "repro.separators.conversion")

#: spans whose return value carries a tag worth keeping (the step action)
TAGGERS = {"stream.step": lambda out: out.get("action") if isinstance(out, dict) else None}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()  # one span stack per thread
        self._lock = threading.Lock()  # spans index = list position
        self.active = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, tag=None):
        """Wrap a plain function so each call records a nested span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if tag is not None:
                    rec[4] = tag(out)
                return out
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def async_span(self, name: str, fn):
        """Wrap a coroutine function; its span has no parent or children
        (other tasks run while it awaits, so nesting would be wrong)."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not self.active:
                return await fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.spans.append([name, t0, perf_counter(), -2, None])

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh)


def _resolve(module: str, attr: str):
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, meth, cls.__dict__[meth]
    return mod, attr, getattr(mod, attr)


def _split_targets():
    for module in SPLIT_MODULES:
        mod = importlib.import_module(module)
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if cls.__module__ == module and "split" in cls.__dict__:
                yield cls, "split", cls.__dict__["split"]


def _rebind(original, wrapper) -> None:
    """Point every loaded ``repro`` module attribute or module-level dict
    entry that holds ``original`` at ``wrapper``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        dict.__setitem__(value, dkey, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every target function once, in this process."""
    import repro.service  # noqa: F401 — load every layer before rebinding
    import repro.stream  # noqa: F401

    targets = [(name, *_resolve(module, attr)) for name, module, attr in TARGETS]
    targets += [("separators.split", *t) for t in _split_targets()]
    for name, owner, attr, original in targets:
        if inspect.iscoroutinefunction(original):
            wrapper = tracer.async_span(name, original)
        else:
            wrapper = tracer.span(name, original, TAGGERS.get(name))
        setattr(owner, attr, wrapper)
        if inspect.ismodule(owner):
            _rebind(original, wrapper)


# --- aggregation ---------------------------------------------------------
def rollup(spans: list[list], window: tuple[float, float] | None = None) -> dict:
    """``name -> {"calls", "total", "self"}`` over spans starting inside
    ``window`` (all spans when ``None``), plus ``"actions"`` tallies of
    tagged ``stream.step`` spans and their durations."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        parent = rec[3]
        if parent >= 0:
            child_time[parent] += rec[2] - rec[1]
    out: dict = {}
    actions: dict = {}
    for i, (name, t0, t1, _parent, tag) in enumerate(spans):
        if window is not None and not (window[0] <= t0 < window[1]):
            continue
        entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += t1 - t0
        entry["self"] += (t1 - t0) - child_time[i]
        if tag is not None:
            act = actions.setdefault(tag, {"calls": 0, "total": 0.0})
            act["calls"] += 1
            act["total"] += t1 - t0
    out["actions"] = actions
    return out


def span_figures(roll: dict) -> dict:
    """The per-layer figures read off a rollup — self seconds and call
    counts of the traced layers."""

    def self_s(name):
        return roll.get(name, {}).get("self", 0.0)

    def calls(name):
        return roll.get(name, {}).get("calls", 0)

    def total(name):
        return roll.get(name, {}).get("total", 0.0)

    actions = roll.get("actions", {})
    steps = sum(a["calls"] for a in actions.values())
    repairs = actions.get("repair", {}).get("calls", 0)
    return {
        "graphs.subgraph_calls": calls("graphs.subgraph"),
        "graphs.subgraph_s": self_s("graphs.subgraph"),
        "graphs.bfs_levels_calls": calls("graphs.bfs_levels"),
        "graphs.bfs_levels_s": self_s("graphs.bfs_levels"),
        "graphs.patch_graph_calls": calls("graphs.patch_graph"),
        "graphs.patch_graph_s": self_s("graphs.patch_graph"),
        "separators.split_calls": calls("separators.split"),
        "separators.split_s": self_s("separators.split"),
        "separators.fiedler_calls": calls("separators.fiedler"),
        "separators.fiedler_s": self_s("separators.fiedler"),
        "separators.sweep_split_s": self_s("separators.sweep_split"),
        "core.prop7_s": self_s("core.prop7"),
        "core.prop11_s": self_s("core.prop11"),
        "core.prop12_s": self_s("core.prop12"),
        "core.refine_s": self_s("core.refine"),
        "core.kernel_passes_bucket": calls("core.kernel_bucket"),
        "core.kernel_passes_gaintable": calls("core.kernel_gaintable"),
        "core.kernel_pass_s": sum(self_s(n) for n in KERNEL_SPANS),
        "stream.steps": steps,
        "stream.repairs": repairs,
        "stream.recomputes": steps - repairs,
        "stream.repair_ratio": repairs / steps if steps else 0.0,
        "stream.repair_s": self_s("stream.repair"),
        "stream.apply_s": self_s("stream.apply"),
        "stream.recompute_s": sum(a["total"] for act, a in actions.items()
                                  if act.startswith("recompute")),
        "stream.journal_append_s": self_s("stream.journal_append"),
        "stream.journal_syncs": calls("stream.journal_sync"),
        "service.shard_call_s": total("service.shard_call"),
        "service.shard_ipc_s": total("service.shard_call") - total("service.shard_compute"),
    }


def _add(dst: dict, src: dict) -> None:
    for key, entry in src.items():
        acc = dst.setdefault(key, dict.fromkeys(entry, 0))
        for k, v in entry.items():
            acc[k] += v


def load_dir(directory, window=None) -> dict:
    """Merge the span files every traced process wrote into ``directory``."""
    out: dict = {"actions": {}}
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as fh:
                roll = rollup(json.load(fh)["spans"], window)
            _add(out["actions"], roll.pop("actions"))
            _add(out, roll)
    return out
