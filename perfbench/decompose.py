"""decompose-grid and decompose-climate: cold default-path ``min_max_partition``.

Each cell of the workload comes in ``instances_per_cell(seconds)`` instances
built from the seed (three at 20 s).  Set-up builds them all and runs one
discarded warm-up decompose, three times over; ``setup_s`` is the one-time
part (imports and the compiled FM loop load, timed from process start) plus
the median set-up.  The timed phase runs every instance once, in a fixed
order, each call after ``reset_solver_state()`` so it does the cold work a
fresh process would.  A cell's time is the median over its instances, so one
run averages over several inputs of each shape.  Every partition goes
through the independent checker.  Every time is scaled to nominal machine
speed by the reference samples taken around it (see ``speed.py``).
"""

from __future__ import annotations

import resource
import statistics
from time import perf_counter

import numpy as np

import check
import inputs
import speed
import tracing

SETUP_REPEATS = 3
#: instances per cell per second of ``--seconds``: three at 20 s, whose
#: cold calls take 15–25 s here
INSTANCES_PER_S = 0.15


def instances_per_cell(seconds: float) -> int:
    """At least three, so a cell's median stands one slow instance."""
    return max(3, round(INSTANCES_PER_S * seconds))


def run(workload: str, seed: int, seconds: float, trace: bool, t_start: float) -> dict:
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    # imported after install, so build_instance is the traced one
    from repro.core import min_max_partition
    from repro.core._bucketc import load_bucket_loop
    from repro.runtime.instances import build_instance
    from repro.separators import reset_solver_state, solver_stats

    c_loop = load_bucket_loop() is not None
    one_time = perf_counter() - t_start
    ref = speed.Reference()
    before = ref.sample()
    one_time = speed.scaled(one_time, before, before)

    cells = inputs.DECOMPOSE_CELLS[workload]
    per_cell = instances_per_cell(seconds)
    # (cell index, scenario) in the fixed order of the timed phase
    order = [(i, inputs.decompose_scenario(f, s, k, seed * per_cell + j))
             for j in range(per_cell) for i, (f, s, k) in enumerate(cells)]
    warm_f, warm_s, warm_k = inputs.WARMUP_CELL[workload]
    warm_sc = inputs.decompose_scenario(warm_f, warm_s, warm_k, seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        instances = [build_instance(sc) for _, sc in order]
        if tracer is not None:
            tracer.active = False
        warm = build_instance(warm_sc)
        reset_solver_state()
        min_max_partition(warm.graph, warm_k, warm.weights)
        if tracer is not None:
            tracer.active = True
        dt = perf_counter() - t0
        after = ref.sample()
        setups.append(speed.scaled(dt, before, after))
        before = after
    setup_s = one_time + statistics.median(setups)
    if tracer is not None:
        setup_builds = tracing.rollup(tracer.spans).get("graphs.build_instance", {"self": 0.0})
        tracer.spans.clear()
        call = tracer.span("bench.decompose", min_max_partition)
    else:
        call = min_max_partition

    times = [[] for _ in cells]  # scaled to nominal speed
    raw_times = [[] for _ in cells]
    ratios = []
    solver = {"solves": 0, "warm_starts": 0, "fallbacks": 0, "cache_hits": 0, "cache_misses": 0}
    failed = 0
    for (i, sc), inst in zip(order, instances):
        g = inst.graph
        reset_solver_state()
        t0 = perf_counter()
        try:
            res = call(g, sc.k, inst.weights)
        except Exception as exc:  # noqa: BLE001 — counted; the run fails below
            failed += 1
            print(f"# failed: {sc.spec()}: {type(exc).__name__}: {exc}")
            continue
        dt = perf_counter() - t0
        after = ref.sample()
        raw_times[i].append(dt)
        times[i].append(speed.scaled(dt, before, after))
        before = after
        stats = solver_stats()
        for key in ("solves", "warm_starts", "fallbacks"):
            solver[key] += stats["counters"][key]
        if stats["cache"] is not None:
            solver["cache_hits"] += stats["cache"]["hits"]
            solver["cache_misses"] += stats["cache"]["misses"]
        if tracer is not None:
            tracer.active = False
        got = check.check_partition(g.n, g.edges, g.costs, inst.weights, np.asarray(res.labels),
                                    sc.k, reported_max_boundary=res.max_boundary(g))
        ratios.append(got["bound_ratio"])
        if tracer is not None:
            tracer.active = True
    if failed:
        raise check.CheckError(f"{failed} of {len(order)} decompositions failed")

    medians = [statistics.median(t) for t in times]
    out = {
        "attempted": len(order),
        "failed": failed,
        "metrics": {
            "setup_s": setup_s,
            "decompose_s": sum(medians),
            "bound_ratio": check.geomean(ratios),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # the last cell is the workload's slowest
            "request_p50_ms": 1000.0 * medians[-1],
        },
        "notes": {
            "cells": [f"{f} {s} k={k}: median {statistics.median(t):.3f} s scaled, "
                      f"{statistics.median(r):.3f} s raw; calls "
                      + ", ".join(f"{x:.2f}" for x in t) + " s scaled"
                      for (f, s, k), t, r in zip(cells, times, raw_times)],
            "reference": f"median sample {1000 * statistics.median(ref.samples):.2f} ms "
                         f"(nominal {1000 * speed.REFERENCE_S:.0f} ms)",
        },
    }
    if tracer is not None:
        roll = tracing.rollup(tracer.spans)
        layers = [n for n in roll if n not in ("actions", "bench.decompose")]
        traced = roll["bench.decompose"]["total"]
        out["layers"] = {
            **tracing.span_figures(roll),
            "graphs.build_instance_s": setup_builds["self"] / SETUP_REPEATS,
            "separators.solves": solver["solves"],
            "separators.warm_starts": solver["warm_starts"],
            "separators.warm_start_ratio": (solver["warm_starts"] / solver["solves"]
                                            if solver["solves"] else 0.0),
            "separators.solve_cache_hits": solver["cache_hits"],
            "separators.solve_cache_misses": solver["cache_misses"],
            "separators.eigsh_fallbacks": solver["fallbacks"],
            "core.kernel_c_loop": 1 if c_loop else 0,
            "trace.accounted_share": sum(roll[n]["self"] for n in layers) / traced,
            "trace.reference_ms": 1000.0 * statistics.median(ref.samples),
        }
    return out
