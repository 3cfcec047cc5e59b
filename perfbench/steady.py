"""Steadiness check: run each workload repeatedly and show the spread.

    python3 perfbench/steady.py [--runs 10] [--same-seed] [--trace]

Run from the repo root.  Every workload of ``BENCHMARK.json`` is run
``--runs`` times, each run ``run.py`` in a fresh process for
``run_seconds`` with its own seed 1, 2, ... (``--same-seed``: all with seed
1), one after another (never in parallel, which would perturb the timings).
For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``), the spread ``(Q3 − Q1) / median`` and the
metric's bound from ``BENCHMARK.json``; a spread above a third of the bound
is flagged.  It also prints each workload's share of failed operations.

With ``--trace`` every seed is run a second time with ``--trace 1``; the
per-layer medians are printed, together with the tracing overhead: the
median of each end-to-end figure of the traced runs minus that of the
untraced runs.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
_FIGURE = re.compile(r"^([A-Za-z0-9_.-]+) = (\S+)")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run; returns (last-line JSON, every ``name = value`` figure)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"steady: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    figures = {m.group(1): float(m.group(2)) for m in map(_FIGURE.match, lines) if m}
    return json.loads(lines[-1]), figures


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [1] * args.runs if args.same_seed else range(1, args.runs + 1)
    seconds = spec["run_seconds"]

    for workload in names:
        plain, traced = [], []
        for seed in seeds:
            plain.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in plain[-1][0]["metrics"].items()),
                  flush=True)
            if args.trace:
                traced.append(run_once(workload, seed, seconds, 1))
        shares = sorted({r["failed"] / r["attempted"] for r, _ in plain})
        print(f"\n{workload}: {len(plain)} runs, failed share {shares}")
        print(f"{'metric':<22}{'median':>14}{'Q1':>14}{'Q3':>14}{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r, _ in plain])
            flag = "" if sp < bound / 3 or name == "setup_s" else "  <- above bound/3"
            print(f"{name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{sp:>9.4f}{bound:>8}{flag}")
        if args.trace:
            print(f"\n{workload}: per-layer medians over {len(traced)} traced runs")
            for m in spec["per_layer"]:
                values = [r["metrics"][m["name"]]["value"] for r, _ in traced]
                exact = "  (identical in every run)" if len(set(values)) == 1 else ""
                print(f"  {m['name']:<36}{statistics.median(values):>16.6g} {m['unit']}{exact}")
            print(f"\n{workload}: tracing overhead (traced median - untraced median)")
            for name in bounds:
                off = statistics.median(f[name] for _, f in plain)
                on = statistics.median(f[name] for _, f in traced)
                print(f"  {name:<22}{on - off:>+14.6g} ({(on - off) / off:+.1%})")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
