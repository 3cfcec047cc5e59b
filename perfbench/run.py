"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each run is one fresh process (plus,
for ``serve-mixed``, the server and its shard worker).  It prints one line
per figure it measured, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are every
``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0`` and every
``per_layer`` metric with ``--trace 1``.  It exits non-zero, without that
line, when the program's source is missing or a check fails.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402 — process start is timed before anything loads
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
WORKLOADS = ("decompose-grid", "decompose-climate", "serve-mixed")


def _environment() -> None:
    """Single-threaded BLAS, program source on the path, and every cache the
    program writes (the compiled FM loop) kept inside the checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'repro'}; run from the repo root")
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["XDG_CACHE_HOME"] = str(build / "cache")
    os.environ["PYTHONPATH"] = str(src)
    sys.path[:0] = [str(src), str(HERE)]


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _environment()
    spec = _spec()

    if args.workload == "serve-mixed":
        import serve as workload
    else:
        import decompose as workload
    try:
        result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), T_START)
    except AssertionError as exc:  # check.CheckError and the serve checks
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1

    import numpy
    import scipy
    from repro.core._bucketc import load_bucket_loop

    result.setdefault("notes", {})["fingerprint"] = (
        f"numpy {numpy.__version__}, scipy {scipy.__version__}, nproc {os.cpu_count()}, "
        f"compiled FM loop {'loaded' if load_bucket_loop() is not None else 'unavailable'}")
    for key, value in result["notes"].items():
        for line in value if isinstance(value, list) else [value]:
            print(f"# {key}: {line}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    figures = [(name, value, units[name]) for name, value in result["metrics"].items()]
    figures += [(name, value, unit) for name, (value, unit) in result.get("extra", {}).items()]
    layers = result.get("layers", {})
    if args.trace:
        figures += [(name, value, units[name]) for name, value in layers.items()]
        chosen = {m["name"]: layers.get(m["name"], 0) for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: result["metrics"][m["name"]] for m in spec["end_to_end"]}
    for name, value, unit in figures:
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
