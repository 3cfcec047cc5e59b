"""Benchmark tracing for the serve processes.

``run.py --workload serve-mixed --trace 1`` starts the server with this
directory first on ``PYTHONPATH`` and ``PERFBENCH_TRACE_DIR`` set, so every
Python process of the service — the front-end and each spawned shard worker —
installs the span wrappers at start-up and writes its spans to that
directory when it exits.  The process layout is the untraced one.
"""

import os

_TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

if _TRACE_DIR:
    import atexit
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracing

    _tracer = tracing.Tracer()
    tracing.install(_tracer)
    atexit.register(
        lambda: _tracer.dump(os.path.join(_TRACE_DIR, f"spans-{os.getpid()}.json")))
