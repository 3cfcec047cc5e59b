"""serve-mixed: one ``repro serve`` shard with a journal, one closed-loop client.

Set-up launches the server (one shard, ``--journal-dir``, a coloring cache of
``SERVE_CACHE_SIZE`` entries) and waits for a warm-up decompose; it does so
three times, shutting the first two servers down, and ``setup_s`` is the
median.  The timed phase sends the seeded schedule of ``inputs`` over one
connection, each request after the previous answer, while a second pooled
connection stays idle.  Then ``stats`` is read, the shard's peak RSS taken,
and ``shutdown`` timed until the server process exits.  Client latencies and
set-up times are scaled to nominal machine speed by reference samples taken
every ``REF_EVERY`` requests (see ``speed.py``); ``shutdown_s`` is raw, since
it is mostly a fixed wait.

Checks, made after the server is gone:

* no request failed;
* every decompose response equals the record ``run_scenario`` computes
  in-process for the same scenario, and repeats are byte-identical;
* every session's open, mutate, snapshot and close answers equal an
  in-process ``StreamSession`` replay of the same trace, and its version
  advanced by exactly the steps sent;
* every distinct decompose record, and every session's final snapshot,
  reports a strictly balanced partition whose ``max_boundary`` and
  ``bound_ratio_thm5`` equal what ``check.py`` recomputes from the labels of
  the in-process run; ``bound_ratio`` is taken from the checker;
* the server's cache hit and miss counts equal an LRU model of the schedule.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import queue
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

import check
import inputs
import speed
import tracing

SETUP_REPEATS = 3
#: requests between two reference samples in the timed phase
REF_EVERY = 100
#: seconds to wait for the server to listen, answer, or exit
SERVER_TIMEOUT = 60.0
#: relative slack between a served figure (rounded to 12 significant digits
#: in snapshots) and the checker's recomputation
SERVED_REL_TOL = 1e-9
HERE = pathlib.Path(__file__).resolve().parent


class ServeCheckError(AssertionError):
    """A serve-mixed answer failed its check."""


class Server:
    """A ``repro serve`` child process; its stderr is drained on a thread."""

    def __init__(self, env: dict, journal_dir: pathlib.Path):
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--shards", "1",
               "--journal-dir", str(journal_dir),
               "--cache-size", str(inputs.SERVE_CACHE_SIZE)]
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     text=True)
        self.log: list[str] = []
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.address = self._wait_listening()

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _wait_listening(self) -> tuple[str, int]:
        deadline = perf_counter() + SERVER_TIMEOUT
        while perf_counter() < deadline:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - perf_counter()))
            except queue.Empty:
                break
            if line is None:
                break
            if line.startswith("serve: listening on "):
                host, port = line.split()[3].rsplit(":", 1)
                return host, int(port)
        self.kill()
        raise RuntimeError("server did not start:\n" + "".join(self.log))

    def connect(self) -> "Connection":
        return Connection(self.address)

    def shard_peak_rss_mb(self) -> float:
        """Largest ``VmHWM`` among the server's child processes (the shard
        worker; the multiprocessing helper is far smaller)."""
        pid = self.proc.pid
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            children = [int(c) for c in fh.read().split()]
        peak_kb = 0
        for child in children:
            try:
                with open(f"/proc/{child}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            peak_kb = max(peak_kb, int(line.split()[1]))
            except FileNotFoundError:
                continue
        if not peak_kb:
            raise RuntimeError("no shard process found under the server")
        return peak_kb / 1024.0

    def wait(self) -> None:
        try:
            self.proc.wait(timeout=SERVER_TIMEOUT)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5.0)


class Connection:
    """One blocking JSON-lines connection; requests strictly one at a time."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=SERVER_TIMEOUT)
        self.file = self.sock.makefile("rb")
        self._next_id = 0

    def request(self, body: dict) -> tuple[dict, bytes]:
        self._next_id += 1
        body = {"id": self._next_id, **body}
        self.sock.sendall((json.dumps(body, separators=(",", ":")) + "\n").encode())
        raw = self.file.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        resp = json.loads(raw)
        if resp.get("id") != self._next_id:
            raise ServeCheckError(f"answer id {resp.get('id')} for request {self._next_id}")
        return resp, raw

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def _shutdown(server: Server, conn: Connection) -> float:
    """Send ``shutdown``, close this connection, and time the server's exit."""
    t0 = perf_counter()
    conn.request({"op": "shutdown"})
    conn.close()
    server.wait()
    return perf_counter() - t0


def _histogram_delta(after: dict, before: dict, key: str) -> dict:
    a = after.get("histograms", {}).get(key)
    if a is None:
        return {"counts": [], "sum": 0.0, "count": 0}
    b = before.get("histograms", {}).get(key, {"counts": [0] * len(a["counts"]),
                                                "sum": 0.0, "count": 0})
    return {"counts": [x - y for x, y in zip(a["counts"], b["counts"])],
            "sum": a["sum"] - b["sum"], "count": a["count"] - b["count"]}


def _check_records(catalogue, bodies: dict) -> list[float]:
    """Check every distinct decompose record; return the checker's Theorem 5
    ratios of the fixed set of records.

    The served record must equal the one ``run_scenario`` computes
    in-process, and its figures must match those the independent checker
    recomputes from the labels the same algorithm returns in-process.
    """
    from repro.runtime.algorithms import run_algorithm
    from repro.runtime.engine import run_scenario
    from repro.runtime.instances import build_instance
    from repro.service.protocol import canonical_record, scenario_from_spec

    ratios = []
    for idx in sorted(bodies):
        scenario = scenario_from_spec(catalogue[idx])
        expected = canonical_record(run_scenario(scenario).record())
        if bodies[idx] != expected:
            raise ServeCheckError(f"decompose {catalogue[idx]}: served record differs from "
                                  f"run_scenario:\n  served   {bodies[idx]}\n  expected {expected}")
        inst = build_instance(scenario)
        g = inst.graph
        labels = run_algorithm(inst, scenario).labels
        ratios.append(_check_figures(f"decompose {catalogue[idx]}",
                                     json.loads(bodies[idx])["metrics"],
                                     check.check_partition(g.n, g.edges, g.costs, inst.weights,
                                                           labels, scenario.k)))
    return ratios


def _check_figures(name: str, served: dict, got: dict) -> float:
    """Compare a served record's or snapshot's metrics with the checker's
    figures (which raised already if the partition is not strictly
    balanced); return the checker's ratio."""
    if not served["strictly_balanced"]:
        raise ServeCheckError(f"{name}: served partition reports not strictly balanced")
    for key, mine in (("max_boundary", got["max_boundary"]),
                      ("bound_ratio_thm5", got["bound_ratio"])):
        if not math.isclose(served[key], mine, rel_tol=SERVED_REL_TOL, abs_tol=SERVED_REL_TOL):
            raise ServeCheckError(f"{name}: served {key} {served[key]!r} != checker's {mine!r}")
    return got["bound_ratio"]


def _check_session(spec: dict, answers: dict) -> float:
    """Replay one session in-process and compare every answer; check the
    replay's final partition with the independent checker."""
    from repro.runtime.instances import build_instance
    from repro.service.protocol import scenario_from_spec
    from repro.stream import StreamSession

    scenario = scenario_from_spec({**spec, "algorithm": "stream"})
    session = StreamSession(build_instance(scenario), scenario)
    name = f"session {spec}"
    if answers["open"] != session.snapshot():
        raise ServeCheckError(f"{name}: open snapshot differs from replay")
    base_version = session.state.version
    for i, results in enumerate(answers["mutate"]):
        if results != [session.step()]:
            raise ServeCheckError(f"{name}: mutate {i + 1} differs from replay")
    snap = session.snapshot()
    if answers["snapshot"] != snap or answers["close"] != snap:
        raise ServeCheckError(f"{name}: snapshot/close differ from replay")
    if snap["version"] - base_version != len(answers["mutate"]):
        raise ServeCheckError(f"{name}: version advanced {snap['version'] - base_version}, "
                              f"{len(answers['mutate'])} steps sent")
    g = session.state.graph()
    return _check_figures(name, snap["metrics"],
                          check.check_partition(g.n, g.edges, g.costs, session.state.weights,
                                                session.coloring.labels, session.k))


def _per_layer(roll: dict, before: dict, after: dict, client: dict) -> dict:
    """Span figures plus the ``stats`` op deltas and the client's own."""
    from repro.obs.metrics import histogram_summary, metric_key

    def delta(*path):
        a, b = after, before
        for key in path:
            a, b = (a or {}).get(key), (b or {}).get(key)
        return (a or 0) - (b or 0)

    solves = delta("oracle_cache", "counters", "solves")
    warm = delta("oracle_cache", "counters", "warm_starts")
    batches = delta("batcher", "batches")
    server_p50, server_mean = {}, {}
    for op in ("decompose", "mutate"):
        hist = _histogram_delta(after.get("telemetry", {}), before.get("telemetry", {}),
                                metric_key("request_seconds", {"op": op}))
        server_p50[op] = histogram_summary(hist).get("p50_ms", 0.0)
        server_mean[op] = 1000.0 * hist["sum"] / hist["count"] if hist["count"] else 0.0
    return {
        **tracing.span_figures(roll),
        "graphs.build_instance_s": roll.get("graphs.build_instance", {}).get("self", 0.0),
        "separators.solves": solves,
        "separators.warm_starts": warm,
        "separators.warm_start_ratio": warm / solves if solves else 0.0,
        "separators.solve_cache_hits": delta("oracle_cache", "cache", "hits"),
        "separators.solve_cache_misses": delta("oracle_cache", "cache", "misses"),
        "separators.eigsh_fallbacks": delta("oracle_cache", "counters", "fallbacks"),
        "stream.mutate_p50_ms": client["mutate_p50_ms"],
        "stream.mutate_steps_per_s": client["mutate_steps_per_s"],
        "service.cache_hits": delta("cache", "hits"),
        "service.cache_misses": delta("cache", "misses"),
        "service.cache_evictions": delta("cache", "evictions"),
        "service.batches": batches,
        "service.batch_size_mean": delta("batcher", "items") / batches if batches else 0.0,
        "service.server_decompose_p50_ms": server_p50["decompose"],
        "service.server_mutate_p50_ms": server_p50["mutate"],
        "service.wire_ms": client["raw_read_mean_ms"] - server_mean["decompose"],
        "service.requests_per_s": client["requests_per_s"],
        "service.request_p99_ms": client["request_p99_ms"],
        "service.shutdown_s": client["shutdown_s"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, t_start: float) -> dict:
    from repro.core._bucketc import load_bucket_loop

    catalogue = inputs.serve_catalogue(seed)
    sessions = inputs.session_specs(seed, seconds)
    schedule = inputs.serve_schedule(seconds)
    build = pathlib.Path.cwd() / ".bench_build"
    work = pathlib.Path(tempfile.mkdtemp(prefix="serve-", dir=build))
    journal_dir = work / "journal"
    trace_dir = work / "trace"
    env = dict(os.environ)
    if trace:
        trace_dir.mkdir()
        env["PYTHONPATH"] = os.pathsep.join([str(HERE / "tracehook"), env["PYTHONPATH"]])
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    # one CPU for client, server and shard: the client is closed-loop and
    # serial, so only one of them runs at a time, and a request's wake-ups
    # then never cross CPUs (cross-CPU wake-ups made the cache-hit latency
    # swing by 25% from run to run)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ref = speed.Reference()
    server = None
    try:
        setups = []
        for rep in range(SETUP_REPEATS):
            before_s = ref.sample()
            t0 = perf_counter()
            server = Server(env, journal_dir)
            conn = server.connect()
            resp, _ = conn.request({"scenario": inputs.SERVE_WARMUP})
            if not resp.get("ok"):
                raise ServeCheckError(f"warm-up decompose failed: {resp}")
            setups.append(speed.scaled(perf_counter() - t0, before_s, ref.sample()))
            if rep < SETUP_REPEATS - 1:
                _shutdown(server, conn)
        idle = server.connect()  # the pooled connection left idle until shutdown
        before, _ = conn.request({"op": "stats"})

        timed = []  # (kind, missed, seconds, reference segment)
        refs = [ref.sample()]
        bodies: dict = {}
        answers = [{"mutate": []} for _ in sessions]
        keys = ["warm-up"] + [idx for kind, idx in schedule if kind == "read"]
        model_misses = inputs.lru_misses(keys, inputs.SERVE_CACHE_SIZE)[1:]
        failed = reads_sent = 0
        missed = False
        t_phase = perf_counter()
        for n, (kind, idx) in enumerate(schedule):
            if n and n % REF_EVERY == 0:
                refs.append(ref.sample())
            sid = f"s{idx}"
            if kind == "read":
                body = {"scenario": catalogue[idx]}
                missed = model_misses[reads_sent]
                reads_sent += 1
            elif kind == "open":
                body = {"op": "open_stream", "session": sid, "scenario": sessions[idx]}
            elif kind == "mutate":
                body = {"op": "mutate", "session": sid, "steps": 1}
            else:
                body = {"op": {"snapshot": "snapshot", "close": "close_stream"}[kind],
                        "session": sid}
            t0 = perf_counter()
            resp, _ = conn.request(body)
            dt = perf_counter() - t0
            if not resp.get("ok"):
                failed += 1
                print(f"# failed: {kind} {idx}: {resp.get('error')}")
                continue
            timed.append((kind, kind == "read" and missed, dt, len(refs) - 1))
            if kind == "read":
                record = json.dumps(resp["record"], sort_keys=True, separators=(",", ":"))
                if bodies.setdefault(idx, record) != record:
                    raise ServeCheckError(f"decompose {catalogue[idx]}: repeat differs")
            elif kind == "mutate":
                answers[idx]["mutate"].append(resp["results"])
            else:
                answers[idx][kind] = resp["snapshot"]
        t_end = perf_counter()
        refs.append(ref.sample())
        after, _ = conn.request({"op": "stats"})
        peak_rss_mb = server.shard_peak_rss_mb()
        shutdown_s = _shutdown(server, conn)
        idle.close()
        server = None
        layers_roll = tracing.load_dir(trace_dir, (t_phase, t_end)) if trace else None

        if failed:
            raise ServeCheckError(f"{failed} of {len(schedule)} requests failed")
        stats_b, stats_a = before["stats"], after["stats"]
        hits = stats_a["cache"]["hits"] - stats_b["cache"]["hits"]
        misses = stats_a["cache"]["misses"] - stats_b["cache"]["misses"]
        if (misses, hits) != (sum(model_misses), len(model_misses) - sum(model_misses)):
            raise ServeCheckError(f"cache hits/misses {hits}/{misses} differ from the LRU "
                                  f"model {len(model_misses) - sum(model_misses)}/{sum(model_misses)}")
        ratios = _check_records(catalogue, bodies)
        ratios += [_check_session(spec, ans) for spec, ans in zip(sessions, answers)]
        c_loop = load_bucket_loop() is not None
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)

    scaled = [(kind, missed, 1000.0 * speed.scaled(dt, refs[seg], refs[seg + 1]))
              for kind, missed, dt, seg in timed]
    read_ms = [ms for kind, _, ms in scaled if kind == "read"]
    miss_ms = [ms for _, missed, ms in scaled if missed]
    mutate_ms = [ms for kind, _, ms in scaled if kind == "mutate"]
    client = {
        "requests_per_s": 1000.0 * len(scaled) / sum(ms for _, _, ms in scaled),
        "request_p99_ms": statistics.quantiles(read_ms, n=100, method="inclusive")[98],
        "raw_read_mean_ms": 1000.0 * statistics.fmean(
            dt for kind, _, dt, _ in timed if kind == "read"),
        "mutate_p50_ms": statistics.median(mutate_ms),
        "mutate_steps_per_s": 1000.0 * len(mutate_ms) / sum(mutate_ms),
        "shutdown_s": shutdown_s,
    }
    out = {
        "attempted": len(schedule),
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "decompose_s": sum(miss_ms) / 1000.0,
            "bound_ratio": check.geomean(ratios),
            "peak_rss_mb": peak_rss_mb,
            "request_p50_ms": statistics.median(read_ms),
        },
        # serve-only client figures: (value, unit)
        "extra": {name: (client[name], unit) for name, unit in (
            ("requests_per_s", "1/s"), ("request_p99_ms", "ms"), ("mutate_p50_ms", "ms"),
            ("mutate_steps_per_s", "1/s"), ("shutdown_s", "s"))},
        "notes": {
            "schedule": f"{len(read_ms)} reads ({sum(model_misses)} misses), "
                        f"{len(mutate_ms)} mutates, {len(sessions)} sessions "
                        f"in {t_end - t_phase:.2f} s raw",
            "reference": f"median sample {1000 * statistics.median(ref.samples):.2f} ms "
                         f"(nominal {1000 * speed.REFERENCE_S:.0f} ms)",
        },
    }
    if trace:
        out["layers"] = {
            **_per_layer(layers_roll, stats_b, stats_a, client),
            "core.kernel_c_loop": 1 if c_loop else 0,
            "trace.reference_ms": 1000.0 * statistics.median(ref.samples),
        }
    return out

