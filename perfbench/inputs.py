"""Seeded inputs for every workload.

Everything a workload feeds the program is derived here from the run's
``--seed`` alone, so the same seed always gives the same instances, the same
request schedule and the same mutation traces.  The seed changes instance
randomness (vertex weights, climate storms, scenario seeds) and the order of
the serve schedule; the *make-up* of each workload (families, sizes, ``k``,
request mix) is fixed, which keeps figures comparable across seeds.
"""

from __future__ import annotations

import numpy as np

# --- decompose workloads ---------------------------------------------------
# (family, size, k).  Grid cells sit above the ``g.n <= 50_000`` refine
# cutoff of ``core/decompose.py`` (no FM refine), climate cells below it.
# 256² grids (n = 65,536) take 2.5–4.5 s per cold call here and climate
# 96/128 (n = 13,824 / 24,576) 2–4 s, so three instances per cell take
# 15–25 s; 512² (12 s a call, ~750 MB) and climate 160 (~7 s) would not fit
# in a run and were left out.  The last cell of each workload is its slowest;
# ``request_p50_ms`` is that cell's median.
#
# Climate runaway (README, "Inputs and seeds"): on 10–20% of climate 128
# instances and 3–7% of climate 96 ones Proposition 11 runs for 40–65 s
# instead of 2–5 s.  A cell's median of three stands one such instance, not
# two; 128 is paired with k=16 (3 of 30 instances run away) and 96 with
# k=32 (2 of 30), not 128 with k=32 (6 of 30), whose median would be a
# runaway in one run of ten.
DECOMPOSE_CELLS = {
    "decompose-grid": [("grid", 256, 8), ("grid", 256, 32)],
    "decompose-climate": [("climate", 96, 32), ("climate", 128, 16)],
}

#: the discarded warm-up op of each decompose workload: small and of the same
#: family; below the cutoff, so it also loads the FM kernel's code paths
WARMUP_CELL = {
    "decompose-grid": ("grid", 64, 8),
    "decompose-climate": ("climate", 32, 16),
}


def decompose_scenario(family: str, size: int, k: int, seed: int):
    """The scenario of one decompose cell: unit-cost grids with seeded uniform
    vertex weights, or the climate family with its native float weights and
    storm-amplified coupling costs."""
    from repro.runtime import Scenario

    if family == "climate":
        return Scenario(family="climate", size=size, k=k, costs="native", seed=seed)
    return Scenario(family=family, size=size, k=k, weights="uniform", costs="unit", seed=seed)


# --- serve-mixed -------------------------------------------------------------
#: zipf exponent of the decompose reads over the catalogue ranks
ZIPF_S = 1.1
#: decompose reads per second of ``--seconds`` (at least 1000 reads, so p99
#: has >= 10 samples beyond it); 20 s gives 1600 reads
SERVE_READS_PER_S = 80
#: coloring-cache entries on the server; with the catalogue below this puts
#: 5–10% of the reads on a miss
SERVE_CACHE_SIZE = 20
#: streaming sessions per second of ``--seconds`` (20 s gives 6), and
#: single-step mutates per session
SERVE_SESSIONS_PER_S = 0.3
SERVE_STEPS = 24

# Catalogue of small and mid-size cells, in rank order.  Sizes cycle through
# the rank order so every band of the zipf distribution mixes small and mid
# cells; the seed changes the instances, never the make-up.
_CATALOGUE_SHAPES = [
    ("grid", 16, 4), ("mesh", 16, 4), ("climate", 16, 4),
    ("grid", 32, 8), ("mesh", 24, 8), ("climate", 24, 8),
    ("grid", 24, 4), ("mesh", 32, 8), ("climate", 32, 8),
    ("grid", 48, 16), ("mesh", 40, 8), ("climate", 40, 16),
]
#: catalogue = every shape at these k multipliers (k, 2k) -> 24 cells
_CATALOGUE_K_MULT = (1, 2)

#: streaming sessions alternate these (family, size, k, trace) shapes
_SESSION_SHAPES = [
    ("grid", 32, 8, "random-churn"),
    ("mesh", 32, 8, "growth"),
]

#: the warm-up decompose of the serve set-up: tiny, outside the catalogue
SERVE_WARMUP = {"family": "grid", "size": 8, "k": 2, "algorithm": "minmax"}


def serve_catalogue(seed: int) -> list[dict]:
    """Decompose scenario specs (wire form) in zipf rank order."""
    out = []
    for mult in _CATALOGUE_K_MULT:
        for family, size, k in _CATALOGUE_SHAPES:
            spec = {"family": family, "size": size, "k": k * mult, "algorithm": "minmax",
                    "seed": seed}
            if family == "climate":
                spec["costs"] = "native"
            else:
                spec["weights"] = "uniform"
            out.append(spec)
    return out


def serve_size(seconds: float) -> tuple[int, int]:
    """(decompose reads, sessions) of one run: a fixed schedule sized to take
    about ``seconds`` here, so every count in it repeats exactly."""
    return max(1000, round(SERVE_READS_PER_S * seconds)), max(2, round(SERVE_SESSIONS_PER_S * seconds))


def session_specs(seed: int, seconds: float) -> list[dict]:
    """``open_stream`` scenario specs, one per session."""
    out = []
    for i in range(serve_size(seconds)[1]):
        family, size, k, trace = _SESSION_SHAPES[i % len(_SESSION_SHAPES)]
        out.append({
            "family": family, "size": size, "k": k, "weights": "uniform",
            "seed": seed * 1000 + i,
            "params": {"trace": trace, "steps": SERVE_STEPS},
        })
    return out


def serve_schedule(seconds: float) -> list[tuple]:
    """The fixed serial request order of one serve-mixed run.

    Items are ``("read", catalogue_index)`` or ``("open"|"mutate"|"snapshot"|
    "close", session_index)``.  Session writes keep their order (open, the
    mutates, snapshot, close; then the next session) and are spread over the
    reads at random positions.  The order does not depend on the seed: which
    reads miss the cache is then the same in every run, and the seed varies
    only the instances behind each cell and session.
    """
    rng = np.random.default_rng(0x5E1)
    nreads, nsessions = serve_size(seconds)
    ncat = len(serve_catalogue(0))
    ranks = np.arange(1, ncat + 1, dtype=np.float64)
    p = ranks ** -ZIPF_S
    p /= p.sum()
    reads = [("read", int(i)) for i in rng.choice(ncat, size=nreads, p=p)]
    writes = []
    for s in range(nsessions):
        writes.append(("open", s))
        writes.extend(("mutate", s) for _ in range(SERVE_STEPS))
        writes.append(("snapshot", s))
        writes.append(("close", s))
    total = len(reads) + len(writes)
    write_at = set(rng.choice(total, size=len(writes), replace=False).tolist())
    out, r, w = [], iter(reads), iter(writes)
    for pos in range(total):
        out.append(next(w) if pos in write_at else next(r))
    return out


def lru_misses(keys: list, size: int) -> list[bool]:
    """Which of ``keys`` miss an LRU cache of ``size`` entries, in order —
    the client-side model the server's hit/miss counters are checked
    against (a serial client makes the server's cache order the same)."""
    from collections import OrderedDict

    cache: OrderedDict = OrderedDict()
    out = []
    for key in keys:
        if key in cache:
            cache.move_to_end(key)
            out.append(False)
        else:
            out.append(True)
            cache[key] = True
            if len(cache) > size:
                cache.popitem(last=False)
    return out
