"""Independent output checker for decompose partitions.

Shares no code with the pipeline: it reads only the graph's ``n``, ``edges``
and ``costs`` arrays plus the vertex weights and labels, and recomputes with
plain numpy

* that every vertex has a class in ``[0, k)``;
* Definition 1's strict balance, ``|w(class) − w(V)/k| ≤ (1 − 1/k)‖w‖∞``;
* the per-class boundary costs and their maximum;
* the Theorem 5 ratio ``max boundary / (‖c‖₂/√k + ‖c‖∞)``.
"""

from __future__ import annotations

import math

import numpy as np

#: relative slack for float comparisons of sums taken in another order
REL_TOL = 1e-9


class CheckError(AssertionError):
    """A partition failed the independent check."""


def check_partition(n: int, edges, costs, weights, labels, k: int,
                    reported_max_boundary: float | None = None) -> dict:
    """Check one k-partition; return the recomputed figures.

    Raises :class:`CheckError` on any violation, or when
    ``reported_max_boundary`` (the program's own figure) disagrees with the
    recomputation.
    """
    labels = np.asarray(labels)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    costs = np.asarray(costs, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if labels.shape != (n,) or w.shape != (n,):
        raise CheckError(f"labels/weights shape {labels.shape}/{w.shape}, expected ({n},)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise CheckError(f"labels dtype {labels.dtype} is not integral")
    if n and (labels.min() < 0 or labels.max() >= k):
        raise CheckError(f"label outside [0, {k}): min {labels.min()}, max {labels.max()}")

    class_w = np.bincount(labels, weights=w, minlength=k)
    total = float(w.sum())
    wmax = float(w.max()) if n else 0.0
    slack = (1.0 - 1.0 / k) * wmax
    dev = np.abs(class_w - total / k)
    worst = float(dev.max()) if k else 0.0
    if worst > slack + REL_TOL * max(total, 1.0):
        raise CheckError(f"not strictly balanced: max |w(class) - w(V)/k| = {worst:.6g} "
                         f"> (1 - 1/k)|w|inf = {slack:.6g}")

    lu, lv = labels[edges[:, 0]], labels[edges[:, 1]]
    cut = lu != lv
    boundary = (np.bincount(lu[cut], weights=costs[cut], minlength=k)
                + np.bincount(lv[cut], weights=costs[cut], minlength=k))
    max_boundary = float(boundary.max()) if k else 0.0
    if reported_max_boundary is not None and not math.isclose(
            max_boundary, reported_max_boundary, rel_tol=REL_TOL, abs_tol=REL_TOL):
        raise CheckError(f"reported max boundary {reported_max_boundary!r} != "
                         f"recomputed {max_boundary!r}")

    rhs = math.sqrt(float(np.dot(costs, costs))) / math.sqrt(k) + (
        float(costs.max()) if costs.size else 0.0)
    return {
        "class_weights": class_w,
        "boundary": boundary,
        "max_boundary": max_boundary,
        "balance_slack": slack - worst,
        "bound_ratio": max_boundary / rhs if rhs > 0 else 0.0,
    }


def geomean(values) -> float:
    values = [float(v) for v in values]
    if not values or min(values) <= 0:
        raise CheckError(f"geometric mean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))
