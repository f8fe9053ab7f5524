"""RECEIPT FD — fine-grained decomposition (paper alg. 4): one Spark job,
one task per subset.

Each subset ``U_i`` from CD is peeled *independently* on its induced
subgraph (all edges of its members — the full ``V`` side is retained, so
every butterfly between two members survives, theorem 2), from the
supports ``⋈_init``, by the sequential NumPy peel kernel. The driver cuts
the induced subgraphs from its mirror of the edge list, and
``parallelize(...).map(peel_subset)`` runs them as P independent tasks
with no shuffle. Spark starts a job's tasks in partition order, so the
subsets go in the paper's LPT order, largest induced peel work
``Σ_{(u,v)∈E_i} d_v^{(i)}`` first, each to the next free worker.

FD performs no inter-task synchronization, so it contributes 0 to ρ.

What an FD task costs here is Spark's, not the peel's. On 4 vCPUs under
``local[2]`` (PySpark 4.1.2, CPython 3.11), ``recount_fd``'s one task
peels in 1–2 ms, but from launch to the kernel's first line took
145–166 ms. Of that, 104–106 ms was PySpark's
``importlib.invalidate_caches()`` in front of every task, which made each
cached zip importer on the worker's path (``pyspark.zip``, py4j's zip,
the ``spark-core`` jar) re-read its archive's whole directory. About
40 ms was the worker's wait on its socket between the command and the
data, and about 20 ms the job's own overhead. So each task ends by
dropping those importers (:func:`repro.core.kernel.drop_zip_importers`),
and the next task on the reused worker skips the re-read: FD's median
time went from 151 to 73 ms, and from 319 to 141 ms when the host was
busier. The first FD task on each fresh worker still pays it. The helper
lives in the kernel, the module pickled by value, because this module is
pickled by reference and the executors' path need not hold ``repro``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import pandas as pd
from pyspark import cloudpickle
from pyspark.sql import DataFrame

from repro.core import kernel
from repro.core.metrics import PhaseMetrics

# ship the kernel's code with each FD task rather than importing it on the
# executor, whose Python path need not hold this package
cloudpickle.register_pickle_by_value(kernel)


@dataclass
class FDResult:
    """Exact tips plus per-subset work stats (for load-balance analysis)."""

    tips: pd.DataFrame  # (u, tip)
    subset_stats: pd.DataFrame  # one row per subset, sorted by subset
    metrics: PhaseMetrics = field(default_factory=PhaseMetrics)


def _groups(keys: np.ndarray, k: int) -> list[np.ndarray]:
    """Positions of ``keys`` (codes ``0..k-1``) grouped by key, in order."""
    ends = np.cumsum(np.bincount(keys, minlength=k))
    return np.split(np.argsort(keys, kind="stable"), ends[:-1])


def fd_payloads(mirror: pd.DataFrame, membership: pd.DataFrame) -> list[tuple]:
    """``(subset, task)`` per subset, largest induced peel work first;
    ``task`` is :func:`repro.core.kernel.peel_subset`'s input, members in
    id order (the kernel breaks support ties by position)."""
    mem = membership.sort_values("u")
    code = pd.Index(mem["u"]).get_indexer(mirror["u"])
    if (code < 0).any():
        raise ValueError("edge list holds a u outside the membership")
    sub, subsets = pd.factorize(mem["subset"], sort=True)
    k = len(subsets)
    u, sup = mem["u"].to_numpy(), mem["init_sup"].to_numpy()
    eu, ev = mirror["u"].to_numpy(), mirror["v"].to_numpy()
    payloads = [
        (int(s), (u[m], sup[m], eu[e], ev[e]))
        for s, m, e in zip(subsets, _groups(sub, k), _groups(sub[code], k))
    ]
    # Σ_{(u,v)∈E_i} d_v^{(i)} = Σ_v (d_v^{(i)})²
    work = [(np.unique(t[3], return_counts=True)[1] ** 2).sum() for _, t in payloads]
    return [payloads[i] for i in np.argsort(-np.array(work), kind="stable")]


def receipt_fd(
    edges: DataFrame, mirror: pd.DataFrame, membership: pd.DataFrame, *, dgm: bool = True
) -> FDResult:
    """Peel every subset independently; return exact tip numbers.

    ``edges`` is the oriented graph and ``mirror`` the same edge list as
    pandas ``(u, v)``; ``membership`` is CD's output ``(u, subset,
    init_sup)``.
    """
    t0 = time.perf_counter()
    payloads = fd_payloads(mirror, membership)
    tasks = [task for _, task in payloads]
    n = max(1, len(tasks))  # an empty graph still needs one (empty) partition
    out = (
        edges.sparkSession.sparkContext.parallelize(tasks, n)
        .map(partial(kernel.peel_subset, dgm=dgm))
        .collect()
    )
    empty = np.empty(0, dtype=np.int64)
    u = np.concatenate([empty, *(t[0] for t in tasks)])
    tips = pd.DataFrame({"u": u, "tip": np.concatenate([empty, *(r[0] for r in out)])})
    stats = pd.DataFrame(
        [(s, len(t[0]), len(t[2]), *r[1:]) for (s, t), r in zip(payloads, out)],
        columns=["subset", "sub_size", "sub_edges", "sub_wedges", "sub_rounds",
                 "sub_dgm", "sub_seconds"],
    ).sort_values("subset", ignore_index=True)
    met = PhaseMetrics(
        seconds=time.perf_counter() - t0, wedges=int(stats["sub_wedges"].sum())
    )
    return FDResult(tips=tips, subset_stats=stats, metrics=met)
