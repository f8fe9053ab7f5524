"""Vectorized NumPy peeling kernel on CSR adjacency.

This is the *sequential substrate* of the reproduction, shared by three
users (DESIGN.md §2):

* :func:`repro.core.bup.bup` — the paper's sequential BUP baseline
  (alg. 2): ``batch=False``, one vertex per round.
* :func:`repro.core.bup.parb_simulate` — exact simulator of ParB
  (PARBUTTERFLY batch peeling): ``batch=True``, all minimum-support
  vertices per round; the round count is the paper's ρ.
* :func:`peel_subset` — RECEIPT FD's Spark task: sequential peeling of
  one induced subgraph (alg. 4 inner loop).

FD ships this module's code with each task
(``cloudpickle.register_pickle_by_value`` in :mod:`repro.core.receipt_fd`),
so what an FD task runs on the Python worker must live here: the worker's
path need not hold ``repro``, and ``receipt_fd`` itself is pickled by
reference. That is why :func:`drop_zip_importers`, which trims the
worker's import state between FD tasks, is here and not in ``receipt_fd``.
At benchmark scale an FD task's peel takes 1–2 ms, and its launch took
145–166 ms: about 105 ms of zip re-reads that helper removes from the
next task on the worker, about 40 ms of the worker waiting on its
socket, and about 20 ms of job overhead.

Wedge accounting matches the paper: peeling ``u`` traverses
``sum_{v in N_u} |N_v^struct|`` wedge steps, where ``N_v^struct`` is the
*stored* adjacency of ``v`` — it still contains peeled vertices until a
DGM compaction rebuilds it (paper §4.2). With ``dgm=False`` the total
over all vertices is exactly ``sum_u sum_{v in N_u} d_v`` (Λ^peel).
"""
from __future__ import annotations

import sys
import time
import zipimport
from dataclasses import dataclass, field

import numpy as np


@dataclass
class PeelStats:
    """Instrumentation of one peel run (paper's Λ and ρ accounting)."""

    rounds: int = 0
    wedges: int = 0
    dgm_compactions: int = 0
    peel_order: list[int] = field(default_factory=list)


def build_csr(
    src: np.ndarray, dst: np.ndarray, n_src: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of ``dst`` grouped by ``src``."""
    counts = np.bincount(src, minlength=n_src)
    indptr = np.zeros(n_src + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(src, kind="stable")
    return indptr, np.asarray(dst, dtype=np.int64)[order]


def gather(indptr: np.ndarray, indices: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Concatenate the adjacency lists of ``keys`` (vectorized)."""
    starts = indptr[keys]
    lens = indptr[keys + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    offsets = np.repeat(np.cumsum(lens) - lens, lens)
    idx = np.repeat(starts, lens) + (np.arange(total, dtype=np.int64) - offsets)
    return indices[idx]


def peel(
    n_u: int,
    n_v: int,
    eu: np.ndarray,
    ev: np.ndarray,
    sup0: np.ndarray,
    *,
    batch: bool,
    dgm: bool = False,
    record_order: bool = False,
) -> tuple[np.ndarray, PeelStats]:
    """Peel every ``U`` vertex; return ``(tips, stats)``.

    ``sup0`` is the initial butterfly support of each ``u`` (length
    ``n_u``). ``batch=False`` peels a single minimum-support vertex per
    round (sequential BUP); ``batch=True`` peels *all* minimum-support
    vertices per round (ParB semantics — rounds == ρ). Support updates
    apply the paper's cap ``max(θ_peel, sup - ⋈_{u,u'})``; tip numbers
    are therefore non-decreasing in peel order.

    ``dgm=True`` compacts the ``v -> u`` adjacency whenever more than
    ``|E|`` wedges were traversed since the last compaction (paper §4.2).
    """
    eu = np.asarray(eu, dtype=np.int64)
    ev = np.asarray(ev, dtype=np.int64)
    up, ui = build_csr(eu, ev, n_u)  # u -> v neighbors (never stale: u peels once)
    vp, vi = build_csr(ev, eu, n_v)  # v -> u neighbors (stale until DGM compaction)
    sup = np.array(sup0, dtype=np.int64, copy=True)
    if sup.shape != (n_u,):
        raise ValueError(f"sup0 must have shape ({n_u},), got {sup.shape}")
    alive = np.ones(n_u, dtype=bool)
    tips = np.zeros(n_u, dtype=np.int64)
    st = PeelStats()
    level = 0
    m_edges = len(eu)
    wedges_since = 0
    n_alive = n_u
    while n_alive:
        m = int(sup[alive].min())
        level = max(level, m)
        cand = np.flatnonzero(alive & (sup == m))
        if not batch:
            cand = cand[:1]
        tips[cand] = level
        alive[cand] = False
        n_alive -= len(cand)
        if record_order:
            st.peel_order.extend(int(c) for c in cand)
        for u in cand:
            vs = ui[up[u] : up[u + 1]]
            nbr = gather(vp, vi, vs)
            st.wedges += len(nbr)
            wedges_since += len(nbr)
            if not len(nbr):
                continue
            nbr = nbr[alive[nbr]]
            if not len(nbr):
                continue
            vals, cnt = np.unique(nbr, return_counts=True)
            delta = cnt * (cnt - 1) // 2
            sup[vals] = np.maximum(level, sup[vals] - delta)
        st.rounds += 1
        if dgm and wedges_since > m_edges and n_alive:
            vsrc = np.repeat(np.arange(n_v, dtype=np.int64), np.diff(vp))
            keep = alive[vi]
            vp, vi = build_csr(vsrc[keep], vi[keep], n_v)
            wedges_since = 0
            st.dgm_compactions += 1
    return tips, st


def peel_subset(task: tuple, *, dgm: bool) -> tuple[np.ndarray, int, int, int, float]:
    """RECEIPT FD's task: sequential peeling of one subset's induced
    subgraph. ``task`` is ``(u, sup0, eu, ev)``: the members' ids,
    ascending, their ``⋈_init``, and the induced edges in original ids.
    Returns ``(tips, wedges, rounds, dgm_compactions, seconds)``;
    ``seconds`` times the peel, not the :func:`drop_zip_importers` after it."""
    t0 = time.perf_counter()
    u, sup0, eu, ev = task
    v_ids, ev = np.unique(ev, return_inverse=True)
    eu = np.searchsorted(u, eu)
    tips, st = peel(len(u), len(v_ids), eu, ev, sup0, batch=False, dgm=dgm)
    seconds = time.perf_counter() - t0
    drop_zip_importers()
    return tips, st.wedges, st.rounds, st.dgm_compactions, seconds


def drop_zip_importers() -> None:
    """Remove every ``zipimport.zipimporter`` from ``sys.path_importer_cache``.

    Before each task, PySpark's worker calls ``importlib.invalidate_caches()``
    (``worker_util.setup_spark_files``), and on CPython 3.11 a cached
    zipimporter answers that by re-reading its archive's whole central
    directory. A Python worker's path holds ``pyspark.zip``, the py4j zip
    and the ``spark-core`` jar, whose 16 cached importers (of 43 cache
    entries) made that call 104–106 ms of a 145–166 ms task launch, and
    220–260 ms when the host was busier (4 vCPUs, ``local[2]``, PySpark
    4.1.2). With them gone, the next task on the reused worker
    invalidates only its ``FileFinder`` entries (about 0.04 ms). Dropping
    them is safe: the task's imports are already in ``sys.modules``,
    ``PathFinder`` rebuilds an importer through ``sys.path_hooks`` when an
    import next needs its path, and ``zipimport._zip_directory_cache``
    keeps each parsed directory, so the rebuild reads no archive.
    """
    cache = sys.path_importer_cache
    for path, finder in list(cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del cache[path]


def count_butterflies_np(
    n_u: int,
    n_v: int,
    eu: np.ndarray,
    ev: np.ndarray,
    *,
    enumerate_side: str = "auto",
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Per-vertex butterfly counts ``(bu, bv, total, wedges_enumerated)``.

    Enumerates all wedges on one side (pairs of same-side vertices with a
    common neighbor), aggregates per-pair wedge counts ``c``, and rolls
    up ``C(c, 2)`` to the pair's endpoints (same-side contribution) and
    ``c - 1`` to each common neighbor (opposite-side contribution) —
    exactly alg. 1's arithmetic. ``enumerate_side='auto'`` picks the side
    with fewer wedges (Sanei-Mehri et al. optimization, paper §2.1).

    Used as the driver-side counting for the BUP/ParB baselines and as
    the in-task counting oracle; the Spark dataflow counting lives in
    :mod:`repro.core.counting`.
    """
    eu = np.asarray(eu, dtype=np.int64)
    ev = np.asarray(ev, dtype=np.int64)
    wu = _side_wedges(ev, n_v)  # wedges with endpoints in U (via common v)
    wv = _side_wedges(eu, n_u)
    if enumerate_side == "auto":
        enumerate_side = "u" if wu <= wv else "v"
    if enumerate_side == "u":
        bu, bv, total, wedges = _count_one_side(n_u, n_v, eu, ev)
    elif enumerate_side == "v":
        bv, bu, total, wedges = _count_one_side(n_v, n_u, ev, eu)
    else:
        raise ValueError(enumerate_side)
    return bu, bv, total, wedges


def _side_wedges(center: np.ndarray, n_center: int) -> int:
    d = np.bincount(center, minlength=n_center).astype(np.int64)
    return int((d * (d - 1) // 2).sum())


def _count_one_side(
    n_end: int, n_center: int, e_end: np.ndarray, e_center: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Wedge enumeration with endpoints on the ``end`` side.

    Returns ``(b_end, b_center, total, wedges_enumerated)``.
    """
    cp, ci = build_csr(e_center, e_end, n_center)
    k1_chunks: list[np.ndarray] = []
    k2_chunks: list[np.ndarray] = []
    cen_chunks: list[np.ndarray] = []
    for c in range(n_center):
        a = ci[cp[c] : cp[c + 1]]
        if len(a) < 2:
            continue
        a = np.sort(a)
        i1, i2 = np.triu_indices(len(a), k=1)
        k1_chunks.append(a[i1])
        k2_chunks.append(a[i2])
        cen_chunks.append(np.full(len(i1), c, dtype=np.int64))
    b_end = np.zeros(n_end, dtype=np.int64)
    b_center = np.zeros(n_center, dtype=np.int64)
    if not k1_chunks:
        return b_end, b_center, 0, 0
    k1 = np.concatenate(k1_chunks)
    k2 = np.concatenate(k2_chunks)
    cen = np.concatenate(cen_chunks)
    wedges = len(k1)
    key = k1 * np.int64(n_end) + k2
    uniq, inv, cnt = np.unique(key, return_inverse=True, return_counts=True)
    bf_pair = cnt * (cnt - 1) // 2
    total = int(bf_pair.sum())
    p1 = (uniq // n_end).astype(np.int64)
    p2 = (uniq % n_end).astype(np.int64)
    np.add.at(b_end, p1, bf_pair)
    np.add.at(b_end, p2, bf_pair)
    # each common neighbor of a pair with c wedges sits in (c - 1)
    # butterflies of that pair (alg. 1 "opp. side contribution")
    np.add.at(b_center, cen, cnt[inv] - 1)
    return b_end, b_center, total, wedges
