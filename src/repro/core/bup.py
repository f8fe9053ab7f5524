"""Baselines on the sequential substrate: BUP, the ParB simulator, and a
brute-force oracle.

* :func:`bup` — the paper's alg. 2 (sequential bottom-up peeling), used
  both as the ``BUP`` baseline row of Table 3 and as the correctness
  oracle for every parallel algorithm (theorem 2: RECEIPT == BUP).
* :func:`parb_simulate` — PARBUTTERFLY batch-mode peeling: each round
  peels *all* minimum-support vertices. Its round count is exactly the
  paper's ρ for ParB (footnote 6 computes ρ the same way), and it
  traverses the same wedges as BUP.
* :func:`bup_bruteforce` — independent oracle for tiny graphs: after
  every peel it *re-counts butterflies from scratch* on the remaining
  subgraph instead of applying incremental updates, validating the whole
  delete-update arithmetic chain.

All three accept a Spark or pandas edge frame with arbitrary vertex ids;
ids are factorized internally and restored on output.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame as SparkDataFrame

from repro.core.kernel import count_butterflies_np, peel
from repro.core.metrics import BaselineMetrics


def edges_to_numpy(
    edges, side: str = "u"
) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(n_u, n_v, eu, ev, u_ids, v_ids)`` with the peel side first.

    ``u_ids[i]`` is the original id of internal ``u`` vertex ``i``.
    Repeated edges are dropped: a graph is a set of edges.
    """
    if isinstance(edges, SparkDataFrame):
        edges = edges.select("u", "v").toPandas()
    pdf = edges[["u", "v"]].drop_duplicates()
    ucol, vcol = ("u", "v") if side == "u" else ("v", "u")
    eu, u_ids = pd.factorize(pdf[ucol], sort=True)
    ev, v_ids = pd.factorize(pdf[vcol], sort=True)
    return (
        len(u_ids),
        len(v_ids),
        eu.astype(np.int64),
        ev.astype(np.int64),
        np.asarray(u_ids, dtype=np.int64),
        np.asarray(v_ids, dtype=np.int64),
    )


def _run(edges, side: str, *, batch: bool) -> tuple[pd.DataFrame, BaselineMetrics]:
    n_u, n_v, eu, ev, u_ids, _ = edges_to_numpy(edges, side)
    t0 = time.perf_counter()
    sup0, _, _, cnt_wedges = count_butterflies_np(n_u, n_v, eu, ev)
    t1 = time.perf_counter()
    tips, st = peel(n_u, n_v, eu, ev, sup0, batch=batch, dgm=False)
    t2 = time.perf_counter()
    out = pd.DataFrame({"u": u_ids, "tip": tips})
    met = BaselineMetrics(
        seconds=t2 - t1,
        wedges=st.wedges,
        rounds=st.rounds,
        count_seconds=t1 - t0,
        count_wedges=cnt_wedges,
    )
    return out, met


def bup(edges, side: str = "u") -> tuple[pd.DataFrame, BaselineMetrics]:
    """Sequential bottom-up peeling (alg. 2). Returns ``(tips, metrics)``.

    ``tips`` has columns ``(u, tip)`` in original vertex ids.
    """
    return _run(edges, side, batch=False)


def parb_simulate(edges, side: str = "u") -> tuple[pd.DataFrame, BaselineMetrics]:
    """ParB batch peeling — exact tips, ρ (= rounds) and Λ.

    This is the driver-side simulator used for Table 3's ρ column and as
    the fallback when the Spark ParB loop exceeds its budget.
    """
    return _run(edges, side, batch=True)


def bup_bruteforce(edges, side: str = "u") -> pd.DataFrame:
    """Tip numbers by repeated full re-counting — tiny graphs only.

    Canonical definition: repeatedly find the minimum butterfly count
    among remaining vertices (re-counted from scratch on the remaining
    subgraph), raise the running level to it, and peel all vertices at
    the minimum. O(n * counting); use for |E| up to a few hundred.
    """
    n_u, n_v, eu, ev, u_ids, _ = edges_to_numpy(edges, side)
    alive = np.ones(n_u, dtype=bool)
    tips = np.zeros(n_u, dtype=np.int64)
    level = 0
    while alive.any():
        keep = alive[eu]
        bu, _, _, _ = count_butterflies_np(n_u, n_v, eu[keep], ev[keep])
        m = int(bu[alive].min())
        level = max(level, m)
        sel = alive & (bu == m)
        tips[sel] = level
        alive &= ~sel
    return pd.DataFrame({"u": u_ids, "tip": tips})
