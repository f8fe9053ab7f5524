"""RECEIPT CD — coarse-grained decomposition (paper alg. 3) as an
iterative Spark dataflow.

Partitions the peel side ``U`` into ``P`` (occasionally ``P+1``) subsets
with non-overlapping tip-number ranges. Each iteration peels *every*
vertex whose support lies in the current range ``[θ(i), θ(i+1))`` with a
single batched 2-hop update join (:mod:`repro.core.peel_round`) — the
paper's key idea for collapsing ~10^5-10^6 min-support rounds into ~10^3
range rounds. The iteration count is the paper's ρ for RECEIPT.

Execution split: the O(wedges) work — the 2-hop message join and, when
HUC fires, full re-counting — runs as Spark dataflow; the O(n) vertex
support state and the O(m) HUC/DGM *cost model* (degree sums) live on
the driver, exactly as the paper keeps per-vertex/per-degree arrays in
shared memory beside its parallel wedge traversal. A peel iteration is
one synchronization round, not one Spark job: it ships the active and
surviving ids to Spark (two ``createDataFrame`` calls) and collects the
new supports (one ``toPandas``), and each of these can run several jobs;
DGM and HUC add their own compaction and re-count jobs. ρ counts
iterations, so it is independent of how many jobs each one takes.

:class:`BatchPeeler` is the one peel loop: CD peels ranges from
``findHi``, and ParB (:mod:`repro.core.parb`) peels ranges one support
level wide with HUC and DGM off.

Implemented paper features:

* ``findHi`` range determination — histogram of current supports
  weighted by static wedge counts ``w[u]``, prefix-summed; the upper
  bound is the smallest support whose cumulative wedge count reaches the
  target.
* two-way adaptive ranges (§3.1.1) — the target is recomputed each range
  from the remaining wedge mass and scaled by
  ``s_i = min(1, tgt / covered_i)`` to damp overshoot.
* HUC (§4.1) — when ``C_peel = Σ_{u∈S} Σ_{v∈N_u} d_v^struct`` exceeds
  ``C_rcnt = Σ_{(u,v)∈E_alive} min(d_u, d_v)``, butterflies are
  re-counted on the surviving graph (Spark counting) instead of
  propagating updates.
* DGM (§4.2) — the edge structure is compacted to surviving vertices
  once more than ``|E_struct|`` wedges were traversed since the last
  compaction.
* ``⋈_init`` capture — each vertex's support at the instant its range's
  peeling began, used to initialize FD (alg. 3 lines 6-7).
"""
from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core import counting
from repro.core.metrics import PhaseMetrics
from repro.core.peel_round import batch_peel_round, compact_edges

#: hard safety bound on peel iterations (a correct CD run needs far fewer)
MAX_ITERS = 100_000


@dataclass
class CDResult:
    """Output of coarse decomposition.

    ``membership``: pandas ``(u, subset, init_sup)`` — one row per
    peel-side vertex; ``subset`` is 1-based. ``ranges``: the bounds
    ``[θ(1), ..., θ(P'+1)]`` with ``θ(1) = 0`` — subset ``i`` holds tip
    numbers in ``[ranges[i-1], ranges[i])``.
    """

    membership: pd.DataFrame
    ranges: list[int]
    metrics: PhaseMetrics = field(default_factory=PhaseMetrics)
    huc_recounts: int = 0
    dgm_compactions: int = 0


class _CostModel:
    """Driver-side mirror of the edge list for HUC/DGM cost accounting.

    Tracks which peel-side vertices are alive and which edges are still
    present in the *structure* (stale until a DGM/HUC compaction, like
    the paper's CSR). All quantities are exact NumPy reductions over the
    collected edge list — no Spark job.
    """

    def __init__(self, edges_pdf: pd.DataFrame):
        self.eu = edges_pdf["u"].to_numpy()
        self.ev, self._v_ids = pd.factorize(edges_pdf["v"])
        self.alive_edge = np.ones(len(self.eu), dtype=bool)  # u alive
        self.struct_edge = np.ones(len(self.eu), dtype=bool)  # in structure
        self.wedges_since = 0  # traversed since the last compaction (DGM)
        self._refresh_struct_degrees()
        #: static ``w0[u] = Σ_{v∈N_u} (d_v - 1)``, wedges with endpoint u
        #: (``findHi``'s weights), indexed by u
        self.w0 = pd.Series(self.dv_struct[self.ev] - 1).groupby(self.eu).sum()

    def _refresh_struct_degrees(self) -> None:
        n_v = len(self._v_ids)
        self.dv_struct = np.bincount(self.ev[self.struct_edge], minlength=n_v)

    def peel(self, us: pd.Series | np.ndarray) -> None:
        """Mark vertices as peeled (their edges leave the alive graph)."""
        peeled = set(np.asarray(us).tolist())
        mask = pd.Series(self.eu).isin(peeled).to_numpy()
        self.alive_edge &= ~mask

    def compact(self) -> None:
        """Mirror a structure compaction (DGM / HUC re-count)."""
        self.struct_edge = self.alive_edge.copy()
        self._refresh_struct_degrees()
        self.wedges_since = 0

    @property
    def m_struct(self) -> int:
        return int(self.struct_edge.sum())

    def peel_cost(self, us: pd.Series | np.ndarray) -> int:
        """``C_peel = Σ_{u∈S} Σ_{v∈N_u^struct} d_v^struct``."""
        sel = pd.Series(self.eu).isin(set(np.asarray(us).tolist())).to_numpy()
        sel &= self.struct_edge
        return int(self.dv_struct[self.ev[sel]].sum())

    def recount_cost(self) -> int:
        """``C_rcnt = Σ_{(u,v) alive} min(d_u, d_v)`` on the alive graph."""
        eu_a = self.eu[self.alive_edge]
        ev_a = self.ev[self.alive_edge]
        if not len(eu_a):
            return 0
        codes, _ = pd.factorize(eu_a)
        du = np.bincount(codes)
        dv = np.bincount(ev_a, minlength=len(self._v_ids))
        return int(np.minimum(du[codes], dv[ev_a]).sum())


class BatchPeeler:
    """Batch peeling of the ``u`` side on Spark: the structure, the
    driver-side support vector ``state`` ``(u, sup)`` of unpeeled
    vertices, the cost model, and the counters of the rounds so far."""

    def __init__(self, edges: DataFrame, sup: DataFrame, *, huc: bool, dgm: bool):
        self.spark = edges.sparkSession
        self.edges = edges  # current structure, compacted by DGM and HUC
        self.cost = _CostModel(edges.toPandas())
        self.state = sup.toPandas()
        self.state["sup"] = self.state["sup"].astype("int64")
        self.huc, self.dgm = huc, dgm
        self.metrics = PhaseMetrics()
        self.huc_recounts = 0
        self.dgm_compactions = 0

    def peel_range(
        self, lo: int, hi: int, stop: Callable[[int], bool]
    ) -> tuple[list[pd.Series], bool]:
        """Peel every vertex whose support is in ``[lo, hi)``, round by
        round with floor ``lo``, until none is left.

        ``stop(rounds)`` is asked before each round with the rounds done
        so far; when it returns True the range is left unfinished.
        Returns the ids peeled in each round and whether the range was
        finished.
        """
        peeled: list[pd.Series] = []
        while True:
            state = self.state
            in_range = (state["sup"] >= lo) & (state["sup"] < hi)
            if not in_range.any():
                return peeled, True
            if stop(self.metrics.rounds):
                return peeled, False
            self.metrics.rounds += 1
            active, remaining = state[in_range], state[~in_range]
            peeled.append(active["u"])
            c_peel = self.cost.peel_cost(active["u"])
            self.cost.peel(active["u"])
            recount = self.huc and c_peel > self.cost.recount_cost()
            if recount:
                self.huc_recounts += 1
            else:
                self.metrics.wedges += c_peel
            if remaining.empty:
                self.state = remaining
            elif recount:
                self._recount(remaining, lo)
            else:
                self._update(active, remaining, lo, c_peel)

    def _update(
        self, active: pd.DataFrame, remaining: pd.DataFrame, lo: int, c_peel: int
    ) -> None:
        """Propagate the peel of ``active`` to ``remaining`` (one 2-hop
        join), then compact the structure if DGM's budget is spent."""
        active_ids = self.spark.createDataFrame(active[["u"]])
        remaining_sdf = self.spark.createDataFrame(remaining)
        self.state = batch_peel_round(
            self.edges, remaining_sdf, active_ids, floor=lo
        ).toPandas()
        self.cost.wedges_since += c_peel
        if self.dgm and self.cost.wedges_since > self.cost.m_struct:
            keep_sdf = self.spark.createDataFrame(self.state[["u"]])
            self.edges = compact_edges(self.edges, keep_sdf).localCheckpoint()
            self.cost.compact()
            self.dgm_compactions += 1

    def _recount(self, remaining: pd.DataFrame, lo: int) -> None:
        """HUC: re-count butterflies on the surviving graph instead."""
        remaining_sdf = self.spark.createDataFrame(remaining[["u"]])
        self.edges = compact_edges(self.edges, remaining_sdf).localCheckpoint()
        self.cost.compact()
        bc = counting.per_vertex_butterflies(self.edges)
        new_sup = bc.u_counts.toPandas().rename(columns={"bcnt": "sup_new"})
        state = remaining.drop(columns=["sup"]).merge(new_sup, "left", on="u")
        state["sup"] = state["sup_new"].fillna(0).astype("int64").clip(lower=lo)
        self.state = state[["u", "sup"]]
        self.metrics.wedges += bc.wedges


def _iteration_bound(rounds: int) -> bool:
    if rounds >= MAX_ITERS:
        raise RuntimeError("CD iteration bound exceeded — bug")
    return False


def _find_hi(sup: pd.Series, w0: pd.Series, tgt: float) -> int:
    """Paper's ``findHi``: smallest support whose cumulative wedge count
    reaches ``tgt``, plus one. Falls back to "peel everything" when the
    remaining wedge mass cannot reach the target (incl. the all-zero
    case, where supports can never change again)."""
    hist = w0.groupby(sup.to_numpy()).sum()
    cum = hist.cumsum()
    reach = cum[cum >= max(tgt, 1)]
    if len(reach):
        return int(reach.index[0]) + 1
    return int(hist.index[-1]) + 1


def receipt_cd(
    edges: DataFrame,
    sup: DataFrame,
    n_partitions: int,
    *,
    huc: bool = True,
    dgm: bool = True,
) -> CDResult:
    """Run coarse decomposition of the ``u`` side of ``edges``.

    ``sup`` is the initial support ``(u, sup)`` from counting (one row
    per peel-side vertex). ``edges`` must already be oriented.
    """
    t0 = time.perf_counter()
    peeler = BatchPeeler(edges, sup, huc=huc, dgm=dgm)
    w0 = peeler.cost.w0
    ranges = [0]
    lo = 0
    members_acc: list[pd.DataFrame] = []
    s_prev = 1.0
    i = 1
    while i <= n_partitions and len(peeler.state):
        state = peeler.state
        w = state["u"].map(w0)
        tgt = s_prev * float(w.sum()) / (n_partitions - i + 1)
        hi = _find_hi(state["sup"], w, tgt)
        snap = state[["u", "sup"]].rename(columns={"sup": "init_sup"})
        peeled, _ = peeler.peel_range(lo, hi, _iteration_bound)
        if peeled:
            mem = pd.concat(peeled, ignore_index=True).to_frame().merge(snap, on="u")
            mem["subset"] = i
            members_acc.append(mem)
            covered_w = int(mem["u"].map(w0).sum())
            s_prev = min(1.0, tgt / covered_w) if covered_w > 0 else 1.0
        else:
            s_prev = 1.0
        ranges.append(hi)
        lo = hi
        i += 1
    # leftovers after P ranges form subset P+1 (paper §3.1.1)
    state = peeler.state
    if len(state):
        mem = state.rename(columns={"sup": "init_sup"})[["u", "init_sup"]].copy()
        mem["subset"] = i
        members_acc.append(mem)
        ranges.append(int(state["sup"].max()) + 1)
    membership = (
        pd.concat(members_acc, ignore_index=True)[["u", "init_sup", "subset"]]
        if members_acc
        else pd.DataFrame(columns=["u", "init_sup", "subset"])
    )
    for c in ("u", "init_sup", "subset"):
        membership[c] = membership[c].astype("int64")
    peeler.metrics.seconds = time.perf_counter() - t0
    return CDResult(
        membership=membership,
        ranges=ranges,
        metrics=peeler.metrics,
        huc_recounts=peeler.huc_recounts,
        dgm_compactions=peeler.dgm_compactions,
    )
