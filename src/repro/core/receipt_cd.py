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
one synchronization round, not one Spark job: it ships the peeled
vertices' edges ``(up, v)``, read from the driver's mirror of the edge
list, to Spark (one ``createDataFrame``), collects their neighbors'
support decrements (one ``toPandas``) and applies them, floored, to the
driver's state. That state is NumPy arrays over one factorization of the
mirror's ``u`` ids (the supports, the alive mask, ``findHi``'s weights,
CD's output), so original ids appear only where data crosses to or from
Spark: the shipped edges, a compaction's keep-ids and the collected
decrements or re-counts. The structure is the cache ``receipt()`` built
on entry, hash-partitioned by ``u``, which the initial count already
filled, so the round's plan has no shuffle and runs in two Spark jobs.
DGM's compaction is a lazy broadcast filter of that cache, so it adds no
job. The mirror is the edge list the caller collected once on entry (the
same one counting read). A HUC re-count compacts the same way, then
counts on the compacted structure itself: a ``u``-side count is a peel
round of every surviving vertex, in three jobs (the broadcasts of the
keep-ids and of the surviving edges, shipped from the mirror, and the
join). ρ counts
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
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core import counting
from repro.core.metrics import PhaseMetrics
from repro.core.peel_round import batch_peel_round, compact_edges, peel_structure

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

    Both sides are factorized once: ``eu``/``ev`` are the edges' vertex
    codes, and ``u_ids`` (a pandas ``Index``) maps a ``u`` code back to
    its original id. Every per-vertex quantity of the peel loop is a
    NumPy array indexed by ``u`` code. ``alive`` marks the peel-side
    vertices not yet peeled (the loop clears it in place), and
    ``struct_edge`` the edges still present in the *structure* (stale
    until a DGM/HUC compaction, like the paper's CSR). All quantities are
    exact NumPy reductions over the collected edge list ``mirror`` — no
    Spark job.
    """

    def __init__(self, mirror: pd.DataFrame):
        self.eu, self.u_ids = pd.factorize(mirror["u"])
        self.ev, v_ids = pd.factorize(mirror["v"])
        self._v_ids = v_ids.to_numpy()
        self.alive = np.ones(len(self.u_ids), dtype=bool)
        self.struct_edge = np.ones(len(self.eu), dtype=bool)  # in structure
        self.wedges_since = 0  # traversed since the last compaction (DGM)
        self._refresh_struct_degrees()
        #: static ``w0[u] = Σ_{v∈N_u} (d_v - 1)``, wedges with endpoint u
        #: (``findHi``'s weights)
        self.w0 = np.bincount(
            self.eu, self.dv_struct[self.ev] - 1, minlength=len(self.u_ids)
        ).astype(np.int64)

    def _refresh_struct_degrees(self) -> None:
        n_v = len(self._v_ids)
        self.dv_struct = np.bincount(self.ev[self.struct_edge], minlength=n_v)

    def edges_of(self, us: np.ndarray) -> np.ndarray:
        """Mask of the structure's edges whose ``u`` is in the vertex mask
        ``us`` — built once per round for C_peel and the shipped edges."""
        return us[self.eu] & self.struct_edge

    def compact(self) -> None:
        """Mirror a structure compaction (DGM / HUC re-count)."""
        self.struct_edge = self.alive[self.eu]
        self._refresh_struct_degrees()
        self.wedges_since = 0

    @property
    def m_struct(self) -> int:
        return int(self.struct_edge.sum())

    def peel_cost(self, sel: np.ndarray) -> int:
        """``C_peel = Σ_{u∈S} Σ_{v∈N_u^struct} d_v^struct`` for ``sel =
        edges_of(S)``."""
        return int(self.dv_struct[self.ev[sel]].sum())

    def peeled_edges(self, sel: np.ndarray) -> pd.DataFrame:
        """``sel``'s edges as ``(up, v)`` in original ids."""
        return pd.DataFrame(
            {"up": self.u_ids.to_numpy()[self.eu[sel]], "v": self._v_ids[self.ev[sel]]}
        )

    def struct_edges(self) -> pd.DataFrame:
        """The structure's edges as ``(u, v)`` in original ids — after
        :meth:`compact`, exactly the alive graph."""
        return self.peeled_edges(self.struct_edge).rename(columns={"up": "u"})

    def recount_cost(self) -> int:
        """``C_rcnt = Σ_{(u,v) alive} min(d_u, d_v)`` on the alive graph."""
        alive_edge = self.alive[self.eu]
        eu_a, ev_a = self.eu[alive_edge], self.ev[alive_edge]
        du = np.bincount(eu_a, minlength=len(self.u_ids))
        dv = np.bincount(ev_a, minlength=len(self._v_ids))
        return int(np.minimum(du[eu_a], dv[ev_a]).sum())

    def to_codes(self, ids: pd.Series, values: pd.Series) -> np.ndarray:
        """``values`` keyed by the original ids ``ids`` (each one of the
        mirror's ``u``), as an array over ``u`` codes; codes without a row
        get 0."""
        codes = self.u_ids.get_indexer(ids)
        if (codes < 0).any():
            raise ValueError("ids outside the edge list's u side")
        out = np.zeros(len(self.u_ids), dtype=np.int64)
        out[codes] = values
        return out


class BatchPeeler:
    """Batch peeling of the ``u`` side on Spark: the structure, the
    driver-side support array ``sup``, the cost model, and the counters
    of the rounds so far.

    ``sup`` is indexed by the cost model's ``u`` codes, like its
    ``alive`` mask. A vertex's support is frozen when it is peeled, so
    ``sup[~cost.alive]`` holds the value each peeled vertex left with.
    ``base`` is the structure the caller cached, hash-partitioned by
    ``u`` (:func:`repro.core.peel_round.peel_structure`), so a round's
    plan needs no shuffle; the current structure ``edges`` is ``base`` or
    a filter of it. ``mirror`` is the same edge list as pandas ``(u, v)``.
    Use it as a context manager: given a frame that is not cached, it
    builds the structure itself, and leaving the block releases it.
    """

    def __init__(
        self,
        edges: DataFrame,
        mirror: pd.DataFrame,
        sup: pd.DataFrame,
        *,
        huc: bool,
        dgm: bool,
    ):
        self.spark = edges.sparkSession
        # a cached frame is the caller's structure, for the caller to release
        self._cache = ExitStack()
        self.base = (
            edges if edges.is_cached else self._cache.enter_context(peel_structure(edges))
        )
        self.edges = self.base  # current structure, compacted by DGM and HUC
        self.cost = _CostModel(mirror)
        self.sup = self.cost.to_codes(sup["u"], sup["sup"])
        self.huc, self.dgm = huc, dgm
        self.metrics = PhaseMetrics()
        self.huc_recounts = 0
        self.dgm_compactions = 0

    def __enter__(self) -> BatchPeeler:
        return self

    def __exit__(self, *exc) -> None:
        self._cache.close()

    def peel_range(self, lo: int, hi: int, stop: Callable[[int], bool]) -> bool:
        """Peel every vertex whose support is in ``[lo, hi)``, round by
        round with floor ``lo``, until none is left.

        ``stop(rounds)`` is asked before each round with the rounds done
        so far; when it returns True the range is left unfinished.
        Returns whether the range was finished; the vertices it peeled
        are the ones it cleared in ``cost.alive``.
        """
        alive = self.cost.alive
        while True:
            active = alive & (self.sup >= lo) & (self.sup < hi)
            if not active.any():
                return True
            if stop(self.metrics.rounds):
                return False
            self.metrics.rounds += 1
            sel = self.cost.edges_of(active)
            c_peel = self.cost.peel_cost(sel)
            alive[active] = False
            recount = self.huc and c_peel > self.cost.recount_cost()
            if recount:
                self.huc_recounts += 1
            else:
                self.metrics.wedges += c_peel
            if not alive.any():
                continue
            if recount:
                self._recount(lo)
            else:
                self._update(sel, lo, c_peel)

    def _update(self, sel: np.ndarray, lo: int, c_peel: int) -> None:
        """Propagate the peel of the vertices of ``sel``'s edges to the
        alive vertices (one 2-hop join), then compact the structure if
        DGM's budget is spent."""
        peeled_edges = self.spark.createDataFrame(self.cost.peeled_edges(sel))
        delta = batch_peel_round(self.edges, peeled_edges).toPandas()
        # rows of peeled vertices (this round's or stale adjacency) land
        # on dead codes, which are never read again
        d = self.cost.to_codes(delta["u"], delta["d"])
        alive = self.cost.alive
        self.sup[alive] = np.maximum(lo, self.sup[alive] - d[alive])
        self.cost.wedges_since += c_peel
        if self.dgm and self.cost.wedges_since > self.cost.m_struct:
            self._compact()
            self.dgm_compactions += 1

    def _recount(self, lo: int) -> None:
        """HUC: re-count butterflies on the surviving graph instead, on
        the compacted structure; the mirror's surviving edges give the
        side choice and the zero-fill."""
        self._compact()
        bc = counting.per_vertex_butterflies(self.edges, self.cost.struct_edges())
        new_sup = self.cost.to_codes(bc.u_counts["u"], bc.u_counts["bcnt"])
        alive = self.cost.alive
        self.sup[alive] = np.maximum(lo, new_sup[alive])
        self.metrics.wedges += bc.wedges

    def _compact(self) -> None:
        """Drop the edges of peeled vertices from the structure (DGM, and
        before each HUC re-count). A lazy filter of ``base``, not of the
        last structure, so plans do not chain."""
        keep = pd.DataFrame({"u": self.cost.u_ids[self.cost.alive]})
        self.edges = compact_edges(self.base, self.spark.createDataFrame(keep))
        self.cost.compact()


def _iteration_bound(rounds: int) -> bool:
    if rounds >= MAX_ITERS:
        raise RuntimeError("CD iteration bound exceeded — bug")
    return False


def _find_hi(sup: np.ndarray, w0: np.ndarray, tgt: float) -> int:
    """Paper's ``findHi``: smallest support whose cumulative wedge count
    reaches ``tgt``, plus one. Falls back to "peel everything" when the
    remaining wedge mass cannot reach the target (incl. the all-zero
    case, where supports can never change again)."""
    levels, level = np.unique(sup, return_inverse=True)
    cum = np.cumsum(np.bincount(level, w0))
    reach = np.flatnonzero(cum >= max(tgt, 1))
    return int(levels[reach[0] if len(reach) else -1]) + 1


def receipt_cd(
    edges: DataFrame,
    mirror: pd.DataFrame,
    sup: pd.DataFrame,
    n_partitions: int,
    *,
    huc: bool = True,
    dgm: bool = True,
) -> CDResult:
    """Run coarse decomposition of the ``u`` side of ``edges``.

    ``edges`` must already be oriented and deduplicated; ``receipt()``
    passes the structure it cached on entry, which the count filled (see
    :class:`BatchPeeler` for a frame not cached). ``mirror`` is the same
    edge list as pandas ``(u, v)``. ``sup`` is the initial
    support, pandas ``(u, sup)`` from counting (one row per peel-side
    vertex, in any order).
    """
    t0 = time.perf_counter()
    peeler = BatchPeeler(edges, mirror, sup, huc=huc, dgm=dgm)
    cost = peeler.cost
    alive, w0 = cost.alive, cost.w0
    # per u code: the subset it joins and its support when that subset's
    # range began (⋈_init)
    subset = np.zeros(len(w0), dtype=np.int64)
    init_sup = np.zeros(len(w0), dtype=np.int64)
    ranges = [0]
    lo = 0
    s_prev = 1.0
    i = 1
    with peeler:
        while i <= n_partitions and alive.any():
            tgt = s_prev * float(w0[alive].sum()) / (n_partitions - i + 1)
            hi = _find_hi(peeler.sup[alive], w0[alive], tgt)
            was_alive, snap = alive.copy(), peeler.sup.copy()
            peeler.peel_range(lo, hi, _iteration_bound)
            peeled = was_alive & ~alive
            subset[peeled] = i
            init_sup[peeled] = snap[peeled]
            covered_w = int(w0[peeled].sum())
            s_prev = min(1.0, tgt / covered_w) if covered_w > 0 else 1.0
            ranges.append(hi)
            lo = hi
            i += 1
    # leftovers after P ranges form subset P+1 (paper §3.1.1)
    if alive.any():
        subset[alive] = i
        init_sup[alive] = peeler.sup[alive]
        ranges.append(int(peeler.sup[alive].max()) + 1)
    membership = pd.DataFrame(
        {"u": cost.u_ids.to_numpy(), "init_sup": init_sup, "subset": subset}
    )
    peeler.metrics.seconds = time.perf_counter() - t0
    return CDResult(
        membership=membership,
        ranges=ranges,
        metrics=peeler.metrics,
        huc_recounts=peeler.huc_recounts,
        dgm_compactions=peeler.dgm_compactions,
    )
