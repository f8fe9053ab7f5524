"""One batched peel iteration as Spark dataflow — the O(wedges) part of
the update step of the peel loop (:class:`repro.core.receipt_cd.BatchPeeler`)
that CD and ParB share.

A peel round deletes a set ``S`` of vertices and propagates support
updates to their 2-hop neighborhood: a ``u'`` sharing ``c`` wedges with a
peeled ``u`` loses ``C(c, 2)`` (their shared butterflies) — alg. 2's
``update`` called for every ``u in S``; lemma 2 proves batch-safety
because a butterfly has exactly two U-vertices. Spark computes only the
decrements, with one join on the center vertex (the "message passing"
round of the dataflow formulation). Applying them — the floor
``max(θ, sup − d)`` and dropping vertices that are no longer in the
state — is O(n) and happens on the driver, which owns the support state.

The plan needs no shuffle. ``receipt()`` and ``parb_spark()`` cache the
structure once, on entry, hash-partitioned by ``u``
(:func:`peel_structure`), and the peeled set's own edges ``(up, v)``
come from the driver's mirror of the edge list, not from Spark. They are
broadcast, so the join on ``v`` is a broadcast hash join that keeps the
structure's partitioning, and both aggregations, keyed by ``(up, u)``
and by ``u``, run inside the partitions. DGM's compaction is a broadcast
semi-join filter of the cached structure, so it keeps the partitioning
too and costs no job of its own. Counting the ``u`` side
(:mod:`repro.core.counting`) is this round with every vertex peeled, on
the same cache.

Pair wedge counts between two U vertices never change while U is peeled
(only U-side vertices leave, and a wedge's center is in V), so counting
pairs on the *current* structure is exact however much stale adjacency
DGM has or hasn't compacted away. Stale entries only add rows for
vertices peeled earlier (and pairs within ``S``), which the driver drops.
"""
from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@contextmanager
def peel_structure(edges: DataFrame) -> Iterator[DataFrame]:
    """``edges`` hash-partitioned by ``u`` into ``defaultParallelism``
    partitions and persisted: the structure that counting, every peel
    round and every HUC re-count read. The first job that reads it fills
    it; leaving the block releases it, on return and on error."""
    n = edges.sparkSession.sparkContext.defaultParallelism
    structure = edges.repartition(n, "u").persist()
    try:
        yield structure
    finally:
        structure.unpersist()


def batch_peel_round(edges_cur: DataFrame, peeled_edges: DataFrame) -> DataFrame:
    """Support decrements of one batched peel whose edges are
    ``peeled_edges`` ``(up, v)``: every edge of the structure ``edges_cur``
    ``(u, v)`` whose ``u`` is in the peeled set ``S``, renamed to ``up``.

    Returns ``(u, d)`` with ``d = Σ_{u'∈S} C(c_{u',u}, 2)`` for every
    ``u ≠ u'`` sharing a wedge with a peeled ``u'`` on ``edges_cur`` —
    survivors, other members of ``S`` and stale earlier-peeled vertices
    alike; the caller keeps the rows of the vertices it still holds.
    """
    return (
        edges_cur.join(F.broadcast(peeled_edges), "v")
        .where(F.col("u") != F.col("up"))
        .groupBy("up", "u")
        .agg(F.count("*").alias("c"))
        .groupBy("u")
        .agg(F.sum(F.expr("c * (c - 1) div 2")).alias("d"))
    )


def compact_edges(edges_cur: DataFrame, keep_ids: DataFrame) -> DataFrame:
    """DGM compaction: keep only the edges of ``keep_ids`` (paper §4.2),
    as a broadcast semi-join filter that keeps ``edges_cur``'s
    partitioning."""
    return edges_cur.join(F.broadcast(keep_ids), "u", "leftsemi")
