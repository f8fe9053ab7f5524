"""One batched peel iteration as Spark dataflow — the update step of the
peel loop (:class:`repro.core.receipt_cd.BatchPeeler`) that CD and ParB
share.

A peel round deletes a set ``S`` of vertices and propagates support
updates to their 2-hop neighborhood: for each surviving ``u'`` sharing
``c`` wedges with a peeled ``u``, support drops by ``C(c, 2)`` (their
shared butterflies), floored at the round's peel level (alg. 2's
``update`` called for every ``u in S``; lemma 2 proves batch-safety
because a butterfly has exactly two U-vertices). In RECEIPT CD ``S`` is
all vertices in the current tip-number range and the floor is ``θ(i)``;
in ParB ``S`` is the minimum-support vertices and the floor that minimum.

The 2-hop propagation is one self-join on the center vertex — the
"message passing" round of the dataflow formulation. Pair wedge counts
between two surviving-or-just-peeled U vertices never change while U is
peeled (only U-side vertices leave, and a wedge's center is in V), so
counting pairs on the *current* structure is exact regardless of how
much stale adjacency DGM has or hasn't compacted away.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def batch_peel_round(
    edges_cur: DataFrame,
    remaining: DataFrame,
    active_ids: DataFrame,
    floor: int,
) -> DataFrame:
    """Apply one batched peel of ``active_ids`` to ``remaining``'s supports.

    ``remaining`` is the state *without* the active set — columns
    ``(u, sup, ...)``; extra columns pass through untouched. Returns the
    new state with ``sup = max(floor, sup - sum_{u in S} C(c_{u,u'}, 2))``.
    """
    peeled_edges = edges_cur.join(F.broadcast(active_ids), "u")
    wedge_rows = (
        peeled_edges.select(F.col("u").alias("up"), "v")
        .join(edges_cur.select(F.col("u").alias("uo"), "v"), "v")
        .where(F.col("uo") != F.col("up"))
    )
    # keep only updates targeting survivors: peeled-to-peeled butterflies
    # are irrelevant (both subsets already decided), and stale adjacency
    # entries (peeled earlier, pre-compaction) must not produce updates.
    live = wedge_rows.join(
        F.broadcast(remaining.select(F.col("u").alias("uo"))), "uo", "leftsemi"
    )
    delta = (
        live.groupBy("up", "uo")
        .agg(F.count("*").alias("c"))
        .withColumn("bf", (F.col("c") * (F.col("c") - 1) / 2).cast("long"))
        .groupBy("uo")
        .agg(F.sum("bf").alias("d"))
        .withColumnRenamed("uo", "u")
    )
    return (
        remaining.join(delta, "u", "left")
        .withColumn(
            "sup",
            F.greatest(
                F.lit(int(floor)).cast("long"),
                F.col("sup") - F.coalesce(F.col("d"), F.lit(0)),
            ),
        )
        .drop("d")
    )


def compact_edges(edges_cur: DataFrame, remaining: DataFrame) -> DataFrame:
    """DGM compaction: drop edges of peeled vertices (paper §4.2)."""
    return edges_cur.join(remaining.select("u"), "u", "leftsemi")
