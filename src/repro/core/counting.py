"""Per-vertex butterfly counting as Spark dataflow (paper alg. 1).

The vertex-priority algorithm's arithmetic is: enumerate wedges on one
side, count wedges per same-side vertex pair (``c``), then
* same-side contribution: each endpoint of a pair gets ``C(c, 2)``;
* opposite-side contribution: each common neighbor of the pair gets
  ``c - 1`` per wedge it centers.

In dataflow form the wedge enumeration is a self-join of the edge list
on the center vertex, and the contributions are two aggregations — the
"message passing for butterfly counts" of the reproduction hint. The
enumeration side is chosen as the one with fewer wedges (Sanei-Mehri et
al., paper §2.1), which also serves HUC's re-counting path.

Wedge accounting: the number of *enumerated* wedges is
``sum_center C(d_center, 2)`` for the chosen side (computed
analytically — identical to the self-join row count for a deduplicated
edge list). Table 3's Λ^pvBcnt column reports this value.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph import bipartite as bg


@dataclass
class ButterflyCounts:
    """Outputs of one counting pass.

    ``u_counts``/``v_counts``: ``(u|v, bcnt)`` with a row for *every*
    non-isolated vertex of the side (zero-filled). ``total`` is the
    number of butterflies in the graph; ``wedges`` the enumerated wedge
    count; ``side`` which side's pairs were enumerated.
    """

    u_counts: DataFrame
    v_counts: DataFrame
    total: int
    wedges: int
    side: str


def per_vertex_butterflies(
    edges: DataFrame, enumerate_side: str = "auto"
) -> ButterflyCounts:
    """Count butterflies per vertex on both sides of ``edges``."""
    wu = bg.side_wedge_total(edges, "u")  # wedges with endpoints in U
    wv = bg.side_wedge_total(edges, "v")
    if enumerate_side == "auto":
        enumerate_side = "u" if wu <= wv else "v"
    if enumerate_side == "u":
        end_col, cen_col, wedges = "u", "v", wu
    elif enumerate_side == "v":
        end_col, cen_col, wedges = "v", "u", wv
    else:
        raise ValueError(enumerate_side)

    e1 = edges.select(F.col(end_col).alias("p1"), F.col(cen_col).alias("c0"))
    e2 = edges.select(F.col(end_col).alias("p2"), F.col(cen_col).alias("c0"))
    wedge_rows = e1.join(e2, "c0").where(F.col("p1") < F.col("p2"))
    wedge_rows = wedge_rows.persist()
    try:
        pairs = (
            wedge_rows.groupBy("p1", "p2")
            .agg(F.count("*").alias("c"))
            .withColumn("bf", (F.col("c") * (F.col("c") - 1) / 2).cast("long"))
            .persist()
        )
        total = int(pairs.agg(F.sum("bf")).first()[0] or 0)
        end_counts = (
            pairs.select(F.col("p1").alias("x"), "bf")
            .unionAll(pairs.select(F.col("p2").alias("x"), "bf"))
            .groupBy("x")
            .agg(F.sum("bf").alias("bcnt"))
        )
        cen_counts = (
            wedge_rows.join(pairs.select("p1", "p2", "c"), ["p1", "p2"])
            .groupBy("c0")
            .agg(F.sum(F.col("c") - 1).alias("bcnt"))
        )
        end_full = _zero_fill(edges, end_col, end_counts, "x")
        cen_full = _zero_fill(edges, cen_col, cen_counts, "c0")
        # materialize before unpersisting the wedge join
        end_full = end_full.localCheckpoint(eager=True)
        cen_full = cen_full.localCheckpoint(eager=True)
    finally:
        wedge_rows.unpersist()
        pairs.unpersist()
    if enumerate_side == "u":
        u_counts = end_full.withColumnRenamed("x", "u")
        v_counts = cen_full.withColumnRenamed("c0", "v")
    else:
        u_counts = cen_full.withColumnRenamed("c0", "u")
        v_counts = end_full.withColumnRenamed("x", "v")
    return ButterflyCounts(
        u_counts=u_counts,
        v_counts=v_counts,
        total=total,
        wedges=wedges,
        side=enumerate_side,
    )


def _zero_fill(
    edges: DataFrame, side_col: str, counts: DataFrame, key: str
) -> DataFrame:
    """Left-join counts onto all distinct side vertices, filling zeros."""
    verts = edges.select(F.col(side_col).alias(key)).distinct()
    return verts.join(counts, key, "left").select(
        key, F.coalesce("bcnt", F.lit(0)).cast("long").alias("bcnt")
    )


def support_init(edges: DataFrame) -> tuple[DataFrame, ButterflyCounts]:
    """Initial peel-side supports ``(u, sup)`` plus the full counts."""
    bc = per_vertex_butterflies(edges)
    sup = bc.u_counts.select("u", F.col("bcnt").alias("sup"))
    return sup, bc
