"""Per-vertex butterfly counting of the peel side as Spark dataflow
(paper alg. 1).

The vertex-priority algorithm's arithmetic is: enumerate wedges on one
side, count wedges per same-side vertex pair (``c``), then
* same-side contribution: each endpoint of a pair gets ``C(c, 2)``;
* opposite-side contribution: each common neighbor of the pair gets
  ``c - 1`` per wedge it centers.

In dataflow form the wedge enumeration is a self-join of the edge list
on the center vertex, and a contribution is one aggregation — the
"message passing for butterfly counts" of the reproduction hint. The
enumeration side is chosen as the one with fewer wedges (Sanei-Mehri et
al., paper §2.1). RECEIPT reads only the peel side's (``u``) counts: CD's
initial supports and HUC's re-counts. So only the roll-up that yields
them runs — the same-side one when ``u`` pairs are enumerated, the
opposite-side one when ``v`` pairs are — and its result is collected to
the driver once, inside this call.

The caller passes the driver's mirror of the edge list (pandas ``(u, v)``,
the same edges as the Spark frame), as the paper keeps its per-vertex
arrays in shared memory beside the wedge traversal. The side choice
comes from the mirror's degrees, counted with NumPy, and the zero-fill
for ``u`` vertices without butterflies is a pandas ``reindex`` over the
mirror's ``u`` ids. Spark runs only the self-join roll-up.

Wedge accounting: the number of *enumerated* wedges is
``sum_center C(d_center, 2)`` for the chosen side (computed from the
mirror's degrees — identical to the self-join row count for a
deduplicated edge list). Table 3's Λ^pvBcnt column reports this value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass
class ButterflyCounts:
    """Outputs of one counting pass.

    ``u_counts``: pandas ``(u, bcnt)`` with a row for *every* non-isolated
    ``u`` vertex (zero-filled); ``wedges`` the enumerated wedge count.
    """

    u_counts: pd.DataFrame
    wedges: int


def _wedges_centered(ids: np.ndarray) -> int:
    """``Σ_c C(d_c, 2)`` over the vertices ``c`` listed (with repeats,
    one per edge) in ``ids``."""
    d = np.unique(ids, return_counts=True)[1]
    return int((d * (d - 1) // 2).sum())


def per_vertex_butterflies(
    edges: DataFrame, mirror: pd.DataFrame, enumerate_side: str = "auto"
) -> ButterflyCounts:
    """Count butterflies per ``u`` vertex of ``edges``; ``mirror`` is the
    same edge list as pandas ``(u, v)``."""
    wu = _wedges_centered(mirror["v"].to_numpy())  # wedges with endpoints in U
    wv = _wedges_centered(mirror["u"].to_numpy())
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
    pairs = wedge_rows.groupBy("p1", "p2").agg(F.count("*").alias("c"))
    if enumerate_side == "u":  # u is an endpoint: C(c, 2) per pair
        pairs = pairs.withColumn("bf", F.expr("c * (c - 1) div 2"))
        counts = (
            pairs.select(F.col("p1").alias("u"), "bf")
            .unionAll(pairs.select(F.col("p2").alias("u"), "bf"))
            .groupBy("u")
            .agg(F.sum("bf").alias("bcnt"))
        )
    else:  # u is a center: c - 1 per wedge
        counts = (
            wedge_rows.join(pairs, ["p1", "p2"])
            .groupBy(F.col("c0").alias("u"))
            .agg(F.sum(F.col("c") - 1).alias("bcnt"))
        )
    u_ids = pd.Index(pd.unique(mirror["u"]), name="u")
    u_counts = (
        counts.toPandas()
        .set_index("u")["bcnt"]
        .reindex(u_ids, fill_value=0)
        .astype("int64")
        .reset_index()
    )
    return ButterflyCounts(u_counts=u_counts, wedges=wedges)


def support_init(
    edges: DataFrame, mirror: pd.DataFrame
) -> tuple[pd.DataFrame, ButterflyCounts]:
    """Initial peel-side supports, pandas ``(u, sup)``, plus the counts;
    ``mirror`` is ``edges`` as pandas ``(u, v)``."""
    bc = per_vertex_butterflies(edges, mirror)
    sup = bc.u_counts.rename(columns={"bcnt": "sup"})
    return sup, bc
