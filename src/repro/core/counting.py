"""Per-vertex butterfly counting of the peel side as Spark dataflow
(paper alg. 1).

The vertex-priority algorithm's arithmetic is: enumerate wedges on one
side, count wedges per same-side vertex pair (``c``), then
* same-side contribution: each endpoint of a pair gets ``C(c, 2)``;
* opposite-side contribution: each common neighbor of the pair gets
  ``c - 1`` per wedge it centers.

The enumeration side is chosen as the one with fewer wedges (Sanei-Mehri
et al., paper §2.1). RECEIPT reads only the peel side's (``u``) counts:
CD's initial supports and HUC's re-counts. So only the contribution that
yields them runs, and its result is collected to the driver once, inside
this call:

* ``u`` pairs enumerated: ``⋈_u = Σ_{u'≠u} C(c_{u,u'}, 2)`` is exactly
  the decrement a peel round (:func:`repro.core.peel_round.batch_peel_round`)
  computes when the peeled set ``S`` is every vertex of the structure. So
  counting is that round, with every edge as a peeled edge ``(up, v)``,
  shipped from the mirror as a round ships its peeled set's edges. On the
  peel loop's structure, hash-partitioned by ``u`` and cached, its plan
  has no shuffle, like a round's. The join on ``v`` emits each pair of a
  wedge in both orders, ``2·Σ_v C(d_v, 2)`` rows.
* ``v`` pairs enumerated: a self-join of the edge list on the center
  ``u``, a count per ``(v, v')`` pair as a window over the wedge rows,
  and a roll-up of ``c - 1`` per wedge to its center.

The caller passes the driver's mirror of the edge list (pandas ``(u, v)``,
the same edges as the Spark frame), as the paper keeps its per-vertex
arrays in shared memory beside the wedge traversal. The side choice
comes from the mirror's degrees, counted with NumPy, and the zero-fill
for ``u`` vertices without butterflies is a pandas ``reindex`` over the
mirror's ``u`` ids. Spark runs only the join and its aggregations.

Wedge accounting: the number of enumerated wedges is
``Σ_center C(d_center, 2)`` for the chosen side, computed from the
mirror's degrees; each wedge is counted once, though the ``u``-side join
emits it twice. Table 3's Λ^pvBcnt column reports this value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.peel_round import batch_peel_round


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
    if enumerate_side == "u":  # ⋈_u: a peel round with S = every u
        wedges = wu
        # every edge is peeled, shipped from the mirror like a round's
        peeled = edges.sparkSession.createDataFrame(
            mirror[["u", "v"]], "up long, v long"
        )
        counts = batch_peel_round(edges, peeled).withColumnRenamed("d", "bcnt")
    elif enumerate_side == "v":  # u is a center: c - 1 per wedge
        wedges = wv
        e1 = edges.select(F.col("v").alias("p1"), F.col("u").alias("c0"))
        e2 = edges.select(F.col("v").alias("p2"), F.col("u").alias("c0"))
        # c per wedge row by a window, not a join back to the pair counts,
        # so the plan scans the edges once per side of the self-join
        c = F.count("*").over(Window.partitionBy("p1", "p2"))
        counts = (
            e1.join(e2, "c0")
            .where(F.col("p1") < F.col("p2"))
            .select("c0", (c - 1).alias("b"))
            .groupBy(F.col("c0").alias("u"))
            .agg(F.sum("b").alias("bcnt"))
        )
    else:
        raise ValueError(enumerate_side)
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
