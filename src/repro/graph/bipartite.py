"""Edge-DataFrame helpers for bipartite graphs.

A bipartite graph is represented as a Spark DataFrame with two long
columns ``u`` and ``v`` — one row per (undirected) edge between the two
disjoint vertex sets ``U`` and ``V``. Vertex ids are arbitrary
non-negative longs; no deduplication is assumed by the helpers, so
generators must emit distinct edges (``validate`` checks this).

All peeling code in :mod:`repro.core` peels the ``u`` side; callers that
want to peel ``V`` first call :func:`orient` to swap the columns.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

#: canonical column names
U_COL, V_COL = "u", "v"


def orient(edges: DataFrame, side: str) -> DataFrame:
    """Return ``edges`` with the peel side in column ``u``.

    ``side`` is ``"u"`` (no-op) or ``"v"`` (swap columns).
    """
    if side == U_COL:
        return edges.select(U_COL, V_COL)
    if side == V_COL:
        return edges.select(
            F.col(V_COL).alias(U_COL), F.col(U_COL).alias(V_COL)
        )
    raise ValueError(f"side must be 'u' or 'v', got {side!r}")


def validate(edges: DataFrame) -> None:
    """Assert the frame is a well-formed bipartite edge list.

    Checks column set, non-null, non-negative ids and absence of
    duplicate edges. Raises ``AssertionError`` on violation.
    """
    assert set(edges.columns) == {U_COL, V_COL}, edges.columns
    row = edges.agg(
        F.count("*").alias("m"),
        F.countDistinct(U_COL, V_COL).alias("md"),
        F.min(U_COL).alias("minu"),
        F.min(V_COL).alias("minv"),
        F.sum(F.col(U_COL).isNull().cast("int")).alias("nullu"),
        F.sum(F.col(V_COL).isNull().cast("int")).alias("nullv"),
    ).first()
    assert (row["nullu"] or 0) == 0 and (row["nullv"] or 0) == 0, "null ids"
    assert row["m"] == row["md"], f"duplicate edges: {row['m']} vs {row['md']}"
    if row["m"]:
        assert row["minu"] >= 0 and row["minv"] >= 0, "negative vertex id"


def degrees(edges: DataFrame, col: str) -> DataFrame:
    """Per-vertex degree of side ``col`` as ``(col, deg)``."""
    return edges.groupBy(col).agg(F.count("*").alias("deg"))


def counts(edges: DataFrame) -> tuple[int, int, int]:
    """``(|U|, |V|, |E|)`` counting only non-isolated vertices."""
    row = edges.agg(
        F.countDistinct(U_COL).alias("nu"),
        F.countDistinct(V_COL).alias("nv"),
        F.count("*").alias("m"),
    ).first()
    return int(row["nu"]), int(row["nv"]), int(row["m"])


def side_wedge_total(edges: DataFrame, side: str = U_COL) -> int:
    """Total number of wedges with both endpoints in ``side``.

    A wedge with endpoints in ``U`` is a path ``u1 - v - u2`` (u1 != u2),
    so the total is ``sum_v C(d_v, 2)``; symmetrically for ``V``.
    """
    other = V_COL if side == U_COL else U_COL
    out = (
        degrees(edges, other)
        .agg(F.sum(F.col("deg") * (F.col("deg") - 1) / 2).alias("w"))
        .first()["w"]
    )
    return int(out or 0)
