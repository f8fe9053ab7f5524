"""Tests for the edge-DataFrame helpers and CD's driver-side cost model
(the graph quantities it computes from the collected edge list), checked
against the DuckDB oracle wherever the quantity is SQL-expressible."""
from collections import Counter

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.receipt_cd import _CostModel
from repro.graph import bipartite as bg
from repro.oracle import assert_equivalent

from .conftest import SMALL_GRAPHS


@pytest.fixture
def small_graph(spark, small_graph_pdf):
    return spark.createDataFrame(small_graph_pdf), small_graph_pdf


def test_orient_u_noop(spark):
    pdf = SMALL_GRAPHS["paper"]()
    edges = spark.createDataFrame(pdf)
    got = bg.orient(edges, "u").toPandas()
    assert sorted(map(tuple, got.values)) == sorted(map(tuple, pdf.values))


def test_orient_v_swaps(spark):
    pdf = SMALL_GRAPHS["paper"]()
    got = bg.orient(spark.createDataFrame(pdf), "v").toPandas()
    assert got["u"].tolist() == pdf["v"].tolist()
    assert got["v"].tolist() == pdf["u"].tolist()


def test_orient_rejects_bad_side(spark):
    edges = spark.createDataFrame(SMALL_GRAPHS["star"]())
    with pytest.raises(ValueError):
        bg.orient(edges, "w")


def test_validate_accepts(small_graph):
    edges, _ = small_graph
    bg.validate(edges)


def test_validate_rejects_duplicates(spark):
    pdf = pd.DataFrame({"u": [1, 1], "v": [2, 2]})
    with pytest.raises(AssertionError, match="duplicate"):
        bg.validate(spark.createDataFrame(pdf))


def test_validate_rejects_negative(spark):
    pdf = pd.DataFrame({"u": [-1], "v": [2]})
    with pytest.raises(AssertionError):
        bg.validate(spark.createDataFrame(pdf))


def test_validate_rejects_extra_columns(spark):
    pdf = pd.DataFrame({"u": [1], "v": [2], "w": [3]})
    with pytest.raises(AssertionError):
        bg.validate(spark.createDataFrame(pdf))


def test_degrees_oracle(small_graph):
    edges, pdf = small_graph
    got = bg.degrees(edges, "v").withColumn("deg", F.col("deg").cast("long"))
    assert_equivalent(
        got,
        "SELECT v, CAST(COUNT(*) AS BIGINT) AS deg FROM edges GROUP BY v",
        edges=pdf,
    )


def test_counts(small_graph):
    edges, pdf = small_graph
    assert bg.counts(edges) == (pdf["u"].nunique(), pdf["v"].nunique(), len(pdf))


def test_side_wedge_total_matches_formula(small_graph):
    edges, pdf = small_graph
    dv = pdf.groupby("v").size()
    du = pdf.groupby("u").size()
    assert bg.side_wedge_total(edges, "u") == int((dv * (dv - 1) // 2).sum())
    assert bg.side_wedge_total(edges, "v") == int((du * (du - 1) // 2).sum())


def test_vertex_wedge_counts_oracle(small_graph):
    """CD's static ``w0[u] = sum_{v in N_u} (d_v - 1)``, computed on the
    driver by the cost model."""
    edges, pdf = small_graph
    w0 = _CostModel(pdf).w0
    got = edges.sparkSession.createDataFrame(
        pd.DataFrame({"u": w0.index, "w": w0.to_numpy()})
    )
    assert_equivalent(
        got,
        """
        SELECT e.u AS u, CAST(SUM(d.deg - 1) AS BIGINT) AS w
        FROM edges e
        JOIN (SELECT v, COUNT(*) AS deg FROM edges GROUP BY v) d USING (v)
        GROUP BY e.u
        """,
        edges=pdf,
    )


def test_vertex_wedge_counts_sum_identity(small_graph):
    """sum_u w0[u] = 2 * (#wedges with endpoints in U)."""
    edges, pdf = small_graph
    assert int(_CostModel(pdf).w0.sum()) == 2 * bg.side_wedge_total(edges, "u")


def test_peel_cost_counts_oracle(small_graph):
    """Per-vertex peel cost ``c[u] = sum_{v in N_u} d_v`` from the cost
    model's ``C_peel`` of the one-vertex set ``{u}``."""
    edges, pdf = small_graph
    cost = _CostModel(pdf)
    us = pdf["u"].unique()
    got = edges.sparkSession.createDataFrame(
        pd.DataFrame({"u": us, "c": [cost.peel_cost([u]) for u in us]})
    )
    assert_equivalent(
        got,
        """
        SELECT e.u AS u, CAST(SUM(d.deg) AS BIGINT) AS c
        FROM edges e
        JOIN (SELECT v, COUNT(*) AS deg FROM edges GROUP BY v) d USING (v)
        GROUP BY e.u
        """,
        edges=pdf,
    )


def test_recount_cost_matches_pandas(small_graph):
    _, pdf = small_graph
    du = pdf.groupby("u")["v"].size()
    dv = pdf.groupby("v")["u"].size()
    want = int(
        pd.concat(
            [pdf["u"].map(du), pdf["v"].map(dv)], axis=1
        ).min(axis=1).sum()
    )
    assert _CostModel(pdf).recount_cost() == want


def _brute_costs(struct, alive, peel_set):
    """``(C_peel(peel_set), C_rcnt, |E_struct|)`` by direct summation over
    the structure's edges ``struct`` and the alive graph's edges ``alive``."""
    dv_struct = Counter(v for _, v in struct)
    c_peel = sum(dv_struct[v] for u, v in struct if u in peel_set)
    du, dv = Counter(u for u, _ in alive), Counter(v for _, v in alive)
    c_rcnt = sum(min(du[u], dv[v]) for u, v in alive)
    return c_peel, c_rcnt, len(struct)


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_cost_model_brute_force(name):
    """``_CostModel``'s C_peel, C_rcnt and |E_struct| before peeling,
    after ``peel()`` (structure stale) and after ``compact()``."""
    pdf = SMALL_GRAPHS[name]()
    edges = list(pdf.itertuples(index=False, name=None))
    us = sorted(pdf["u"].unique())
    first, second = set(us[::2]), set(us[1::2])
    cost = _CostModel(pdf)

    def check(struct, alive, peel_set):
        got = (cost.peel_cost(sorted(peel_set)), cost.recount_cost(), cost.m_struct)
        assert got == _brute_costs(struct, alive, peel_set)

    check(edges, edges, first)
    cost.peel(sorted(first))
    alive = [(u, v) for u, v in edges if u not in first]
    check(edges, alive, second)
    cost.compact()
    check(alive, alive, second)
