"""Tests for the Spark dataflow butterfly counting (paper alg. 1),
checked against the DuckDB oracle and the NumPy counter."""
import pandas as pd
import pytest

from repro.core.bup import edges_to_numpy
from repro.core.counting import per_vertex_butterflies, support_init
from repro.core.kernel import count_butterflies_np
from repro.graph import bipartite as bg
from repro.oracle import assert_equivalent

from .conftest import SMALL_GRAPHS, brute_force_vertex_butterflies

#: DuckDB reference for per-vertex butterfly counts of the U side
U_COUNT_SQL = """
WITH w AS (
  SELECT e1.u AS u1, e2.u AS u2
  FROM edges e1 JOIN edges e2 ON e1.v = e2.v AND e1.u < e2.u
), p AS (
  SELECT u1, u2, COUNT(*) AS c FROM w GROUP BY u1, u2
), contrib AS (
  SELECT u1 AS u, (c * (c - 1)) // 2 AS b FROM p
  UNION ALL
  SELECT u2 AS u, (c * (c - 1)) // 2 AS b FROM p
)
SELECT au.u AS u, CAST(COALESCE(s.b, 0) AS BIGINT) AS bcnt
FROM (SELECT DISTINCT u FROM edges) au
LEFT JOIN (SELECT u, SUM(b) AS b FROM contrib GROUP BY u) s USING (u)
"""

#: DuckDB reference for the same U counts in opposite-side form: ``v``
#: pairs are enumerated and each ``u`` gets ``c - 1`` per wedge it centers
U_CENTER_COUNT_SQL = """
WITH w AS (
  SELECT e1.v AS v1, e2.v AS v2, e1.u AS u
  FROM edges e1 JOIN edges e2 ON e1.u = e2.u AND e1.v < e2.v
), p AS (
  SELECT v1, v2, COUNT(*) AS c FROM w GROUP BY v1, v2
), contrib AS (
  SELECT w.u AS u, p.c - 1 AS b FROM w JOIN p USING (v1, v2)
)
SELECT au.u AS u, CAST(COALESCE(s.b, 0) AS BIGINT) AS bcnt
FROM (SELECT DISTINCT u FROM edges) au
LEFT JOIN (SELECT u, SUM(b) AS b FROM contrib GROUP BY u) s USING (u)
"""


@pytest.fixture
def small_graph(spark, small_graph_pdf):
    return spark.createDataFrame(small_graph_pdf), small_graph_pdf


def test_u_counts_oracle(small_graph):
    """U counts through both roll-ups: same-side (``u`` pairs enumerated)
    and opposite-side (``v`` pairs enumerated)."""
    edges, pdf = small_graph
    for enumerate_side in ("u", "v"):
        bc = per_vertex_butterflies(edges, enumerate_side=enumerate_side)
        assert_equivalent(bc.u_counts, U_COUNT_SQL, edges=pdf)


def test_v_counts_oracle(small_graph):
    """The opposite-side roll-up (``v`` pairs enumerated) against its own
    DuckDB formula, ``c - 1`` per centered wedge."""
    edges, pdf = small_graph
    bc = per_vertex_butterflies(edges, enumerate_side="v")
    assert_equivalent(bc.u_counts, U_CENTER_COUNT_SQL, edges=pdf)


def test_matches_numpy(small_graph):
    edges, pdf = small_graph
    bc = per_vertex_butterflies(edges)
    n_u, n_v, eu, ev, u_ids, _ = edges_to_numpy(pdf)
    bu, _, _, _ = count_butterflies_np(n_u, n_v, eu, ev)
    got_u = bc.u_counts.set_index("u")["bcnt"]
    for i, uid in enumerate(u_ids):
        assert got_u[uid] == bu[i]


def test_sum_identity(small_graph):
    edges, pdf = small_graph
    bc = per_vertex_butterflies(edges)
    _, _, total = brute_force_vertex_butterflies(pdf)
    assert int(bc.u_counts["bcnt"].sum()) == 2 * total


@pytest.mark.parametrize("forced", ["u", "v"])
def test_enumeration_side_invariance(spark, forced):
    pdf = SMALL_GRAPHS["paper"]()
    edges = spark.createDataFrame(pdf)
    auto = per_vertex_butterflies(edges)
    forced_bc = per_vertex_butterflies(edges, enumerate_side=forced)
    pd.testing.assert_frame_equal(
        auto.u_counts.sort_values("u").reset_index(drop=True),
        forced_bc.u_counts.sort_values("u").reset_index(drop=True),
    )


def test_auto_picks_cheaper_side(spark):
    pdf = SMALL_GRAPHS["rnd2"]()  # 30 U x 10 V: sides differ
    edges = spark.createDataFrame(pdf)
    bc = per_vertex_butterflies(edges)
    wu = bg.side_wedge_total(edges, "u")
    wv = bg.side_wedge_total(edges, "v")
    assert bc.wedges == min(wu, wv)


def test_rejects_bad_side(spark):
    edges = spark.createDataFrame(SMALL_GRAPHS["star"]())
    with pytest.raises(ValueError):
        per_vertex_butterflies(edges, enumerate_side="x")


def test_support_init_covers_all_u(small_graph):
    edges, pdf = small_graph
    sup, _ = support_init(edges)
    _, _, total = brute_force_vertex_butterflies(pdf)
    assert set(sup["u"]) == set(pdf["u"])
    assert (sup["sup"] >= 0).all()
    assert int(sup["sup"].sum()) == 2 * total
