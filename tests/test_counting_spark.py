"""Tests for the Spark dataflow butterfly counting (paper alg. 1),
checked against the DuckDB oracle and the NumPy counter."""
import pandas as pd
import pytest

from repro.core.bup import edges_to_numpy
from repro.core.counting import per_vertex_butterflies, support_init
from repro.core.kernel import count_butterflies_np
from repro.core.peel_round import peel_structure
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
        bc = per_vertex_butterflies(edges, pdf, enumerate_side=enumerate_side)
        assert_equivalent(bc.u_counts, U_COUNT_SQL, edges=pdf)


def test_v_counts_oracle(small_graph):
    """The opposite-side roll-up (``v`` pairs enumerated) against its own
    DuckDB formula, ``c - 1`` per centered wedge."""
    edges, pdf = small_graph
    bc = per_vertex_butterflies(edges, pdf, enumerate_side="v")
    assert_equivalent(bc.u_counts, U_CENTER_COUNT_SQL, edges=pdf)


def test_matches_numpy(small_graph):
    edges, pdf = small_graph
    bc = per_vertex_butterflies(edges, pdf)
    n_u, n_v, eu, ev, u_ids, _ = edges_to_numpy(pdf)
    bu, _, _, _ = count_butterflies_np(n_u, n_v, eu, ev)
    got_u = bc.u_counts.set_index("u")["bcnt"]
    for i, uid in enumerate(u_ids):
        assert got_u[uid] == bu[i]


def test_sum_identity(small_graph):
    edges, pdf = small_graph
    bc = per_vertex_butterflies(edges, pdf)
    _, _, total = brute_force_vertex_butterflies(pdf)
    assert int(bc.u_counts["bcnt"].sum()) == 2 * total


@pytest.mark.parametrize("forced", ["u", "v"])
def test_enumeration_side_invariance(spark, forced):
    pdf = SMALL_GRAPHS["paper"]()
    edges = spark.createDataFrame(pdf)
    auto = per_vertex_butterflies(edges, pdf)
    forced_bc = per_vertex_butterflies(edges, pdf, enumerate_side=forced)
    pd.testing.assert_frame_equal(
        auto.u_counts.sort_values("u").reset_index(drop=True),
        forced_bc.u_counts.sort_values("u").reset_index(drop=True),
    )


def test_auto_picks_cheaper_side(spark):
    pdf = SMALL_GRAPHS["rnd2"]()  # 30 U x 10 V: sides differ
    edges = spark.createDataFrame(pdf)
    bc = per_vertex_butterflies(edges, pdf)
    wu = bg.side_wedge_total(edges, "u")
    wv = bg.side_wedge_total(edges, "v")
    assert bc.wedges == min(wu, wv)
    # each roll-up reports the wedges of the side it enumerates
    for side, want in (("u", wu), ("v", wv)):
        assert per_vertex_butterflies(edges, pdf, enumerate_side=side).wedges == want


def test_rejects_bad_side(spark):
    pdf = SMALL_GRAPHS["star"]()
    with pytest.raises(ValueError):
        per_vertex_butterflies(spark.createDataFrame(pdf), pdf, enumerate_side="x")


@pytest.mark.parametrize("name", ["paper", "rnd2"])
def test_count_job_budget(spark, name):
    """The driver's mirror gives the side totals and the zero-fill, so a
    count runs only its join, its aggregations and their collect: at most
    five Spark jobs through either roll-up, on a checkpointed frame."""
    pdf = SMALL_GRAPHS[name]()
    edges = spark.createDataFrame(pdf).localCheckpoint()
    sc = spark.sparkContext
    for enumerate_side in ("u", "v"):
        group = f"test_count_job_budget-{name}-{enumerate_side}"
        sc.setJobGroup(group, "one count")
        try:
            bc = per_vertex_butterflies(edges, pdf, enumerate_side=enumerate_side)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        jobs = sc.statusTracker().getJobIdsForGroup(group)
        assert_equivalent(bc.u_counts, U_COUNT_SQL, edges=pdf)
        assert 1 <= len(jobs) <= 5, (enumerate_side, jobs)


def _count_in_group(sc, group: str, edges, pdf, side: str):
    """A count under a job group: the counts and the group's jobs."""
    sc.setJobGroup(group, "one count")
    try:
        bc = per_vertex_butterflies(edges, pdf, enumerate_side=side)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return bc, sc.statusTracker().getJobIdsForGroup(group)


@pytest.mark.parametrize("name", ["star", "paper", "rnd2"])
def test_counts_on_peel_structure(spark, name):
    """Both roll-ups on the structure the pipeline counts on (the edge
    list hash-partitioned by ``u`` and persisted): the ``u`` side as a
    peel round of every vertex, the ``v`` side as its self-join. Every
    ``u`` of ``star`` and the pendant ``u`` of ``paper`` are in no
    butterfly and are zero-filled."""
    pdf = SMALL_GRAPHS[name]()
    with peel_structure(spark.createDataFrame(pdf)) as structure:
        for side in ("u", "v"):
            bc = per_vertex_butterflies(structure, pdf, enumerate_side=side)
            assert_equivalent(bc.u_counts, U_COUNT_SQL, edges=pdf)
            if name != "rnd2":
                assert (bc.u_counts["bcnt"] == 0).any()


@pytest.mark.parametrize("name", ["paper", "rnd2"])
def test_u_count_job_budget_on_filled_cache(spark, name):
    """On the filled structure a ``u``-side count is a peel round: the
    broadcast of the shipped edges and the join, at most two Spark jobs."""
    pdf = SMALL_GRAPHS[name]()
    sc = spark.sparkContext
    with peel_structure(spark.createDataFrame(pdf)) as structure:
        group = f"test_u_count_job_budget_on_filled_cache-{name}"
        _count_in_group(sc, group + "-fill", structure, pdf, "u")
        bc, jobs = _count_in_group(sc, group, structure, pdf, "u")
    assert_equivalent(bc.u_counts, U_COUNT_SQL, edges=pdf)
    assert 1 <= len(jobs) <= 2, jobs


def test_support_init_covers_all_u(small_graph):
    edges, pdf = small_graph
    sup, _ = support_init(edges, pdf)
    _, _, total = brute_force_vertex_butterflies(pdf)
    assert set(sup["u"]) == set(pdf["u"])
    assert (sup["sup"] >= 0).all()
    assert int(sup["sup"].sum()) == 2 * total
