"""Tests for one batched peel round (lemma 2): Spark's decrements against
a pure-Python count of shared butterflies, the driver-side update that
applies them, and the round's physical plan on the peel loop's cached
structure."""
import pandas as pd
import pytest

from repro.core.peel_round import batch_peel_round
from repro.core.receipt_cd import BatchPeeler

from .conftest import SMALL_GRAPHS, brute_force_vertex_butterflies


def _neighbors(pdf) -> dict[int, set]:
    nbrs: dict[int, set] = {}
    for u, v in pdf.itertuples(index=False):
        nbrs.setdefault(int(u), set()).add(int(v))
    return nbrs


def _expected_decrements(pdf, peeled: set, survivors: set) -> dict[int, int]:
    """``Σ_{u'∈S} C(|N_u ∩ N_u'|, 2)`` for every survivor with a positive sum."""
    nbrs = _neighbors(pdf)
    out = {}
    for u in survivors:
        d = 0
        for up in peeled:
            c = len(nbrs[u] & nbrs[up])
            d += c * (c - 1) // 2
        if d:
            out[u] = d
    return out


def _peeled_edges(pdf, peeled) -> pd.DataFrame:
    """The peeled set's edges as ``(up, v)``."""
    return pdf[pdf["u"].isin(peeled)].rename(columns={"u": "up"})


def _decrements(spark, pdf, peeled) -> pd.DataFrame:
    edges = spark.createDataFrame(pdf)
    peeled_edges = spark.createDataFrame(_peeled_edges(pdf, peeled))
    return batch_peel_round(edges, peeled_edges).toPandas()


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_decrements_match_shared_butterflies(spark, name):
    pdf = SMALL_GRAPHS[name]()
    us = sorted(int(u) for u in pdf["u"].unique())
    peeled = set(us[::3])
    survivors = set(us) - peeled
    delta = _decrements(spark, pdf, peeled)
    assert list(delta.columns) == ["u", "d"]
    assert not delta["u"].duplicated().any()
    assert (delta["d"] >= 0).all()
    got = {
        int(u): int(d)
        for u, d in delta.itertuples(index=False)
        if d > 0 and u in survivors
    }
    assert got == _expected_decrements(pdf, peeled, survivors)


def test_stale_adjacency_gets_no_state_row(spark):
    """On a structure that still holds the edges of an earlier-peeled
    vertex, the round reports a decrement for it; the driver's update
    never applies that row (it lands on a peeled vertex's code) and floors
    the survivors' supports."""
    pdf = SMALL_GRAPHS["paper"]()
    earlier, peeled, lo = {0}, {1}, 4
    survivors = set(pdf["u"].unique().tolist()) - earlier - peeled

    delta = _decrements(spark, pdf, peeled)
    assert 0 in set(delta.loc[delta["d"] > 0, "u"])  # the stale row exists
    want = _expected_decrements(pdf, peeled, survivors)

    per_u, _, _ = brute_force_vertex_butterflies(pdf)
    sup = pd.DataFrame({"u": list(per_u), "sup": list(per_u.values())}, dtype="int64")
    with BatchPeeler(spark.createDataFrame(pdf), pdf, sup, huc=False, dgm=False) as peeler:
        cost = peeler.cost
        cost.alive[cost.u_ids.isin(earlier | peeled)] = False
        peeler._update(cost.edges_of(cost.u_ids.isin(peeled)), lo, c_peel=0)

    alive = cost.alive
    got = dict(zip(cost.u_ids[alive], peeler.sup[alive]))
    assert set(got) == survivors
    assert got == {u: max(lo, per_u[u] - want.get(u, 0)) for u in survivors}
    assert dict(zip(cost.u_ids[~alive], peeler.sup[~alive])) == {
        u: per_u[u] for u in earlier | peeled
    }


def _run_in_group(sc, group: str, df) -> tuple[pd.DataFrame, list, str]:
    """Collect ``df`` under a job group: its rows, the group's jobs and
    the executed plan."""
    sc.setJobGroup(group, "one peel round")
    try:
        rows = df.toPandas()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    jobs = sc.statusTracker().getJobIdsForGroup(group)
    return rows, jobs, df._jdf.queryExecution().executedPlan().toString()


def test_round_plan_has_no_shuffle(spark):
    """On the peel loop's cached structure, hash-partitioned by ``u``, a
    round joins the shipped peeled edges by broadcast and aggregates
    inside the partitions: its executed plan adds no hash exchange, and
    it runs at most two Spark jobs. The first round also fills the cache:
    adaptive execution plans it before the cache's partitioning is known,
    and re-plans it without a shuffle once the cache is built."""
    pdf = SMALL_GRAPHS["rnd1"]()
    us = sorted(int(u) for u in pdf["u"].unique())
    peeled = set(us[::3])
    survivors = set(us) - peeled
    want = _expected_decrements(pdf, peeled, survivors)
    sup = pd.DataFrame({"u": us, "sup": 0})
    sc = spark.sparkContext
    name = "test_round_plan_has_no_shuffle"
    with BatchPeeler(spark.createDataFrame(pdf), pdf, sup, huc=False, dgm=False) as peeler:
        rounds = [
            _run_in_group(
                sc,
                f"{name}-{k}",
                batch_peel_round(peeler.base, spark.createDataFrame(_peeled_edges(pdf, peeled))),
            )
            for k in range(2)
        ]
    for delta, _, _ in rounds:
        got = {int(u): int(d) for u, d in delta.itertuples(index=False) if d and u in survivors}
        assert got == want
    # the only shuffle is the one that built the cache (REPARTITION_BY_NUM),
    # none is added for the join or the aggregations
    (_, jobs_fill, plan_fill), (_, jobs, plan) = rounds
    final_fill = plan_fill.split("\n+- == Initial Plan ==")[0]
    for p in (final_fill, plan):
        shuffles = [
            ln for ln in p.splitlines() if "Exchange" in ln and "BroadcastExchange" not in ln
        ]
        assert all("hashpartitioning(u#" in ln and "REPARTITION_BY_NUM" in ln for ln in shuffles), p
        assert "BroadcastHashJoin" in p, p
    # building the cache adds its shuffle and its scan to the first round
    assert 1 <= len(jobs_fill) <= 4, jobs_fill
    assert 1 <= len(jobs) <= 2, jobs
