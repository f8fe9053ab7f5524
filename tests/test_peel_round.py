"""Tests for one batched peel round (lemma 2): Spark's decrements against
a pure-Python count of shared butterflies, and the driver-side update
that applies them."""
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


def _decrements(spark, pdf, peeled) -> pd.DataFrame:
    edges = spark.createDataFrame(pdf)
    active = spark.createDataFrame(pd.DataFrame({"u": sorted(peeled)}, dtype="int64"))
    return batch_peel_round(edges, active).toPandas()


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
    drops that row and floors the survivors' supports."""
    pdf = SMALL_GRAPHS["paper"]()
    earlier, peeled, lo = {0}, {1}, 4
    survivors = set(pdf["u"].unique().tolist()) - earlier - peeled

    delta = _decrements(spark, pdf, peeled)
    assert 0 in set(delta.loc[delta["d"] > 0, "u"])  # the stale row exists
    want = _expected_decrements(pdf, peeled, survivors)

    per_u, _, _ = brute_force_vertex_butterflies(pdf)
    sup = pd.DataFrame({"u": list(per_u), "sup": list(per_u.values())}, dtype="int64")
    peeler = BatchPeeler(spark.createDataFrame(pdf), sup, huc=False, dgm=False)
    state = peeler.state
    active = state[state["u"].isin(peeled)]
    remaining = state[state["u"].isin(survivors)]
    peeler._update(active, remaining, lo, c_peel=0)

    got = dict(zip(peeler.state["u"], peeler.state["sup"]))
    assert set(got) == survivors
    assert got == {u: max(lo, per_u[u] - want.get(u, 0)) for u in survivors}
