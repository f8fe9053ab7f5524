"""Tests for coarse-grained decomposition (alg. 3): range soundness
(lemmas 3-4), ⋈_init semantics, adaptive partitioning invariants."""
from itertools import combinations

import numpy as np
import pandas as pd
import pytest

from repro.core.bup import bup
from repro.core.counting import support_init
from repro.core.peel_round import peel_structure
from repro.core.receipt_cd import BatchPeeler, receipt_cd
from repro.graph import bipartite as bg

from .conftest import SMALL_GRAPHS, brute_force_vertex_butterflies, random_pdf


def _run_cd(spark, pdf, P=3, **kw):
    edges = spark.createDataFrame(pdf).localCheckpoint()
    oriented = bg.orient(edges, "u")
    sup, _ = support_init(oriented, pdf)
    return receipt_cd(oriented, pdf, sup, P, **kw)


def _pair_shared_butterflies(pdf) -> dict:
    """⋈_{u,u'} = C(|N_u ∩ N_u'|, 2) on the original graph (invariant
    under U-side peeling — both wedge centers live in V)."""
    nbrs: dict[int, set] = {}
    for u, v in pdf.itertuples(index=False):
        nbrs.setdefault(int(u), set()).add(int(v))
    out = {}
    for u1, u2 in combinations(sorted(nbrs), 2):
        c = len(nbrs[u1] & nbrs[u2])
        if c >= 2:
            out[(u1, u2)] = c * (c - 1) // 2
    return out


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_membership_partitions_u(spark, name):
    pdf = SMALL_GRAPHS[name]()
    cd = _run_cd(spark, pdf)
    assert sorted(cd.membership["u"]) == sorted(pdf["u"].unique())
    assert not cd.membership["u"].duplicated().any()


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_ranges_strictly_increasing(spark, name):
    cd = _run_cd(spark, SMALL_GRAPHS[name]())
    assert cd.ranges[0] == 0
    assert all(a < b for a, b in zip(cd.ranges, cd.ranges[1:]))
    assert cd.membership["subset"].max() <= len(cd.ranges) - 1


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_range_soundness(spark, name):
    """Lemmas 3-4: u in U_i  ⇒  θ(i) <= θ_u < θ(i+1)."""
    pdf = SMALL_GRAPHS[name]()
    cd = _run_cd(spark, pdf)
    tips, _ = bup(pdf)
    mrg = cd.membership.merge(tips, on="u")
    for _, row in mrg.iterrows():
        i = int(row["subset"])
        assert cd.ranges[i - 1] <= row["tip"] < cd.ranges[i], row


@pytest.mark.parametrize("name", ["paper", "rnd1", "k45"])
def test_init_sup_equals_shared_with_remaining(spark, name):
    """⋈_init of u in U_i == butterflies u shares with ∪_{j>=i} U_j
    (what FD's support initialization relies on, theorem 2)."""
    pdf = SMALL_GRAPHS[name]()
    cd = _run_cd(spark, pdf)
    pairs = _pair_shared_butterflies(pdf)
    subset_of = dict(zip(cd.membership["u"], cd.membership["subset"]))
    for _, row in cd.membership.iterrows():
        u, i = int(row["u"]), int(row["subset"])
        want = sum(
            b
            for (u1, u2), b in pairs.items()
            if (u1 == u and subset_of[u2] >= i) or (u2 == u and subset_of[u1] >= i)
        )
        assert row["init_sup"] == want, (u, i, row["init_sup"], want)


@pytest.mark.parametrize("huc,dgm", [(False, False), (True, False), (False, True)])
def test_membership_invariant_under_optimizations(spark, huc, dgm):
    """HUC/DGM change the work, never the computed supports — so the
    partition and ranges are bit-identical with and without them."""
    pdf = SMALL_GRAPHS["rnd1"]()
    base = _run_cd(spark, pdf, huc=True, dgm=True)
    other = _run_cd(spark, pdf, huc=huc, dgm=dgm)
    assert base.ranges == other.ranges
    pd.testing.assert_frame_equal(
        base.membership.sort_values("u").reset_index(drop=True),
        other.membership.sort_values("u").reset_index(drop=True),
    )


def test_supports_aligned_by_id(spark):
    """CD reads the initial supports by vertex id, not by row position:
    the same rows sorted, reversed and shuffled give the same partition,
    ranges and Λ."""
    pdf = SMALL_GRAPHS["rnd2"]()
    oriented = bg.orient(spark.createDataFrame(pdf).localCheckpoint(), "u")
    sup, _ = support_init(oriented, pdf)
    sup = sup.sort_values("u")
    orders = (sup, sup.iloc[::-1], sup.sample(frac=1, random_state=0))
    runs = [receipt_cd(oriented, pdf, s.reset_index(drop=True), 3) for s in orders]
    first = runs[0]
    for cd in runs[1:]:
        pd.testing.assert_frame_equal(
            first.membership.sort_values("u").reset_index(drop=True),
            cd.membership.sort_values("u").reset_index(drop=True),
        )
        assert cd.ranges == first.ranges
        assert cd.metrics.wedges == first.metrics.wedges


def test_p_one_single_subset(spark):
    pdf = SMALL_GRAPHS["paper"]()
    cd = _run_cd(spark, pdf, P=1)
    # everything lands in subset 1 (or spills into the single leftover 2)
    assert cd.membership["subset"].nunique() <= 2


def test_p_larger_than_n(spark):
    pdf = SMALL_GRAPHS["k33"]()
    cd = _run_cd(spark, pdf, P=50)
    assert sorted(cd.membership["u"]) == sorted(pdf["u"].unique())


def test_rounds_counted(spark):
    cd = _run_cd(spark, random_pdf(25, 20, 100, seed=4))
    assert cd.metrics.rounds > 0
    assert cd.metrics.wedges >= 0
    assert cd.metrics.seconds > 0


def test_huc_fires_on_wedge_heavy_graph(spark):
    """A hub-heavy graph has C_peel >> C_rcnt — HUC must trigger."""
    pdf = random_pdf(60, 6, 200, seed=5, alpha_u=0.2, alpha_v=1.0)
    cd = _run_cd(spark, pdf, huc=True, dgm=False)
    cd_off = _run_cd(spark, pdf, huc=False, dgm=False)
    assert cd.huc_recounts > 0
    assert cd.metrics.wedges < cd_off.metrics.wedges


def _wedge_totals(pdf) -> tuple[int, int]:
    """``(Σ_v C(d_v, 2), Σ_u C(d_u, 2))``: the wedges with endpoints in U
    and in V."""
    du, dv = pdf.groupby("u").size(), pdf.groupby("v").size()
    return int((dv * (dv - 1) // 2).sum()), int((du * (du - 1) // 2).sum())


@pytest.mark.parametrize("dgm", [False, True])
def test_recount_matches_brute_force_on_survivors(spark, dgm):
    """A HUC re-count after an update round counts the surviving subgraph
    from the driver's mirror: the supports it sets are that subgraph's
    butterflies, and the Λ it adds is ``min(wu, wv)`` of that subgraph.
    Without DGM the structure is stale when the re-count starts."""
    pdf = random_pdf(30, 12, 120, seed=6)
    per_u, _, _ = brute_force_vertex_butterflies(pdf)
    sup = pd.DataFrame({"u": list(per_u), "sup": list(per_u.values())}, dtype="int64")
    edges = spark.createDataFrame(pdf).localCheckpoint()
    with BatchPeeler(edges, pdf, sup, huc=False, dgm=dgm) as peeler:
        # an update round, then a round whose re-count is forced
        peeler.peel_range(0, int(sup["sup"].quantile(0.3)), lambda r: r >= 1)
        wedges_before = peeler.metrics.wedges
        peeler.huc = True
        peeler.cost.recount_cost = lambda: -1
        alive = peeler.cost.alive
        hi = int(np.quantile(peeler.sup[alive], 0.4))
        peeler.peel_range(0, hi, lambda r: r >= 2)
    assert peeler.metrics.rounds == 2 and peeler.huc_recounts == 1
    alive_ids = peeler.cost.u_ids[alive]
    survivors = pdf[pdf["u"].isin(alive_ids)]
    assert 0 < len(survivors) < len(pdf)
    want, _, _ = brute_force_vertex_butterflies(survivors)
    assert dict(zip(alive_ids, peeler.sup[alive])) == want
    assert peeler.metrics.wedges - wedges_before == min(_wedge_totals(survivors))


def test_recount_on_compacted_structure_job_budget(spark):
    """A HUC re-count counts on the compacted structure, read from the
    cache the initial count filled: at most three Spark jobs (the
    broadcasts of the keep-ids and of the shipped edges, and the join),
    and the supports it sets are the survivors' butterflies. The graph
    has fewer wedges with endpoints in ``U``, before and after the peel,
    so both counts enumerate ``U`` pairs."""
    pdf = random_pdf(20, 40, 160, seed=6, alpha_u=0.6, alpha_v=0.4)
    sc = spark.sparkContext
    group = "test_recount_on_compacted_structure_job_budget"
    with peel_structure(spark.createDataFrame(pdf)) as structure:
        sup, _ = support_init(structure, pdf)
        with BatchPeeler(structure, pdf, sup, huc=True, dgm=False) as peeler:
            peeler.cost.recount_cost = lambda: -1
            sc.setJobGroup(group, "one re-count round")
            try:
                peeler.peel_range(0, int(sup["sup"].quantile(0.3)), lambda r: r >= 1)
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
    jobs = sc.statusTracker().getJobIdsForGroup(group)
    assert peeler.metrics.rounds == 1 and peeler.huc_recounts == 1
    assert 1 <= len(jobs) <= 3, jobs
    alive = peeler.cost.alive
    alive_ids = peeler.cost.u_ids[alive]
    survivors = pdf[pdf["u"].isin(alive_ids)]
    assert 0 < len(survivors) < len(pdf)
    wu, wv = _wedge_totals(survivors)
    assert wu <= wv
    want, _, _ = brute_force_vertex_butterflies(survivors)
    assert dict(zip(alive_ids, peeler.sup[alive])) == want
