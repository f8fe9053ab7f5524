"""Tests for fine-grained decomposition (alg. 4): independent per-subset
peeling must reproduce sequential BUP exactly (theorem 2)."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pandas as pd
import pytest

from repro.core.bup import bup
from repro.core.counting import support_init
from repro.core.receipt_cd import receipt_cd
from repro.core.receipt_fd import fd_payloads, receipt_fd
from repro.graph import bipartite as bg

from .conftest import SMALL_GRAPHS, assert_tips_equal


def _oriented(spark, pdf):
    return bg.orient(spark.createDataFrame(pdf), "u").localCheckpoint()


def test_single_subset_equals_bup(spark):
    """With everything in one subset and ⋈_init = full counts, FD *is*
    sequential BUP — isolates FD from CD."""
    pdf = SMALL_GRAPHS["rnd1"]()
    edges = _oriented(spark, pdf)
    sup, _ = support_init(edges, pdf)
    membership = sup.rename(columns={"sup": "init_sup"})
    membership["subset"] = 1
    fd = receipt_fd(edges, pdf, membership)
    assert_tips_equal(bup(pdf)[0], fd.tips, "fd-single")


@pytest.mark.parametrize("name", ["paper", "rnd2", "k45", "star"])
@pytest.mark.parametrize("dgm", [False, True])
def test_after_cd_equals_bup(spark, name, dgm):
    pdf = SMALL_GRAPHS[name]()
    edges = _oriented(spark, pdf)
    sup, _ = support_init(edges, pdf)
    cd = receipt_cd(edges, pdf, sup, 3)
    fd = receipt_fd(edges, pdf, cd.membership, dgm=dgm)
    assert_tips_equal(bup(pdf)[0], fd.tips, f"{name}-dgm{dgm}")


def test_subset_stats_cover_membership(spark):
    pdf = SMALL_GRAPHS["rnd3"]()
    edges = _oriented(spark, pdf)
    sup, _ = support_init(edges, pdf)
    cd = receipt_cd(edges, pdf, sup, 4)
    fd = receipt_fd(edges, pdf, cd.membership)
    assert int(fd.subset_stats["sub_size"].sum()) == len(cd.membership)
    assert set(fd.subset_stats["subset"]) == set(cd.membership["subset"])
    assert fd.metrics.wedges == int(fd.subset_stats["sub_wedges"].sum())
    assert fd.metrics.rounds == 0  # FD contributes nothing to ρ


def test_induced_subgraphs_traverse_fewer_wedges(spark):
    """The fig. 2 point: induced subgraphs collectively hold far fewer
    wedges than the full graph."""
    pdf = SMALL_GRAPHS["rnd2"]()
    edges = _oriented(spark, pdf)
    sup, _ = support_init(edges, pdf)
    cd = receipt_cd(edges, pdf, sup, 4)
    fd = receipt_fd(edges, pdf, cd.membership)
    _, m_bup = bup(pdf)
    assert fd.metrics.wedges <= m_bup.wedges


def test_fd_independent_of_membership_order(spark):
    """FD peels one vertex a round and breaks support ties by position,
    and DGM's compactions make the wedges a peel traverses depend on that
    order. The paper-like graph has tied supports (u0/u1, u3/u4): its
    membership rows in any order give the same tips and the same Λ."""
    pdf = SMALL_GRAPHS["paper"]()
    edges = _oriented(spark, pdf)
    sup, _ = support_init(edges, pdf)
    membership = sup.rename(columns={"sup": "init_sup"}).assign(subset=1)
    membership = membership.sort_values("u", ignore_index=True)
    orders = {
        "sorted": membership,
        "reversed": membership.iloc[::-1].reset_index(drop=True),
        "shuffled": membership.sample(frac=1, random_state=0, ignore_index=True),
    }
    runs = {k: receipt_fd(edges, pdf, m) for k, m in orders.items()}
    want = bup(pdf)[0]
    for k, fd in runs.items():
        assert_tips_equal(want, fd.tips, k)
    wedges = {k: fd.metrics.wedges for k, fd in runs.items()}
    assert len(set(wedges.values())) == 1, wedges


def test_fd_handles_edgeless_members(spark):
    """A subset whose members have no edges peels at its init support."""
    pdf = SMALL_GRAPHS["paper"]()
    edges = _oriented(spark, pdf)
    membership = pd.DataFrame(
        {"u": sorted(pdf["u"].unique()), "init_sup": 0, "subset": 1}
    ).astype("int64")
    # vertex 999 exists in no edge: its subset's task peels no edge
    membership = pd.concat(
        [membership, pd.DataFrame({"u": [999], "init_sup": [7], "subset": [2]})],
        ignore_index=True,
    )
    fd = receipt_fd(edges, pdf, membership)
    assert int(fd.tips.set_index("u").loc[999, "tip"]) == 7


def test_fd_without_repro_on_executor_path(tmp_path):
    """FD's tasks carry the peel kernel with them: a driver that only puts
    ``src/`` on its own ``sys.path`` (no ``PYTHONPATH`` for the Python
    workers) still gets exact tips — every vertex of K3,2 has tip 2."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(src)!r})
        from repro.core.receipt import receipt
        from repro.experiments.session import get_session

        spark = get_session("fd-without-pythonpath")
        edges = spark.createDataFrame(
            [(u, v) for u in range(3) for v in range(2)], "u long, v long"
        )
        tips = receipt(edges, n_partitions=2).tips
        spark.stop()
        assert sorted(tips["u"]) == [0, 1, 2], tips
        assert (tips["tip"] == 2).all(), tips
        """
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(
        SPARK_MASTER="local[1]",
        SPARK_SHUFFLE_PARTITIONS="2",
        PYSPARK_SUBMIT_ARGS="--driver-memory 1g pyspark-shell",
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr[-3000:]


def _cd_membership(spark, name, p):
    pdf = SMALL_GRAPHS[name]()
    edges = _oriented(spark, pdf)
    sup, _ = support_init(edges, pdf)
    return pdf, edges, receipt_cd(edges, pdf, sup, p).membership


def test_fd_one_job_one_task_per_subset(spark):
    """FD is one Spark job whose one stage runs a task per subset."""
    pdf, edges, membership = _cd_membership(spark, "rnd2", 4)
    k = membership["subset"].nunique()
    assert k >= 3, k
    sc = spark.sparkContext
    group = "test_fd_one_job_one_task_per_subset"
    sc.setJobGroup(group, "FD")
    try:
        fd = receipt_fd(edges, pdf, membership)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    assert len(jobs) == 1, jobs
    stages = tracker.getJobInfo(jobs[0]).stageIds
    assert len(stages) == 1, stages
    assert tracker.getStageInfo(stages[0]).numTasks == k
    assert_tips_equal(bup(pdf)[0], fd.tips, "fd-one-job")


def test_fd_payloads_cover_members_in_work_order(spark):
    """Every member is in exactly one payload, under its own subset with
    its own ⋈_init, every edge in its ``u``'s payload, and the payloads
    come heaviest first by induced peel work ``Σ_{(u,v)∈E_i} d_v^{(i)}``,
    recomputed here edge by edge."""
    pdf, _, membership = _cd_membership(spark, "rnd2", 4)
    payloads = fd_payloads(pdf, membership)
    rows = [
        (s, u, sup)
        for s, (us, sups, _, _) in payloads
        for u, sup in zip(us.tolist(), sups.tolist())
    ]
    want = membership[["subset", "u", "init_sup"]].itertuples(index=False, name=None)
    assert sorted(rows) == sorted(want)
    works, edges = [], []
    for _, (us, _, eu, ev) in payloads:
        assert list(us) == sorted(us)
        assert set(eu) <= set(us)
        edges += list(zip(eu.tolist(), ev.tolist()))
        d = {v: list(ev).count(v) for v in set(ev)}
        works.append(sum(d[v] for v in ev))
    assert sorted(edges) == sorted(pdf.itertuples(index=False, name=None))
    assert len(works) >= 3 and works == sorted(works, reverse=True), works


def test_fd_rejects_edge_outside_membership(spark):
    pdf = SMALL_GRAPHS["paper"]()
    edges = _oriented(spark, pdf)
    membership = pd.DataFrame({"u": [0, 1], "init_sup": 0, "subset": 1})
    with pytest.raises(ValueError, match="outside the membership"):
        receipt_fd(edges, pdf, membership)
