"""Tests pinning the paper's Λ / ρ accounting to exact identities, so
the numbers printed in Table 3 are trustworthy by construction."""
import pytest

from repro.core.bup import bup, parb_simulate
from repro.core.receipt import receipt
from repro.experiments import datasets

from .conftest import SMALL_GRAPHS


@pytest.fixture(scope="module")
def rnd_graph(spark):
    pdf = SMALL_GRAPHS["rnd2"]()
    return pdf, spark.createDataFrame(pdf).localCheckpoint()


def test_cd_peel_wedges_equal_bup_without_optimizations(spark, rnd_graph):
    """With HUC and DGM off, CD traverses exactly Λ^peel = Σ_u Σ_v d_v —
    the same wedges as sequential BUP's peeling (lemma 1's flip side)."""
    pdf, edges = rnd_graph
    _, m_bup = bup(pdf)
    r = receipt(edges, n_partitions=3, huc=False, dgm=False)
    assert r.metrics.cd.wedges == m_bup.wedges


def test_fd_bounded_by_bup_peel(spark, rnd_graph):
    pdf, edges = rnd_graph
    _, m_bup = bup(pdf)
    r = receipt(edges, n_partitions=3, huc=False, dgm=False)
    assert 0 <= r.metrics.fd.wedges <= m_bup.wedges


def test_total_wedges_bounded_by_double(spark, rnd_graph):
    """Two-step approach can at most double the peel work (paper §3)."""
    pdf, edges = rnd_graph
    _, m_bup = bup(pdf)
    r = receipt(edges, n_partitions=3, huc=False, dgm=False)
    peel_total = r.metrics.cd.wedges + r.metrics.fd.wedges
    assert peel_total <= 2 * m_bup.wedges


def test_count_wedges_match_between_substrates(spark, rnd_graph):
    """Spark pvBcnt and the NumPy counter enumerate the same wedges."""
    pdf, edges = rnd_graph
    _, m_bup = bup(pdf)
    r = receipt(edges, n_partitions=3)
    assert r.metrics.count.wedges == m_bup.count_wedges


def test_rho_is_cd_rounds(spark, rnd_graph):
    _, edges = rnd_graph
    r = receipt(edges, n_partitions=3)
    assert r.metrics.rho == r.metrics.cd.rounds > 0
    assert r.metrics.fd.rounds == 0


def test_receipt_rho_below_parb_on_dataset(spark):
    """The headline claim at miniature scale: far fewer sync rounds."""
    edges = datasets.load(spark, "it", "tiny")
    _, m_sim = parb_simulate(edges)
    r = receipt(edges, n_partitions=4)
    assert r.metrics.rho < m_sim.rounds / 2


def test_optimizations_reduce_wedges(spark):
    """HUC+DGM strictly reduce traversal on a wedge-heavy U side."""
    edges = datasets.load(spark, "it", "tiny")
    base = receipt(edges, n_partitions=4, huc=False, dgm=False)
    opt = receipt(edges, n_partitions=4, huc=True, dgm=True)
    assert opt.metrics.total_wedges < base.metrics.total_wedges


def test_subset_bookkeeping(spark, rnd_graph):
    pdf, edges = rnd_graph
    r = receipt(edges, n_partitions=3)
    assert sum(r.metrics.subset_sizes) == pdf["u"].nunique()
    assert len(r.metrics.subset_sizes) == r.metrics.p_effective
    assert r.metrics.total_seconds > 0


def test_subset_seconds(spark, rnd_graph):
    """Each FD task reports its own peel time, one per subset, within
    FD's wall time."""
    _, edges = rnd_graph
    r = receipt(edges, n_partitions=3)
    secs = r.metrics.subset_seconds
    assert len(secs) == r.metrics.p_effective
    assert all(0 <= s <= r.metrics.fd.seconds for s in secs), secs


def test_baseline_metric_totals(rnd_graph):
    pdf, _ = rnd_graph
    _, met = bup(pdf)
    assert met.total_wedges == met.wedges + met.count_wedges
    assert met.total_seconds == pytest.approx(met.seconds + met.count_seconds)
