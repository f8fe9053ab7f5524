"""End-to-end RECEIPT vs sequential BUP (theorem 2) across datasets,
partition counts, optimization flags and both sides; invariance of the
Spark decompositions under id relabeling, and the peel loop's cache
released after every run."""
import numpy as np
import pandas as pd
import pytest

from repro.core import counting
from repro.core import receipt as receipt_module
from repro.core.bup import bup
from repro.core.parb import parb_spark
from repro.core.receipt import receipt
from repro.core.receipt_cd import BatchPeeler
from repro.experiments import datasets

from .conftest import SMALL_GRAPHS, assert_tips_equal, random_pdf

ALL_DATASETS = sorted(datasets.NAMES)


@pytest.mark.parametrize("name", ALL_DATASETS)
def test_datasets_tiny(spark, name):
    edges = datasets.load(spark, name, "tiny")
    ref, _ = bup(edges)
    r = receipt(edges, n_partitions=4)
    assert_tips_equal(ref, r.tips, name)


@pytest.mark.parametrize("huc", [False, True])
@pytest.mark.parametrize("dgm", [False, True])
def test_flag_matrix(spark, huc, dgm):
    pdf = SMALL_GRAPHS["rnd1"]()
    edges = spark.createDataFrame(pdf).localCheckpoint()
    ref, _ = bup(pdf)
    r = receipt(edges, n_partitions=3, huc=huc, dgm=dgm)
    assert_tips_equal(ref, r.tips, f"huc={huc},dgm={dgm}")


@pytest.mark.parametrize("p", [0, 1, 2, 6, 40])
def test_partition_counts(spark, p):
    pdf = SMALL_GRAPHS["paper"]()
    edges = spark.createDataFrame(pdf).localCheckpoint()
    ref, _ = bup(pdf)
    r = receipt(edges, n_partitions=p)
    assert_tips_equal(ref, r.tips, f"P={p}")
    assert r.metrics.p_effective <= p + 1


@pytest.mark.parametrize("name", ["paper", "rnd2"])
def test_p_invariance(spark, name):
    """Any P, from none to more than |U|, gives BUP's tips and puts every
    vertex in exactly one subset; with P=0 every vertex is a leftover, in
    the single subset 1 whose range spans all initial supports."""
    pdf = SMALL_GRAPHS[name]()
    edges = spark.createDataFrame(pdf).localCheckpoint()
    ref, _ = bup(pdf)
    n_u = pdf["u"].nunique()
    for p in (0, 1, 3, n_u + 5):
        r = receipt(edges, n_partitions=p)
        assert_tips_equal(ref, r.tips, f"P={p}")
        mem = r.membership
        assert sorted(mem["u"]) == sorted(pdf["u"].unique()), f"P={p}"
        if p == 0:
            assert (mem["subset"] == 1).all()
            assert r.ranges == [0, int(mem["init_sup"].max()) + 1]


def test_v_side(spark):
    edges = datasets.load(spark, "it", "tiny")
    ref, _ = bup(edges, side="v")
    r = receipt(edges, n_partitions=4, side="v")
    assert_tips_equal(ref, r.tips, "v-side")


def test_deterministic(spark):
    edges = datasets.load(spark, "de", "tiny")
    a = receipt(edges, n_partitions=3)
    b = receipt(edges, n_partitions=3)
    assert_tips_equal(a.tips, b.tips, "repeat")
    assert a.ranges == b.ranges


def test_zero_butterfly_graph(spark):
    edges = spark.createDataFrame(SMALL_GRAPHS["star"]()).localCheckpoint()
    r = receipt(edges, n_partitions=3)
    assert (r.tips["tip"] == 0).all()


def test_complete_bipartite(spark):
    edges = spark.createDataFrame(SMALL_GRAPHS["k45"]()).localCheckpoint()
    r = receipt(edges, n_partitions=2)
    assert (r.tips["tip"] == 3 * 10).all()  # (a-1) * C(b,2) with a=4,b=5


DECOMPOSERS = {
    "receipt": lambda edges: receipt(edges, n_partitions=3).tips,
    "parb_spark": lambda edges: parb_spark(edges)[0],
}


@pytest.mark.parametrize("algo", sorted(DECOMPOSERS))
def test_relabeling_invariance(spark, algo):
    """Tips do not depend on vertex ids: permuting U and V into huge ids
    (near 2^62, so their hash placement differs) and mapping the tips
    back gives the same tips, equal to BUP's."""
    pdf = random_pdf(25, 15, 100, seed=4)
    rng = np.random.default_rng(5)

    def huge(ids: np.ndarray) -> dict:
        return dict(zip(ids, 2**62 + rng.permutation(len(ids)) * 1_000_003))

    u_map, v_map = huge(pdf["u"].unique()), huge(pdf["v"].unique())
    relabeled = pd.DataFrame({"u": pdf["u"].map(u_map), "v": pdf["v"].map(v_map)})
    decompose = DECOMPOSERS[algo]
    want = decompose(spark.createDataFrame(pdf))
    got = decompose(spark.createDataFrame(relabeled.astype("int64")))
    back = {big: u for u, big in u_map.items()}
    assert_tips_equal(want, got.assign(u=got["u"].map(back)), f"{algo} relabeled")
    assert_tips_equal(bup(pdf)[0], want, algo)


def test_peel_cache_released(spark):
    """The peel loop's cached structure is released when ``receipt()``
    and ``parb_spark()`` return, when ParB stops on its round budget, and
    when the loop raises."""
    cache = spark._jsparkSession.sharedState().cacheManager()
    spark.catalog.clearCache()
    pdf = SMALL_GRAPHS["rnd1"]()
    edges = spark.createDataFrame(pdf)

    receipt(edges, n_partitions=3)
    assert cache.isEmpty()
    parb_spark(edges)
    assert cache.isEmpty()
    _, met = parb_spark(edges, max_rounds=2)
    assert not met.completed
    assert cache.isEmpty()

    def fail(rounds: int) -> bool:
        raise RuntimeError("stop")

    sup = pd.DataFrame({"u": pdf["u"].unique(), "sup": 0})
    with pytest.raises(RuntimeError, match="stop"):
        with BatchPeeler(edges, pdf, sup, huc=False, dgm=False) as peeler:
            assert not cache.isEmpty()
            peeler.peel_range(0, 1, fail)
    assert cache.isEmpty()


def test_entry_cache_released_on_error_and_budget(spark, monkeypatch):
    """``receipt()`` and ``parb_spark()`` own the cached structure: the
    count and CD read it, and it is released when CD raises inside
    ``receipt()`` and when ParB stops on its round budget."""
    cache = spark._jsparkSession.sharedState().cacheManager()
    spark.catalog.clearCache()
    edges = spark.createDataFrame(SMALL_GRAPHS["rnd1"]())
    counted, cd_read = [], []
    support_init = counting.support_init

    def spy_count(structure, mirror):
        counted.append(structure.is_cached and not cache.isEmpty())
        return support_init(structure, mirror)

    def failing_cd(structure, *args, **kwargs):
        cd_read.append(structure.is_cached and not cache.isEmpty())
        raise RuntimeError("cd failed")

    monkeypatch.setattr(counting, "support_init", spy_count)
    monkeypatch.setattr(receipt_module, "receipt_cd", failing_cd)
    with pytest.raises(RuntimeError, match="cd failed"):
        receipt(edges, n_partitions=3)
    assert counted == [True] and cd_read == [True]
    assert cache.isEmpty()

    _, met = parb_spark(edges, max_rounds=2)
    assert not met.completed and met.rounds == 2
    assert counted == [True, True]
    assert cache.isEmpty()
