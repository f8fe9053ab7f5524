"""End-to-end RECEIPT vs sequential BUP (theorem 2) across datasets,
partition counts, optimization flags and both sides."""
import pytest

from repro.core.bup import bup
from repro.core.receipt import receipt
from repro.experiments import datasets

from .conftest import SMALL_GRAPHS, assert_tips_equal

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
