"""Every decomposition entry point treats its input as a set of edges:
repeated rows change nothing, and an empty frame is an empty graph."""
import pandas as pd
import pytest

from repro.core.bup import bup
from repro.core.parb import parb_spark
from repro.core.receipt import receipt

from .conftest import complete_bipartite_pdf


def _receipt(edges):
    r = receipt(edges, n_partitions=2)
    return r.tips, r.metrics.rho, r.metrics.total_wedges


def _parb(edges):
    tips, m = parb_spark(edges)
    assert m.completed
    return tips, m.rounds, m.total_wedges


def _bup(edges):
    tips, m = bup(edges)
    return tips, m.rounds, m.total_wedges


ENTRY_POINTS = {"receipt": _receipt, "parb_spark": _parb, "bup": _bup}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_duplicate_edges_are_ignored(spark, entry):
    a, b = 4, 4
    pdf = complete_bipartite_pdf(a, b)
    dup = pd.concat([pdf, pdf.iloc[[0, 5, 5]]], ignore_index=True)
    tips, _, _ = ENTRY_POINTS[entry](spark.createDataFrame(dup))
    assert sorted(tips["u"]) == list(range(a))
    assert (tips["tip"] == (a - 1) * (b * (b - 1) // 2)).all()


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_empty_edge_frame(spark, entry):
    edges = spark.createDataFrame([], "u long, v long")
    tips, rho, wedges = ENTRY_POINTS[entry](edges)
    assert tips.empty
    assert (tips.dtypes[["u", "tip"]] == "int64").all(), tips.dtypes
    assert rho == 0
    assert wedges == 0
