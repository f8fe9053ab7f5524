"""Every decomposition entry point treats its input as a set of edges:
repeated rows change nothing, and an empty frame is an empty graph. The
Spark entry points read the ``u`` and ``v`` columns by name, of any
integer type, and reject a null id."""
import pandas as pd
import pytest

from repro.core.bup import bup
from repro.core.parb import parb_spark
from repro.core.receipt import receipt

from .conftest import assert_tips_equal, complete_bipartite_pdf, random_pdf


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


SPARK_ENTRY_POINTS = {"receipt": _receipt, "parb_spark": _parb}

#: the same graph in the shapes a caller may hand over: narrower ids, an
#: extra column, the columns in the other order
SCHEMAS = {
    "int32": (["u", "v"], "u int, v int"),
    "extra_column": (["u", "v", "w"], "u long, v long, w string"),
    "swapped_columns": (["v", "u"], "v long, u long"),
}


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
@pytest.mark.parametrize("entry", sorted(SPARK_ENTRY_POINTS))
def test_edge_frame_schemas(spark, entry, schema):
    pdf = random_pdf(12, 9, 40, seed=5)
    cols, ddl = SCHEMAS[schema]
    frame = pdf.assign(w="x")[cols]
    tips, _, _ = SPARK_ENTRY_POINTS[entry](spark.createDataFrame(frame, ddl))
    assert (tips.dtypes[["u", "tip"]] == "int64").all(), tips.dtypes
    assert_tips_equal(bup(pdf)[0], tips, f"{entry}-{schema}")


@pytest.mark.parametrize("entry", sorted(SPARK_ENTRY_POINTS))
def test_null_id_raises(spark, entry):
    edges = spark.createDataFrame([(0, 0), (1, None), (1, 1)], "u long, v long")
    with pytest.raises(ValueError, match="null"):
        SPARK_ENTRY_POINTS[entry](edges)
