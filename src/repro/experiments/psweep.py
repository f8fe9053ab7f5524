"""P-sweep — the content of paper fig. 5 (RECEIPT time vs #partitions).

Runs full RECEIPT at several values of ``P`` on selected dataset-sides.
The paper observes a sweet spot (P=150 at their scale): too small a P
starves FD of parallelism and grows induced subgraphs; too large a P
adds CD synchronization rounds. Our scaled-down analogue sweeps
P ∈ {2, 4, 8, 16, 24}.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.receipt import receipt
from repro.experiments import datasets, report

DEFAULT_PS = (2, 4, 8, 16, 24)
#: the large U-sides the paper's fig. 5 focuses on
DEFAULT_SIDES = (("tr", "u"), ("lj", "u"), ("en", "u"), ("de", "u"))


def run(
    spark: SparkSession,
    *,
    scale: str | float = "bench",
    sides=DEFAULT_SIDES,
    ps=DEFAULT_PS,
) -> dict:
    cols = []
    for name, side in sides:
        edges = datasets.load(spark, name, scale)
        row = {"label": datasets.label(name, side)}
        for p in ps:
            r = receipt(edges, n_partitions=p, side=side)
            row[f"t_P{p}"] = round(r.metrics.total_seconds, 2)
            row[f"rho_P{p}"] = r.metrics.rho
        cols.append(row)
    return {"columns": cols, "markdown": render(cols, ps), "ps": list(ps)}


def render(cols: list[dict], ps) -> str:
    """Markdown in the fig. 5 layout (time and ρ per P)."""
    headers = ["metric"] + [c["label"] for c in cols]
    rows = [[f"t(s) P={p}"] + [c.get(f"t_P{p}") for c in cols] for p in ps]
    rows += [[f"ρ P={p}"] + [c.get(f"rho_P{p}") for c in cols] for p in ps]
    return report.markdown_table(headers, rows)


def main(spark: SparkSession, scale="bench", **kw) -> str:
    out = run(spark, scale=scale, **kw)
    path = report.save(
        "psweep", {"scale": str(scale), "columns": out["columns"]}, out["markdown"]
    )
    print(out["markdown"])
    return str(path)
