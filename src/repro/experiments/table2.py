"""Table 2 reproduction — dataset statistics.

Paper columns: |U|, |V|, |E|, d_U/d_V, butterflies ⋈_G, wedges ∧_G and
the maximum tip numbers θ_U^max / θ_V^max of both sides. Butterflies and
wedges come from the Spark counting dataflow; θ^max from the sequential
BUP reference (exact decomposition of each side).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.bup import bup
from repro.core.counting import per_vertex_butterflies
from repro.experiments import datasets, report
from repro.graph import bipartite as bg


def dataset_stats(spark: SparkSession, name: str, scale: str | float = "bench") -> dict:
    """One Table 2 row for a dataset at a scale."""
    edges = datasets.load(spark, name, scale)
    pdf = edges.toPandas()
    n_u, n_v, m = bg.counts(edges)
    bc = per_vertex_butterflies(edges, pdf)
    wedges_g = bg.side_wedge_total(edges, "u") + bg.side_wedge_total(edges, "v")
    tips_u, _ = bup(pdf, side="u")
    tips_v, _ = bup(pdf, side="v")
    return {
        "name": name,
        "U": n_u,
        "V": n_v,
        "E": m,
        "d_U": round(m / n_u, 1),
        "d_V": round(m / n_v, 1),
        "butterflies": int(bc.u_counts["bcnt"].sum()) // 2,
        "wedges": wedges_g,
        "theta_max_U": int(tips_u["tip"].max()),
        "theta_max_V": int(tips_v["tip"].max()),
    }


def render(rows: list[dict]) -> str:
    """Markdown in the paper's Table 2 layout from per-dataset rows."""
    headers = [
        "Dataset", "|U|", "|V|", "|E|", "d_U/d_V",
        "⋈_G", "∧_G", "θ_U^max", "θ_V^max",
    ]
    md_rows = [
        [
            r["name"].capitalize(), r["U"], r["V"], r["E"],
            f"{r['d_U']} / {r['d_V']}", r["butterflies"], r["wedges"],
            r["theta_max_U"], r["theta_max_V"],
        ]
        for r in rows
    ]
    return report.markdown_table(headers, md_rows)


def run(spark: SparkSession, scale: str | float = "bench", names=None) -> dict:
    """Produce the full table; returns ``{"rows": [...], "markdown": str}``."""
    rows = [dataset_stats(spark, n, scale) for n in (names or datasets.NAMES)]
    return {"rows": rows, "markdown": render(rows)}


def main(spark: SparkSession, scale: str | float = "bench") -> str:
    out = run(spark, scale)
    path = report.save("table2", {"scale": str(scale), "rows": out["rows"]}, out["markdown"])
    print(out["markdown"])
    return str(path)
