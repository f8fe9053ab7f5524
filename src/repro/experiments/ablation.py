"""Workload-optimization ablation — the content of paper figs. 6 and 7.

Runs RECEIPT-- (no HUC, no DGM), RECEIPT- (HUC only) and full RECEIPT on
each dataset-side and reports wedges traversed and execution time
normalized to RECEIPT-- (exactly the figures' y-axes). The paper's
claims to reproduce: HUC collapses wedge traversal on high
``r = Λ^peel/Λ^cnt`` sides (up to 57x on TrU) and does nothing on the
low-``r`` V sides; DGM gives a further <2x.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.receipt import receipt
from repro.experiments import datasets, report

#: (label, huc, dgm) in the paper's legend order
VARIANTS: list[tuple[str, bool, bool]] = [
    ("RECEIPT--", False, False),
    ("RECEIPT-", True, False),
    ("RECEIPT", True, True),
]


def run_side(
    spark: SparkSession,
    name: str,
    side: str,
    *,
    scale: str | float = "bench",
    n_partitions: int = 8,
) -> dict:
    """Wedges and time of all three variants on one dataset-side."""
    edges = datasets.load(spark, name, scale)
    out: dict = {"label": datasets.label(name, side)}
    tips_ref = None
    for vlabel, huc, dgm in VARIANTS:
        r = receipt(edges, n_partitions=n_partitions, side=side, huc=huc, dgm=dgm)
        if tips_ref is None:
            tips_ref = r.tips.sort_values("u").reset_index(drop=True)
        else:
            got = r.tips.sort_values("u").reset_index(drop=True)
            assert (tips_ref["tip"].to_numpy() == got["tip"].to_numpy()).all(), vlabel
        out[f"w_{vlabel}"] = r.metrics.total_wedges
        out[f"t_{vlabel}"] = round(r.metrics.total_seconds, 2)
    base_w, base_t = out["w_RECEIPT--"], out["t_RECEIPT--"]
    for vlabel, _, _ in VARIANTS:
        out[f"wnorm_{vlabel}"] = round(out[f"w_{vlabel}"] / max(base_w, 1), 3)
        out[f"tnorm_{vlabel}"] = round(out[f"t_{vlabel}"] / max(base_t, 1e-9), 3)
    return out


def run(spark: SparkSession, *, scale="bench", sides=None, n_partitions: int = 8) -> dict:
    cols = [
        run_side(spark, n, s, scale=scale, n_partitions=n_partitions)
        for n, s in (sides or datasets.SIDES)
    ]
    return {"columns": cols, "markdown": render(cols)}


def render(cols: list[dict]) -> str:
    """Markdown in the figs. 6/7 layout (normalized wedges and time)."""
    headers = ["metric"] + [c["label"] for c in cols]
    rows = []
    for vlabel, _, _ in VARIANTS:
        rows.append([f"∧ norm {vlabel}"] + [c[f"wnorm_{vlabel}"] for c in cols])
    for vlabel, _, _ in VARIANTS:
        rows.append([f"t norm {vlabel}"] + [c[f"tnorm_{vlabel}"] for c in cols])
    return report.markdown_table(headers, rows)


def main(spark: SparkSession, scale="bench", **kw) -> str:
    out = run(spark, scale=scale, **kw)
    path = report.save(
        "ablation", {"scale": str(scale), "columns": out["columns"]}, out["markdown"]
    )
    print(out["markdown"])
    return str(path)
