"""Table 3 reproduction — main comparison of tip-decomposition algorithms.

For every dataset-side (ItU, ItV, ..., TrV) the paper reports execution
time ``t``, wedges traversed ``Λ`` and synchronization rounds ``ρ`` for
pvBcnt / BUP / ParB / RECEIPT. Our measurement plan (DESIGN.md §4):

* ``pvBcnt`` — Spark counting dataflow: measured ``t``, enumerated ``Λ``.
* ``BUP`` — the sequential reference kernel: measured ``t``, exact ``Λ``
  (counting + peeling, as in the paper's Λ^BUP row).
* ``ParB`` — the Spark dataflow loop under a wall-clock budget; if the
  budget is exhausted ``t = ∞`` (the paper's baselines time out after 10
  days / run out of memory on the same sides of the table). ``ρ`` and
  ``Λ`` always come exact from the driver-side simulator, which also
  cross-checks the tips of completed Spark runs.
* ``RECEIPT`` — the full Spark implementation: measured ``t``, its own
  ``Λ`` accounting, ``ρ`` = CD iterations.

Every algorithm's tips are asserted equal to BUP's before any number is
reported — a row from a wrong decomposition never reaches the table.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.bup import bup, parb_simulate
from repro.core.counting import per_vertex_butterflies
from repro.core.parb import parb_spark
from repro.core.receipt import receipt
from repro.experiments import datasets, report
from repro.graph import bipartite as bg
from repro.oracle import assert_tips_equal

import time


def parb_in_paper(name: str, side: str) -> bool:
    """Sides for which the paper's Table 3 has a ParB time at all.

    ParB runs out of memory on the five heavy U sides (paper shows
    ``-``); we mirror that selection for the measured Spark baseline and
    report ``-`` for the same cells (ρ/Λ stay exact via the simulator).
    """
    return side == "v" or name == "it"


def run_side(
    spark: SparkSession,
    name: str,
    side: str,
    *,
    scale: str | float = "bench",
    n_partitions: int = 8,
    parb_budget_s: float | None = 90.0,
    parb_spark_enabled: bool | None = None,
) -> dict:
    """One Table 3 column (a dataset-side). Returns a flat dict of cells.

    ``parb_spark_enabled=None`` (default) follows :func:`parb_in_paper`;
    pass True/False to force. A disabled cell renders ``-``; an enabled
    run that exceeds ``parb_budget_s`` renders ``∞``.
    """
    if parb_spark_enabled is None:
        parb_spark_enabled = parb_in_paper(name, side)
    oriented, mirror = bg.edge_set(datasets.load(spark, name, scale), side)

    t0 = time.perf_counter()
    bc = per_vertex_butterflies(oriented, mirror)
    t_pvbcnt = time.perf_counter() - t0

    tips_bup, m_bup = bup(mirror)

    tips_sim, m_sim = parb_simulate(mirror)
    assert_tips_equal(tips_bup, tips_sim, "parb_simulate")
    t_parb: float | None = None
    if parb_spark_enabled:
        t_parb = float("inf")
        tips_ps, m_ps = parb_spark(oriented, time_budget_s=parb_budget_s)
        if m_ps.completed:
            assert_tips_equal(tips_bup, tips_ps, "parb_spark")
            assert m_ps.rounds == m_sim.rounds, (m_ps.rounds, m_sim.rounds)
            t_parb = m_ps.total_seconds

    r = receipt(oriented, n_partitions=n_partitions)
    assert_tips_equal(tips_bup, r.tips, "receipt")

    return {
        "label": datasets.label(name, side),
        "t_pvbcnt": round(t_pvbcnt, 2),
        "t_bup": round(m_bup.total_seconds, 2),
        "t_parb": round(t_parb, 2)
        if t_parb not in (None, float("inf"))
        else t_parb,
        "t_receipt": round(r.metrics.total_seconds, 2),
        "w_pvbcnt": bc.wedges,
        "w_bup": m_bup.total_wedges,
        "w_receipt": r.metrics.total_wedges,
        "rho_parb": m_sim.rounds,
        "rho_receipt": r.metrics.rho,
        "p_effective": r.metrics.p_effective,
        "huc_recounts": r.metrics.huc_recounts,
        "theta_max": int(tips_bup["tip"].max()),
    }


def run(
    spark: SparkSession,
    *,
    scale: str | float = "bench",
    sides=None,
    n_partitions: int = 8,
    parb_budget_s: float | None = 90.0,
    parb_spark_enabled: bool | None = None,
) -> dict:
    """Full table over all twelve dataset-sides (or a subset)."""
    cols = []
    for name, side in sides or datasets.SIDES:
        cols.append(
            run_side(
                spark,
                name,
                side,
                scale=scale,
                n_partitions=n_partitions,
                parb_budget_s=parb_budget_s,
                parb_spark_enabled=parb_spark_enabled,
            )
        )
    return {"columns": cols, "markdown": render(cols)}


def render(cols: list[dict]) -> str:
    """Markdown in the paper's Table 3 layout from per-side columns."""
    headers = ["metric"] + [c["label"] for c in cols]
    metric_rows = [
        ("t(s) pvBcnt", "t_pvbcnt"),
        ("t(s) BUP", "t_bup"),
        ("t(s) ParB", "t_parb"),
        ("t(s) RECEIPT", "t_receipt"),
        ("∧ pvBcnt", "w_pvbcnt"),
        ("∧ BUP", "w_bup"),
        ("∧ RECEIPT", "w_receipt"),
        ("ρ ParB", "rho_parb"),
        ("ρ RECEIPT", "rho_receipt"),
    ]
    rows = [[label] + [c[key] for c in cols] for label, key in metric_rows]
    return report.markdown_table(headers, rows)


def main(spark: SparkSession, scale: str | float = "bench", **kw) -> str:
    out = run(spark, scale=scale, **kw)
    path = report.save(
        "table3", {"scale": str(scale), "columns": out["columns"]}, out["markdown"]
    )
    print(out["markdown"])
    return str(path)
