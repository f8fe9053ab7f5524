"""RECEIPT FD — fine-grained decomposition (paper alg. 4) as
partition-parallel grouped-map tasks.

Each subset ``U_i`` from CD is peeled *independently*: its induced
subgraph (all edges of its members — the full ``V`` side is retained, so
every butterfly between two members survives, theorem 2) is shipped to
one Spark task, supports are initialized from ``⋈_init``, and the
sequential NumPy peel kernel runs bottom-up peeling to exact tip
numbers. ``cogroup().applyInPandas`` keyed by subset id gives the
paper's execution model directly: P independent coarse tasks, one worker
each, dynamically scheduled by Spark (the paper's "dynamic task
allocation"; its LPT-style workload-aware *ordering* is a scheduler-queue
refinement that Spark's task scheduler does not expose — see DESIGN.md).

FD performs no inter-task synchronization, so it contributes 0 to ρ.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark import cloudpickle
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import kernel
from repro.core.kernel import peel
from repro.core.metrics import PhaseMetrics

# ship the kernel's code with each FD task rather than importing it on the
# executor, whose Python path need not hold this package
cloudpickle.register_pickle_by_value(kernel)

_OUT_SCHEMA = (
    "subset long, u long, tip long, "
    "sub_edges long, sub_wedges long, sub_rounds long, sub_dgm long"
)


@dataclass
class FDResult:
    """Exact tips plus per-subset work stats (for load-balance analysis)."""

    tips: pd.DataFrame  # (u, tip)
    subset_stats: pd.DataFrame  # (subset, sub_edges, sub_wedges, sub_rounds, sub_dgm)
    metrics: PhaseMetrics = field(default_factory=PhaseMetrics)


def _make_fd_worker(dgm: bool):
    """Grouped-map worker: peel one induced subgraph sequentially."""

    def fd_worker(key, edf: pd.DataFrame, mdf: pd.DataFrame) -> pd.DataFrame:
        subset = int(key[0])
        # the kernel peels one vertex a round, breaking ties by position:
        # order by id so Λ does not depend on the plan's row order
        mdf = mdf.sort_values("u")
        u_ids = mdf["u"].to_numpy()
        n_u = len(u_ids)
        sup0 = mdf["init_sup"].to_numpy()
        if len(edf):
            eu = pd.Categorical(edf["u"], categories=u_ids).codes.astype(np.int64)
            ev_codes, v_ids = pd.factorize(edf["v"])
            ev = ev_codes.astype(np.int64)
            tips, st = peel(n_u, len(v_ids), eu, ev, sup0, batch=False, dgm=dgm)
            wedges, rounds, dgms = st.wedges, st.rounds, st.dgm_compactions
        else:
            # members without edges cannot share butterflies: tips = init
            tips = sup0
            wedges = rounds = dgms = 0
        return pd.DataFrame(
            {
                "subset": subset,
                "u": u_ids,
                "tip": tips,
                "sub_edges": len(edf),
                "sub_wedges": wedges,
                "sub_rounds": rounds,
                "sub_dgm": dgms,
            }
        )

    return fd_worker


def receipt_fd(
    edges: DataFrame, membership: pd.DataFrame, *, dgm: bool = True
) -> FDResult:
    """Peel every subset independently; return exact tip numbers.

    ``edges`` is the oriented graph; ``membership`` is CD's output
    ``(u, subset, init_sup)``.
    """
    spark = edges.sparkSession
    t0 = time.perf_counter()
    # two independent frames from the same pandas data: a cogroup of two
    # derivations of one DataFrame trips Spark's ambiguous-self-join check
    mem_sdf = spark.createDataFrame(
        membership[["u", "subset", "init_sup"]],
        "u long, subset long, init_sup long",
    )
    mem_for_edges = spark.createDataFrame(
        membership[["u", "subset"]], "u long, subset long"
    )
    edges_m = edges.join(F.broadcast(mem_for_edges), "u")
    grouped = edges_m.groupBy("subset").cogroup(mem_sdf.groupBy("subset"))
    out = grouped.applyInPandas(_make_fd_worker(dgm), _OUT_SCHEMA)
    out_pdf = out.toPandas()
    seconds = time.perf_counter() - t0
    tips = out_pdf[["u", "tip"]].reset_index(drop=True)
    stats = (
        out_pdf.groupby("subset")
        .agg(
            sub_edges=("sub_edges", "first"),
            sub_wedges=("sub_wedges", "first"),
            sub_rounds=("sub_rounds", "first"),
            sub_dgm=("sub_dgm", "first"),
            sub_size=("u", "size"),
        )
        .reset_index()
    )
    met = PhaseMetrics(
        seconds=seconds, wedges=int(stats["sub_wedges"].sum()), rounds=0
    )
    return FDResult(tips=tips, subset_stats=stats, metrics=met)
