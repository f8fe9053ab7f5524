"""End-to-end RECEIPT: counting → coarse decomposition → fine decomposition.

This is the paper's full pipeline (fig. 2) with every optimization
switchable for the ablation study: ``huc=False, dgm=False`` is the
paper's RECEIPT--, ``huc=True, dgm=False`` is RECEIPT-, both on is
RECEIPT. Correctness (theorem 2: identical tip numbers to sequential
BUP) is asserted by the test suite on every dataset and flag
combination.

The input is collected once (:func:`repro.graph.bipartite.edge_set`): its
pandas *mirror* on the driver, deduplicated, int64 and free of nulls, is
what counting, CD and FD read for every graph fact the driver can compute.
The Spark side is cached once, too: the edge set hash-partitioned by
``u`` (:func:`repro.core.peel_round.peel_structure`), which the initial
count fills and every CD round and HUC re-count reads. It is released
when CD ends, or when counting or CD raises; FD reads only the mirror.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame

from repro.core import counting
from repro.core.metrics import PhaseMetrics, ReceiptMetrics
from repro.core.peel_round import peel_structure
from repro.core.receipt_cd import receipt_cd
from repro.core.receipt_fd import receipt_fd
from repro.graph import bipartite as bg


@dataclass
class ReceiptResult:
    """Tips (pandas, original vertex ids of the peeled side) + metrics."""

    tips: pd.DataFrame
    metrics: ReceiptMetrics
    membership: pd.DataFrame
    ranges: list[int] = field(default_factory=list)


def receipt(
    edges: DataFrame,
    *,
    n_partitions: int = 8,
    side: str = "u",
    huc: bool = True,
    dgm: bool = True,
) -> ReceiptResult:
    """Tip-decompose one side of a bipartite graph with RECEIPT.

    ``side`` selects which vertex set is peeled (the paper decomposes U
    and V of each dataset separately). Returns exact tip numbers as
    pandas ``(u, tip)`` in original ids plus a full metrics roll-up; a
    null id raises ``ValueError``.
    """
    met = ReceiptMetrics()

    t0 = time.perf_counter()
    oriented, mirror = bg.edge_set(edges, side)
    with peel_structure(oriented) as structure:
        sup, bc = counting.support_init(structure, mirror)
        met.count = PhaseMetrics(
            seconds=time.perf_counter() - t0, wedges=bc.wedges, rounds=0
        )
        cd = receipt_cd(structure, mirror, sup, n_partitions, huc=huc, dgm=dgm)
    met.cd = cd.metrics
    met.huc_recounts = cd.huc_recounts
    met.dgm_compactions = cd.dgm_compactions

    fd = receipt_fd(oriented, mirror, cd.membership, dgm=dgm)
    met.fd = fd.metrics
    met.p_effective = len(fd.subset_stats)
    met.subset_sizes = fd.subset_stats["sub_size"].tolist()
    met.subset_wedges_induced = fd.subset_stats["sub_wedges"].tolist()
    met.subset_seconds = fd.subset_stats["sub_seconds"].tolist()

    return ReceiptResult(
        tips=fd.tips, metrics=met, membership=cd.membership, ranges=cd.ranges
    )
