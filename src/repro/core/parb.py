"""ParB baseline — PARBUTTERFLY batch-mode peeling as Spark dataflow.

The state-of-the-art parallel baseline (Shi & Shun [54]) peels *all*
vertices with the current minimum support in each round; every round is
one synchronization. ParB and RECEIPT CD apply the same batch update
(lemma 2) and differ only in the support range a round peels, so ParB
runs CD's peel loop (:class:`repro.core.receipt_cd.BatchPeeler`) on
ranges one level wide, ``[min_sup, min_sup + 1)``, with HUC and DGM off.
Supports are floored at that minimum and frozen when a vertex is peeled,
so the tips are the peeler's support array over its peeled vertices,
``sup[~alive]`` (indexed by ``u`` code, like all its driver state). The
round count is the paper's ρ; a round is one batched update join, which
takes two Spark jobs (see :mod:`repro.core.receipt_cd`). The count and
every round read one structure, cached on entry as ``receipt()`` caches
it; the count fills it, and it is released on return, also when the
budget stops the loop.

Because ρ for ParB is typically 100-1000x RECEIPT's (the paper's whole
point), a full Spark run can exceed any reasonable local budget — mirror
of the paper's baselines timing out after 10 days. The loop therefore
takes a round/time budget; when exhausted it returns ``completed=False``
and the harness falls back to :func:`repro.core.bup.parb_simulate` for
exact ρ / Λ / tips (same algorithm on the sequential substrate; paper
footnote 6 derives ρ the same way).
"""
from __future__ import annotations

import time

import pandas as pd
from pyspark.sql import DataFrame

from repro.core import counting
from repro.core.metrics import BaselineMetrics
# batch_peel_round is not called here: perfbench wraps
# ``parb.batch_peel_round`` by name
from repro.core.peel_round import batch_peel_round, peel_structure  # noqa: F401
from repro.core.receipt_cd import MAX_ITERS, BatchPeeler
from repro.graph import bipartite as bg


def parb_spark(
    edges: DataFrame,
    *,
    side: str = "u",
    max_rounds: int = MAX_ITERS,
    time_budget_s: float | None = None,
) -> tuple[pd.DataFrame, BaselineMetrics]:
    """Peel one side with min-support batch rounds on Spark.

    Returns ``(tips, metrics)``; ``tips`` covers only the vertices peeled
    within budget — ``metrics.completed`` says whether that is all of
    them (rounds, wedges and partial tips are exact either way). The
    input is read as ``receipt()`` reads it (a null id raises ``ValueError``).
    """
    def out_of_budget(rounds: int) -> bool:
        return rounds >= max_rounds or (
            time_budget_s is not None
            and time.perf_counter() - start > time_budget_s
        )

    t0 = time.perf_counter()
    oriented, mirror = bg.edge_set(edges, side)
    with peel_structure(oriented) as structure:
        sup, bc = counting.support_init(structure, mirror)
        t1 = time.perf_counter()
        peeler = BatchPeeler(structure, mirror, sup, huc=False, dgm=False)
        start = time.perf_counter()
        alive = peeler.cost.alive
        finished = True
        while finished and alive.any():
            m = int(peeler.sup[alive].min())
            finished = peeler.peel_range(m, m + 1, out_of_budget)
    tips = pd.DataFrame({"u": peeler.cost.u_ids[~alive], "tip": peeler.sup[~alive]})
    met = BaselineMetrics(
        seconds=time.perf_counter() - start,
        wedges=peeler.metrics.wedges,
        rounds=peeler.metrics.rounds,
        count_seconds=t1 - t0,
        count_wedges=bc.wedges,
        completed=not alive.any(),
    )
    return tips, met
