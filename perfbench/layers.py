"""Per-layer spans: where the traced run wraps the program, and how the
span tree of one decomposition becomes the per-layer metrics.

Span names used here (one per wrapped public function):

==================  ====================================================
``count``           ``counting.support_init`` (alg. 1, initial count)
``pvb``             ``counting.per_vertex_butterflies`` — under ``count``
                    it is the initial count, under ``cd`` a HUC re-count
``cd``              ``receipt_cd`` (CD driver loop)
``fd``              ``receipt_fd`` (FD grouped-map tasks)
``peel_round``      ``peel_round.batch_peel_round`` (CD and ParB)
``compact``         ``peel_round.compact_edges`` (DGM, and the compaction
                    before each HUC re-count)
``spark.collect``   ``DataFrame.toPandas``
``spark.transfer``  ``SparkSession.createDataFrame``
``spark.checkpoint`` ``DataFrame.localCheckpoint``
==================  ====================================================
"""
from __future__ import annotations

from contextlib import contextmanager

from spans import Span, Tracer, inclusive, self_seconds

BOUNDARY = {
    "spark.collect": "collect_s",
    "spark.transfer": "transfer_s",
    "spark.checkpoint": "checkpoint_s",
}

#: every per-layer metric with its unit, in report order
PER_LAYER: dict[str, str] = {
    "count.s": "s",
    "count.jobs": "count",
    "cd.s": "s",
    "cd.jobs": "count",
    "cd.jobs_per_round": "count",
    "cd.collect_s": "s",
    "cd.transfer_s": "s",
    "cd.checkpoint_s": "s",
    "cd.driver_s": "s",
    "cd.peel_round.calls": "count",
    "cd.dgm.calls": "count",
    "cd.huc.calls": "count",
    "cd.huc.s": "s",
    "cd.huc.jobs": "count",
    "fd.s": "s",
    "fd.jobs": "count",
    "fd.wedges": "count",
    "fd.skew": "ratio",
    "parb.count_s": "s",
    "parb.loop_s": "s",
    "parb.jobs_per_round": "count",
    "parb.collect_s": "s",
    "parb.transfer_s": "s",
    "parb.driver_s": "s",
    "orient.s": "s",
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "spark.tasks_failed": "count",
    "jvm_rss_mb": "MB",
    "baseline.bup_s": "s",
    "trace.decomp_s": "s",
    "trace.overhead_s": "s",
}


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layers' public functions in spans; undo on exit."""
    from pyspark.sql import SparkSession
    from pyspark.sql.classic.dataframe import DataFrame

    from repro.core import counting, parb, receipt, receipt_cd

    targets = [
        (counting, "support_init", "count"),
        (counting, "per_vertex_butterflies", "pvb"),
        (receipt, "receipt_cd", "cd"),
        (receipt, "receipt_fd", "fd"),
        (receipt_cd, "batch_peel_round", "peel_round"),
        (receipt_cd, "compact_edges", "compact"),
        (parb, "batch_peel_round", "peel_round"),
        (SparkSession, "createDataFrame", "spark.transfer"),
        (DataFrame, "toPandas", "spark.collect"),
        (DataFrame, "localCheckpoint", "spark.checkpoint"),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, name in targets:
            setattr(obj, attr, tracer.wrap(name, getattr(obj, attr)))
        yield tracer
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)


def _under(tracer: Tracer, span: Span, names: set[str]) -> Span | None:
    """Nearest ancestor of ``span`` whose name is in ``names``."""
    p = span.parent
    while p is not None:
        s = tracer.spans[p]
        if s.name in names:
            return s
        p = s.parent
    return None


def layer_metrics(tracer: Tracer, root: Span, rho: int) -> dict[str, float]:
    """Per-layer metrics of one traced decomposition rooted at ``root``.

    ``root`` is the span around the whole ``receipt()`` or
    ``parb_spark()`` call; ``rho`` its round count. Metrics of layers
    that did not run are 0. Boundary times (``*_s`` of ``spark.*``
    spans) belong to the nearest layer span above them, so CD's exclude
    the HUC re-counts, which are reported as ``cd.huc.*``.
    """
    out = {k: 0.0 for k in PER_LAYER}
    spans = tracer.subtree(root)
    layer_names = {"count", "cd", "fd", "pvb"}
    for s in spans:
        if s is root:
            continue
        owner = _under(tracer, s, layer_names)
        if s.name == "count":
            out["count.s"] += s.seconds
            out["count.jobs"] += inclusive(tracer, s, "jobs")
        elif s.name == "cd":
            out["cd.s"] += s.seconds
            out["cd.jobs"] += inclusive(tracer, s, "jobs")
            out["cd.driver_s"] += self_seconds(tracer, s)
        elif s.name == "fd":
            out["fd.s"] += s.seconds
            out["fd.jobs"] += inclusive(tracer, s, "jobs")
        elif s.name == "pvb" and owner is not None and owner.name == "cd":
            out["cd.huc.calls"] += 1
            out["cd.huc.s"] += s.seconds
            out["cd.huc.jobs"] += inclusive(tracer, s, "jobs")
        elif s.name in ("peel_round", "compact") and owner and owner.name == "cd":
            key = "cd.peel_round.calls" if s.name == "peel_round" else "cd.dgm.calls"
            out[key] += 1
        elif s.name in BOUNDARY:
            if owner is not None and owner.name == "cd":
                out["cd." + BOUNDARY[s.name]] += s.seconds
            elif owner is None and root.name == "parb" and s.name != "spark.checkpoint":
                out["parb." + BOUNDARY[s.name]] += s.seconds
            if s.name == "spark.checkpoint" and s.parent == root.id:
                out["orient.s"] += s.seconds
    if rho:
        out["cd.jobs_per_round"] = out["cd.jobs"] / rho
    if root.name == "parb":
        orient_jobs = sum(
            inclusive(tracer, tracer.spans[c], "jobs")
            for c in root.children
            if tracer.spans[c].name == "spark.checkpoint"
        )
        loop_jobs = inclusive(tracer, root, "jobs") - out["count.jobs"] - orient_jobs
        out["parb.count_s"] = out["count.s"]
        out["parb.loop_s"] = root.seconds - out["count.s"] - out["orient.s"]
        out["parb.jobs_per_round"] = loop_jobs / rho if rho else 0.0
        out["parb.driver_s"] = self_seconds(tracer, root)
    for k in ("jobs", "stages", "tasks", "tasks_failed"):
        out[f"spark.{k}"] = inclusive(tracer, root, k)
    out["trace.decomp_s"] = root.seconds
    return out
