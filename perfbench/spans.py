"""In-memory span recorder for the traced benchmark run.

A span is ``(id, name, start, end, parent)`` on the driver's
``time.perf_counter`` clock. Spans nest by call order: a span opened
while another is open is its child. The benchmark opens spans around
calls into the program's public layer functions (see ``layers.py``);
nothing inside the program is touched.

When a Spark context is given, every span also owns a Spark job group:
opening the span makes its group current on the driver thread, closing
it restores the parent's. After a traced decomposition,
:meth:`Tracer.collect_jobs` reads back from ``statusTracker()`` which
jobs, stages and tasks ran in each span's own group.

This module imports nothing from Spark, so its arithmetic is testable
without a JVM.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    # Spark work submitted while this span was the innermost open one
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    tasks_failed: int = 0
    children: list[int] = field(default_factory=list, repr=False)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; :meth:`dump` writes them out once."""

    def __init__(self, sc=None):
        self._sc = sc
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def _set_group(self, span: Span | None) -> None:
        if self._sc is None:
            return
        if span is None:
            self._sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self._sc.setJobGroup(_group(span.id), span.name)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            parent=parent.id if parent else None,
        )
        self.spans.append(s)
        if parent:
            parent.children.append(s.id)
        self._open.append(s)
        self._set_group(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            self._set_group(parent)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def subtree(self, root: Span) -> list[Span]:
        out, todo = [], [root]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.spans[c] for c in s.children)
        return out

    def collect_jobs(self, root: Span) -> None:
        """Fill job/stage/task counts for every span under ``root``.

        Spark updates its status store from an asynchronous listener
        bus, so the bus is drained first. A stage listed by several jobs
        (a shuffle reused, so skipped by the later job) is counted once,
        for the first job; a stage counts only if it ran a task.
        """
        sc = self._sc
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = sc.statusTracker()
        spans = self.subtree(root)
        job_span: dict[int, Span] = {}
        for s in spans:
            ids = tracker.getJobIdsForGroup(_group(s.id))
            s.jobs = len(ids)
            for j in ids:
                job_span[j] = s
        seen: set[int] = set()
        for j in sorted(job_span):
            info = tracker.getJobInfo(j)
            if info is None:
                continue
            for st in info.stageIds:
                if st in seen:
                    continue
                seen.add(st)
                si = tracker.getStageInfo(st)
                if si is None or si.numCompletedTasks + si.numFailedTasks == 0:
                    continue
                owner = job_span[j]
                owner.stages += 1
                owner.tasks += si.numCompletedTasks
                owner.tasks_failed += si.numFailedTasks

    def dump(self, path) -> None:
        rows = [
            {k: v for k, v in asdict(s).items() if k != "children"}
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump(rows, f)


def _group(span_id: int) -> str:
    return f"perfbench-span-{span_id}"


def self_seconds(tracer: Tracer, span: Span) -> float:
    """``span``'s duration minus the part its children's spans cover."""
    ivs = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in (tracer.spans[i] for i in span.children)
    )
    covered, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return span.seconds - covered


def inclusive(tracer: Tracer, span: Span, attr: str) -> int:
    """Sum of a count (``jobs``, ``tasks``, ...) over ``span``'s subtree."""
    return sum(getattr(s, attr) for s in tracer.subtree(span))
