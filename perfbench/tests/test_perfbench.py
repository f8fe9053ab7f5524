"""Tests of the benchmark's own code; no Spark session needed.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""
import json
import re
from pathlib import Path

import pandas as pd
import pytest

from layers import PER_LAYER, layer_metrics
from run import END_TO_END
from spans import Span, Tracer, inclusive, self_seconds
from workloads import WORKLOADS, Expected, Tally, mismatch, tips_match

ROOT = Path(__file__).resolve().parents[2]


def _tree(spec):
    """Tracer holding hand-built spans ``(name, start, end, parent)``."""
    tr = Tracer()
    for i, (name, start, end, parent) in enumerate(spec):
        tr.spans.append(Span(id=i, name=name, start=start, end=end, parent=parent))
        if parent is not None:
            tr.spans[parent].children.append(i)
    return tr


def test_self_time_subtracts_children_once():
    tr = _tree([
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 4.0, 0),  # overlaps a: union of a and b is [1, 4)
        ("c", 6.0, 7.5, 0),
        ("a.x", 1.5, 2.5, 1),  # grandchild: not subtracted from root
    ])
    assert self_seconds(tr, tr.spans[0]) == pytest.approx(10.0 - 3.0 - 1.5)
    assert self_seconds(tr, tr.spans[1]) == pytest.approx(2.0 - 1.0)
    assert self_seconds(tr, tr.spans[4]) == pytest.approx(1.0)


def test_self_time_clips_children_to_parent():
    tr = _tree([("root", 0.0, 2.0, None), ("late", 1.5, 3.0, 0)])
    assert self_seconds(tr, tr.spans[0]) == pytest.approx(1.5)


def test_inclusive_counts_subtree():
    tr = _tree([
        ("root", 0, 9, None), ("cd", 1, 8, 0), ("pvb", 2, 3, 1), ("x", 8, 9, 0),
    ])
    for s, jobs in zip(tr.spans, (1, 10, 19, 2)):
        s.jobs = jobs
    assert inclusive(tr, tr.spans[1], "jobs") == 29
    assert inclusive(tr, tr.spans[0], "jobs") == 32


def test_layer_metrics_split_cd_and_huc():
    tr = _tree([
        ("receipt", 0.0, 20.0, None),
        ("spark.checkpoint", 0.0, 0.5, 0),  # orient
        ("count", 0.5, 4.5, 0),
        ("pvb", 0.6, 4.4, 2),
        ("cd", 4.5, 18.0, 0),
        ("spark.transfer", 5.0, 5.5, 4),
        ("peel_round", 5.5, 5.6, 4),
        ("spark.collect", 5.6, 7.6, 4),
        ("compact", 7.6, 7.7, 4),
        ("spark.checkpoint", 7.7, 8.7, 4),
        ("pvb", 9.0, 13.0, 4),  # HUC re-count
        ("spark.collect", 12.0, 13.0, 10),  # inside HUC: not cd.collect_s
        ("fd", 18.0, 19.5, 0),
    ])
    for s, jobs in zip(tr.spans, (0, 1, 0, 19, 0, 0, 0, 2, 0, 1, 17, 1, 6)):
        s.jobs = jobs
    m = layer_metrics(tr, tr.spans[0], rho=2)
    assert m["count.s"] == pytest.approx(4.0) and m["count.jobs"] == 19
    assert m["cd.s"] == pytest.approx(13.5) and m["cd.jobs"] == 21
    assert m["cd.jobs_per_round"] == pytest.approx(10.5)
    assert m["cd.collect_s"] == pytest.approx(2.0)
    assert m["cd.transfer_s"] == pytest.approx(0.5)
    assert m["cd.checkpoint_s"] == pytest.approx(1.0)
    assert m["cd.huc.calls"] == 1 and m["cd.huc.jobs"] == 18
    assert m["cd.huc.s"] == pytest.approx(4.0)
    assert m["cd.peel_round.calls"] == 1 and m["cd.dgm.calls"] == 1
    # CD self time: 13.5 minus children 0.5 + 0.1 + 2.0 + 0.1 + 1.0 + 4.0
    assert m["cd.driver_s"] == pytest.approx(5.8)
    assert m["fd.s"] == pytest.approx(1.5) and m["fd.jobs"] == 6
    assert m["orient.s"] == pytest.approx(0.5)
    assert m["spark.jobs"] == 47
    assert m["parb.loop_s"] == 0
    assert m["count.s"] + m["cd.s"] + m["fd.s"] + m["orient.s"] == pytest.approx(
        m["trace.decomp_s"] - 0.5  # root self time [19.5, 20)
    )


def test_layer_metrics_parb_loop():
    tr = _tree([
        ("parb", 0.0, 10.0, None),
        ("spark.checkpoint", 0.0, 1.0, 0),
        ("count", 1.0, 4.0, 0),
        ("spark.collect", 4.0, 5.0, 0),
        ("spark.transfer", 5.0, 5.5, 0),
        ("peel_round", 5.5, 5.6, 0),
        ("spark.collect", 5.6, 8.6, 0),
    ])
    for s, jobs in zip(tr.spans, (0, 1, 19, 2, 0, 0, 1)):
        s.jobs = jobs
    m = layer_metrics(tr, tr.spans[0], rho=1)
    assert m["parb.count_s"] == pytest.approx(3.0)
    assert m["parb.loop_s"] == pytest.approx(6.0)
    assert m["parb.collect_s"] == pytest.approx(4.0)
    assert m["parb.transfer_s"] == pytest.approx(0.5)
    assert m["parb.jobs_per_round"] == 3
    assert m["parb.driver_s"] == pytest.approx(10.0 - 1 - 3 - 1 - 0.5 - 0.1 - 3)
    assert m["cd.s"] == 0 and m["cd.huc.calls"] == 0


def test_tracer_nests_spans_by_call_order():
    tr = Tracer()
    f = tr.wrap("inner", lambda x: x + 1)
    with tr.span("outer") as outer:
        assert f(1) == 2
        assert f(2) == 3
    assert [s.name for s in tr.spans] == ["outer", "inner", "inner"]
    assert outer.children == [1, 2] and tr.spans[2].parent == 0
    assert outer.seconds >= tr.spans[1].seconds + tr.spans[2].seconds


def test_fail_rate_counts_a_wrong_tips_frame():
    oracle = pd.DataFrame({"u": [3, 1, 2], "tip": [0, 4, 4]})
    right = pd.DataFrame({"u": [1, 2, 3], "tip": [4, 4, 0]})
    wrong = right.assign(tip=[4, 5, 0])
    exp = Expected(tips=oracle)
    tally = Tally()
    for tips in (right, wrong, right, right.iloc[:2]):
        tally.record(mismatch(tips, 1, 10, exp) is None)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_rate == pytest.approx(0.5)


def test_mismatch_checks_rounds_and_wedges():
    oracle = pd.DataFrame({"u": [0, 1], "tip": [1, 1]})
    exp = Expected(tips=oracle, rho=3, wedges=40)
    assert mismatch(oracle, 3, 40, exp) is None
    assert "rho" in mismatch(oracle, 4, 40, exp)
    assert "wedges" in mismatch(oracle, 3, 41, exp)
    assert not tips_match(pd.concat([oracle, oracle]), pd.concat([oracle, oracle]))


def test_emitted_names_are_declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = re.compile(r"[A-Za-z0-9_.-]+")
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    assert declared["end_to_end"] == END_TO_END
    assert declared["per_layer"] == PER_LAYER
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    for names in (END_TO_END, PER_LAYER, WORKLOADS):
        for n in names:
            assert name.fullmatch(n) and len(n) <= 64, n
