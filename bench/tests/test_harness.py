"""Self-tests for the benchmark's measurement code.

Run from the repository root:  python -m pytest -q bench/tests
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "bench", ROOT / "src"):
    sys.path.insert(0, str(path))

import run  # noqa: E402
from spans import WRAPS, Tracer, layer_totals  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile(500) == 98
    assert run.tail_percentile(40) == 75
    for n in (11, 40, 123, 500):
        p = run.tail_percentile(n)
        values = list(range(n))
        rank_value = run.nearest_rank(values, p)
        assert sum(v > rank_value for v in values) >= 10
        assert sum(v > run.nearest_rank(values, p + 1) for v in values) < 10
    with pytest.raises(ValueError):
        run.tail_percentile(10)


def test_self_time_subtracts_child_spans():
    spans = [
        ["outer", 0.0, 10.0, -1, "a"],
        ["inner", 1.0, 4.0, 0, "a"],
        ["inner", 5.0, 6.0, 0, "a"],
        ["leaf", 2.0, 3.0, 1, "a"],
    ]
    totals = layer_totals(spans)
    assert totals["outer"] == [1, 6.0, 10.0]
    assert totals["inner"] == [2, 3.0, 4.0]
    assert totals["leaf"] == [1, 1.0, 1.0]


def test_wrappers_cover_every_layer_and_are_removed():
    m = run.import_ontopath()
    originals = {(module, attr): getattr(getattr(m, module), attr)
                 for module, attr, _span, _extra in WRAPS}
    tracer = Tracer()
    tracer.install(m)
    try:
        tracer.active = True
        ops = run.prepare(m, run.WORKLOADS["graph-scale"](1)[:4])
        for op in ops:
            assert set(run.run_instance(m, op, tracer).outcomes.values()) == {"ok"}
        tracer.active = False
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    names = {span[0] for span in spans}
    assert {span for _m, _a, span, _e in WRAPS} <= names
    assert {"op.compile", "op.eval", "op.check"} <= names
    # Recursion through module globals nests spans of the same layer.
    by_index = dict(enumerate(spans))
    assert any(span[0] == "graph.path_pairs" and span[3] >= 0
               and by_index[span[3]][0] == "graph.path_pairs" for span in spans)
    assert counts["chase.nodes_added"] > 0
    for (module, attr), original in originals.items():
        assert getattr(getattr(m, module), attr) is original


def test_kinds_to_repeat_leaves_out_the_slowest_of_each_kind():
    first = [run.Result(times={"compile": c, "eval": e, "check": k})
             for c, e, k in [(1, 1, 1), (2, 9, 2), (9, 2, 3), (3, 3, 9)]]
    assert run.kinds_to_repeat(first, 1) == [
        ("compile", "eval", "check"),
        ("compile", "check"),
        ("eval", "check"),
        ("compile", "eval"),
    ]
    assert run.kinds_to_repeat(first, 0) == [run.KINDS] * 4


def test_passes_repeat_exact_results_and_settle_the_slowest_of_each_kind():
    m, ops, _seconds = run.set_up("tbox-scale", 2)
    ops = ops[:4] + ops[-4:]
    passes = run.run_passes(m, ops, 2, 0, SpeedProbe(), min_passes=3, settled=2)
    kinds = run.kinds_to_repeat(passes[0], 2)
    for results in passes[1:]:
        assert [tuple(r.times) if r is not None else () for r in results] == kinds
    assert run.op_repeat_problems(ops, passes) == []
    figures = run.exact_figures(passes[0])
    assert figures["outcomes"] == {"ok": 24, "wrong": 0, "budget": 0, "error": 0}
    assert all(r.scale > 0 for results in passes for r in results if r is not None)


def test_speed_probe_scales_by_the_samples_around_an_operation():
    probe = SpeedProbe()
    probe.at = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    probe.took = [REFERENCE_S] * 3 + [2 * REFERENCE_S] * 3
    assert probe.scale_at(0.5) == 1.0
    assert probe.scale_at(11.5) == 0.5
    assert probe.scale_between(10.5, 11.5) == 0.5
