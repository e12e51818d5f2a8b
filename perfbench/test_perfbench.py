"""Tests of the benchmark harness's own helpers, not of cavsr itself."""

from __future__ import annotations

import json
import os
import random

import pytest

import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tail_has_ten_samples_beyond_it():
    samples = [float(v) for v in range(1, 101)]
    random.Random(0).shuffle(samples)
    value, pct = run.tail(samples)
    assert value == 90.0
    assert sum(s > value for s in samples) == 10
    assert pct == 90.0


def test_tail_of_ten_or_fewer_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(v) for v in range(10)]) == (9.0, 100.0)
    assert run.tail([float(v) for v in range(11)]) == (0.0, 100.0 / 11.0)


def test_self_time_subtracts_what_children_cover():
    recorded = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 4.0, 0),    # overlaps a: [1, 4] is covered once
        ("c", 9.0, 12.0, 0),   # runs past the parent: only [9, 10] counts
        ("a.x", 1.5, 2.5, 1),
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])


def test_tracer_nests_spans_and_records_errors():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: 1, "inner")

    def boom():
        inner()
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "outer")()
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert all(end >= start for _, start, end, _ in tracer.spans)
    assert tracer.errors == [(0, "KeyError")]


def _marks(*segments: float) -> list[list[float]]:
    """Clock marks of one pass whose segments take the given times, CPU at half the wall."""
    marks, t = [[0.0, 0.0]], 0.0
    for s in segments:
        t += s
        marks.append([t, 0.5 * t])
    return marks


def test_best_segments_takes_each_segment_at_its_fastest_pass():
    passes = [_marks(0.1, 2.0, 0.3), _marks(0.2, 1.0, 0.3), _marks(0.1, 1.5, 0.2)]
    walls, cpus = run.best_segments(passes)
    assert walls == pytest.approx([0.1, 1.0, 0.2])
    assert cpus == pytest.approx([0.05, 0.5, 0.1])
    # a pass cut short by an error has fewer marks and is left out
    assert run.best_segments(passes + [_marks(0.01, 0.01)])[0] == pytest.approx(walls)
    # a call spans the segments between its first and last mark
    assert run.call_times(walls, [[1, 2], [0, 3]]) == pytest.approx([1.0, 1.3])


def _child(attempted: int, failed: int) -> dict:
    return {
        "passes": [_marks(0.1, 0.5, 0.1, 0.6, 0.1), _marks(0.1, 0.7, 0.1, 0.5, 0.1)],
        "calls": [[1, 2], [3, 4]],
        "items": 4, "item_unit": "points", "call_unit": "call", "peak_rss_mb": 100.0,
        "attempted": attempted, "failed": failed, "misses": ["oracle x: 1 vs 2"] * failed,
        "env": {},
    }


def test_oracle_miss_is_counted_and_fails_the_command(monkeypatch, capsys):
    from workloads import Checks

    checks = Checks()
    checks.op(True)
    checks.oracle("x", False, "1 vs 2")
    assert (checks.attempted, checks.failed) == (2, 1)
    assert checks.misses == ["oracle x: 1 vs 2"]

    monkeypatch.setattr(run, "run_child", lambda *a: (_child(checks.attempted, checks.failed), 1.0))
    monkeypatch.setattr(run, "setup_sample", lambda deadline: 1.0)
    argv = ["--workload", "sweep-small", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)

    monkeypatch.setattr(run, "run_child", lambda *a: (_child(2, 0), 1.0))
    assert run.main(argv) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is True


def test_benchmark_json_names_every_metric_the_harness_prints():
    from workloads import LAYER_UNITS, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    printed = run.end_to_end(_child(1, 0), [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in printed.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
