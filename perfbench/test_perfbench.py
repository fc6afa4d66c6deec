"""Tests of the benchmark itself: span arithmetic, output checks and
the per-layer ratios.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import checks
import layers
import run
import spans
from workloads import WORKLOADS

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from repro.runner import artifacts, engine  # noqa: E402


def _span(span_id, name, start, end, parent=None, note=None):
    return (span_id, name, start, end, parent, 0, note)


# -- span arithmetic ----------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_window():
    intervals = [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0), (20.0, 30.0)]
    assert spans.covered(intervals, 0.0, 10.0) == pytest.approx(6.0)
    assert spans.covered([], 0.0, 10.0) == 0.0


def test_self_time_subtracts_the_union_of_children_only():
    tree = [
        _span(1, "pass", 0.0, 10.0),
        _span(2, "runner.execute", 1.0, 3.0, parent=1),
        _span(3, "runner.execute", 2.0, 5.0, parent=1),  # overlaps 2
        _span(4, "sim.run", 2.5, 2.75, parent=2),  # grandchild of 1
        _span(5, "runner.artifacts", 8.0, 12.0, parent=1),  # overruns
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0 - 0.25)
    assert selfs[4] == pytest.approx(0.25)


def test_tracer_nests_spans_and_skips_same_name_reentry():
    tracer = spans.Tracer()
    tracer.pass_id = 7

    def inner(n):
        return n if n == 0 else traced_inner(n - 1)

    traced_inner = tracer.wrap(inner, "inner")
    outer = tracer.wrap(lambda: traced_inner(3), "outer")
    assert outer() == 0
    by_name = {s[1]: s for s in tracer.spans}
    assert sorted(by_name) == ["inner", "outer"]
    assert len(tracer.spans) == 2  # recursion recorded once
    assert by_name["inner"][4] == by_name["outer"][0]
    assert {s[5] for s in tracer.spans} == {7}


def test_adopted_spans_get_fresh_ids_and_keep_their_tree(tmp_path):
    worker = spans.Tracer()
    worker.wrap(lambda: worker.wrap(lambda: None, "child")(), "parent")()
    worker.dump(tmp_path / "w.jsonl")
    tracer = spans.Tracer()
    tracer.wrap(lambda: None, "mine")()
    adopted = tracer.adopt(spans.load(tmp_path / "w.jsonl"))
    ids = [s[0] for s in tracer.spans]
    assert len(set(ids)) == 3
    child = next(s for s in adopted if s[1] == "child")
    parent = next(s for s in adopted if s[1] == "parent")
    assert child[4] == parent[0]


def test_install_traces_the_real_program_and_restores_it():
    tracer = spans.Tracer()
    original = engine.execute_item
    layers.install(tracer)
    try:
        requests = [engine.RunRequest.create("sweep-noop", {"point": i})
                    for i in range(3)]
        outcomes = engine.execute(requests)
    finally:
        tracer.restore()
    assert engine.execute_item is original
    assert all(o.ok for o in outcomes)
    names = spans.counts(tracer.spans)
    assert names["runner.plan"] == 1
    assert names["runner.execute"] == 1  # one packed item
    note = next(s[6] for s in tracer.spans if s[1] == "runner.execute")
    assert len(note["points"]) == 3 and note["lanes"] == 16


# -- output checks --------------------------------------------------------


def _tree(out: Path, error: str = "") -> Path:
    """An artifact tree of three no-op points; the middle one raised
    when ``error`` is given."""
    outcomes = engine.execute(
        [engine.RunRequest.create("sweep-noop", {"point": i})
         for i in range(3)]
    )
    if error:
        outcomes[1] = engine.RunOutcome(request=outcomes[1].request,
                                        error=error)
    artifacts.write_artifacts(outcomes, out)
    return out


@pytest.fixture
def bench(tmp_path):
    return run.Bench(WORKLOADS["mesh-sweep"], 0, 0.0, False, tmp_path,
                     calibration=None)


def test_tampered_artifact_fails_the_digest_check(tmp_path, bench):
    good = _tree(tmp_path / "good")
    bench.reference = checks.point_digests(good)
    assert bench._check(good, 0, 0) == (3, 0)

    tampered = _tree(tmp_path / "tampered")
    rows = next((tampered / "sweep-noop").glob("*.rows.csv"))
    rows.write_text(rows.read_text() + "0,1\n")
    assert bench._check(tampered, 0, 0) == (3, 1)


def test_recorded_digest_mismatch_fails_every_point(tmp_path, bench):
    # a no-op tree is not what digests.json records for mesh-sweep seed 0
    good = _tree(tmp_path / "good")
    bench.set_reference(good)
    assert bench.recorded and not bench.reference_ok
    assert bench._check(good, 0, 0) == (3, 3)


def test_raising_point_counts_as_failed(tmp_path, bench):
    bench.reference = checks.point_digests(_tree(tmp_path / "good"))
    broken = _tree(tmp_path / "broken", error="Traceback: boom")
    assert len(checks.failing_points(broken)) == 1
    attempted, failed = bench._check(broken, 1, 0)
    assert (attempted, failed) == (3, 1)


def test_broken_cli_or_worker_fails_the_whole_pass(tmp_path, bench):
    bench.reference = checks.point_digests(_tree(tmp_path / "good"))
    bench.last_output = "boom"
    assert bench._check(tmp_path / "missing", 2, 0) == (3, 3)
    assert bench._check(tmp_path / "good", 0, 1) == (3, 3)


# -- per-layer ratios -------------------------------------------------------


def _fabric_pass(points_per_execution):
    main = [
        _span(1, "pass", 0.0, 10.0),
        _span(2, "fabric.sweep", 1.0, 9.0, parent=1),
        _span(3, "fabric.read_result", 8.0, 8.5, parent=2),
    ]
    worker = [_span(10, "fabric.claim", 1.0, 1.5, note=True)]
    t = 2.0
    for i, points in enumerate(points_per_execution):
        worker.append(_span(20 + i, "runner.execute", t, t + 1.0,
                            note={"points": points}))
        t += 1.0
    return layers.pass_metrics(main, main[0], {}, worker, 0.5)


def test_useful_ratio_drops_when_a_point_runs_twice():
    once = _fabric_pass([["s/a"], ["s/b"]])
    twice = _fabric_pass([["s/a"], ["s/b"], ["s/a"]])
    assert once["fabric.useful_ratio"] == 1.0
    assert twice["fabric.useful_ratio"] == pytest.approx(2 / 3)


def test_fabric_idle_is_sweep_time_no_worker_or_transport_covers():
    metrics = _fabric_pass([["s/a"], ["s/b"]])
    # sweep 1..9 (8 s); covered: claim 1-1.5, execute 2-4, read 8-8.5
    assert metrics["fabric.idle_s"] == pytest.approx(8.0 - 0.5 - 2.0 - 0.5)
    assert metrics["fabric.claim_win_ratio"] == 1.0
    assert metrics["fabric.execute_s"] == pytest.approx(2.0)
    assert metrics["runner.execute_s"] == 0.0
    assert metrics["trace.unattributed_s"] == pytest.approx(2.0)


def test_every_per_layer_metric_is_reported():
    metrics = _fabric_pass([["s/a"]])
    derived = {"cli.import_s", "runner.registry_load_s",
               "paper.error_max", "trace.overhead"}
    assert set(metrics) | derived == {m[0] for m in layers.PER_LAYER}


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == (
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(layers.PER_LAYER)


def test_timings_are_scaled_to_the_reference_host_speed():
    # idle host; the same work on a host 2x slower; a real 1.5x slowdown
    value, how = run._timed([1.0, 2.0, 3.0], [1.0, 2.0, 2.0], "samples")
    assert value == pytest.approx(1.0)
    assert "raw host median 2" in how and "slowdown 2x" in how


def test_calibration_walks_and_stops_its_child():
    with run.Calibration() as calibration:
        assert calibration.walk() > 0
        assert calibration.walk(run.SAMPLE_STEPS) > 0
        child = calibration.child
    assert child.poll() is not None


def test_sampler_walks_during_a_pass_and_reports_its_own_time():
    clock = run.time.perf_counter
    with run.Calibration() as calibration:
        calibration.walk(run.SAMPLE_STEPS)  # the child is up
        sampler = run.Sampler(calibration)
        start = clock()
        sampler.start(None)
        try:
            while len(sampler.walks) < 2 and clock() - start < 30:
                pass
        finally:
            sampler.stop()
        elapsed = clock() - start
    assert len(sampler.walks) >= 2
    assert 0 < sampler.spent < elapsed
    assert run.signal.getsignal(run.signal.SIGALRM) is run.signal.SIG_DFL


def test_slowdown_averages_the_walks_around_and_during_the_sample():
    ref = run.CALIBRATION_REF_S
    assert run.slowdown(2 * ref, 2 * ref) == pytest.approx(2.0)
    assert run.slowdown(ref, ref, [4 * ref, 4 * ref]) == pytest.approx(2.5)
