"""Tests of the benchmark's own arithmetic, tracing and hygiene, plus smoke
runs of every workload at its shortest length.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

# ------------------------------------------------------------- percentiles --


def test_tail_needs_ten_samples_beyond_it():
    assert measure.samples_needed(99.0) == 1000
    assert measure.tail(list(range(999)), 99.0) is None
    samples = list(range(1, 1001))
    assert measure.samples_beyond(len(samples), 99.0) == 10
    assert measure.tail(samples, 99.0) == 990


def test_percentile_is_nearest_rank_and_order_free():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(samples, 50.0) == 3.0
    assert measure.percentile(samples, 100.0) == 5.0
    assert measure.percentile(samples, 1.0) == 1.0
    with pytest.raises(ValueError):
        measure.percentile([], 50.0)
    with pytest.raises(ValueError):
        measure.percentile(samples, 0.0)


def test_spread_uses_exclusive_quartiles():
    med, q1, q3, share = measure.spread([1.0, 2.0, 3.0, 4.0])
    assert (med, q1, q3) == (2.5, 1.25, 3.75)
    assert share == pytest.approx(1.0)


# ---------------------------------------------------------------- self time --


def test_self_time_counts_overlapping_children_once():
    # Two client threads' children overlap in [3, 4]; one outlives the parent.
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    assert measure.union_length([(1.0, 4.0), (3.0, 6.0)]) == 5.0
    assert measure.self_time(0.0, 10.0, children) == pytest.approx(10.0 - 5.0 - 2.0)


def test_self_time_ignores_children_outside_the_span():
    assert measure.self_time(5.0, 6.0, [(0.0, 1.0), (7.0, 9.0)]) == 1.0
    assert measure.self_time(0.0, 2.0, [(0.0, 2.0), (0.5, 1.5)]) == 0.0


def test_layer_clock_charges_exclusive_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))  # t=0 at construction

    def leaf() -> None:
        return None

    phy = tracer.layer_wrapper(leaf, "phy")

    def mac_body() -> None:
        phy()  # enter phy at t=2, leave at t=3

    mac = tracer.layer_wrapper(mac_body, "mac")
    mac()  # enter mac at t=1, leave at t=4
    mac_again = tracer.layer_wrapper(lambda: mac(), "mac")
    assert tracer.counts["mac.calls"] == 1
    assert tracer.layer_s["host"] == 1.0
    assert tracer.layer_s["mac"] == 2.0
    assert tracer.layer_s["phy"] == 1.0
    mac_again()  # the inner mac call is a same-layer call: no clock read
    assert tracer.counts["mac.calls"] == 2


def test_spans_keep_per_thread_parents_and_ids():
    tracer = Tracer()
    with tracer.span("job", "j1") as outer:
        with tracer.span("poll", "j1") as inner:
            pass
    assert tracer.spans[inner]["parent"] == outer
    assert tracer.spans[outer]["parent"] is None
    assert [s["id"] for s in tracer.closed("poll")] == ["j1"]


def test_restore_puts_originals_back():
    from repro.sim.engine import Event, Simulator

    before = (Simulator.run, Simulator.schedule, Event.cancel)
    tracer = Tracer()
    tracer.install_layers()
    assert Simulator.schedule is not before[1]
    tracer.restore()
    assert (Simulator.run, Simulator.schedule, Event.cancel) == before


# ------------------------------------------------------ fail share, sim speed --


def test_fail_share_counts_every_operation():
    outcomes = measure.Outcomes()
    outcomes.ok(3)
    outcomes.check(True, "fine")
    outcomes.fail("HTTP 429")
    outcomes.check(False, "differs from the reference")
    assert (outcomes.attempted, outcomes.failed) == (6, 2)
    assert outcomes.fail_share == pytest.approx(2 / 6)
    assert outcomes.reasons == ["HTTP 429", "differs from the reference"]
    assert measure.Outcomes().fail_share == 1.0  # nothing attempted is no success


def test_sim_speed_accounting():
    clock = measure.SimClock()
    clock.advance(0.0, 1.5e6)
    clock.advance(1.5e6, 2.0e6)
    assert (clock.sim_us, clock.runs) == (2.0e6, 2)
    assert measure.sim_speed(clock.sim_us / 1e6, 4.0) == 0.5
    with pytest.raises(ValueError):
        clock.advance(2.0, 1.0)
    with pytest.raises(ValueError):
        measure.sim_speed(1.0, 0.0)


def test_batch_run_ends_on_the_nearest_input_boundary(monkeypatch):
    import batch

    def job_list(workload, inputs, tracer=None):
        return [("key", lambda: time.sleep(0.1))]

    monkeypatch.setattr(batch, "job_list", job_list)
    probe = batch.SimProbe(slice_us=1_000.0)
    # After 2 inputs a third ends at 0.30 s, before 0.33 s; after 3 a fourth
    # would end 0.07 s past it, more than half an input.
    assert batch.run_jobs("sim_dense", 1, seconds=0.33, probe=probe).inputs == 3
    assert batch.run_jobs("sim_dense", 1, inputs=2, probe=probe).inputs == 2


def test_sliced_runs_match_one_run_and_count_simulated_time():
    import batch
    from repro.perf.scenarios import get_scenario

    def outputs() -> tuple:
        built = get_scenario("fig1_nav_udp").build(3)
        built.scenario.run(0.05)
        built.scenario.run(0.03)
        return built.metrics(0.08e6), built.scenario.sim.events_processed

    plain = outputs()
    probe = batch.SimProbe(slice_us=7_000.0)
    probe.install()
    try:
        sliced = outputs()
    finally:
        probe.restore()
    assert sliced == plain
    assert probe.clock.sim_us == pytest.approx(0.08e6)
    assert probe.clock.runs == 2
    assert probe.events == plain[1]
    assert len(probe.steps_s) == 8 + 5  # ceil(50/7) + ceil(30/7)


def test_inputs_come_from_the_seed_and_have_references():
    import batch

    reference = json.loads(run.REFERENCE.read_text())
    assert batch.draw_inputs("sim_dense", 4, 5) == batch.draw_inputs("sim_dense", 4, 5)
    for seed in range(1, 30):
        for build_seed in batch.draw_inputs("sim_dense", seed, 20):
            assert str(build_seed) in reference["sim_dense"]
        for a, b in batch.draw_inputs("paper_quick", seed, 20):
            assert f"{a},{b}" in reference["fleet_mix"]
            for eid in batch.PAPER_EXPERIMENTS:
                assert f"{a},{b}/{eid}" in reference["paper_quick"]


def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# ------------------------------------------------------------------ hygiene --


def test_leftover_serve_is_detected(tmp_path):
    from fleetmix import leftover_serve

    (tmp_path / ".perfbench").mkdir()
    pidfile = tmp_path / ".perfbench" / "serve.pid"
    proc = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)", "fleet", "serve"],
        start_new_session=True,
    )
    try:
        # Until the child has exec'd, its cmdline is still the parent's.
        cmdline = Path(f"/proc/{proc.pid}/cmdline")
        deadline = time.monotonic() + 10
        while b"serve" not in cmdline.read_bytes() and time.monotonic() < deadline:
            time.sleep(0.01)
        pidfile.write_text(f"{proc.pid}\n")
        assert leftover_serve(tmp_path) == proc.pid
    finally:
        proc.kill()
        proc.wait(timeout=10)
    assert leftover_serve(tmp_path) is None
    assert not pidfile.exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -------------------------------------------------------------- smoke runs --


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sim_dense", "paper_quick", "fleet_mix"])
def test_smoke_run(workload, trace):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    context = json.loads(lines[-2].split(" ", 1)[1])
    assert context["nproc"] >= 1 and "loadavg_1m" in context
    assert time.monotonic() - started < 180
