"""The batch workloads: ``sim_dense`` and ``paper_quick``, run in this process.

A job is the unit a user waits for: one ``dense_hotspot`` scenario built
and run for :data:`DENSE_SIM_S` simulated seconds, or the five quick-mode
experiments a reader runs to reproduce the paper's figures.  (Timing each
experiment alone would put five different durations in one median, which
then jumps between them from run to run.)  :class:`SimProbe` replaces ``Simulator.run`` for the whole run:
it advances the clock in fixed slices of simulated time and times each
slice, which is the batch form of a progress poll, and it adds up the
simulated time every call advanced.  Slicing runs the same events in the
same ``(time, seq)`` order, which the reference check confirms.
"""

from __future__ import annotations

import itertools
import json
import random
from array import array
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from measure import MIN_BEYOND, Outcomes, SimClock, median, samples_needed, self_time, sim_speed, tail

#: Inputs are drawn from these pools so every input has a recorded reference.
DENSE_SEEDS = tuple(range(1, 17))
SEED_PAIRS = tuple((2 * k + 1, 2 * k + 2) for k in range(8))
DENSE_SIM_S = 0.2
PAPER_EXPERIMENTS = ("fig1", "fig8", "fig11", "fig23", "fig24")
#: Simulated time per progress step.  dense_hotspot runs ~10x slower than
#: real time and the 4-node paper topologies ~10x faster, so these give
#: steps of roughly 10 ms and 1 ms of host time.  Each slice of 1 ms holds
#: about the same work; 2 ms slices of dense_hotspot split into two modes
#: and made the median step jump between them from run to run.
SLICE_US = {"sim_dense": 1_000.0, "paper_quick": 10_000.0}
STEPS_NEEDED = samples_needed(99.0, MIN_BEYOND)


def draw_inputs(workload: str, seed: int, count: int | None = None) -> Any:
    """The inputs the benchmark seed generates: the first ``count`` as a
    list, or all of them as an endless iterator."""
    rng = random.Random(f"{workload}:{seed}")
    pool = DENSE_SEEDS if workload == "sim_dense" else SEED_PAIRS
    stream = (rng.choice(pool) for _ in itertools.count())
    return stream if count is None else list(itertools.islice(stream, count))


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


class SimProbe:
    """``Simulator.run`` in fixed slices, with simulated-time accounting."""

    def __init__(self, slice_us: float, tracer: Any = None) -> None:
        self.slice_us = slice_us
        self.tracer = tracer
        self.clock = SimClock()
        # A compact array, so the benchmark's own memory barely grows with
        # run length and stays out of peak_rss_mb.
        self.steps_s = array("d")
        self.events = 0
        self.cancels = 0
        self.compactions = 0
        self._original: Callable | None = None

    def install(self) -> None:
        from repro.sim.engine import Simulator

        original = self._original = Simulator.run
        probe = self

        def run(sim: Any, until: float | None = None) -> None:
            span = probe.tracer.begin("sim.run") if probe.tracer is not None else None
            before = (sim.now, sim.events_processed, sim.events_cancelled, sim.compactions)
            try:
                if until is None:
                    original(sim, None)
                else:
                    step_at = sim.now
                    steps = probe.steps_s
                    perf = time.perf_counter
                    while True:
                        step_at = min(step_at + probe.slice_us, until)
                        t0 = perf()
                        original(sim, step_at)
                        steps.append(perf() - t0)
                        if step_at >= until:
                            break
            finally:
                if span is not None:
                    probe.tracer.end(span)
            probe.clock.advance(before[0], sim.now)
            probe.events += sim.events_processed - before[1]
            probe.cancels += sim.events_cancelled - before[2]
            probe.compactions += sim.compactions - before[3]

        Simulator.run = run

    def restore(self) -> None:
        from repro.sim.engine import Simulator

        if self._original is not None:
            Simulator.run = self._original
            self._original = None


# ------------------------------------------------------------------ jobs ---


def dense_job(build_seed: int, tracer: Any = None) -> dict[str, Any]:
    """Build, warm and run one dense_hotspot; its goodputs and event count."""
    from repro.perf.scenarios import get_scenario

    span = tracer.begin("net.build") if tracer is not None else None
    built = get_scenario("dense_hotspot").build(build_seed)
    built.scenario.warm_caches()
    if span is not None:
        tracer.end(span)
    built.scenario.run(DENSE_SIM_S)
    return {
        "goodputs": built.metrics(DENSE_SIM_S * 1e6),
        "events": built.scenario.sim.events_processed,
    }


def paper_job(experiment: str, seeds: tuple[int, int]) -> list[dict[str, Any]]:
    """One quick-mode experiment, serial and uncached; its result rows."""
    import repro.experiments as experiments
    from repro.experiments.common import RunSettings
    from repro.runtime.pool import execution

    settings = RunSettings.quick().replace(seeds=tuple(seeds))
    with execution(jobs=1, cache=None):
        result = experiments.get(experiment)(settings)
    return json.loads(canonical(result.rows))


def job_list(
    workload: str, inputs: list[Any], tracer: Any = None
) -> list[tuple[str, Callable[[], Any]]]:
    """``(reference key, job)`` pairs for a list of drawn inputs."""
    if workload == "sim_dense":
        return [(str(seed), lambda seed=seed: dense_job(seed, tracer)) for seed in inputs]
    return [
        (f"{pair[0]},{pair[1]}/{eid}", lambda eid=eid, pair=pair: paper_job(eid, pair))
        for pair in inputs
        for eid in PAPER_EXPERIMENTS
    ]


def set_up(workload: str, seed: int) -> None:
    """What a workload does before its first timed work: the imports and,
    on sim_dense, the build and ``warm_caches()`` of its first input.

    ``setup_s`` times this in fresh processes; a run does it untimed first,
    so its first timed input pays for no imports or lazy set-up.
    """
    if workload == "sim_dense":
        from repro.perf.scenarios import get_scenario

        built = get_scenario("dense_hotspot").build(draw_inputs(workload, seed, 1)[0])
        built.scenario.warm_caches()
    else:
        import repro.experiments as experiments
        import repro.runtime.pool  # noqa: F401  (execution context)

        for eid in PAPER_EXPERIMENTS:
            experiments.get(eid)


def reference_outputs(workload: str) -> dict[str, Any]:
    """Outputs of every input in the pool, keyed like :func:`job_list`."""
    inputs = list(DENSE_SEEDS) if workload == "sim_dense" else list(SEED_PAIRS)
    return {key: job() for key, job in job_list(workload, inputs)}


@dataclass
class BatchRun:
    outputs: list[tuple[str, Any]] = field(default_factory=list)
    #: Wall time of each input.
    job_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    inputs: int = 0


def run_jobs(
    workload: str,
    seed: int,
    *,
    seconds: float | None = None,
    inputs: int | None = None,
    min_steps: int = 0,
    probe: SimProbe,
    tracer: Any = None,
) -> BatchRun:
    """Run drawn inputs for about ``seconds`` once ``min_steps`` progress
    steps were timed, or for exactly ``inputs`` inputs.

    A paper_quick input is a seed pair and runs all five experiments, so a
    run always ends on a whole batch and every run has the same mix.  The
    run ends on the input boundary nearest to ``seconds``: it starts no
    input that would, at the mean input time so far, end more than half an
    input past it.  A 9 s batch would otherwise overshoot by up to 9 s.
    """
    run = BatchRun()
    drawn = draw_inputs(workload, seed)
    start = time.perf_counter()
    while True:
        if inputs is not None:
            if run.inputs >= inputs:
                break
        elif run.inputs and len(probe.steps_s) >= min_steps:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / run.inputs / 2 >= seconds:
                break
        input_start = time.perf_counter()
        for key, job in job_list(workload, [next(drawn)], tracer):
            if tracer is not None:
                span = tracer.begin("job", key)
                tracer.enter("experiments" if workload == "paper_quick" else "net")
                try:
                    output = job()
                finally:
                    tracer.leave()
                    tracer.end(span)
            else:
                output = job()
            run.outputs.append((key, output))
        run.job_s.append(time.perf_counter() - input_start)
        run.inputs += 1
    run.wall_s = time.perf_counter() - start
    return run


def check_outputs(run: BatchRun, reference: dict[str, Any], outcomes: Outcomes) -> None:
    """Each job against the recorded reference, so repeats of one input
    within a run must agree too."""
    for key, output in run.outputs:
        ref = reference.get(key)
        if ref is None:
            outcomes.fail(f"no reference output for input {key}")
            continue
        outcomes.check(
            canonical(output) == canonical(ref), f"input {key}: output differs from the reference"
        )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------- workloads ---


def run_untraced(workload: str, seed: int, seconds: float, reference: dict, setup_s: float) -> dict:
    set_up(workload, seed)
    probe = SimProbe(SLICE_US[workload])
    probe.install()
    try:
        run = run_jobs(workload, seed, seconds=seconds, min_steps=STEPS_NEEDED, probe=probe)
    finally:
        probe.restore()
    outcomes = Outcomes()
    check_outputs(run, reference, outcomes)
    steps_ms = [s * 1e3 for s in probe.steps_s]
    return {
        "outcomes": outcomes,
        "metrics": {
            "sim_speed": sim_speed(probe.clock.sim_us / 1e6, run.wall_s),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "job_p50_s": median(run.job_s),
            "poll_p50_ms": median(steps_ms),
        },
        "info": {
            "poll_p99_ms": tail(steps_ms, 99.0),
            "jobs": len(run.job_s),
            "polls": len(steps_ms),
            "poll_slice_sim_ms": SLICE_US[workload] / 1e3,
            "sim_s": probe.clock.sim_us / 1e6,
        },
    }


def run_traced(workload: str, seed: int, seconds: float, reference: dict, tracer: Any) -> dict:
    """An untraced pass, then the same inputs traced; outputs must match."""
    outcomes = Outcomes()
    set_up(workload, seed)
    plain_probe = SimProbe(SLICE_US[workload])
    plain_probe.install()
    try:
        plain = run_jobs(workload, seed, seconds=seconds / 3, probe=plain_probe)
    finally:
        plain_probe.restore()
    check_outputs(plain, reference, outcomes)

    tracer.install_layers()
    probe = SimProbe(SLICE_US[workload], tracer)
    probe.install()
    try:
        traced = run_jobs(workload, seed, inputs=plain.inputs, probe=probe, tracer=tracer)
    finally:
        probe.restore()
        tracer.restore()
    check_outputs(traced, reference, outcomes)
    for (key, a), (_, b) in zip(plain.outputs, traced.outputs):
        outcomes.check(canonical(a) == canonical(b), f"traced input {key} differs from untraced")

    metrics = sim_layers(workload, tracer, probe, len(traced.outputs))
    metrics["trace.overhead"] = traced.wall_s / plain.wall_s
    return {"outcomes": outcomes, "metrics": metrics, "info": {"jobs": len(traced.job_s)}}


def sim_layers(workload: str, tracer: Any, probe: SimProbe, jobs: int) -> dict[str, float]:
    """Per-layer counts and self times, each per simulated second.

    ``net.build_s`` is the median build plus ``warm_caches()`` time on
    sim_dense, and net-layer time per experiment on paper_quick, whose
    builds happen inside the experiment.  ``experiments.self_s`` is the
    median experiment wall time outside its ``Simulator.run`` spans.
    """
    sim_s = probe.clock.sim_us / 1e6
    counts, layer_s = tracer.counts, tracer.layer_s

    def per_s(value: float) -> float:
        return value / sim_s

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    runs = tracer.closed("sim.run")
    experiments = [0.0]
    for job in tracer.closed("job") if workload == "paper_quick" else ():
        inner = [(r["start"], r["end"]) for r in runs if job["start"] <= r["start"] <= job["end"]]
        experiments.append(self_time(job["start"], job["end"], inner))
    return {
        "sim.events": per_s(probe.events),
        "sim.pushes": per_s(counts["sim.pushes"]),
        "sim.cancels": per_s(probe.cancels),
        "sim.compactions": per_s(probe.compactions),
        "sim.self_s": per_s(layer_s["sim"]),
        "phy.transmissions": per_s(counts["phy.transmissions"]),
        "phy.deliveries": per_s(counts["phy.deliveries"]),
        "phy.hearers_per_tx": ratio(counts["phy.hearers"], counts["phy.transmissions"]),
        "phy.reach_per_tx": ratio(counts["phy.reach"], counts["phy.transmissions"]),
        "phy.self_s": per_s(layer_s["phy"]),
        "mac.calls": per_s(counts["mac.calls"]),
        "mac.timers_armed": per_s(counts["mac.timers_armed"]),
        "mac.timers_cancelled": per_s(counts["mac.timers_cancelled"]),
        "mac.timer_fire_ratio": ratio(counts["mac.timers_fired"], counts["mac.timers_armed"]),
        "mac.self_s": per_s(layer_s["mac"]),
        "transport.calls": per_s(counts["transport.calls"]),
        "transport.self_s": per_s(layer_s["transport"]),
        "core.detector_calls": per_s(counts["core.detector_calls"]),
        "core.self_s": per_s(layer_s["core"]),
        "net.build_s": (
            median(tracer.durations("net.build"))
            if workload == "sim_dense"
            else layer_s["net"] / jobs
        ),
        "experiments.self_s": median(experiments[1:] or experiments),
    }
