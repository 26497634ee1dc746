"""Run one benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sim_dense --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` (``failed / attempted`` is
the run's fail share) and ``metrics``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced pass, with
``trace.overhead`` against an untraced pass of the same inputs.  The line
before it records the run's context: ``nproc`` and the 1-minute load.

Other modes:

    python3 perfbench/run.py --record
        re-record ``perfbench/reference.json`` from the current code
    python3 perfbench/run.py --steady 10 --workload fleet_mix [--sets 2]
        run a workload N times on N seeds and report each metric's median,
        quartiles and spread against its bound in BENCHMARK.json

See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("sim_dense", "paper_quick", "fleet_mix")

END_TO_END = {
    "sim_speed": "sim_s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_p50_s": "s",
    "poll_p50_ms": "ms",
}

PER_LAYER = {
    "sim.events": "1/sim_s",
    "sim.pushes": "1/sim_s",
    "sim.cancels": "1/sim_s",
    "sim.compactions": "1/sim_s",
    "sim.self_s": "s/sim_s",
    "phy.transmissions": "1/sim_s",
    "phy.deliveries": "1/sim_s",
    "phy.hearers_per_tx": "count",
    "phy.reach_per_tx": "count",
    "phy.self_s": "s/sim_s",
    "mac.calls": "1/sim_s",
    "mac.timers_armed": "1/sim_s",
    "mac.timers_cancelled": "1/sim_s",
    "mac.timer_fire_ratio": "ratio",
    "mac.self_s": "s/sim_s",
    "transport.calls": "1/sim_s",
    "transport.self_s": "s/sim_s",
    "core.detector_calls": "1/sim_s",
    "core.self_s": "s/sim_s",
    "net.build_s": "s",
    "experiments.self_s": "s",
    "client.post_ms": "ms",
    "client.polls": "1/job",
    "service.submit_ms": "ms",
    "service.queue_wait_s": "s",
    "journal.appends": "1/job",
    "journal.append_ms": "ms",
    "executor.shards": "1/job",
    "executor.attempts": "1/shard",
    "executor.shard_s": "s",
    "merge.s": "s",
    "fleet.run_self_s": "s",
    "cache.stores": "1/job",
    "cache.hit_ratio": "ratio",
    "trace.overhead": "ratio",
}

#: Set-up is timed in this many fresh processes per run; the median counts.
SETUP_SAMPLES = 7


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def preflight() -> None:
    """Refuse to run without the program's sources or beside a stale service."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program sources at {SRC.relative_to(ROOT)}/repro; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from fleetmix import leftover_serve, scratch_dir

    pgid = leftover_serve(ROOT)
    if pgid is not None:
        fail(
            f"a repro fleet serve left by an earlier run is still alive "
            f"(process group {pgid}); stop it first, it would skew every timing",
            code=3,
        )
    # Nothing is running, so whatever a killed run left in scratch is junk.
    shutil.rmtree(scratch_dir(ROOT), ignore_errors=True)
    # The build: byte-compile the sources once, so no run pays for it.
    if not compileall.compile_dir(str(SRC), quiet=1):
        fail("byte-compiling the sources failed")


# ------------------------------------------------------------ set-up time ---


def setup_probe(workload: str, seed: int) -> None:
    """The set-up a workload does before its first timed work, then exit."""
    sys.path.insert(0, str(SRC))
    from batch import set_up

    set_up(workload, seed)
    print("ready", flush=True)


def batch_setup_s(workload: str, seed: int) -> float:
    """Median wall time from process start to the end of set-up."""
    samples = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--setup-probe", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        samples.append(elapsed)
    samples.sort()
    return samples[len(samples) // 2]


# -------------------------------------------------------------------- run ---


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        fail(f"missing {REFERENCE.relative_to(ROOT)}; record it with --record")
        raise


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = load_reference()
    if workload == "fleet_mix":
        import fleetmix
        from batch import draw_inputs

        pair = draw_inputs("paper_quick", seed, 1)[0]  # the same pool of seed pairs
        expected = reference["fleet_mix"][f"{pair[0]},{pair[1]}"]
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            result = fleetmix.run_traced(ROOT, pair, seconds, expected, tracer)
        else:
            result = fleetmix.run_untraced(ROOT, pair, seconds, expected)
    else:
        import batch

        if trace:
            from tracing import Tracer

            tracer = Tracer()
            result = batch.run_traced(workload, seed, seconds, reference[workload], tracer)
        else:
            setup_s = batch_setup_s(workload, seed)
            result = batch.run_untraced(workload, seed, seconds, reference[workload], setup_s)
    if trace:
        tracer.write(ROOT / ".perfbench" / "trace" / f"{workload}-seed{seed}.jsonl")
    return result


def report(workload: str, seed: int, result: dict, trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"].get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    outcomes = result["outcomes"]
    finite = all(v["value"] is not None and math.isfinite(v["value"]) for v in metrics.values())
    for reason in outcomes.reasons:
        print(f"FAILED: {reason}")
    context = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "fail_share": outcomes.fail_share,
        **result.get("info", {}),
    }
    print("context " + json.dumps(context, sort_keys=True))
    return {
        "correct": outcomes.failed == 0 and outcomes.attempted > 0 and finite,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------- record ---


def record() -> None:
    import batch
    import fleetmix

    reference = {
        "sim_dense": batch.reference_outputs("sim_dense"),
        "paper_quick": batch.reference_outputs("paper_quick"),
        "fleet_mix": {
            f"{a},{b}": fleetmix.reference_outputs(ROOT, (a, b)) for a, b in batch.SEED_PAIRS
        },
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


# ---------------------------------------------------------------- steady ---


def steady(workload: str, runs: int, sets: int, seconds: int, trace: int) -> int:
    """Run a workload ``runs`` times per set and report the spread per metric."""
    from measure import spread

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    medians: list[dict[str, float]] = []
    worst = 0.0
    for index in range(sets):
        values: dict[str, list[float]] = {}
        for k in range(runs):
            seed = index * runs + k + 1
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr)
                return 1
            result = json.loads(lines[-1])
            context = json.loads(lines[-2].split(" ", 1)[1])
            for line in lines:
                if line.startswith("FAILED"):
                    print(f"set {index + 1} seed {seed}: {line}")
            print(
                f"set {index + 1} seed {seed}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']} "
                f"load={context['loadavg_1m']:.2f} nproc={context['nproc']} "
                + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
            )
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\nset {index + 1}: {runs} runs of {workload}, {seconds}s each")
        print(f"{'metric':24} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
        set_medians = {}
        for name, vals in values.items():
            med, q1, q3, share = spread(vals)
            set_medians[name] = med
            bound = bounds.get(name, (None, None))[0]
            verdict = ""
            if bound is not None:
                verdict = f"{share / bound:6.2f} of bound"
                if name != "setup_s":
                    worst = max(worst, share / bound)
            print(f"{name:24} {med:10.4g} {q1:10.4g} {q3:10.4g} {share:8.3f} "
                  f"{bound if bound is not None else '-':>6} {verdict}")
        medians.append(set_medians)
    if sets > 1:
        print("\nmedian drift of each later set against set 1 (positive = worse)")
        for name, (bound, better) in bounds.items():
            if name not in medians[0]:
                continue
            base = medians[0][name]
            for later in medians[1:]:
                drift = (later[name] - base) / base
                worse = drift if better == "lower" else -drift
                flag = "OK" if worse <= bound else "WORSE THAN BOUND"
                print(f"{name:24} {worse:+8.3f} bound {bound}  {flag}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--setup-probe", choices=("sim_dense", "paper_quick"))
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed)
        return 0
    # A SIGTERM unwinds like an exception, so every cleanup block runs:
    # the fleet service is drained and its root deleted.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    preflight()
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.steady:
        return steady(args.workload, args.steady, args.sets, int(args.seconds), args.trace)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(args.workload, args.seed, result, bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
