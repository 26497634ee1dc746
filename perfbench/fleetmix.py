"""The ``fleet_mix`` workload: a closed loop of campaign jobs over loopback HTTP.

Two client threads each submit a job, poll ``GET /jobs/<id>`` every
:data:`POLL_S` until it ends, fetch its ``results.csv`` and submit the next.
Jobs alternate between the quick Figure 1 and Figure 8 campaign specs with
``n_shards=2``; the spec seeds are drawn from the benchmark seed.  The
service runs with ``--executor subprocess --max-running 1
--max-parallel-shards 1``, so jobs queue and every shard is a spawned
``repro fleet worker``, one at a time.  With both shards of a job running
at once, the workers kept both of the machine's two cores busy, and the
run slowed by up to half whenever the shared host was busy (sim_speed
4.99-7.58 over ten runs, a quartile spread of 0.28).  One worker leaves a
core to the service and the clients.

The untraced run drives a real ``repro fleet serve`` process.  The traced
run hosts the same service in this process through ``ServiceThread`` so the
service, journal, orchestrator, executor and merge calls can be wrapped.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from measure import MIN_BEYOND, Outcomes, median, samples_needed, self_time, sim_speed, tail

SPEC_FILES = ("examples/campaigns/fig1_nav_udp.toml", "examples/campaigns/fig8_nav_ngr.toml")
N_SHARDS = 2
CLIENTS = 2
#: Fixed poll interval.  The client library's default 0.2 s would quantize
#: job times to 200 ms steps.
POLL_S = 0.025
#: Serve processes spawned per run to time set-up; the last one serves.
SETUP_SAMPLES = 5
DRAIN_S = 30.0
_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>
POLLS_NEEDED = samples_needed(99.0, MIN_BEYOND)


def spec_documents(root: Path, seeds: tuple[int, int]) -> list[dict[str, Any]]:
    """The quick-resolved fig1 and fig8 spec documents with ``seeds`` swapped in."""
    from repro.campaign.spec import load_spec, spec_to_dict

    docs = []
    for rel in SPEC_FILES:
        doc = spec_to_dict(load_spec(root / rel, quick=True))
        doc["campaign"]["seeds"] = list(seeds)
        docs.append(doc)
    return docs


def sim_seconds(doc: dict[str, Any]) -> float:
    """Simulated seconds one job of this spec runs: points x seeds x duration."""
    from repro.campaign.spec import expand_grid, spec_from_dict

    spec = spec_from_dict(doc, source="<bench>")
    return len(expand_grid(spec)) * len(spec.seeds) * spec.duration_s


def digest(data: str | bytes) -> str:
    raw = data.encode() if isinstance(data, str) else data
    return hashlib.sha256(raw).hexdigest()


def fingerprint_digest(job_dir: Path) -> str:
    from repro.campaign.runner import metrics_fingerprint

    return digest(json.dumps(metrics_fingerprint(job_dir), sort_keys=True))


def reference_outputs(root: Path, seeds: tuple[int, int]) -> dict[str, dict[str, str]]:
    """Single-host campaign runs of both specs: csv and fingerprint digests."""
    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import spec_from_dict

    out: dict[str, dict[str, str]] = {}
    for doc in spec_documents(root, seeds):
        with tempfile.TemporaryDirectory(dir=scratch_dir(root)) as tmp:
            run_campaign(spec_from_dict(doc, source="<bench>"), out_dir=tmp)
            out[doc["campaign"]["name"]] = {
                "csv": digest((Path(tmp) / "results.csv").read_bytes()),
                "fingerprint": fingerprint_digest(Path(tmp)),
            }
    return out


def scratch_dir(root: Path) -> Path:
    path = root / ".perfbench" / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return path


# ------------------------------------------------------------- the loop ---


@dataclass
class JobRecord:
    spec: str
    job_id: str | None = None
    status: str | None = None
    csv: bytes = b""
    seconds: float = 0.0


@dataclass
class LoopResult:
    jobs: list[JobRecord] = field(default_factory=list)
    polls_ms: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    outcomes: Outcomes = field(default_factory=Outcomes)


def client_loop(
    url: str,
    docs: list[dict[str, Any]],
    *,
    seconds: float | None = None,
    max_jobs: int | None = None,
    min_polls: int = 0,
    tracer: Any = None,
) -> LoopResult:
    """Run the closed loop until ``seconds`` pass (and ``min_polls`` polls
    were made), or until ``max_jobs`` jobs were handed out."""
    from repro.fleet.client import TERMINAL_STATES, FleetClientError, fetch_results, get_json, submit_job

    result = LoopResult()
    lock = threading.Lock()
    issued = [0]
    start = time.perf_counter()

    def next_index() -> int | None:
        with lock:
            k = issued[0]
            if max_jobs is not None:
                if k >= max_jobs:
                    return None
            elif time.perf_counter() - start >= seconds and len(result.polls_ms) >= min_polls:
                return None
            issued[0] = k + 1
            return k

    def span(name: str, ident: str | None = None):
        return tracer.span(name, ident) if tracer is not None else nullcontext(-1)

    def client() -> None:
        while (k := next_index()) is not None:
            doc = docs[k % len(docs)]
            record = JobRecord(doc["campaign"]["name"])
            body = {"spec": doc, "n_shards": N_SHARDS}
            t0 = time.perf_counter()
            try:
                with span("client.job") as job_span:
                    with span("client.post"):
                        record.job_id = submit_job(url, body, retry=None)
                    if tracer is not None:
                        tracer.spans[job_span]["id"] = record.job_id
                    while True:
                        time.sleep(POLL_S)
                        p0 = time.perf_counter()
                        with span("client.poll", record.job_id):
                            status = get_json(url, f"/jobs/{record.job_id}", retry=None)
                        with lock:
                            result.polls_ms.append((time.perf_counter() - p0) * 1e3)
                        if status["status"] in TERMINAL_STATES:
                            break
                record.seconds = time.perf_counter() - t0
                record.status = status["status"]
                if record.status == "done":
                    record.csv = fetch_results(url, record.job_id).encode()
            except FleetClientError as exc:  # an HTTP error or a 429 refusal
                record.status = f"error: {exc}"
            except Exception as exc:  # noqa: BLE001 - a client must report, not vanish
                record.status = f"error: {type(exc).__name__}: {exc}"
            with lock:
                result.jobs.append(record)

    threads = [threading.Thread(target=client, daemon=True) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_s = time.perf_counter() - start
    return result


def check_jobs(
    loop: LoopResult,
    expected: dict[str, dict[str, str]],
    job_dir: Callable[[str], Path],
) -> None:
    """Count each job against the single-host reference, so repeats of one
    spec within a run must merge to identical bytes too."""
    for job in loop.jobs:
        if job.status != "done":
            loop.outcomes.fail(f"job {job.job_id} ({job.spec}) ended {job.status}")
            continue
        ref = expected.get(job.spec)
        if ref is None:
            loop.outcomes.fail(f"no reference for spec {job.spec}")
            continue
        ok = digest(job.csv) == ref["csv"]
        ok = ok and fingerprint_digest(job_dir(job.job_id)) == ref["fingerprint"]
        loop.outcomes.check(ok, f"job {job.job_id} ({job.spec}) differs from the reference")


def done_sim_seconds(loop: LoopResult, docs: list[dict[str, Any]]) -> float:
    per_spec = {doc["campaign"]["name"]: sim_seconds(doc) for doc in docs}
    return sum(per_spec[job.spec] for job in loop.jobs if job.status == "done")


# ------------------------------------------------------ the serve process ---


def _pidfile(root: Path) -> Path:
    return root / ".perfbench" / "serve.pid"


def leftover_serve(root: Path) -> int | None:
    """The process group of a ``repro fleet serve`` an earlier run left alive."""
    pidfile = _pidfile(root)
    try:
        pgid = int(pidfile.read_text().strip())
    except (FileNotFoundError, ValueError):
        return None
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        pidfile.unlink(missing_ok=True)
        return None
    except PermissionError:
        return pgid
    try:
        cmdline = Path(f"/proc/{pgid}/cmdline").read_bytes().split(b"\0")
    except OSError:
        return pgid
    if b"serve" in cmdline and b"fleet" in cmdline:
        return pgid
    pidfile.unlink(missing_ok=True)  # the id was recycled by another process
    return None


class ServeProcess:
    """``repro fleet serve`` in its own process group, with a fresh root."""

    def __init__(self, root: Path) -> None:
        self.repo = root
        self.jobs_root = Path(tempfile.mkdtemp(prefix="fleet-", dir=scratch_dir(root)))
        self.proc: subprocess.Popen | None = None
        self.url = ""
        self.setup_s = 0.0

    def start(self) -> "ServeProcess":
        from repro.fleet.client import get_json, FleetClientError

        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.repo / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        cmd = [
            sys.executable, "-m", "repro", "fleet", "serve",
            "--root", str(self.jobs_root), "--port", "0",
            "--executor", "subprocess", "--max-running", "1", "--max-parallel-shards", "1",
        ]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=self.repo, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True,
            preexec_fn=_term_with_parent,
        )
        _pidfile(self.repo).write_text(f"{self.proc.pid}\n")
        line = self.proc.stdout.readline()
        if "listening on " not in line:
            raise RuntimeError(f"fleet serve did not start: {line!r}")
        self.url = line.split("listening on ", 1)[1].strip()
        deadline = time.monotonic() + 60
        while True:
            try:
                get_json(self.url, "/status", retry=None, timeout_s=5)
                break
            except FleetClientError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0
        # Keep draining stdout so the service never blocks on a full pipe.
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()
        return self

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM drain, then SIGKILL the group; reap; delete the root."""
        proc = self.proc
        try:
            if proc is not None:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
                    try:
                        proc.wait(timeout=DRAIN_S)
                    except subprocess.TimeoutExpired:
                        pass
                _kill_group(proc.pid)
                proc.wait()
                if proc.stdout is not None:
                    proc.stdout.close()
                _pidfile(self.repo).unlink(missing_ok=True)
        finally:
            shutil.rmtree(self.jobs_root, ignore_errors=True)


def _term_with_parent() -> None:
    """In the forked child: ask the kernel to SIGTERM it if the benchmark
    dies.  ``serve`` runs in its own session so its shard workers can be
    reaped as a group, which also puts it out of reach of a signal sent to
    the benchmark's group; without this a killed benchmark would leave a
    service behind and every later run would refuse to start."""
    if _PRCTL is not None:
        _PRCTL(_PR_SET_PDEATHSIG, signal.SIGTERM)


def _load_prctl() -> Any:
    """``prctl(2)``, looked up before any fork (the child only calls it)."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return prctl


_PRCTL = _load_prctl()


def _kill_group(pgid: int) -> None:
    """SIGKILL whatever is left in the group (orphaned shard workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# ------------------------------------------------------------ workloads ---


def run_untraced(root: Path, seeds: tuple[int, int], seconds: float, reference: dict) -> dict:
    docs = spec_documents(root, seeds)
    setups: list[float] = []
    for _ in range(SETUP_SAMPLES - 1):
        serve = ServeProcess(root)
        try:
            setups.append(serve.start().setup_s)
        finally:
            serve.stop()
    serve = ServeProcess(root)
    try:
        setups.append(serve.start().setup_s)
        loop = client_loop(serve.url, docs, seconds=seconds, min_polls=POLLS_NEEDED)
        rss = serve.peak_rss_mb()
        check_jobs(loop, reference, lambda job: serve.jobs_root / "jobs" / job)
    finally:
        serve.stop()
    times = [job.seconds for job in loop.jobs if job.status == "done"]
    return {
        "outcomes": loop.outcomes,
        "metrics": {
            "sim_speed": sim_speed(done_sim_seconds(loop, docs), loop.wall_s),
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "job_p50_s": median(times) if times else float("nan"),
            "poll_p50_ms": median(loop.polls_ms),
        },
        "info": {
            "jobs": len(loop.jobs),
            "polls": len(loop.polls_ms),
            "poll_interval_s": POLL_S,
            "poll_p99_ms": tail(loop.polls_ms, 99.0),
        },
    }


def _shard_of_task(_executor: Any, task: Any) -> str:
    return f"{task.out_dir.parent.parent.name}/{task.shard}"


def install_fleet_spans(tracer: Any) -> None:
    import repro.fleet.run as fleet_run
    import repro.fleet.service as fleet_service
    from repro.fleet.executor import SubprocessExecutor
    from repro.fleet.journal import JobJournal

    tracer.install_spans(fleet_service.FleetService, "submit", "service.submit", lambda *a, **k: None)
    tracer.install_spans(fleet_service.FleetService, "_start", "service.start", lambda _s, job: job.id)
    tracer.install_spans(JobJournal, "append", "journal.append", lambda _j, job_id, *a, **k: job_id)
    tracer.install_spans(
        fleet_service, "run_fleet_async", "fleet.run", lambda _spec, out, **k: Path(out).name
    )
    tracer.install_spans(SubprocessExecutor, "run_shard", "executor.run_shard", _shard_of_task)
    tracer.install_spans(fleet_run, "merge_fleet", "merge", lambda _spec, out, *a: Path(out).name)


def _hosted_loop(
    root: Path,
    docs: list,
    reference: dict,
    inspect: Callable[[LoopResult, Path], Any] = lambda loop, jobs_root: None,
    **loop_args: Any,
) -> tuple[LoopResult, Any]:
    """The client loop against a ``ServiceThread``; ``inspect(loop, jobs_root)``
    reads the job directories before they are deleted."""
    from repro.fleet.service import ServiceThread

    jobs_root = Path(tempfile.mkdtemp(prefix="fleet-", dir=scratch_dir(root)))
    try:
        service = ServiceThread(
            jobs_root, executor="subprocess", max_running=1, max_parallel_shards=1
        ).start()
        try:
            loop = client_loop(f"http://127.0.0.1:{service.port}", docs, **loop_args)
            check_jobs(loop, reference, lambda job: jobs_root / "jobs" / job)
        finally:
            service.shutdown(timeout_s=DRAIN_S)
        return loop, inspect(loop, jobs_root)
    finally:
        shutil.rmtree(jobs_root, ignore_errors=True)


def run_traced(root: Path, seeds: tuple[int, int], seconds: float, reference: dict, tracer: Any) -> dict:
    """An untraced and a traced pass of the same jobs, both hosted in-process."""
    docs = spec_documents(root, seeds)
    plain, _ = _hosted_loop(root, docs, reference, seconds=seconds / 3)
    install_fleet_spans(tracer)
    try:
        traced, metrics = _hosted_loop(
            root,
            docs,
            reference,
            inspect=lambda loop, jobs_root: fleet_layers(tracer, loop, jobs_root, docs),
            max_jobs=len(plain.jobs),
            tracer=tracer,
        )
    finally:
        tracer.restore()
    outcomes = Outcomes()
    for loop in (plain, traced):
        outcomes.attempted += loop.outcomes.attempted
        outcomes.failed += loop.outcomes.failed
        outcomes.reasons += loop.outcomes.reasons
    # Wrappers must not perturb results: the same specs give the same bytes.
    plain_csv = {job.spec: job.csv for job in plain.jobs}
    for job in traced.jobs:
        outcomes.check(
            plain_csv.get(job.spec, job.csv) == job.csv,
            f"traced job {job.job_id} differs from the untraced run",
        )
    metrics["trace.overhead"] = traced.wall_s / plain.wall_s
    return {"outcomes": outcomes, "metrics": metrics, "info": {"jobs": len(traced.jobs)}}


def fleet_layers(tracer: Any, loop: LoopResult, jobs_root: Path, docs: list) -> dict[str, float]:
    from repro.campaign.spec import expand_grid, spec_from_dict

    n_jobs = max(1, len(loop.jobs))
    # Queue wait: from the client's submit to the service starting the job.
    started = {s["id"]: s["start"] for s in tracer.closed("service.start")}
    queue_wait = [started[s["id"]] - s["start"] for s in tracer.closed("client.job") if s["id"] in started]
    shards = tracer.closed("executor.run_shard")  # one span per attempt
    distinct_shards = len({s["id"] for s in shards})
    # Shard spans run on executor threads, so they are tied to their job's
    # orchestrator span by job id; a job's two shards overlap in time.
    by_job: dict[str, list[tuple[float, float]]] = {}
    for s in shards + tracer.closed("merge"):
        by_job.setdefault(s["id"].split("/")[0], []).append((s["start"], s["end"]))
    run_self = [
        self_time(s["start"], s["end"], by_job.get(s["id"], ()))
        for s in tracer.closed("fleet.run")
    ]
    requested = {
        doc["campaign"]["name"]: len(expand_grid(spec_from_dict(doc, source="<bench>")))
        * len(doc["campaign"]["seeds"])
        for doc in docs
    }
    stores = 0
    asked = 0
    for job in loop.jobs:
        if job.job_id is None:
            continue
        cache = jobs_root / "jobs" / job.job_id / "cache"
        stores += sum(1 for p in cache.rglob("*.json")) if cache.exists() else 0
        asked += requested.get(job.spec, 0)
    ms = 1e3
    return {
        "client.post_ms": median(tracer.durations("client.post")) * ms,
        "client.polls": len(tracer.closed("client.poll")) / n_jobs,
        "service.submit_ms": median(tracer.durations("service.submit")) * ms,
        "service.queue_wait_s": median(queue_wait),
        "journal.appends": len(tracer.closed("journal.append")) / n_jobs,
        "journal.append_ms": median(tracer.durations("journal.append")) * ms,
        "executor.shards": distinct_shards / n_jobs,
        "executor.attempts": len(shards) / max(1, distinct_shards),
        "executor.shard_s": median(tracer.durations("executor.run_shard")),
        "merge.s": median(tracer.durations("merge")),
        "fleet.run_self_s": median(run_self),
        "cache.stores": stores / n_jobs,
        "cache.hit_ratio": 1.0 - stores / asked if asked else 0.0,
    }
