"""Every job of one fleet service shares one result cache at ``<root>/cache``.

A repeated campaign point is read back, not re-simulated: the second
submission of a spec reports every seed as a cache hit (``GET /jobs/<id>``
and the merged manifest) and adds no entry, while its ``results.csv`` and
metrics fingerprint stay byte-identical to the first job's.  The remaining
tests pin that sharing across concurrent jobs, across a service restart and
across a corrupted entry never changes a result.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

pytest.importorskip("tomllib", reason="TOML campaign specs need Python 3.11+")

from repro.campaign import metrics_fingerprint
from repro.fleet import ServiceThread, fetch_results, submit_job, wait_for_job

SPEC_DOC = {
    "campaign": {
        "name": "shared_cache",
        "builder": "nav_pairs",
        "seeds": [1, 2],
        "duration_s": 0.15,
    },
    "params": {"transport": "udp"},
    "sweep": {"n_greedy": [0, 1]},
}
POINTS, SEEDS = 2, 2


def _entries(root: Path) -> list[Path]:
    """Cache entries proper (locks and quarantine live in subdirectories)."""
    return sorted((root / "cache").glob("*.json"))


def _run_job(url: str) -> tuple[str, dict]:
    job = submit_job(url, {"spec": SPEC_DOC, "n_shards": 2})
    status = wait_for_job(url, job, timeout_s=120)
    assert status["status"] == "done", status
    return job, status


def _point_hits(root: Path, job: str) -> list[int]:
    manifest = json.loads((root / "jobs" / job / "manifest.json").read_text())
    return [point["cache_hits"] for point in manifest["points"]]


def _outputs(root: Path, url: str, job: str) -> tuple[bytes, dict[str, str]]:
    csv_bytes = fetch_results(url, job).encode()
    assert csv_bytes == (root / "jobs" / job / "results.csv").read_bytes()
    return csv_bytes, metrics_fingerprint(root / "jobs" / job)


def test_repeated_spec_is_served_from_the_shared_cache(tmp_path):
    root = tmp_path / "root"
    with ServiceThread(root, executor="local") as svc:
        url = f"http://127.0.0.1:{svc.port}"
        first, status = _run_job(url)
        assert status["fleet"]["cache_hits"] == 0
        assert _point_hits(root, first) == [0] * POINTS
        entries = _entries(root)
        assert len(entries) == POINTS * SEEDS
        assert not (root / "jobs" / first / "cache").exists()

        second, status = _run_job(url)
        assert status["fleet"]["cache_hits"] == POINTS * SEEDS
        assert [shard["cache_hits"] for shard in status["fleet"]["shards"]] == [
            SEEDS,
            SEEDS,
        ]
        assert _point_hits(root, second) == [SEEDS] * POINTS
        assert _entries(root) == entries  # nothing new was stored
        assert _outputs(root, url, second) == _outputs(root, url, first)


def test_concurrent_identical_jobs_store_each_entry_once(tmp_path):
    root = tmp_path / "root"
    with ServiceThread(root, executor="local", max_running=2) as svc:
        url = f"http://127.0.0.1:{svc.port}"
        jobs = [submit_job(url, {"spec": SPEC_DOC, "n_shards": 2}) for _ in range(2)]
        for job in jobs:
            assert wait_for_job(url, job, timeout_s=120)["status"] == "done"
        assert len(_entries(root)) == POINTS * SEEDS
        assert _outputs(root, url, jobs[1]) == _outputs(root, url, jobs[0])


def test_job_after_a_restart_is_served_from_cache(tmp_path):
    root = tmp_path / "root"
    with ServiceThread(root, executor="local") as svc:
        url = f"http://127.0.0.1:{svc.port}"
        first, _status = _run_job(url)
        reference = _outputs(root, url, first)
    with ServiceThread(root, executor="local") as svc:
        url = f"http://127.0.0.1:{svc.port}"
        second, status = _run_job(url)
        assert status["fleet"]["cache_hits"] == POINTS * SEEDS
        assert _outputs(root, url, second) == reference


def test_truncated_shared_entry_is_quarantined_and_recomputed(tmp_path):
    root = tmp_path / "root"
    with ServiceThread(root, executor="local") as svc:
        url = f"http://127.0.0.1:{svc.port}"
        first, _status = _run_job(url)
        victim = _entries(root)[0]
        intact = victim.read_bytes()
        victim.write_bytes(intact[: len(intact) // 2])

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            second, status = _run_job(url)
        assert status["fleet"]["cache_hits"] == POINTS * SEEDS - 1
        assert (root / "cache" / "quarantine" / victim.name).exists()
        assert victim.read_bytes() == intact  # the recomputed entry is the same
        assert len(_entries(root)) == POINTS * SEEDS
        assert _outputs(root, url, second) == _outputs(root, url, first)
