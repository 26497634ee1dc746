"""HTTP round trip against a live fleet service: submit -> poll -> fetch.

The service runs on its own event loop in a daemon thread
(:class:`repro.fleet.ServiceThread`) and the tests talk to it over real
sockets with the urllib client — the same path CI's fleet-smoke job and
``repro fleet submit`` use.  The second half exercises the robustness
surface: queue admission (429 + Retry-After), cancellation, pagination,
oversized bodies, and the /queue and /status operator endpoints.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

pytest.importorskip("tomllib", reason="TOML campaign specs need Python 3.11+")

from repro.campaign import run_campaign
from repro.campaign.spec import spec_from_dict
from repro.cli import main
from repro.fleet import (
    FleetClientError,
    ServiceThread,
    cancel_job,
    fetch_results,
    get_json,
    submit_job,
    wait_for_job,
)

SPEC_DOC = {
    "campaign": {
        "name": "svc_small",
        "builder": "nav_pairs",
        "seeds": [1, 2],
        "duration_s": 0.15,
    },
    "params": {"transport": "udp"},
    "sweep": {"n_greedy": [0, 1]},
}

#: A spec that holds a concurrency slot long enough for queue tests to
#: observe "running" deterministically.
SLOW_SPEC_DOC = {
    "campaign": {
        "name": "svc_slow",
        "builder": "nav_pairs",
        "seeds": [1, 2, 3],
        "duration_s": 1.0,
    },
    "params": {"transport": "udp"},
    "sweep": {"n_greedy": [0, 1]},
}


@pytest.fixture()
def service(tmp_path):
    with ServiceThread(tmp_path / "fleet-root", executor="local") as thread:
        yield f"http://127.0.0.1:{thread.port}"


def test_submit_poll_fetch_round_trip(tmp_path, service):
    single = tmp_path / "single"
    run_campaign(spec_from_dict(SPEC_DOC), out_dir=single)

    job = submit_job(service, {"spec": SPEC_DOC, "n_shards": 2})
    assert job.endswith("-svc_small")
    status = wait_for_job(service, job, timeout_s=120)
    assert status["status"] == "done"
    fleet = status["fleet"]
    assert fleet["complete"] and fleet["merged"]
    assert fleet["n_shards"] == 2
    assert {shard["status"] for shard in fleet["shards"]} == {"done"}
    assert status["shard_attempts"] == {"0": 1, "1": 1}

    csv_text = fetch_results(service, job)
    assert csv_text.encode() == (single / "results.csv").read_bytes()

    index = get_json(service, "/jobs")
    assert [entry["job"] for entry in index["jobs"]] == [job]
    assert index["total"] == 1


def test_status_includes_per_shard_progress_fields(service):
    job = submit_job(service, {"spec": SPEC_DOC, "n_shards": 2})
    status = wait_for_job(service, job, timeout_s=120)
    for shard in status["fleet"]["shards"]:
        assert set(shard) >= {"shard", "status", "attempts", "done", "retries"}


def test_telemetry_endpoint_merges_point_snapshots(service):
    doc = dict(SPEC_DOC)
    job = submit_job(service, {"spec": doc, "n_shards": 2})
    wait_for_job(service, job, timeout_s=120)
    # This spec captured no telemetry -> 404 with a readable message.
    with pytest.raises(FleetClientError, match="404"):
        get_json(service, f"/jobs/{job}/telemetry")


def test_results_before_merge_is_409(service):
    job = submit_job(service, {"spec": SPEC_DOC, "n_shards": 2})
    # Immediately after submit the merge cannot have happened yet (and if the
    # race is ever lost, the fetch simply succeeds and the test still holds).
    try:
        fetch_results(service, job)
    except FleetClientError as exc:
        assert "409" in str(exc)
    wait_for_job(service, job, timeout_s=120)


def test_healthz_and_unknown_routes(service):
    assert get_json(service, "/healthz") == {"ok": True}
    with pytest.raises(FleetClientError, match="404"):
        get_json(service, "/jobs/no-such-job")
    with pytest.raises(FleetClientError, match="404"):
        get_json(service, "/definitely-not-a-route")


def test_bad_submissions_are_400(service):
    with pytest.raises(FleetClientError, match="400"):
        submit_job(service, {"n_shards": 2})  # no spec
    with pytest.raises(FleetClientError, match="400"):
        submit_job(service, {"spec": {"bogus": 1}})  # invalid spec document
    with pytest.raises(FleetClientError, match="400"):
        submit_job(service, {"spec": SPEC_DOC, "n_shards": 0})
    with pytest.raises(FleetClientError, match="400"):
        submit_job(service, {"spec": SPEC_DOC, "priority": "high"})
    # Raw invalid JSON body.
    request = urllib.request.Request(
        service + "/jobs", data=b"{not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400


def test_oversized_body_is_413(tmp_path):
    with ServiceThread(
        tmp_path / "root", executor="local", max_body=1024
    ) as thread:
        url = f"http://127.0.0.1:{thread.port}"
        request = urllib.request.Request(
            url + "/jobs", data=b"x" * 2048, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 413


def test_jobs_index_is_paginated(service):
    jobs = [submit_job(service, {"spec": SPEC_DOC, "n_shards": 2}) for _ in range(3)]
    for job in jobs:
        wait_for_job(service, job, timeout_s=120)
    page = get_json(service, "/jobs?limit=2")
    assert page["total"] == 3 and len(page["jobs"]) == 2
    # Newest first; offset walks backwards through history.
    assert page["jobs"][0]["job"] == jobs[-1]
    rest = get_json(service, "/jobs?limit=2&offset=2")
    assert [entry["job"] for entry in rest["jobs"]] == [jobs[0]]
    with pytest.raises(FleetClientError, match="400"):
        get_json(service, "/jobs?limit=0")


def test_queue_full_429_cancel_and_queue_endpoint(tmp_path):
    with ServiceThread(
        tmp_path / "root", executor="local", max_running=1, max_queue=1
    ) as thread:
        url = f"http://127.0.0.1:{thread.port}"
        first = submit_job(url, {"spec": SLOW_SPEC_DOC, "n_shards": 1}, retry=None)
        queued = submit_job(
            url, {"spec": SLOW_SPEC_DOC, "n_shards": 1, "priority": 5}, retry=None
        )
        # Slot busy + queue full -> 429 with Retry-After, observed raw.
        body = json.dumps({"spec": SPEC_DOC, "n_shards": 1}).encode()
        request = urllib.request.Request(url + "/jobs", data=body, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 429
        assert excinfo.value.headers.get("Retry-After") is not None

        queue = get_json(url, "/queue")
        assert queue["depth"] == 1 and queue["max_queue"] == 1
        assert queue["entries"][0] == {"job": queued, "priority": 5, "position": 0}
        assert queue["max_running"] == 1

        # Cancelling the queued job frees the admission slot immediately.
        assert cancel_job(url, queued) == {"job": queued, "status": "cancelled"}
        assert get_json(url, f"/jobs/{queued}")["status"] == "cancelled"
        third = submit_job(url, {"spec": SPEC_DOC, "n_shards": 1}, retry=None)

        # A terminal job can no longer be cancelled.
        with pytest.raises(FleetClientError, match="409"):
            cancel_job(url, queued, retry=None)
        with pytest.raises(FleetClientError, match="404"):
            cancel_job(url, "no-such-job", retry=None)

        status = get_json(url, "/status")
        assert status["max_running"] == 1 and status["max_queue"] == 1
        assert status["journal"]["seq"] > 0
        assert not status["draining"]

        for job in (first, third):
            assert wait_for_job(url, job, timeout_s=120)["status"] == "done"


def test_priority_orders_the_queue(tmp_path):
    with ServiceThread(
        tmp_path / "root", executor="local", max_running=1, max_queue=4
    ) as thread:
        url = f"http://127.0.0.1:{thread.port}"
        blocker = submit_job(url, {"spec": SLOW_SPEC_DOC, "n_shards": 1})
        low = submit_job(url, {"spec": SPEC_DOC, "n_shards": 1, "priority": 0})
        high = submit_job(url, {"spec": SPEC_DOC, "n_shards": 1, "priority": 9})
        queue = get_json(url, "/queue")
        assert [entry["job"] for entry in queue["entries"]] == [high, low]
        assert get_json(url, f"/jobs/{high}")["queue_position"] == 0
        for job in (blocker, low, high):
            assert wait_for_job(url, job, timeout_s=120)["status"] == "done"


def test_cancel_running_job_stops_it(tmp_path):
    with ServiceThread(tmp_path / "root", executor="local") as thread:
        url = f"http://127.0.0.1:{thread.port}"
        job = submit_job(url, {"spec": SLOW_SPEC_DOC, "n_shards": 1})
        reply = cancel_job(url, job)
        assert reply["status"] == "cancelled"
        status = wait_for_job(url, job, timeout_s=60)
        assert status["status"] == "cancelled"


def test_cli_submit_wait_fetches_results(tmp_path, service, capsys):
    spec_path = tmp_path / "svc_small.toml"
    spec_path.write_text(
        """\
[campaign]
name = "svc_small"
builder = "nav_pairs"
seeds = [1, 2]
duration_s = 0.15

[params]
transport = "udp"

[sweep]
n_greedy = [0, 1]
"""
    )
    out_csv = tmp_path / "fetched.csv"
    code = main(
        [
            "fleet", "submit", str(spec_path),
            "--url", service, "--shards", "2", "--wait", "-o", str(out_csv),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "submitted job" in text

    single = tmp_path / "single"
    run_campaign(spec_from_dict(SPEC_DOC), out_dir=single)
    assert out_csv.read_bytes() == (single / "results.csv").read_bytes()


def test_cli_fleet_status_url_and_cancel(tmp_path, service, capsys):
    job = submit_job(service, {"spec": SPEC_DOC, "n_shards": 2})
    wait_for_job(service, job, timeout_s=120)
    assert main(["fleet", "status", "--url", service]) == 0
    text = capsys.readouterr().out
    assert "queue:" in text and "journal:" in text
    assert main(["fleet", "status", "--url", service, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["jobs"]["total"] == 1
    # Cancelling a finished job via the CLI surfaces the 409 cleanly.
    assert main(["fleet", "cancel", job, "--url", service]) == 2
    assert "409" in capsys.readouterr().err
    assert main(["fleet", "status"]) == 2


def test_stop_after_the_loop_closed_on_its_own(tmp_path):
    # A drained service returns from its loop, which closes while the
    # thread is still unwinding; stop() in that window must not raise.
    import asyncio
    import threading
    import time

    thread = ServiceThread(tmp_path / "fleet-root", executor="local")
    thread._loop = asyncio.new_event_loop()
    thread._loop.close()
    thread._thread = threading.Thread(target=time.sleep, args=(0.2,), daemon=True)
    thread._thread.start()
    thread.stop()
    assert not thread._thread.is_alive()
