"""The HTTP front-end, driven over real sockets.

A module-scoped daemon (in-process, ephemeral port, thread scheduler,
persistent cache dir) serves every test; the acceptance-critical paths
are ``test_eight_concurrent_submissions_match_batch`` (daemon output is
bit-identical to the CLI batch path under concurrency) and
``test_warm_resubmission_is_pure_cache_hit`` (identical resubmission
does zero synthesis/simulation work).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.flow.scheduler import JobScheduler
from repro.serve import JobManager, start_in_thread

CYCLES = 16
#: span names that prove real implementation work happened (the warm
#: path must show none of them) — same set the executor parity tests use.
WORK_SPANS = {"sim.run", "sim.compile", "convert.rewrite",
              "ilp.solve", "pnr.place", "pnr.route"}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    scheduler = JobScheduler(jobs=4, executor="thread",
                             cache_dir=str(root / "cache"))
    manager = JobManager(scheduler, workers=4, queue_depth=32,
                         job_dir=str(root / "jobs"))
    handle = start_in_thread(manager)
    yield handle
    handle.stop()
    scheduler.close()


def _req(server, method, path, body=None, timeout=30.0):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        server.base_url + path, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _await_done(server, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, status = _req(server, "GET", f"/jobs/{job_id}")
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    pytest.fail(f"job {job_id} did not finish")


def test_healthz(server):
    code, body = _req(server, "GET", "/healthz")
    assert code == 200
    assert body["status"] == "ok"
    assert body["draining"] is False
    # identity block, shared with /statsz through one builder
    from repro import __version__
    assert body["version"] == __version__
    assert body["pid"] > 0
    assert body["uptime_s"] >= 0.0


def test_statsz_shape(server):
    code, stats = _req(server, "GET", "/statsz")
    assert code == 200
    assert stats["queue"]["capacity"] == 32
    assert stats["executor"]["name"] == "thread"
    assert 0.0 <= stats["executor"]["occupancy"] <= 1.0
    for key in ("uptime_s", "draining", "jobs", "stage_cache", "cache"):
        assert key in stats
    # the cache block is the DiskCacheStats.to_dict shape (shared with
    # `repro cache stats --format json`)
    assert set(stats["cache"]["disk"]) == {"root", "entries", "bytes",
                                           "stages"}


def test_eight_concurrent_submissions_match_batch(server):
    """>= 8 concurrent submissions; results bit-identical to the CLI
    batch path.  Half the submissions duplicate the other half, so the
    single-flight window is exercised under real concurrency."""
    configs = [{"sim_cycles": CYCLES}, {"sim_cycles": CYCLES + 8}]
    responses = [None] * 8
    barrier = threading.Barrier(8)

    def submit(i):
        barrier.wait()
        responses[i] = _req(server, "POST", "/jobs", {
            "design": "s1488", "options": configs[i % 2]})

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert all(code in (200, 202) for code, _ in responses)
    ids = {body["id"] for _, body in responses}
    for job_id in ids:
        assert _await_done(server, job_id)["state"] == "done"

    # daemon rows == batch rows, per config
    from repro.circuits import build
    from repro.flow import compare_styles
    from repro.serve.jobs import resolve_options

    by_config = {}
    for (_, body), config in zip(responses, configs * 4):
        by_config[json.dumps(config, sort_keys=True)] = body["id"]
    for config in configs:
        job_id = by_config[json.dumps(config, sort_keys=True)]
        _, result = _req(server, "GET", f"/jobs/{job_id}/result")
        batch = compare_styles(
            build("s1488"), resolve_options("s1488", config))
        for style in ("ff", "ms", "3p"):
            row = result["styles"][style]
            ref = batch.result(style)
            assert row["power"] == ref.power.as_row()
            assert row["area"] == ref.area
            assert row["registers"] == ref.registers


def test_dedup_of_active_job_returns_200_with_same_id(server):
    body = {"design": "s1488", "options": {"sim_cycles": CYCLES,
                                           "seed": 777}}
    code_a, a = _req(server, "POST", "/jobs", body)
    code_b, b = _req(server, "POST", "/jobs", body)
    assert code_a == 202
    # the dedup window is open only while job a is queued/running
    if code_b == 200:
        assert b["deduped"] and b["id"] == a["id"]
    else:
        assert code_b == 202 and not b["deduped"]
    _await_done(server, a["id"])


def test_warm_resubmission_is_pure_cache_hit(server):
    """Identical resubmission after completion: all stages served from
    the artifact cache, zero synthesis/simulation spans in the job's
    trace."""
    from repro.obs.summary import load_spans

    body = {"design": "s1488", "options": {"sim_cycles": CYCLES,
                                           "seed": 4242}}
    _, cold = _req(server, "POST", "/jobs", body)
    cold_status = _await_done(server, cold["id"])
    assert cold_status["state"] == "done"
    assert cold_status["cache"]["misses"] > 0  # it really ran cold
    cold_spans = {s.name for s in load_spans(cold_status["trace"])}
    assert cold_spans & WORK_SPANS

    code, warm = _req(server, "POST", "/jobs", body)
    assert code == 202 and warm["id"] != cold["id"]
    warm_status = _await_done(server, warm["id"])
    assert warm_status["state"] == "done"
    assert warm_status["cache"]["misses"] == 0
    assert warm_status["cache"]["hits"] > 0
    warm_spans = {s.name for s in load_spans(warm_status["trace"])}
    assert not warm_spans & WORK_SPANS

    # and the warm rows equal the cold rows exactly (the per-stage
    # cache_hit telemetry legitimately flips from miss to hit)
    _, cold_result = _req(server, "GET", f"/jobs/{cold['id']}/result")
    _, warm_result = _req(server, "GET", f"/jobs/{warm['id']}/result")

    def rows(result):
        return {style: {k: v for k, v in row.items() if k != "stages"}
                for style, row in result["styles"].items()}

    assert rows(warm_result) == rows(cold_result)
    assert all(stage["cache_hit"]
               for row in warm_result["styles"].values()
               for stage in row["stages"])


def test_events_stream_until_terminal(server):
    _, sub = _req(server, "POST", "/jobs", {
        "design": "s1488", "options": {"sim_cycles": CYCLES, "seed": 99}})
    with urllib.request.urlopen(
            server.base_url + f"/jobs/{sub['id']}/events",
            timeout=60.0) as resp:
        assert resp.headers["Content-Type"] == "application/x-ndjson"
        lines = [json.loads(line) for line in resp.read().splitlines()]
    events = [line["event"] for line in lines]
    assert events[0] == "queued" and events[-1] == "finished"
    assert lines[-1]["state"] in ("done", "failed")


def test_error_statuses(server):
    assert _req(server, "GET", "/jobs/j999999")[0] == 404
    assert _req(server, "GET", "/nope")[0] == 404
    assert _req(server, "POST", "/jobs", {"design": "not-a-design"})[0] == 404
    assert _req(server, "POST", "/jobs", {})[0] == 400
    assert _req(server, "POST", "/jobs",
                {"design": "s1488", "styles": ["bogus"]})[0] == 400
    assert _req(server, "POST", "/jobs",
                {"design": "s1488", "options": {"style": "3p"}}) == (
        400, {"error": "unknown or non-overridable option(s): style"})
    assert _req(server, "POST", "/jobs",
                {"design": "s1488", "styles": "ff"})[0] == 400
    code, body = _req(server, "POST", "/jobs", {
        "design": "s1488", "options": {"assign_method": "gurobi"}})
    assert code == 400 and "unknown assign method 'gurobi'" in body["error"]
    # a simulation no longer than its warm-up has no measurement window:
    # rejected at intake, not inside the power stage
    code, body = _req(server, "POST", "/jobs", {
        "design": "s1488", "options": {"sim_cycles": 4}})
    assert code == 400
    assert "sim_cycles" in body["error"] and "warmup_cycles" in body["error"]
    assert _req(server, "DELETE", "/jobs")[0] == 405
    assert _req(server, "POST", "/healthz")[0] == 405
    code, body = _req(server, "GET", "/jobs/j999999/result")
    assert code == 404


def test_result_conflict_before_done(server):
    """A queued/running job 409s on /result instead of returning junk."""
    _, sub = _req(server, "POST", "/jobs", {
        "design": "s1488", "options": {"sim_cycles": CYCLES, "seed": 555}})
    code, body = _req(server, "GET", f"/jobs/{sub['id']}/result")
    if code == 409:  # still in flight when we asked
        assert body["state"] in ("queued", "running")
    else:  # tiny design may already be done; then it must be real
        assert code == 200 and "styles" in body
    _await_done(server, sub["id"])


def test_jobs_listing(server):
    code, listing = _req(server, "GET", "/jobs")
    assert code == 200
    assert listing["jobs"], "earlier tests created jobs"
    assert all(job["state"] in ("queued", "running", "done", "failed")
               for job in listing["jobs"])


def test_metricsz_exposition(server):
    """``GET /metricsz`` emits valid Prometheus 0.0.4 text; the earlier
    tests already ran jobs, so the stage/job/HTTP families must carry
    real samples, not just zeroed declarations."""
    from repro import __version__
    from tests.obs.promparse import (
        assert_histogram_invariants,
        parse_exposition,
        sample_values,
    )

    with urllib.request.urlopen(server.base_url + "/metricsz",
                                timeout=30.0) as resp:
        assert resp.status == 200
        assert resp.headers["Content-Type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        text = resp.read().decode("utf-8")
    parsed = parse_exposition(text)

    # identity + capacity gauges
    assert sample_values(parsed, "repro_build_info",
                         version=__version__) == [1.0]
    assert sample_values(parsed, "repro_queue_capacity") == [32.0]
    assert sample_values(parsed, "repro_process_rss_bytes")[0] > 0
    assert sample_values(parsed, "repro_process_uptime_seconds")[0] >= 0

    # request accounting: the normalized /jobs/:id route must appear
    # (raw ids would blow up label cardinality)
    jobs_get = sample_values(parsed, "repro_http_requests_total",
                             endpoint="/jobs/:id", method="GET",
                             status="200")
    assert jobs_get and jobs_get[0] > 0
    assert_histogram_invariants(parsed, "repro_http_request_seconds")

    # job outcomes and per-stage families from the completed jobs
    submitted = sample_values(parsed, "repro_jobs_total",
                              outcome="submitted")
    assert submitted and submitted[0] > 0
    completed = sample_values(parsed, "repro_jobs_total",
                              outcome="completed")
    assert completed and completed[0] > 0
    hits = sample_values(parsed, "repro_stage_cache_total", outcome="hit")
    assert hits and hits[0] > 0  # the warm resubmission test hit cache
    assert_histogram_invariants(parsed, "repro_stage_seconds")
    synth = sample_values(parsed, "repro_stage_seconds_count",
                          stage="synth")
    assert synth and synth[0] > 0
    # per-job monitors attributed peak RSS to stages
    assert_histogram_invariants(parsed, "repro_stage_peak_rss_bytes")
    rss = sample_values(parsed, "repro_stage_peak_rss_bytes_count",
                        stage="synth")
    assert rss and rss[0] > 0

    assert _req(server, "POST", "/metricsz")[0] == 405


def test_bad_request_line_and_body(server):
    import socket

    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10.0) as sock:
        sock.sendall(b"GARBAGE\r\n\r\n")
        reply = sock.recv(4096)
    assert b"400" in reply.split(b"\r\n", 1)[0]

    code, body = _req(server, "POST", "/jobs", body=None)
    # empty body -> missing design
    assert code == 400

    request = urllib.request.Request(
        server.base_url + "/jobs", data=b"{not json", method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10.0) as resp:
            code = resp.status
    except urllib.error.HTTPError as exc:
        code = exc.code
    assert code == 400
