"""Load-generate the serve daemon and record its service metrics.

Spins up the daemon in-process (ephemeral port, thread scheduler),
fires concurrent client threads at ``POST /jobs`` with a mix of
distinct and duplicate submissions (the duplicate share exercises
single-flight dedup and the warm cache path), and measures the
submit-to-done latency of every submission.  Emits ``BENCH_serve.json``
at the repo root: p50/p99 latency, jobs per second, and the stage-cache
hit rate, which CI uploads with its other benchmark results.

Environment knobs (on top of the shared ones in ``conftest.py``):

* ``REPRO_BENCH_SERVE_CLIENTS`` -- concurrent client threads (default 8);
* ``REPRO_BENCH_SERVE_SUBMISSIONS`` -- total submissions (default 24);
* ``REPRO_BENCH_SERVE_DISTINCT`` -- distinct job configs among them
  (default 4; the rest are duplicates/warm resubmissions).

Also runnable standalone: ``PYTHONPATH=src python benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.request

from conftest import cycles_override, jobs_override, run_once, write_bench_json

DESIGN = "s1488"


def _knob(name: str, default: int) -> int:
    env = os.environ.get(name)
    return int(env) if env else default


def _post_job(base_url: str, body: dict) -> dict:
    request = urllib.request.Request(
        base_url + "/jobs", data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60.0) as resp:
        return json.loads(resp.read())


def _get(base_url: str, path: str) -> dict:
    with urllib.request.urlopen(base_url + path, timeout=60.0) as resp:
        return json.loads(resp.read())


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def drive_load() -> dict:
    from repro.flow.scheduler import JobScheduler
    from repro.serve import JobManager, start_in_thread

    clients = _knob("REPRO_BENCH_SERVE_CLIENTS", 8)
    submissions = _knob("REPRO_BENCH_SERVE_SUBMISSIONS", 24)
    distinct = max(1, _knob("REPRO_BENCH_SERVE_DISTINCT", 4))
    cycles = cycles_override() or 16
    jobs = max(2, jobs_override())

    scheduler = JobScheduler(jobs=jobs, executor="thread")
    manager = JobManager(scheduler, workers=jobs,
                         queue_depth=max(submissions, 16))
    handle = start_in_thread(manager)
    latencies: list[float] = []
    failures: list[str] = []
    lock = threading.Lock()
    work = list(range(submissions))

    def client() -> None:
        while True:
            with lock:
                if not work:
                    return
                index = work.pop()
            body = {"design": DESIGN,
                    "options": {"sim_cycles": cycles,
                                "seed": index % distinct}}
            t0 = time.perf_counter()
            job = _post_job(handle.base_url, body)
            while True:
                status = _get(handle.base_url, f"/jobs/{job['id']}")
                if status["state"] in ("done", "failed"):
                    break
                time.sleep(0.01)
            elapsed = time.perf_counter() - t0
            with lock:
                latencies.append(elapsed)
                if status["state"] != "done":
                    failures.append(status["error"] or "?")

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0

    stats = _get(handle.base_url, "/statsz")
    handle.stop()
    scheduler.close()

    assert not failures, failures
    assert len(latencies) == submissions
    latencies.sort()
    return {
        "design": DESIGN,
        "sim_cycles": cycles,
        "clients": clients,
        "submissions": submissions,
        "distinct_configs": distinct,
        "executor_jobs": jobs,
        "wall_s": round(wall, 4),
        "jobs_per_s": round(submissions / wall, 3),
        "latency_p50_s": round(_percentile(latencies, 0.50), 4),
        "latency_p99_s": round(_percentile(latencies, 0.99), 4),
        "latency_max_s": round(latencies[-1], 4),
        "cache_hit_rate": stats["stage_cache"]["hit_rate"],
        "deduped": stats["jobs"]["deduped"],
        "completed": stats["jobs"]["completed"],
    }


def test_serve_load(benchmark, out_dir):
    payload = run_once(benchmark, drive_load)
    # every submission completed; the duplicate share must have been
    # served from the cache (or deduped), not recomputed
    assert payload["completed"] + payload["deduped"] == \
        payload["submissions"]
    assert payload["cache_hit_rate"] is not None
    assert payload["cache_hit_rate"] > 0.3
    write_bench_json("serve", payload)
    lines = [f"{key:18} {value}" for key, value in payload.items()]
    text = "serve daemon load generation\n" + "\n".join(lines)
    from conftest import emit
    emit(out_dir, "serve_load.txt", text)


if __name__ == "__main__":
    result = drive_load()
    write_bench_json("serve", result)
    print(json.dumps(result, indent=2))
