"""Shared helpers for the benchmark harness.

Environment knobs:

* ``REPRO_BENCH_DESIGNS`` -- comma-separated design subset (default: the
  full 18-design evaluation of the paper);
* ``REPRO_BENCH_CYCLES`` -- override measurement cycles (smaller = faster,
  noisier power);
* ``REPRO_BENCH_JOBS`` -- run up to N style flows per design concurrently
  (default 1: sequential; results are identical either way);
* ``REPRO_BENCH_EXECUTOR`` -- execution backend (``serial`` / ``thread``
  / ``process``; default: serial for 1 job, thread otherwise);
* ``REPRO_BENCH_CACHE_DIR`` -- persistent on-disk artifact cache
  directory (warm reruns skip synthesis and simulation);
* ``REPRO_BENCH_OUT`` -- directory for regenerated table/figure text
  (default ``benchmarks/out``).

Besides the human-readable artifacts, benchmarks write machine-readable
perf-trajectory files (``BENCH_runtime.json``, ``BENCH_sim.json``) at
the repo root via :func:`write_bench_json`, so successive PRs can be
compared numerically; CI uploads them as artifacts.

Each benchmark regenerates one paper artifact; pytest-benchmark records
the wall time of the regeneration itself (rounds=1: these are long-running
flows, not microbenchmarks).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.circuits import names


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--obs", action="store_true", default=False,
        help="trace the regenerations with repro.obs (writes trace "
             "artifacts next to the tables) and enable the "
             "disabled-tracer overhead bound test")


@pytest.fixture(scope="session")
def obs_enabled(request) -> bool:
    return request.config.getoption("--obs")


def selected_designs(suite: str | None = None) -> list[str]:
    env = os.environ.get("REPRO_BENCH_DESIGNS")
    if env:
        picked = [d.strip() for d in env.split(",") if d.strip()]
        return [d for d in picked if suite is None or d in names(suite)]
    return names(suite)


def cycles_override() -> int | None:
    env = os.environ.get("REPRO_BENCH_CYCLES")
    return int(env) if env else None


def jobs_override() -> int:
    env = os.environ.get("REPRO_BENCH_JOBS")
    return int(env) if env else 1


def executor_override() -> str | None:
    return os.environ.get("REPRO_BENCH_EXECUTOR") or None


def cache_dir_override() -> str | None:
    return os.environ.get("REPRO_BENCH_CACHE_DIR") or None


def write_bench_json(name: str, payload: dict) -> Path:
    """Write a machine-readable perf record ``BENCH_<name>.json`` at the
    repo root (where ``benchmarks/check_counts.py`` reads the pinned
    counts)."""
    from repro.bench.recorder import write_bench_json as _write

    path = _write(name, payload,
                  root=Path(__file__).resolve().parent.parent)
    print(f"wrote {path}")
    return path


@pytest.fixture(scope="session")
def out_dir() -> Path:
    path = Path(os.environ.get(
        "REPRO_BENCH_OUT", Path(__file__).parent / "out"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def emit(out_dir: Path, name: str, text: str) -> None:
    """Print a regenerated artifact and save it."""
    print()
    print(text)
    (out_dir / name).write_text(text + "\n", encoding="utf-8")


def run_once(benchmark, func):
    """pytest-benchmark wrapper for long single-shot regenerations."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
