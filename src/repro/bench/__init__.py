"""Shared benchmark plumbing.

The benchmarks under ``benchmarks/`` write machine-readable
``BENCH_*.json`` snapshots through one recorder
(:func:`repro.bench.recorder.write_bench_json`), stamped with
:func:`repro.bench.history.host_fingerprint`.  The deterministic counts
in those files are pinned by ``benchmarks/check_counts.py``; see
docs/benchmarking.md.
"""

from repro.bench.history import host_fingerprint
from repro.bench.recorder import default_root, write_bench_json

__all__ = ["default_root", "host_fingerprint", "write_bench_json"]
