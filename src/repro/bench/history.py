"""The host a benchmark ran on, stamped into its ``BENCH_*.json``."""

from __future__ import annotations

import os
import platform


def host_fingerprint() -> dict:
    """A small, stable description of the machine that ran the bench."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


__all__ = ["host_fingerprint"]
