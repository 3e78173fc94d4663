"""The one shared ``BENCH_*.json`` writer.

Every benchmark under ``benchmarks/`` -- pytest-driven or standalone --
emits its machine-readable snapshot through :func:`write_bench_json`,
so the file naming, layout, and landing directory stay uniform and
``benchmarks/check_counts.py`` finds them all at the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path


def default_root() -> Path:
    """The repository root in a source checkout (where BENCH files land)."""
    # src/repro/bench/recorder.py -> bench -> repro -> src -> repo root
    return Path(__file__).resolve().parents[3]


def write_bench_json(name: str, payload: dict, root: str | Path | None = None,
                     ) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root and return its path.

    ``payload`` must be JSON-serializable; nested dicts/lists are fine.
    The file is overwritten on every run.
    """
    base = Path(root) if root is not None else default_root()
    path = base / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


__all__ = ["default_root", "write_bench_json"]
