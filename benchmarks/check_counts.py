#!/usr/bin/env python3
"""Deterministic count gate: the benchmarks' exact counts, pinned.

Reads the ``BENCH_*.json`` files at the repository root and compares
every count that repeats exactly from run to run with
``benchmarks/counts.json``:

* every per-workload metric whose unit is ``count`` in
  ``BENCH_flow_layers.json`` (``bench_flow.py --trace 1``);
* the fields of the micro-benchmarks named in :data:`MICRO`.

    python3 benchmarks/check_counts.py

stdout is the observed counts in ``counts.json``'s layout (file ->
group -> field -> value); to re-record, write it over ``counts.json``.
Each pinned field that differs or is missing is one stderr line naming
the file, group and field with the expected and observed values, and
the exit code is 1.  Fields observed but not pinned are not checked.
See docs/benchmarking.md for what is pinned and why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = HERE / "counts.json"

FLOW = "BENCH_flow_layers.json"

#: micro-bench file -> (section, identity fields of its rows, pinned
#: fields).  A list section is keyed by its rows' identity fields; a
#: dict section is one group.
MICRO = {
    "BENCH_sim.json": [
        ("runs", ("engine", "delay_model"),
         ("events", "word_events", "bit_for_bit")),
    ],
    "BENCH_verify.json": [
        ("runs", ("design", "style"), ("cones", "solver_runs")),
        ("negative", (), ("refuted", "solver_runs", "solver_conflicts",
                          "cache_hit_rate")),
    ],
    "BENCH_ilp.json": [("mis", (), ("objective",))],
}


def _load(path: Path) -> dict | None:
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def observe(root: Path = ROOT) -> dict[str, dict[str, dict]]:
    """The counts the ``BENCH_*.json`` files under ``root`` report, for
    every file that exists."""
    observed: dict[str, dict[str, dict]] = {}
    flow = _load(root / FLOW)
    if flow is not None:
        observed[FLOW] = {
            workload["name"]: {metric: stat["median"]
                               for metric, stat in workload["metrics"].items()
                               if stat["unit"] == "count"}
            for workload in flow["workloads"]}
    for name, sections in MICRO.items():
        payload = _load(root / name)
        if payload is None:
            continue
        groups = observed[name] = {}
        for section, keys, fields in sections:
            rows = payload.get(section, {})
            for row in rows if isinstance(rows, list) else [rows]:
                group = "/".join([section, *(str(row.get(k)) for k in keys)])
                groups[group] = {f: row[f] for f in fields if f in row}
    return observed


def mismatches(expected: dict, observed: dict) -> list[str]:
    """One line per pinned field that ``observed`` lacks or differs in."""
    lines = []
    for name, groups in expected.items():
        if name not in observed:
            pinned = sum(map(len, groups.values()))
            lines.append(f"{name}: no such file ({pinned} pinned)")
            continue
        for group, fields in groups.items():
            seen = observed[name].get(group, {})
            for field, value in fields.items():
                if field not in seen:
                    lines.append(f"{name} {group} {field}: expected "
                                 f"{value!r}, observed nothing")
                elif seen[field] != value:
                    lines.append(f"{name} {group} {field}: expected "
                                 f"{value!r}, observed {seen[field]!r}")
    return lines


def main(root: Path = ROOT, counts: Path = COUNTS) -> int:
    observed = observe(root)
    print(json.dumps(observed, indent=2, sort_keys=True))
    lines = mismatches(json.loads(counts.read_text(encoding="utf-8")),
                       observed)
    for line in lines:
        print(line, file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
