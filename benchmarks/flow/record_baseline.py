#!/usr/bin/env python3
"""Measure the flow benchmark's run-to-run spread and record a baseline.

    python3 benchmarks/flow/record_baseline.py [--runs 10] [--sets 2]

Runs ``bench_flow.py`` ``--runs`` times per workload, each run with
another ``--seed`` (1..runs) and the workloads round-robin; repeats that
for ``--sets`` independent sets, then makes one traced run per workload.  For each set and end-to-end metric it reports the
median and the quartile spread ``(q3 - q1) / median``; across sets, how
much the later medians drift from the first set's.  Everything, raw
values included, is written to ``--out`` (default: baseline.json here).
Takes about ``sets * runs * 30 s * workloads`` (40 minutes with defaults).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import bench_flow as bf


def _bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(bf.HERE / "bench_flow.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace)],
        cwd=bf.ROOT, stdout=subprocess.PIPE, text=True, check=False,
        timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"record_baseline: {workload} seed {seed} "
                         f"exited {proc.returncode}")
    line = json.loads(lines[-1])
    if not line["correct"]:
        raise SystemExit(f"record_baseline: {workload} seed {seed}: "
                         f"{line['failed']} flows failed")
    return {m: v["value"] for m, v in line["metrics"].items()}


def _summary(values: list[float]) -> dict:
    stats = bf.quartiles(values)
    return {**stats, "values": values,
            "spread": (stats["q3"] - stats["q1"]) / stats["median"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", type=Path, default=bf.HERE / "baseline.json")
    args = parser.parse_args(argv)
    spec = json.loads((bf.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {row["name"]: row["bound"] for row in spec["end_to_end"]}
    names = [row["name"] for row in spec["workloads"]]

    sets = []
    for index in range(args.sets):
        raw: dict[str, dict[str, list[float]]] = {
            w: {m: [] for m in bounds} for w in names}
        for seed in range(1, args.runs + 1):
            for workload in names:
                for metric, value in _bench(workload, seed, 0).items():
                    raw[workload][metric].append(value)
                print(f"set {index + 1} seed {seed} {workload}: "
                      f"flow_s {raw[workload]['flow_s'][-1]:.3f}",
                      file=sys.stderr)
        sets.append({w: {m: _summary(v) for m, v in raw[w].items()}
                     for w in names})

    print(f"{'workload':10} {'metric':12} {'bound':>6} "
          + " ".join(f"{'spread' + str(i + 1):>8}" for i in range(args.sets))
          + " " + " ".join(f"{'drift' + str(i + 1):>8}"
                           for i in range(1, args.sets)))
    drift: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    for workload in names:
        for metric, bound in bounds.items():
            first = sets[0][workload][metric]["median"]
            drift[workload][metric] = [
                s[workload][metric]["median"] / first - 1 for s in sets[1:]]
            spreads = [s[workload][metric]["spread"] for s in sets]
            flag = "" if max(spreads) < bound / 3 or metric == "setup_s" else " !"
            print(f"{workload:10} {metric:12} {bound:6.2f} "
                  + " ".join(f"{x:8.4f}" for x in spreads) + " "
                  + " ".join(f"{x:+8.4f}" for x in drift[workload][metric])
                  + flag)

    traced = {w: _bench(w, 1, 1) for w in names}
    from repro.bench.history import host_fingerprint

    args.out.write_text(json.dumps({
        "host": host_fingerprint(),
        "run_seconds": spec["run_seconds"],
        "runs_per_set": args.runs,
        "sets": sets,
        "drift": drift,
        "traced_seed1": traced,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
