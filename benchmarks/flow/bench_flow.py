#!/usr/bin/env python3
"""Flow benchmark: what a full ``repro run`` costs, end to end and per layer.

Each workload is a list of bundled designs.  A design is run the way
``repro run <design>`` runs it: one serial ``compare_styles`` (ff, ms and
3p, ``jobs=1``) with the registry's period, activity profile and cycles.
One run measures for ``--seconds``: it cycles through the workload's
designs, each sample on a fresh ``ArtifactCache``, always completing one
full pass and then starting another sample only while its predicted end
stays inside the budget.  Times are per-design medians summed over the
workload, i.e. the cost of one pass.

    python3 benchmarks/flow/bench_flow.py                  # every workload
    python3 benchmarks/flow/bench_flow.py --workload ladder --seed 2
    python3 benchmarks/flow/bench_flow.py --workload warm --trace 1

Every workload runs in fresh child processes, one after another: set-up
probes (imports + design generation, timed ``SETUP_PROBES`` times), the
disk-cache population for ``warm``, then the measuring worker.  With
``--trace 1`` (or ``--traced``) the untraced worker is followed by a
traced one, whose spans give the per-layer metrics.  Outputs are checked
against ``expected/<workload>.seed<N>.json``; seeds without a file check
register counts plus run-to-run determinism.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The results are
also written to ``BENCH_flow.json`` / ``BENCH_flow_layers.json`` at the
repository root, which ``repro bench record`` reads.  See README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

EXPECTED_DIR = HERE / "expected"
OUT_DIR = ROOT / "benchmarks" / "out" / "flow"

STYLES = ("ff", "ms", "3p")
#: set-up is timed this many times per run; the median is ``setup_s``.
SETUP_PROBES = 3
#: relative tolerance of the expected-output check.
RTOL = 1e-9
MIB = 2 ** 20
#: the benchmark's own span around each sample; per-layer numbers are
#: aggregated over the program's spans beneath it.
SAMPLE_SPAN = "bench.sample"
#: child processes are killed after this long; a whole run must end
#: within 180 s.
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    designs: tuple[str, ...]
    #: measurement cycles for every design; None keeps the registry's.
    sim_cycles: int | None = None
    #: rerun against a disk cache populated during set-up.
    warm: bool = False


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# All four fit one run of 20 s: aes (175 s, 4.3 GB) does not, so riscv,
# the largest design that does, stands in for it as ``large``.
WORKLOADS = {
    "ladder": Workload(("s9234", "s13207", "s38417")),
    "large": Workload(("riscv",)),
    "sim-long": Workload(("s13207", "des3"), sim_cycles=2500),
    "warm": Workload(("s13207", "des3"), warm=True),
}

#: end-to-end metric -> unit.
END_TO_END = {"flow_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

#: per-layer metric -> (unit, better, end-to-end metric it should move,
#: workloads it should move on).  On every other workload the prediction
#: is no change.  Stage times are the total wall time of the stage's spans:
#: compute on a cache miss, disk load + restore on a hit.
LAYERS = {
    "synth.s": ("s", "lower", "flow_s", ("ladder", "large")),
    "ilp.s": ("s", "lower", "flow_s", ("large",)),
    "convert.s": ("s", "lower", "flow_s", ("ladder", "large")),
    "retime.s": ("s", "lower", "flow_s", ("ladder", "large")),
    "lint.s": ("s", "lower", "flow_s", ("ladder", "large")),
    "hold_fix.s": ("s", "lower", "flow_s", ("ladder", "large")),
    "cg.s": ("s", "lower", "flow_s", ("sim-long",)),
    "pnr.s": ("s", "lower", "flow_s", ("ladder", "large")),
    "sta.s": ("s", "lower", "flow_s", ("ladder", "large")),
    "sim.s": ("s", "lower", "flow_s", ("sim-long",)),
    "power.s": ("s", "lower", "flow_s", ("sim-long",)),
    "flow.noop_stage_s": ("s", "lower", "flow_s", ("large", "warm")),
    "cache.load_s": ("s", "lower", "flow_s", ("warm",)),
    "cache.restore_s": ("s", "lower", "flow_s",
                        ("ladder", "large", "sim-long", "warm")),
    "mem.stage_peak_rss_mb": ("MB", "lower", "peak_rss_mb", ("large",)),
    "cache.disk_mb": ("MB", "lower", "setup_s", ("warm",)),
    "cache.entries": ("count", "lower", "peak_rss_mb", ("large",)),
    "cache.hits": ("count", "higher", "flow_s", ("warm",)),
    "cache.misses": ("count", "lower", "flow_s", ("warm",)),
    "sta.calls": ("count", "lower", "flow_s", ("ladder", "large")),
    "synth.cells": ("count", "lower", "flow_s", ("ladder", "large")),
    "ilp.latches": ("count", "lower", "flow_s", ("large",)),
    "retime.moves": ("count", "lower", "flow_s", ("large",)),
    "lint.calls": ("count", "lower", "flow_s", ("ladder", "large")),
    "lint.findings": ("count", "lower", "flow_s", ("ladder",)),
    "hold_fix.buffers": ("count", "lower", "flow_s", ("ladder", "large")),
    "sim.events": ("count", "lower", "flow_s", ("sim-long",)),
    "trace.overhead_pct": ("%", "lower", "flow_s",
                           ("ladder", "large", "sim-long", "warm")),
}

#: pipeline stage -> per-layer time metric (``lint_*`` gates: ``lint.s``).
STAGE_TIMES = {
    "synth": "synth.s", "ilp": "ilp.s", "convert": "convert.s",
    "retime": "retime.s", "hold_fix": "hold_fix.s", "cg": "cg.s",
    "pnr": "pnr.s", "sta": "sta.s", "sim": "sim.s", "power": "power.s",
    "clocks": "flow.noop_stage_s",
}

#: deterministic counts, taken from ``StageRecord.summary`` and the
#: benchmark's cache; a traced run must reproduce them exactly.
COUNTS = ("synth.cells", "ilp.latches", "retime.moves", "lint.calls",
          "lint.findings", "hold_fix.buffers", "sim.events",
          "cache.entries", "cache.hits", "cache.misses")


class BenchError(RuntimeError):
    """A child process failed; the run reports no result."""


# ---------------------------------------------------------------------------
# the measured program (runs in child processes)


def flow_options(name: str, workload: Workload, seed: int):
    """The ``FlowOptions`` that ``repro run <name>`` builds, plus the seed."""
    from repro.circuits.registry import spec
    from repro.flow import FlowOptions

    bench = spec(name)
    return FlowOptions(period=bench.period, profile=bench.workload,
                       sim_cycles=workload.sim_cycles or bench.sim_cycles,
                       seed=seed)


def set_up(workload: Workload) -> dict:
    """Imports, design generation, and one tiny flow so that every stage
    module the pipeline imports lazily is loaded before timing starts."""
    from repro.circuits import build
    from repro.flow import ArtifactCache, FlowOptions, compare_styles

    compare_styles(build("s1488"), FlowOptions(sim_cycles=16),
                   cache=ArtifactCache())
    return {name: build(name) for name in workload.designs}


def _timed_cache(disk):
    """An ``ArtifactCache`` whose lookups are timed, producer excluded.

    A subclass rather than a wrapper assigned to the instance: that
    closure would hold the cache in a reference cycle, keeping every
    sample's snapshots alive until a full collection.
    """
    from repro.flow import ArtifactCache

    class TimedCache(ArtifactCache):
        call_s = produce_s = 0.0

        def get_or_run(self, key, producer):
            def produce():
                t0 = time.perf_counter()
                try:
                    return producer()
                finally:
                    self.produce_s += time.perf_counter() - t0

            t0 = time.perf_counter()
            try:
                return super().get_or_run(key, produce)
            finally:
                self.call_s += time.perf_counter() - t0

    return TimedCache(disk=disk)


def _outputs(result) -> dict:
    return {
        "registers": result.registers,
        "area": result.area,
        "power": result.power.as_row(),
        "timing_ok": result.timing.ok,
    }


def _counts(comparison, cache) -> dict[str, int]:
    counts = dict.fromkeys(COUNTS, 0)
    for style in STYLES:
        for record in comparison.result(style).stages:
            summary = record.summary
            if record.stage == "synth" and style == "ff":
                counts["synth.cells"] = summary["cells"]
            elif record.stage == "ilp":
                counts["ilp.latches"] += summary["latches"]
            elif record.stage == "retime":
                counts["retime.moves"] += summary["moves"]
            elif record.stage.startswith("lint_"):
                counts["lint.calls"] += 1
                counts["lint.findings"] += summary["findings"]
            elif record.stage == "hold_fix":
                counts["hold_fix.buffers"] += summary["buffers"]
            counts["sim.events"] += summary.get("sim_events", 0)
    counts["cache.entries"] = len(cache)
    counts["cache.hits"] = cache.hits()
    counts["cache.misses"] = cache.misses()
    return counts


def _same(got, want) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k]) for k in want))
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)
    return got == want


def run_sample(name: str, design, options, disk, traced: bool) -> dict:
    """One ``compare_styles`` of one design on a fresh cache."""
    from repro import obs
    from repro.flow import ArtifactCache, compare_styles

    cache = _timed_cache(disk) if traced else ArtifactCache(disk=disk)
    c0, t0 = time.process_time(), time.perf_counter()
    with obs.span(SAMPLE_SPAN, design=name) as span:
        try:
            comparison = compare_styles(design, options, cache=cache)
        except Exception:  # a failed flow is counted, and the run goes on
            traceback.print_exc()
            comparison = None
    sample = {
        "design": name,
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "span_id": getattr(span, "span_id", None),
        "cache_timing": ({"call_s": cache.call_s, "produce_s": cache.produce_s}
                         if traced else None),
        "outputs": None,
        "counts": None,
        "missed": set(),
    }
    if comparison is not None:
        sample["outputs"] = {style: _outputs(comparison.result(style))
                             for style in STYLES}
        sample["counts"] = _counts(comparison, cache)
        sample["missed"] = {
            style for style in STYLES
            if any(not r.cache_hit for r in comparison.result(style).stages)}
    return sample


def _group_spans(spans) -> dict[int, list]:
    """Sample span id -> every span beneath it."""
    parent = {s.span_id: s.parent_id for s in spans}
    samples = {s.span_id for s in spans if s.name == SAMPLE_SPAN}
    owner: dict[int, int | None] = {}

    def find(span_id):
        trail = []
        while (span_id is not None and span_id not in owner
               and span_id not in samples):
            trail.append(span_id)
            span_id = parent.get(span_id)
        found = span_id if span_id in samples else owner.get(span_id)
        for visited in trail:
            owner[visited] = found
        return found

    groups: dict[int, list] = {sid: [] for sid in samples}
    for span in spans:
        if span.name != SAMPLE_SPAN:
            sample = find(span.span_id)
            if sample is not None:
                groups[sample].append(span)
    return groups


def _traced_layers(spans, timing) -> dict[str, float]:
    """The per-layer metrics of one sample that need its spans: the layer
    times (stage spans and cache timing) and ``sta.calls``."""
    layers = dict.fromkeys(
        [m for m, (unit, *_) in LAYERS.items() if unit == "s"], 0.0)
    layers["sta.calls"] = 0
    stages_s = 0.0
    for span in spans:
        if span.name == "sta.analyze":
            layers["sta.calls"] += 1
        if not span.name.startswith("stage."):
            continue
        stage = span.name[len("stage."):]
        stages_s += span.dur
        metric = "lint.s" if stage.startswith("lint_") else STAGE_TIMES.get(stage)
        if metric is not None:
            layers[metric] += span.dur
    # inside the cache call but outside the producer: memory-tier
    # bookkeeping, disk locks and unpickling
    layers["cache.load_s"] = timing["call_s"] - timing["produce_s"]
    # inside stage spans but outside the cache call: restore copies and
    # netlist digests
    layers["cache.restore_s"] = stages_s - timing["call_s"]
    return layers


def _span_table(spans) -> dict[str, dict]:
    from repro.obs.summary import aggregate

    return {stat.name: {"count": stat.count, "total_s": stat.total,
                        "self_s": stat.self_total}
            for stat in aggregate(spans)}


def run_worker(workload: Workload, seed: int, seconds: float, trace: bool,
               cache_dir: str | None = None, expected: dict | None = None,
               registers: dict | None = None,
               trace_prefix: Path | None = None) -> dict:
    """Measure ``workload`` for ``seconds`` in this process.

    ``expected`` maps design -> style -> outputs (checked to ``RTOL``);
    without it a design's later samples are checked against its first.
    ``registers`` maps design -> style -> register count, checked always.
    """
    from repro import obs
    from repro.flow import DiskCache

    designs = set_up(workload)
    options = {name: flow_options(name, workload, seed) for name in designs}
    disk = DiskCache(cache_dir) if workload.warm else None
    tracer = obs.Tracer() if trace else None
    samples: list[dict] = []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(obs.use_tracer(tracer))
            stack.enter_context(obs.monitored(tracer))
        t0 = time.perf_counter()
        for i in itertools.count():
            name = workload.designs[i % len(workload.designs)]
            if i >= len(workload.designs):
                predicted = statistics.median(
                    s["wall_s"] for s in samples if s["design"] == name)
                if time.perf_counter() - t0 + predicted > seconds:
                    break
            samples.append(run_sample(name, designs[name], options[name],
                                      disk, tracer is not None))

    errors: list[str] = []
    failed = 0
    first: dict[str, dict] = {}
    for sample in samples:
        name = sample["design"]
        ref = first.setdefault(name, sample)
        if sample["outputs"] is None:
            errors.append(f"{name}: flow raised")
            failed += len(STYLES)
            continue
        if sample["counts"] != ref["counts"]:
            errors.append(f"{name}: counts differ between samples")
            failed += len(STYLES)
            continue
        want = expected.get(name) if expected else ref["outputs"]
        missed = sample["missed"] if workload.warm else set()
        differs = {
            style for style in STYLES
            if (want is not None
                and not _same(sample["outputs"][style], want[style]))
            or (registers and sample["outputs"][style]["registers"]
                != registers[name][style])}
        errors += [f"{name}/{style}: cache miss on a warm rerun"
                   for style in sorted(missed)]
        errors += [f"{name}/{style}: outputs differ from the expected ones"
                   for style in sorted(differs)]
        failed += len(missed | differs)

    groups = _group_spans(tracer.spans) if tracer is not None else {}
    per_design = {}
    for name in workload.designs:
        mine = [s for s in samples if s["design"] == name]
        row = {
            "samples": len(mine),
            "wall_s": statistics.median(s["wall_s"] for s in mine),
            "cpu_s": statistics.median(s["cpu_s"] for s in mine),
            "counts": mine[0]["counts"],
            "outputs": mine[0]["outputs"],
        }
        if tracer is not None:
            layers = [_traced_layers(groups[s["span_id"]], s["cache_timing"])
                      for s in mine]
            row["layers"] = {m: statistics.median(lt[m] for lt in layers)
                             for m in layers[0]}
            row["spans"] = _span_table(groups[mine[0]["span_id"]])
        per_design[name] = row

    result = {
        "attempted": len(samples) * len(STYLES),
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "designs": per_design,
    }
    if tracer is not None:
        result["stage_peak_rss_mb"] = max(
            (s.attrs.get("peak_rss_bytes", 0) for s in tracer.spans
             if s.name.startswith("stage.")), default=0) / MIB
        result["disk_mb"] = disk.stats().bytes / MIB if disk is not None else 0.0
        if trace_prefix is not None:
            trace_prefix.parent.mkdir(parents=True, exist_ok=True)
            obs.write_chrome_trace(tracer, f"{trace_prefix}.trace.json")
            obs.write_jsonl(tracer, f"{trace_prefix}.jsonl")
    return result


def populate(workload: Workload, seed: int, cache_dir: str) -> float:
    """Fill ``cache_dir`` with one cold pass; returns the pass's seconds
    (set-up before it excluded)."""
    from repro.flow import ArtifactCache, DiskCache, compare_styles

    designs = set_up(workload)
    disk = DiskCache(cache_dir)
    t0 = time.perf_counter()
    for name, design in designs.items():
        compare_styles(design, flow_options(name, workload, seed),
                       cache=ArtifactCache(disk=disk))
    return time.perf_counter() - t0


def load_expected(name: str, seed: int) -> tuple[dict | None, dict | None]:
    """(expected outputs for ``seed`` or None, register counts or None)."""
    files = sorted(EXPECTED_DIR.glob(f"{name}.seed*.json"))
    if not files:
        return None, None
    path = EXPECTED_DIR / f"{name}.seed{seed}.json"
    expected = (json.loads(path.read_text(encoding="utf-8"))["designs"]
                if path.exists() else None)
    any_seed = json.loads(files[0].read_text(encoding="utf-8"))["designs"]
    registers = {design: {style: row[style]["registers"] for style in STYLES}
                 for design, row in any_seed.items()}
    return expected, registers


def _child_main(args: argparse.Namespace) -> int:
    name = args.workload[0]
    workload = WORKLOADS[name]
    if args.role == "probe":
        set_up(workload)
        return 0
    if args.role == "populate":
        seconds = populate(workload, args.seed, args.cache_dir)
        print(json.dumps({"populate_s": seconds}))
        return 0
    expected, registers = ((None, None) if args.write_expected
                           else load_expected(name, args.seed))
    result = run_worker(
        workload, args.seed, args.seconds, bool(args.trace),
        cache_dir=args.cache_dir, expected=expected, registers=registers,
        trace_prefix=OUT_DIR / name if args.trace else None)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# orchestration (the parent process)


def _child(role: str, name: str, seed: int, seconds: float = 0.0,
           trace: int = 0, cache_dir: str | None = None,
           write_expected: bool = False) -> tuple[dict | None, float]:
    """Run one child process; (its JSON result line or None, wall s)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if cache_dir is not None:
        cmd += ["--cache-dir", cache_dir]
    if write_expected:
        cmd.append("--write-expected")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} of {name} timed out") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{role} of {name} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), wall


def measure(name: str, seed: int, seconds: float, trace: bool,
            write_expected: bool = False) -> dict:
    """One run of one workload: set-up probes, population, worker(s)."""
    workload = WORKLOADS[name]
    run: dict = {"setup": [], "populate_s": 0.0, "traced": None}
    if not (trace or write_expected):
        run["setup"] = [_child("probe", name, seed)[1]
                        for _ in range(SETUP_PROBES)]
    cache_dir = None
    try:
        if workload.warm:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            cache_dir = tempfile.mkdtemp(prefix=f"{name}-cache-", dir=OUT_DIR)
            run["populate_s"] = _child(
                "populate", name, seed, cache_dir=cache_dir)[0]["populate_s"]
        run["untraced"] = _child("worker", name, seed, seconds, 0, cache_dir,
                                 write_expected)[0]
        if trace:
            run["traced"] = _child("worker", name, seed, seconds, 1,
                                   cache_dir)[0]
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return run


def end_to_end(run: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    designs = run["untraced"]["designs"].values()
    return {
        "flow_s": sum(d["wall_s"] for d in designs),
        "cpu_s": sum(d["cpu_s"] for d in designs),
        "peak_rss_mb": run["untraced"]["peak_rss_mb"],
        "setup_s": statistics.median(run["setup"]) + run["populate_s"],
    }


def per_layer(run: dict) -> dict[str, float]:
    """The per-layer metrics of one run: times from the traced worker,
    counts from the untraced one."""
    untraced, traced = run["untraced"], run["traced"]
    metrics: dict[str, float] = dict.fromkeys(LAYERS, 0)
    for row in traced["designs"].values():
        for metric, value in row["layers"].items():
            metrics[metric] += value
    for row in untraced["designs"].values():
        for metric in COUNTS:
            metrics[metric] += row["counts"][metric]
    metrics["mem.stage_peak_rss_mb"] = traced["stage_peak_rss_mb"]
    metrics["cache.disk_mb"] = traced["disk_mb"]
    untraced_s = sum(d["wall_s"] for d in untraced["designs"].values())
    traced_s = sum(d["wall_s"] for d in traced["designs"].values())
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return metrics


def check_run(run: dict) -> tuple[int, int, list[str]]:
    """(flows attempted, flows failed, error lines) over a run's workers."""
    workers = [w for w in (run["untraced"], run["traced"]) if w is not None]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    errors = [e for w in workers for e in w["errors"]]
    if run["traced"] is not None:
        for design, row in run["untraced"]["designs"].items():
            if row["counts"] != run["traced"]["designs"][design]["counts"]:
                errors.append(f"{design}: traced counts differ from untraced")
                failed += len(STYLES)
    return attempted, failed, errors


def quartiles(values: list[float]) -> dict[str, float]:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def report(names: list[str], runs: dict[str, list[dict]], trace: bool,
           seed: int, seconds: float) -> tuple[dict, int]:
    """Print the tables, write BENCH_flow*.json; (result line, exit code)."""
    from repro.bench.history import host_fingerprint
    from repro.bench.recorder import write_bench_json

    units = ({m: spec[0] for m, spec in LAYERS.items()} if trace
             else END_TO_END)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    payload_rows = []
    for name in names:
        series: dict[str, list[float]] = {m: [] for m in units}
        for run in runs[name]:
            a, f, errors = check_run(run)
            attempted, failed = attempted + a, failed + f
            for line in errors:
                print(f"bench_flow: {name}: {line}", file=sys.stderr)
            values = per_layer(run) if trace else end_to_end(run)
            for metric in units:
                series[metric].append(values[metric])
        stats = {m: {**quartiles(v), "unit": units[m]} for m, v in series.items()}
        last = runs[name][-1]["traced" if trace else "untraced"]
        designs = [{"design": d, "samples": row["samples"],
                    "wall_s": row["wall_s"], "cpu_s": row["cpu_s"],
                    "registers": {s: row["outputs"][s]["registers"]
                                  for s in STYLES} if row["outputs"] else None}
                   for d, row in last["designs"].items()]
        _print_workload(name, stats, designs, len(runs[name]))
        row = {"name": name, "runs": len(runs[name]), "metrics": stats,
               "designs": designs}
        if trace:
            row["spans"] = _sum_spans(last["designs"].values())
            _print_spans(row["spans"])
        payload_rows.append(row)
        for metric, stat in stats.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": stat["median"], "unit": stat["unit"]}
    path = write_bench_json("flow_layers" if trace else "flow", {
        "seed": seed, "seconds": seconds, "host": host_fingerprint(),
        "workloads": payload_rows})
    print(f"wrote {path}", file=sys.stderr)
    correct = failed == 0
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, 0 if correct else 1


def _sum_spans(designs) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for row in designs:
        for span, stat in row["spans"].items():
            acc = out.setdefault(span, {"count": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            for key in acc:
                acc[key] += stat[key]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))


def _print_workload(name: str, stats: dict, designs: list, n: int) -> None:
    print(f"== {name} ({n} run{'s' if n != 1 else ''}; median [q1, q3])")
    for metric, stat in stats.items():
        print(f"  {metric:24} {stat['median']:12.4f} {stat['unit']:6}"
              f" [{stat['q1']:.4f}, {stat['q3']:.4f}]")
    print(f"  {'design':10} {'samples':>7} {'wall_s':>9} {'cpu_s':>9}"
          "  registers ff/ms/3p")
    for row in designs:
        regs = ("/".join(str(row["registers"][s]) for s in STYLES)
                if row["registers"] else "-")
        print(f"  {row['design']:10} {row['samples']:7d} {row['wall_s']:9.3f}"
              f" {row['cpu_s']:9.3f}  {regs}")


def _print_spans(spans: dict, top: int = 15) -> None:
    print(f"  {'span (one pass)':24} {'count':>7} {'total_s':>9} {'self_s':>9}")
    for span, stat in list(spans.items())[:top]:
        print(f"  {span:24} {stat['count']:7d} {stat['total_s']:9.3f}"
              f" {stat['self_s']:9.3f}")


def write_expected(name: str, seed: int, run: dict) -> Path:
    outputs = {d: row["outputs"]
               for d, row in run["untraced"]["designs"].items()}
    path = EXPECTED_DIR / f"{name}.seed{seed}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed,
                                "designs": outputs}, indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
    return path


def _run_seconds() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["run_seconds"]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Flow benchmark: end-to-end and per-layer cost of "
                    "`repro run` over fixed workloads.")
    parser.add_argument("--workload", action="append",
                        help=f"workload to run (repeatable; default all: "
                             f"{', '.join(WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=1,
                        help="stimulus and DDCG-profiling seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, round-robin, each in fresh "
                             "processes (default 1)")
    parser.add_argument("--write-expected", action="store_true",
                        help="rewrite expected/<workload>.seed<N>.json from "
                             "one pass instead of checking against it")
    parser.add_argument("--role", choices=("probe", "populate", "worker"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.role is not None:
        return _child_main(args)
    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"bench_flow: unknown workload {unknown[0]!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print("bench_flow: --repeat must be at least 1", file=sys.stderr)
        return 2
    if args.write_expected:
        seconds = 0.0  # one pass
    else:
        seconds = args.seconds if args.seconds is not None else _run_seconds()
    runs: dict[str, list[dict]] = {name: [] for name in names}
    try:
        for _ in range(args.repeat):
            for name in names:
                runs[name].append(measure(name, args.seed, seconds,
                                          bool(args.trace),
                                          args.write_expected))
    except BenchError as exc:
        print(f"bench_flow: {exc}", file=sys.stderr)
        return 1
    if args.write_expected:
        for name in names:
            path = write_expected(name, args.seed, runs[name][-1])
            print(f"wrote {path}", file=sys.stderr)
        return 0
    line, code = report(names, runs, bool(args.trace), args.seed, seconds)
    print(json.dumps(line))
    return code


if __name__ == "__main__":
    sys.exit(main())
