"""Command-line interface: regenerate the paper's experiments.

Examples::

    repro list
    repro run s5378                 # one design, all three styles
    repro table1 --suite iscas
    repro table2 --designs s1196 des3 plasma
    repro fig4 --cycles 60
    repro runtime --suite cep
    repro table1 --designs s1488 --jobs 4 --executor process --cache-dir .cache
    repro cache stats --dir .cache
    repro convert --bench path/to/circuit.bench --out out.v --period 1000
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from repro.circuits import build, names, spec
from repro.flow import STYLES, FlowOptions, compare_styles
from repro.reporting import (
    format_fig4,
    format_runtime,
    format_table1,
    format_table2,
    run_fig4,
    run_suite,
    summarize_runtime,
)


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class _UsageError(Exception):
    """A bad argument value (an unregistered design, an export path
    that cannot be written ...).  Deliberately not an argparse error: it passes
    through ``parse_args`` so :func:`main` reports it in one line and
    returns 2 before any work starts."""


def _positive_int(flag: str):
    """An argument type for ``flag``: an integer of at least 1."""
    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise _UsageError(
                f"argument {flag}: invalid int value: {text!r}") from None
        if value < 1:
            raise _UsageError(
                f"argument {flag}: must be a positive integer, got {value}")
        return value
    return check


def _non_negative(flag: str, kind: type = float, most: float = math.inf):
    """An argument type for ``flag``: a finite ``kind`` from 0 to
    ``most``."""
    def check(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise _UsageError(
                f"argument {flag}: invalid {kind.__name__} value: "
                f"{text!r}") from None
        if not (math.isfinite(value) and 0 <= value <= most):
            bound = ("of at least 0" if most == math.inf
                     else f"from 0 to {most}")
            raise _UsageError(
                f"argument {flag}: must be a finite number {bound}, "
                f"got {text}")
        return value
    return check


def _cycles(text: str) -> int:
    """A simulation budget: it must outlast the flow's activity warm-up."""
    value = _positive_int("--cycles")(text)
    warmup = FlowOptions.warmup_cycles
    if value <= warmup:
        raise _UsageError(
            f"argument --cycles: must exceed the {warmup}-cycle warm-up, "
            f"got {value}")
    return value


def _design(text: str) -> str:
    if text not in names():
        raise _UsageError(
            f"unknown benchmark {text!r}; available: {', '.join(names())}")
    return text


def _output_file(flag: str):
    """An argument type for a file the run writes at its end: its
    directory must exist, so a typo fails now, not after the flow."""
    def check(text: str) -> str:
        folder = os.path.dirname(text) or "."
        if not os.path.isdir(folder):
            raise _UsageError(
                f"argument {flag}: no such directory: {folder}")
        if not os.access(folder, os.W_OK):
            raise _UsageError(
                f"argument {flag}: directory not writable: {folder}")
        if os.path.isdir(text):
            raise _UsageError(f"argument {flag}: {text} is a directory")
        return text
    return check


def _cache_dir(text: str) -> str:
    """A ``--cache-dir``: a directory, or a path one can be made at.
    Checked without creating anything (the command's cache makes it),
    so a path that names a file fails before any flow work."""
    if os.path.lexists(text):
        if not os.path.isdir(text):
            raise _UsageError(
                f"argument --cache-dir: {text} exists and is not a directory")
        return text
    ancestor = os.path.dirname(os.path.abspath(text))
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise _UsageError(
            f"argument --cache-dir: cannot create {text}: Not a directory")
    if not os.access(ancestor, os.W_OK | os.X_OK):
        raise _UsageError(
            f"argument --cache-dir: cannot create {text}: Permission denied")
    return text


def _interval(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise _UsageError(
            "argument --monitor-interval: must be a positive number of "
            f"seconds, got {text!r}")
    return value


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int("--jobs"), default=1,
                        metavar="N",
                        help="run up to N style flows concurrently "
                             "(default 1: sequential)")
    parser.add_argument("--executor", choices=("serial", "thread", "process"),
                        default=None,
                        help="execution backend (default: serial for "
                             "--jobs 1, thread otherwise; process sidesteps "
                             "the GIL and shares work via the disk cache)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        type=_cache_dir,
                        help="persistent on-disk artifact cache: a warm "
                             "second run against the same DIR skips "
                             "synthesis and simulation entirely")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE", default=None,
                        type=_output_file("--trace"),
                        help="write a Chrome trace_event file "
                             "(load in Perfetto / chrome://tracing)")
    parser.add_argument("--obs-jsonl", metavar="FILE", default=None,
                        type=_output_file("--obs-jsonl"),
                        help="write spans and metrics as JSON lines")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        dest="metrics_out", type=_output_file("--metrics-out"),
                        help="write the run's metrics as Prometheus text "
                             "exposition (same families the serve daemon's "
                             "/metricsz exposes)")
    parser.add_argument("--monitor", action="store_true",
                        help="sample RSS/CPU/GC in the background and "
                             "attribute peaks to pipeline stages")
    parser.add_argument("--monitor-interval", type=_interval, default=None,
                        metavar="S", dest="monitor_interval",
                        help="resource sampling interval in seconds "
                             "(implies --monitor; default 0.05)")


def _with_observability(args: argparse.Namespace, body) -> int:
    """Run ``body()`` under a tracer when an --obs flag asks for one.

    ``--trace``/``--obs-jsonl`` export the trace, ``--metrics-out``
    renders its metrics as Prometheus text, and ``--monitor`` (or an
    explicit ``--monitor-interval``) attaches a background resource
    sampler whose peaks land in stage records and all three exports.
    """
    trace_path = getattr(args, "trace", None)
    jsonl_path = getattr(args, "obs_jsonl", None)
    metrics_path = getattr(args, "metrics_out", None)
    monitor_interval = getattr(args, "monitor_interval", None)
    monitor = getattr(args, "monitor", False) or monitor_interval is not None
    if not any((trace_path, jsonl_path, metrics_path, monitor)):
        return body()
    import contextlib

    from repro import obs
    from repro.obs.export import write_chrome_trace, write_jsonl

    tracer = obs.Tracer()
    try:
        with obs.use_tracer(tracer):
            with (obs.monitored(tracer, interval_s=monitor_interval)
                  if monitor else contextlib.nullcontext()):
                status = body()
    finally:
        if trace_path:
            write_chrome_trace(tracer, trace_path)
            _progress(f"wrote Chrome trace: {trace_path} "
                      f"({len(tracer.spans)} spans)")
        if jsonl_path:
            write_jsonl(tracer, jsonl_path)
            _progress(f"wrote JSONL trace: {jsonl_path}")
        if metrics_path:
            from repro.obs.promexpo import write_metrics
            write_metrics(tracer, metrics_path)
            _progress(f"wrote metrics exposition: {metrics_path}")
    return status


def _add_gate_args(parser: argparse.ArgumentParser, verb: str,
                   findings: str) -> None:
    """The flags ``repro lint`` and ``repro verify`` share."""
    parser.add_argument("design", type=_design)
    parser.add_argument("--style", choices=STYLES + ("all",),
                        default="3p",
                        help=f"which conversion style(s) to {verb} "
                             f"(default 3p)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default text)")
    parser.add_argument("--fail-on", choices=("info", "warn", "error"),
                        default="error", dest="fail_on",
                        help=f"exit 1 when {findings} reach this severity "
                             f"(default error)")


def _add_selection_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--suite", choices=("iscas", "cep", "cpu"),
                        help="limit to one benchmark suite")
    parser.add_argument("--designs", nargs="+", metavar="NAME", type=_design,
                        help="explicit design list")
    parser.add_argument("--cycles", type=_cycles, default=None,
                        help="override measurement cycles (smaller = faster)")
    _add_sim_lanes_arg(parser)
    _add_jobs_arg(parser)


def _flow_option_overrides(args: argparse.Namespace) -> dict:
    """Non-default FlowOptions fields requested on the command line."""
    overrides = {}
    if getattr(args, "sim_lanes", 1) > 1:
        overrides["sim_lanes"] = args.sim_lanes
    return overrides


def _add_sim_lanes_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sim-lanes", type=_positive_int("--sim-lanes"), default=1,
        metavar="N",
        dest="sim_lanes",
        help="stimulus vectors per kernel pass in the activity-collecting "
             "stages (1 = single-vector engines, up to 64 = bit-parallel "
             "batch engine; see docs/sim_kernel.md)")


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in names():
        bench = spec(name)
        print(f"{name:10} suite={bench.suite:5} ffs={bench.structure.n_ffs:6d} "
              f"period={bench.period:.0f}ps workload={bench.workload}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    return _with_observability(args, lambda: _run_one(args))


def _run_one(args: argparse.Namespace) -> int:
    bench = spec(args.design)
    module = build(args.design)
    options = FlowOptions(
        period=bench.period,
        profile=bench.workload,
        sim_cycles=args.cycles or bench.sim_cycles,
        sim_lanes=args.sim_lanes,
    )
    comparison = compare_styles(module, options, jobs=args.jobs,
                                executor=args.executor,
                                cache_dir=args.cache_dir)
    _report_run({args.design: comparison})
    row = comparison.table_row()
    print(f"design {args.design} ({bench.suite}) @ {bench.period:.0f} ps")
    print(f"  registers: {row['regs']}  "
          f"(save vs 2xFF {row['reg_save_2ff']:.1f}%, "
          f"vs M-S {row['reg_save_ms']:.1f}%)")
    print(f"  area: " + ", ".join(
        f"{k}={v:.0f}" for k, v in row["area"].items()))
    for style in ("ff", "ms", "3p"):
        power = row["power"][style]
        print(f"  {style:3} power: clock {power['clock']:.4f} "
              f"seq {power['seq']:.4f} comb {power['comb']:.4f} "
              f"total {power['total']:.4f} mW")
    print(f"  3-P total power saving: vs FF "
          f"{row['power_save_ff']['total']:.1f}%, "
          f"vs M-S {row['power_save_ms']['total']:.1f}%")
    return 0


def _report_run(results) -> None:
    """Stage cache totals over a suite's results ("N hits, M misses"),
    then one ``warning:`` line naming every (design, style) row whose
    post-P&R timing fails setup, with its WNS.  Both go to stderr, so
    the tables on stdout stay as they are.

    The totals are counted from the per-stage :class:`StageRecord`
    telemetry, which survives the process-executor boundary; a warm
    --cache-dir rerun therefore reports ``0 misses`` (what the CI smoke
    asserts).
    """
    hits = misses = 0
    failing = []
    for name, row in results.items():
        for style in ("ff", "ms", "3p"):
            result = row.result(style)
            hits += sum(record.cache_hit for record in result.stages)
            misses += sum(not record.cache_hit for record in result.stages)
            if not result.timing.setup_ok:
                failing.append(f"{name}/{style} WNS "
                               f"{result.timing.worst_setup_slack:.0f} ps")
    _progress(f"stage cache: {hits} hits, {misses} misses")
    if failing:
        _progress("warning: setup fails after P&R: " + ", ".join(failing))


def _run_selected(args: argparse.Namespace):
    overrides = _flow_option_overrides(args)
    options = FlowOptions(**overrides) if overrides else None
    results = run_suite(
        suite=args.suite,
        designs=args.designs,
        sim_cycles=args.cycles,
        progress=_progress,
        options=options,
        jobs=args.jobs,
        executor=args.executor,
        cache_dir=args.cache_dir,
    )
    _report_run(results)
    return results


def _cmd_table1(args: argparse.Namespace) -> int:
    def body() -> int:
        print(format_table1(_run_selected(args)))
        return 0
    return _with_observability(args, body)


def _cmd_table2(args: argparse.Namespace) -> int:
    def body() -> int:
        print(format_table2(_run_selected(args)))
        return 0
    return _with_observability(args, body)


def _cmd_runtime(args: argparse.Namespace) -> int:
    def body() -> int:
        results = _run_selected(args)
        print(format_runtime(summarize_runtime(results)))
        from repro import obs
        tracer = obs.get_tracer()
        if tracer is not None and tracer.spans:
            from repro.reporting import format_trace_summary
            print()
            print(format_trace_summary(tracer.spans))
        return 0
    return _with_observability(args, body)


def _run_gates(args: argparse.Namespace, stages, collect, render, noun: str,
               cache, **options) -> int:
    """The shared body of ``repro lint`` and ``repro verify``.

    Runs the ``stages(style)`` chain of every requested style against
    one ``cache`` (so synthesis is shared), with the benchmark's flow
    options plus ``options``; gathers ``collect(ctx)`` results, prints
    them with ``render[args.format]``, and returns the CLI contract's
    exit code (see docs/verify.md): 0 clean, 1 when findings reach
    ``--fail-on``.  The lint gates run with ``fail_on`` disabled: they
    report, the CLI decides.
    """
    from repro.flow import Pipeline

    bench = spec(args.design)
    base = FlowOptions(period=bench.period, profile=bench.workload,
                       lint_fail_on=None, **options)
    module = build(args.design)
    styles = STYLES if args.style == "all" else (args.style,)
    results = []
    for style in styles:
        ctx = Pipeline(stages(style)).run(
            module.copy(), replace(base, style=style), cache=cache)
        results.extend(collect(ctx))
    print(render[args.format](args.design, results))
    failed = sum(r.count_at_least(args.fail_on) for r in results)
    if failed:
        _progress(f"{args.command}: {failed} {noun} at/above "
                  f"--fail-on {args.fail_on}")
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return _with_observability(args, lambda: _lint_one(args))


def _lint_one(args: argparse.Namespace) -> int:
    from repro.flow import ArtifactCache, build_lint_stages
    from repro.lint import (
        apply_waivers,
        format_findings_json,
        format_findings_text,
        load_waivers,
    )

    waivers = ()
    if args.waivers:
        try:
            waivers = load_waivers(args.waivers)
        except ValueError as exc:
            _progress(f"error: {exc}")
            return 2

    def collect(ctx):
        return [apply_waivers(ctx.artifacts[record.stage], waivers)
                for record in ctx.records
                if record.stage.startswith("lint_")
                and ctx.artifacts.get(record.stage) is not None]

    return _run_gates(
        args, build_lint_stages, collect,
        {"text": format_findings_text, "json": format_findings_json},
        "finding(s)", ArtifactCache())


def _cmd_verify(args: argparse.Namespace) -> int:
    return _with_observability(args, lambda: _verify_one(args))


def _verify_one(args: argparse.Namespace) -> int:
    from repro.flow import ArtifactCache
    from repro.flow.diskcache import DiskCache
    from repro.flow.pipeline import build_verify_stages
    from repro.verify import format_verify_json, format_verify_text

    def collect(ctx):
        result = ctx.artifacts.get("verify")
        return [result] if result is not None else []

    disk = DiskCache(args.cache_dir) if args.cache_dir else None
    # one cache shares synthesis and, on disk, the per-cone verdicts
    return _run_gates(
        args, build_verify_stages, collect,
        {"text": format_verify_text, "json": format_verify_json},
        "cone(s)", ArtifactCache(disk=disk),
        verify=True, verify_fail_on=None,
        verify_conflict_budget=args.conflict_budget)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.summary import load_spans
    from repro.reporting import format_trace_summary, summarize_trace

    try:
        spans = load_spans(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.file}: {exc}", file=sys.stderr)
        return 1
    if not spans:
        print(f"{args.file}: no spans recorded", file=sys.stderr)
        return 1
    if args.format == "json":
        import json

        # same serializer the text path renders, so the two formats
        # cannot drift apart
        print(json.dumps(summarize_trace(spans, top=args.top), indent=2))
    else:
        print(format_trace_summary(spans, top=args.top))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or maintain a persistent on-disk artifact cache."""
    import json

    from repro.flow.diskcache import DiskCache

    # DiskCache creates its root, which a run wants; inspecting a
    # mistyped path must not turn it into an empty cache
    if not os.path.isdir(args.dir):
        _progress(f"error: no such cache directory: {args.dir}")
        return 2
    cache = DiskCache(args.dir)
    if args.action == "stats":
        stats = cache.stats()
        if args.format == "json":
            # the same serializer the serve daemon's /statsz uses, so
            # one parser covers both surfaces
            print(json.dumps(stats.to_dict(), indent=2))
            return 0
        print(f"cache {stats.root}: {stats.entries} entries, "
              f"{stats.bytes / 1e6:.2f} MB")
        for stage in sorted(stats.stages):
            n, size = stats.stages[stage]
            print(f"  {stage:10} {n:6d} entries {size / 1e6:10.2f} MB")
    elif args.action == "gc":
        report = cache.gc(max_age_s=args.max_age_hours * 3600.0,
                          dry_run=args.dry_run)
        verb = "would remove" if report.dry_run else "removed"
        print(f"cache {cache.root}: {verb} {report.entries} entries "
              f"({report.bytes / 1e6:.2f} MB) older than "
              f"{args.max_age_hours:g} h")
    elif args.action == "clear":
        report = cache.clear()
        print(f"cache {cache.root}: removed {report.entries} entries "
              f"({report.bytes / 1e6:.2f} MB)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the conversion-as-a-service daemon (see docs/serving.md)."""
    def body() -> int:
        from repro.flow.scheduler import JobScheduler
        from repro.serve import JobManager, run_server

        scheduler = JobScheduler(jobs=args.jobs, executor=args.executor,
                                 cache_dir=args.cache_dir)
        # --monitor-interval doubles as the per-job sampler cadence;
        # per-job monitoring is on by default (0.05 s).
        interval = args.monitor_interval
        manager = JobManager(scheduler, workers=args.workers,
                             queue_depth=args.queue_depth,
                             job_dir=args.job_dir,
                             monitor_interval=(0.05 if interval is None
                                               else interval))
        try:
            run_server(manager, host=args.host, port=args.port,
                       drain_timeout=args.drain_timeout, echo=_progress)
        finally:
            scheduler.close()
        return 0
    return _with_observability(args, body)


def _cmd_fig4(args: argparse.Namespace) -> int:
    result = run_fig4(sim_cycles=args.cycles, progress=_progress)
    print(format_fig4(result))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.convert import convert_to_three_phase
    from repro.library import FDSOI28
    from repro.netlist import bench as bench_io
    from repro.netlist import blif as blif_io
    from repro.netlist import check, verilog
    from repro.synth import synthesize

    try:
        if args.bench:
            module = bench_io.load(args.bench)
        else:
            module = blif_io.load(args.blif)
        mapped = synthesize(module, FDSOI28).module
        result = convert_to_three_phase(mapped, FDSOI28, period=args.period)
        check(result.module)
        verilog.dump(result.module, args.out)
    except (OSError, ValueError) as exc:
        # bad input: unreadable file, parse error, cycle, invalid netlist
        # (whose report lists one issue per line)
        _progress("error: " + str(exc).replace("\n", " "))
        return 2
    counts = result.assignment.phase_counts()
    print(f"converted {module.name}: {result.assignment.num_ffs} FFs -> "
          f"{result.assignment.total_latches} latches {counts}; "
          f"wrote {args.out}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.convert import ClockSpec, convert_to_three_phase
    from repro.library import FDSOI28
    from repro.synth import synthesize
    from repro.timing import minimum_period, optimize_schedule

    bench = spec(args.design)
    mapped = synthesize(build(args.design), FDSOI28,
                        clock_gating_style="gated").module
    result = convert_to_three_phase(mapped, FDSOI28, period=bench.period)
    default_min = minimum_period(
        result.module, ClockSpec.default_three_phase, 50, 4 * bench.period)
    opt = optimize_schedule(result.module, result.clocks,
                            hi=4 * bench.period)
    print(f"design {args.design} (paper period {bench.period:.0f} ps)")
    print(f"  default schedule minimum period: {default_min:8.1f} ps")
    print(f"  SMO-optimized schedule:          {opt.period:8.1f} ps "
          f"({opt.iterations} LP iterations)")
    print(f"  optimized edges: {opt}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Concatenate regenerated artifacts from benchmarks/out into one
    digest (the raw material of EXPERIMENTS.md)."""
    import pathlib

    out = pathlib.Path(args.dir)
    if not out.is_dir():
        print(f"no artifact directory {out}; run pytest benchmarks/ first",
              file=sys.stderr)
        return 1
    artifacts = sorted(out.glob("*.txt"))
    if not artifacts:
        print(f"{out} is empty; run pytest benchmarks/ --benchmark-only",
              file=sys.stderr)
        return 1
    for path in artifacts:
        print(f"==== {path.name} " + "=" * max(0, 60 - len(path.name)))
        print(path.read_text().rstrip())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Saving Power by Converting Flip-Flop "
                    "to 3-Phase Latch-Based Designs' (DATE 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark designs").set_defaults(
        func=_cmd_list)

    run = sub.add_parser("run", help="run one design in all three styles")
    run.add_argument("design", type=_design)
    run.add_argument("--cycles", type=_cycles, default=None)
    _add_sim_lanes_arg(run)
    _add_jobs_arg(run)
    _add_obs_args(run)
    run.set_defaults(func=_cmd_run)

    for cmd, func, help_text in (
        ("table1", _cmd_table1, "regenerate Table I (registers and area)"),
        ("table2", _cmd_table2, "regenerate Table II (power)"),
        ("runtime", _cmd_runtime, "regenerate the Sec. V runtime comparison"),
    ):
        p = sub.add_parser(cmd, help=help_text)
        _add_selection_args(p)
        _add_obs_args(p)
        p.set_defaults(func=func)

    lint = sub.add_parser(
        "lint",
        help="statically verify a design's netlists (phase legality, "
             "clock-gating safety, structure) across the flow's stages")
    _add_gate_args(lint, "lint", "findings")
    lint.add_argument("--waivers", metavar="FILE", default=None,
                      help="waiver file: 'rule-glob [where-glob]' per line; "
                           "waived findings are reported but don't fail")
    _add_obs_args(lint)
    lint.set_defaults(func=_cmd_lint)

    verify = sub.add_parser(
        "verify",
        help="formally prove a design's conversions equivalent to the FF "
             "reference (per-cone SAT miters; see docs/verify.md)")
    _add_gate_args(verify, "check", "cone findings")
    verify.add_argument("--conflict-budget",
                        type=_positive_int("--conflict-budget"),
                        default=200_000, metavar="N", dest="conflict_budget",
                        help="CDCL conflicts allowed per cone before it "
                             "reports as undecided (default 200000)")
    verify.add_argument("--cache-dir", metavar="DIR", default=None,
                        type=_cache_dir,
                        help="persistent cache: stage artifacts and "
                             "per-cone verdicts; a warm rerun discharges "
                             "every obligation with zero solver runs")
    _add_obs_args(verify)
    verify.set_defaults(func=_cmd_verify)

    trace = sub.add_parser(
        "trace",
        help="summarize a trace file (top spans by self-time, per stage)")
    trace.add_argument("file", help="Chrome trace or JSONL file "
                                    "written by --trace / --obs-jsonl")
    trace.add_argument("--top", type=_positive_int("--top"), default=15,
                       metavar="N",
                       help="show the N hottest span names (default 15)")
    trace.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (json emits the same summary "
                            "the text view renders)")
    trace.set_defaults(func=_cmd_trace)

    cache = sub.add_parser(
        "cache", help="inspect or maintain an on-disk artifact cache")
    cache.add_argument("action", choices=("stats", "gc", "clear"))
    cache.add_argument("--dir", required=True, metavar="DIR",
                       help="cache directory (the --cache-dir of the runs)")
    cache.add_argument("--max-age-hours",
                       type=_non_negative("--max-age-hours"),
                       default=168.0, metavar="H",
                       help="gc: drop entries older than H hours "
                            "(default 168 = one week)")
    cache.add_argument("--dry-run", action="store_true",
                       help="gc: report what would be evicted (entries "
                            "and bytes) without deleting anything")
    cache.add_argument("--format", choices=("text", "json"), default="text",
                       help="stats: output format (json matches the serve "
                            "daemon's /statsz cache block)")
    cache.set_defaults(func=_cmd_cache)

    serve = sub.add_parser(
        "serve",
        help="run the conversion-as-a-service HTTP daemon (submit jobs "
             "with POST /jobs; see docs/serving.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_non_negative("--port", int, 65535),
                       default=8437)
    serve.add_argument("--workers", type=_positive_int("--workers"), default=2,
                       metavar="N",
                       help="concurrent jobs drained from the queue "
                            "(default 2)")
    serve.add_argument("--queue-depth", type=_positive_int("--queue-depth"),
                       default=16, metavar="N",
                       help="max queued jobs before submissions get "
                            "429 (default 16)")
    serve.add_argument("--job-dir", metavar="DIR", default=None,
                       help="write one JSONL trace per job into DIR "
                            "(inspect with 'repro trace DIR/<id>.jsonl')")
    serve.add_argument("--drain-timeout",
                       type=_non_negative("--drain-timeout"),
                       default=None, metavar="S",
                       help="on SIGTERM, wait at most S seconds for "
                            "in-flight jobs (default: unbounded)")
    _add_jobs_arg(serve)
    _add_obs_args(serve)
    serve.set_defaults(func=_cmd_serve)

    fig4 = sub.add_parser("fig4", help="regenerate Fig. 4 (CPU workloads)")
    fig4.add_argument("--cycles", type=_cycles, default=None)
    fig4.set_defaults(func=_cmd_fig4)

    convert = sub.add_parser(
        "convert",
        help="convert an ISCAS89 .bench or BLIF file to 3-phase Verilog")
    source = convert.add_mutually_exclusive_group(required=True)
    source.add_argument("--bench", help="ISCAS89 .bench input")
    source.add_argument("--blif", help="BLIF input")
    convert.add_argument("--out", required=True)
    convert.add_argument("--period", type=_non_negative("--period"),
                         default=1000.0)
    convert.set_defaults(func=_cmd_convert)

    schedule = sub.add_parser(
        "schedule",
        help="SMO-optimal phase schedule for a converted benchmark")
    schedule.add_argument("design", type=_design)
    schedule.set_defaults(func=_cmd_schedule)

    report = sub.add_parser(
        "report", help="print all regenerated artifacts (benchmarks/out)")
    report.add_argument("--dir", default="benchmarks/out")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        _progress(f"error: {exc}")
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
