"""Regeneration of the Sec. V runtime comparison.

The paper: the 3-phase flow costs on average +204% runtime vs FF and +44%
vs M-S; the ILP is at most 27 s and < 1% of the flow; CTS takes ~3x (three
trees) and routing +35%.  The same ratios are computed here from the
pipeline's telemetry: flow and ILP times from each
:class:`~repro.flow.pipeline.StageRecord`'s ``run_s`` (the producer's
seconds, replayed on a cache hit), CTS and routing times from P&R's own
step timers in ``result.physical.runtime``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.flow import DesignResult, StyleComparison
from repro.reporting.paper_data import RUNTIME_CLAIMS

#: Stage-name patterns left out of the flow time: the lint gates (this
#: reproduction's checks, not steps of the paper's flow), the FF
#: baseline's trivial clock spec, and power, which the paper's flow
#: never timed separately.
UNCOUNTED_STAGES = ("lint_*", "clocks", "power")


def counts_toward_flow(stage: str) -> bool:
    """Whether ``stage``'s ``run_s`` is part of the Sec. V flow time."""
    return not any(fnmatchcase(stage, pattern)
                   for pattern in UNCOUNTED_STAGES)


def flow_seconds(result: DesignResult) -> float:
    """The Sec. V flow time of one style run."""
    return sum(record.run_s for record in result.stages
               if counts_toward_flow(record.stage))


def _ilp_seconds(result: DesignResult) -> float:
    record = result.stage_record("ilp")
    return record.run_s if record is not None else 0.0


def _pnr_seconds(result: DesignResult, step: str) -> float:
    """P&R step ``step`` (``place``/``cts``/``route``), from its timers."""
    if result.physical is None:
        return 0.0
    return result.physical.runtime.get(step, 0.0)


def _cache_hits(result: DesignResult) -> int:
    return sum(1 for record in result.stages if record.cache_hit)


@dataclass
class RuntimeSummary:
    flow_vs_ff_percent: float
    flow_vs_ms_percent: float
    ilp_share: float
    ilp_max_seconds: float
    cts_ratio_vs_ff: float
    route_vs_ff_percent: float
    per_design: dict[str, dict[str, float]]


def summarize_runtime(results: dict[str, StyleComparison]) -> RuntimeSummary:
    per_design: dict[str, dict[str, float]] = {}
    overhead_ff: list[float] = []
    overhead_ms: list[float] = []
    ilp_shares: list[float] = []
    ilp_abs: list[float] = []
    cts_ratios: list[float] = []
    route_overheads: list[float] = []

    for name, cmp in results.items():
        ff_rt = flow_seconds(cmp.ff)
        ms_rt = flow_seconds(cmp.ms)
        p3 = cmp.three_phase
        p3_rt = flow_seconds(p3)
        ilp = _ilp_seconds(p3)
        cts_ff = _pnr_seconds(cmp.ff, "cts")
        cts_3p = _pnr_seconds(p3, "cts")
        per_design[name] = {
            "ff": ff_rt, "ms": ms_rt, "3p": p3_rt,
            "ilp": ilp,
            "cts_ff": cts_ff,
            "cts_3p": cts_3p,
            "cache_hits": float(
                _cache_hits(cmp.ff) + _cache_hits(cmp.ms) + _cache_hits(p3)
            ),
        }
        if ff_rt > 0:
            overhead_ff.append(100.0 * (p3_rt - ff_rt) / ff_rt)
        if ms_rt > 0:
            overhead_ms.append(100.0 * (p3_rt - ms_rt) / ms_rt)
        if p3_rt > 0:
            ilp_shares.append(ilp / p3_rt)
        ilp_abs.append(ilp)
        if cts_ff > 0:
            cts_ratios.append(cts_3p / cts_ff)
        route_ff = _pnr_seconds(cmp.ff, "route")
        if route_ff > 0:
            route_overheads.append(
                100.0 * (_pnr_seconds(p3, "route") - route_ff) / route_ff
            )

    def avg(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return RuntimeSummary(
        flow_vs_ff_percent=avg(overhead_ff),
        flow_vs_ms_percent=avg(overhead_ms),
        ilp_share=avg(ilp_shares),
        ilp_max_seconds=max(ilp_abs) if ilp_abs else 0.0,
        cts_ratio_vs_ff=avg(cts_ratios),
        route_vs_ff_percent=avg(route_overheads),
        per_design=per_design,
    )


def format_runtime(summary: RuntimeSummary) -> str:
    claims = RUNTIME_CLAIMS
    lines = [
        "Sec. V runtime comparison (measured | paper claim)",
        f"  3-P flow vs FF:   +{summary.flow_vs_ff_percent:6.1f}% | "
        f"+{claims['flow_vs_ff_percent']:.0f}%",
        f"  3-P flow vs M-S:  +{summary.flow_vs_ms_percent:6.1f}% | "
        f"+{claims['flow_vs_ms_percent']:.0f}%",
        f"  ILP share:         {100 * summary.ilp_share:6.2f}% | < 1%",
        f"  ILP max:           {summary.ilp_max_seconds:6.2f} s | <= 27 s",
        f"  CTS ratio vs FF:   {summary.cts_ratio_vs_ff:6.2f}x | ~3x",
        f"  route vs FF:      +{summary.route_vs_ff_percent:6.1f}% | +35%",
    ]
    for name, row in summary.per_design.items():
        cached = int(row.get("cache_hits", 0.0))
        note = f"  cached stages {cached}" if cached else ""
        lines.append(
            f"    {name:10} ff {row['ff']:7.2f}s  ms {row['ms']:7.2f}s  "
            f"3p {row['3p']:7.2f}s  (ilp {row['ilp']:6.3f}s){note}"
        )
    return "\n".join(lines)


def summarize_trace(spans, top: int = 15) -> dict:
    """Profile of a span trace as plain data (one source for text & JSON).

    ``spans`` is a list of :class:`~repro.obs.tracer.SpanRecord` -- either
    live from a tracer or loaded back from an exported file via
    :func:`repro.obs.summary.load_spans`.  Both renderings of ``repro
    trace`` (``--format text`` and ``--format json``) come from this
    one dict, so they can never drift apart.
    """
    from repro.obs.summary import aggregate, children_by_stage

    summary: dict = {"spans": len(spans), "top": [], "stages": {}}
    if not spans:
        return summary
    for stat in aggregate(spans)[:top]:
        summary["top"].append({
            "name": stat.name,
            "count": stat.count,
            "self_s": round(stat.self_total, 6),
            "total_s": round(stat.total, 6),
            "cpu_s": round(stat.cpu_total, 6),
            "mean_ms": round(1e3 * stat.mean, 4),
        })
    for stage, children in children_by_stage(spans).items():
        hot = aggregate(children)[0]
        summary["stages"][stage] = {
            "sub_spans": len(children),
            "hottest": {
                "name": hot.name,
                "count": hot.count,
                "self_s": round(hot.self_total, 6),
            },
        }
    return summary


def format_trace_summary(spans, top: int = 15) -> str:
    """Text rendering of :func:`summarize_trace` (same data, human shape)."""
    summary = summarize_trace(spans, top=top)
    if not summary["spans"]:
        return "trace summary: no spans recorded"

    lines = [
        f"trace summary: {summary['spans']} spans",
        f"  {'span':24} {'count':>6} {'self(s)':>9} {'total(s)':>9} "
        f"{'cpu(s)':>8} {'mean(ms)':>9}",
    ]
    for row in summary["top"]:
        lines.append(
            f"  {row['name']:24} {row['count']:6d} {row['self_s']:9.4f} "
            f"{row['total_s']:9.4f} {row['cpu_s']:8.4f} "
            f"{row['mean_ms']:9.3f}"
        )

    if summary["stages"]:
        lines.append("  per-stage drill-down (hottest sub-span per stage):")
        for stage in sorted(summary["stages"]):
            info = summary["stages"][stage]
            hot = info["hottest"]
            lines.append(
                f"    {stage:16} {info['sub_spans']:4d} sub-spans; "
                f"hottest {hot['name']} ({hot['count']}x, "
                f"self {hot['self_s']:.4f}s)"
            )
    return "\n".join(lines)


def format_stage_records(result: DesignResult) -> str:
    """Render one run's pipeline telemetry (one line per stage)."""
    lines = [
        f"pipeline telemetry: {result.name} [{result.style}]",
        f"  {'stage':10} {'wall(s)':>9} {'cache':>6}  in->out digest",
    ]
    for record in result.stages:
        hit = "hit" if record.cache_hit else "miss"
        line = (
            f"  {record.stage:10} {record.wall_time:9.4f} {hit:>6}  "
            f"{record.input_digest} -> {record.output_digest}"
        )
        events = record.summary.get("sim_events")
        if events is not None:
            rate = float(record.summary.get("sim_events_per_s", 0.0))
            line += f"  sim {events} ev @ {rate / 1e6:.2f} Mev/s"
        findings = record.summary.get("findings")
        if findings is not None:
            line += f"  lint {findings} finding(s)"
        peak = record.summary.get("peak_rss_bytes")
        if peak is not None:
            line += f"  rss {float(peak) / 1e6:.1f}MB"
            cpu = record.summary.get("cpu_util")
            if cpu is not None:
                line += f" cpu {100.0 * float(cpu):.0f}%"
        lines.append(line)
    return "\n".join(lines)
