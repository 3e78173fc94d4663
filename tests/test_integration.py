"""Capstone integration tests: one benchmark per suite through everything.

For each design: structural calibration against the paper's Table I,
functional equivalence of every implementation style, the C1-C3
conversion constraints, timing closure, and the headline power ordering.
"""

import pytest
from dataclasses import replace

from repro.circuits import build, spec
from repro.convert import ClockSpec
from repro.flow import FlowOptions, run_flow
from repro.netlist import check
from repro.reporting.paper_data import TABLE1
from repro.sim import check_equivalent
from repro.timing import check_conversion_constraints
from repro.synth import synthesize
from repro.library import FDSOI28

DESIGNS = ["s1196", "des3"]


@pytest.fixture(scope="module", params=DESIGNS)
def implemented(request):
    name = request.param
    bench = spec(name)
    design = build(name)
    base = FlowOptions(period=bench.period, profile=bench.workload,
                       sim_cycles=50)
    results = {
        style: run_flow(design, replace(base, style=style))
        for style in ("ff", "ms", "3p", "pulsed")
    }
    return name, bench, design, results


def test_structural_calibration(implemented):
    name, _, design, results = implemented
    paper = TABLE1[name]
    assert len(design.flip_flops()) == paper.regs_ff
    assert results["3p"].stats.latches == paper.regs_3p


def test_all_netlists_wellformed(implemented):
    _, _, _, results = implemented
    for result in results.values():
        check(result.module)


def test_all_styles_equivalent(implemented):
    name, bench, design, results = implemented
    reference = ClockSpec.single(bench.period)
    for style, result in results.items():
        if style == "pulsed":
            continue  # needs cell delays post hold-fix; covered elsewhere
        report = check_equivalent(design, reference, result.module,
                                  result.clocks, n_cycles=40)
        assert report.equivalent, f"{name}/{style}: {report}"


def test_conversion_constraints_hold(implemented):
    name, bench, design, results = implemented
    mapped = synthesize(design, FDSOI28, clock_gating_style="gated").module
    report = check_conversion_constraints(
        mapped, results["3p"].module, results["3p"].clocks)
    assert report.ok, f"{name}: {report}"


def test_timing_met_everywhere(implemented):
    name, _, _, results = implemented
    for style, result in results.items():
        assert result.timing.ok, f"{name}/{style}: {result.timing}"


def test_headline_power_ordering(implemented):
    name, _, _, results = implemented
    # The paper's claim: 3-phase beats both baselines in total power,
    # led by the clock group.
    assert results["3p"].power.total < results["ms"].power.total, name
    assert (results["3p"].power.clock.total
            < results["ff"].power.clock.total), name


def test_runtime_recorded(implemented):
    from repro.reporting.runtime import counts_toward_flow, flow_seconds

    _, _, _, results = implemented
    p3 = results["3p"]
    for step in ("synth", "ilp", "convert", "cg", "pnr", "sim"):
        assert p3.stage_record(step) is not None, step
    assert set(p3.physical.runtime) == {"place", "cts", "route"}
    counted = {}
    for style in ("ff", "3p"):
        records = [r for r in results[style].stages
                   if counts_toward_flow(r.stage)]
        assert flow_seconds(results[style]) == sum(r.run_s for r in records)
        counted[style] = {r.stage for r in records}
    assert counted["ff"] == {"synth", "hold_fix", "pnr", "sta", "sim"}
    assert counted["3p"] > counted["ff"] | {"ilp", "convert", "cg"}
