"""Soundness of the setup fixed point: departures stay in their window.

A register's departure is clamped to ``[-width, -setup]``, so a late
arrival is one setup violation on its edge rather than a late launch
that grows around every cycle.  The differential oracle below keeps a
copy of the unclamped fixed point with its 50-sweep cap: wherever that
one converged with setup met, the clamped analysis must report the very
same numbers; wherever it did not, the clamped analysis must fail setup.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.circuits import build, spec
from repro.convert import ClockSpec, convert_to_master_slave, convert_to_three_phase
from repro.library.fdsoi28 import FDSOI28
from repro.library.generic import GENERIC
from repro.netlist import Module
from repro.synth import synthesize
from repro.timing import (
    PI_SOURCE,
    PO_SINK,
    RegisterTiming,
    SeqEdge,
    TimingGraph,
    TimingReport,
    TimingViolation,
    analyze,
    extract_timing_graph,
    forward_shift,
    minimum_period,
)
from repro.timing.smo import effective_hold_gap
from repro.timing.sta import _SKIP_EVERY, _register_timings, _sweep_order


def ring(cell: str, clocks: tuple[str, ...]) -> Module:
    """Registers ``r0 -> r1 -> ... -> r0``, register i clocked by
    ``clocks[i]``; the timing tests supply the edge delays."""
    m = Module(f"{cell.lower()}_ring")
    for clock in dict.fromkeys(clocks):
        m.add_input(clock, is_clock=True)
    pin = "CK" if cell == "DFF" else "G"
    n = len(clocks)
    for i in range(n):
        m.add_net(f"q{i}")
    for i, clock in enumerate(clocks):
        m.add_instance(f"r{i}", GENERIC[cell],
                       {"D": f"q{(i - 1) % n}", pin: clock, "Q": f"q{i}"})
    return m


def ring_graph(delays: list[float]) -> TimingGraph:
    n = len(delays)
    return TimingGraph(
        registers=[f"r{i}" for i in range(n)],
        edges=[SeqEdge(f"r{i}", f"r{(i + 1) % n}", d, d)
               for i, d in enumerate(delays)])


class TestClampedDeparture:
    def test_ff_ring_with_one_slow_edge_has_one_violation(self):
        # r1 -> r2 takes 1.5 periods.  Unclamped, r2 would launch 500 ps
        # late and every later hop (900 ps) would push the lateness on
        # around the ring until the sweep cap; clamped, r2 departs at
        # its edge and the two fast hops meet setup.
        module = ring("DFF", ("clk",) * 3)
        clocks = ClockSpec.single(1000.0)
        graph = ring_graph([900.0, 1500.0, 900.0])
        _, converged = unclamped_reference(
            module, clocks, graph, _register_timings(module, clocks))
        assert not converged
        report = analyze(module, clocks, graph=graph)
        assert report.violations == [
            TimingViolation("setup", "r1", "r2", -501.0)]
        assert report.iterations <= 2
        assert report.worst_setup_slack == -501.0
        assert set(report.departures.values()) == {0.0}
        assert not report.setup_ok

    def test_latch_ring_departure_is_bounded(self):
        # Master/slave pair whose loop takes 1.4 periods: the lateness
        # gains 400 ps per turn, and the clamp stops it at -setup.
        module = ring("DLATCH", ("clkbar", "clk"))
        clocks = ClockSpec.master_slave(1000.0)
        graph = ring_graph([700.0, 700.0])
        timings = _register_timings(module, clocks)
        _, converged = unclamped_reference(module, clocks, graph, timings)
        assert not converged
        report = analyze(module, clocks, graph=graph)
        for name in ("r0", "r1"):
            t = timings[name]
            assert -t.width <= report.departures[name] <= -t.setup
        assert max(report.departures[n] for n in ("r0", "r1")) == -1.0
        assert not report.setup_ok
        assert report.iterations < 10
        assert report.worst_setup_slack > -500.0

    def test_loop_barely_over_budget_skips_its_climb(self):
        # The loop gains 1e-6 ps per turn: one turn per sweep, the climb
        # from -width to -setup would take about 5e8 sweeps.
        module = ring("DLATCH", ("clkbar", "clk"))
        clocks = ClockSpec.master_slave(1000.0)
        report = analyze(module, clocks,
                         graph=ring_graph([500.0000005, 500.0000005]))
        assert report.iterations < 2 * _SKIP_EVERY
        assert report.departures["r0"] == report.departures["r1"] == -1.0
        assert len(report.violations) == 2 and not report.setup_ok

    def test_fine_period_search_near_a_loop_limit_stays_cheap(self):
        # s1488's master-slave period is limited by a latch loop: a probe
        # d ps below the limit climbs for sweeps in proportion to 1/d
        # without the skip (55k at d = 2e-3 after gated-clock synthesis),
        # and this search probes within 1e-6 ps of it.
        mapped = synthesize(build("s1488"), FDSOI28).module
        ms = convert_to_master_slave(mapped, FDSOI28, period=1000.0).module
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            fine = minimum_period(ms, ClockSpec.master_slave, 50, 4000,
                                  tolerance=1e-6)
        coarse = minimum_period(ms, ClockSpec.master_slave, 50, 4000)
        assert coarse - 1.0 <= fine <= coarse
        sweeps = tracer.metrics.snapshot()["histograms"]["sta.sweeps"]
        assert sweeps["max"] < 3 * _SKIP_EVERY

    def test_latch_ring_that_fits_borrows_without_clamping(self):
        module = ring("DLATCH", ("clkbar", "clk"))
        clocks = ClockSpec.master_slave(1000.0)
        report = analyze(module, clocks, graph=ring_graph([700.0, 200.0]))
        assert report.ok
        assert report.departures["r1"] == pytest.approx(-300.0)
        assert report.max_borrowed > 0


# -- differential oracle -----------------------------------------------------

def unclamped_reference(
    module: Module,
    clocks: ClockSpec,
    graph: TimingGraph,
    timings: dict[str, RegisterTiming],
    max_iterations: int = 50,
) -> tuple[TimingReport, bool]:
    """The fixed point before the clamp: a late arrival launches late, and
    the iteration stops at ``max_iterations``.  Returns the report (with
    no pseudo-violation for a capped run) and whether it converged."""
    period = clocks.period
    timings = dict(timings)
    p1_like = clocks.phases[0].name
    timings[PI_SOURCE] = RegisterTiming(
        PI_SOURCE, p1_like, clocks.phase(p1_like).fall, 0.0, 0.0, 0.0)
    timings[PO_SINK] = RegisterTiming(PO_SINK, "", period, 0.0, 0.0, 0.0)
    report = TimingReport(period=period)

    departures = {name: -t.width for name, t in timings.items()}
    incoming: dict[str, list[tuple[str, float]]] = {}
    edge_shifts = []
    for edge in graph.edges:
        shift = forward_shift(
            period, timings[edge.src].capture, timings[edge.dst].capture)
        edge_shifts.append(shift)
        incoming.setdefault(edge.dst, []).append(
            (edge.src, edge.max_delay - shift))
    order = [name for name in _sweep_order(timings, graph)
             if name in incoming]

    converged = False
    for iteration in range(1, max_iterations + 1):
        report.iterations = iteration
        changed = False
        for name in order:
            arrival = max(departures[src] + constant
                          for src, constant in incoming[name])
            new_departure = max(-timings[name].width, arrival)
            if new_departure > departures[name] + 1e-9:
                departures[name] = new_departure
                changed = True
        if not changed:
            converged = True
            break
    report.departures = dict(departures)

    for edge, shift in zip(graph.edges, edge_shifts):
        src_t, dst_t = timings[edge.src], timings[edge.dst]
        arrival = departures[edge.src] + edge.max_delay - shift
        slack = -arrival - dst_t.setup
        report.worst_setup_slack = min(report.worst_setup_slack, slack)
        if slack < -1e-9:
            report.violations.append(
                TimingViolation("setup", edge.src, edge.dst, slack))
        borrowed = max(0.0, (arrival + shift) - (shift - dst_t.width))
        report.total_borrowed += borrowed
        report.max_borrowed = max(report.max_borrowed, borrowed)
        if edge.dst == PO_SINK or edge.src == PI_SOURCE:
            continue
        gap = effective_hold_gap(period, src_t, dst_t)
        hold_slack = edge.min_delay + gap - dst_t.hold
        report.worst_hold_slack = min(report.worst_hold_slack, hold_slack)
        if hold_slack < -1e-9:
            report.violations.append(
                TimingViolation("hold", edge.src, edge.dst, hold_slack))
    return report, converged


ISCAS_UP_TO_S38417 = ["s1196", "s1238", "s1423", "s1488", "s5378", "s9234",
                      "s13207", "s15850", "s35932", "s38417"]

#: the registry period, and tighter ones where some designs fail; each
#: style is also timed at its minimum period and 1 ps below it, where
#: the critical arrivals sit right at their setup edges
PERIOD_SCALES = (1.0, 0.45, 0.3, 0.2)


def styles(name: str):
    period = spec(name).period
    mapped = synthesize(build(name), FDSOI28).module
    yield "ff", mapped, ClockSpec.single
    yield ("ms", convert_to_master_slave(mapped, FDSOI28, period=period).module,
           ClockSpec.master_slave)
    yield ("3p", convert_to_three_phase(mapped, FDSOI28, period=period).module,
           ClockSpec.default_three_phase)


@pytest.mark.parametrize("name", ISCAS_UP_TO_S38417)
def test_clamp_matches_unclamped_fixed_point_where_setup_is_met(name):
    registry = spec(name).period
    outcomes = {"equal": 0, "failing": 0}
    for style, module, clocks_builder in styles(name):
        graph = extract_timing_graph(module)
        pmin = minimum_period(module, clocks_builder, 50, registry,
                              graph=graph)
        periods = [scale * registry for scale in PERIOD_SCALES]
        for period in periods + [pmin, pmin - 1]:
            clocks = clocks_builder(period)
            timings = _register_timings(module, clocks)
            new = analyze(module, clocks, graph=graph, timings=timings)
            ref, converged = unclamped_reference(module, clocks, graph, timings)
            where = f"{name}/{style} @ {period} ps"
            if converged and ref.setup_ok:
                assert new == ref, where
                outcomes["equal"] += 1
            else:
                assert new.setup_ok is False, where
                outcomes["failing"] += 1
    # the sweep covers both branches of the oracle on every design
    assert outcomes["equal"] and outcomes["failing"], outcomes


def test_skipped_turns_change_no_number(monkeypatch):
    """Just below s1488's loop-limited master-slave period the climbing
    loop is skipped ahead; the report must equal the one that sweeps
    every turn."""
    import repro.timing.sta as sta

    mapped = synthesize(build("s1488"), FDSOI28).module
    ms = convert_to_master_slave(mapped, FDSOI28, period=1000.0).module
    graph = extract_timing_graph(ms)
    limit = minimum_period(ms, ClockSpec.master_slave, 50, 4000,
                           tolerance=1e-6, graph=graph)
    skipped_any = False
    for below in (1e-3, 0.3, 1.0):
        clocks = ClockSpec.master_slave(limit - below)
        skipped = analyze(ms, clocks, graph=graph)
        with monkeypatch.context() as patch:
            patch.setattr(sta, "_SKIP_EVERY", 10**9)
            swept = analyze(ms, clocks, graph=graph)
        assert not skipped.setup_ok
        assert replace(skipped, iterations=swept.iterations) == swept
        skipped_any |= skipped.iterations < swept.iterations
    assert skipped_any
