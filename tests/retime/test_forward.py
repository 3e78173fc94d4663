"""Modified retiming tests (Sec. IV-C)."""

import pytest

from repro.circuits.linear import linear_pipeline
from repro.circuits.random_logic import random_sequential_circuit
from repro.convert import ClockSpec, convert_to_three_phase
from repro.library.fdsoi28 import FDSOI28
from repro.netlist import check, collect_stats
from repro.retime import retime_forward
from repro.sim import check_equivalent
from repro.synth import synthesize
from repro.timing import analyze, minimum_period


def tight_pipeline():
    """A pipeline whose un-retimed 3-phase version misses timing."""
    module = linear_pipeline(6, width=4, logic_depth=10, seed=3)
    mapped = synthesize(module, FDSOI28).module
    pmin = minimum_period(mapped, ClockSpec.single, 50, 5000)
    period = pmin * 1.05
    return module, mapped, convert_to_three_phase(mapped, FDSOI28,
                                                  period=period), period


class TestTimingDriven:
    def test_fixes_setup_at_ff_period(self):
        _, _, result, period = tight_pipeline()
        before = analyze(result.module, result.clocks)
        assert not before.ok  # premise: retiming is actually needed
        rr = retime_forward(result.module, result.clocks, FDSOI28)
        assert rr.moves > 0
        assert rr.timing_after.ok, str(rr.timing_after)
        check(result.module)

    def test_only_p2_latches_move(self):
        _, mapped, result, _ = tight_pipeline()
        retime_forward(result.module, result.clocks, FDSOI28)
        # C1: original FF positions still latched on their assigned phase.
        for ff in mapped.flip_flops():
            inst = result.module.instances[ff.name]
            assert inst.cell.op == "DLATCH"
            assert inst.attrs["phase"] in ("p1", "p3")
        # every moved latch is on p2
        for inst in result.module.latches():
            if inst.attrs.get("role") == "retimed":
                assert inst.attrs["phase"] == "p2"

    def test_behaviour_preserved(self):
        original, _, result, _ = tight_pipeline()
        retime_forward(result.module, result.clocks, FDSOI28)
        report = check_equivalent(
            original, ClockSpec.single(1000.0),
            result.module, ClockSpec.default_three_phase(1000.0),
            n_cycles=50,
        )
        assert report.equivalent, str(report)

    def test_initial_values_recomputed(self):
        # INV chain: moving a latch with init v across an inverter must
        # yield init 1-v.
        original, _, result, _ = tight_pipeline()
        rr = retime_forward(result.module, result.clocks, FDSOI28)
        assert rr.moves > 0
        for inst in result.module.latches():
            assert inst.attrs.get("init") in (0, 1)

    def test_noop_when_timing_already_met(self):
        module = linear_pipeline(4, width=2, logic_depth=3, seed=5)
        mapped = synthesize(module, FDSOI28).module
        result = convert_to_three_phase(mapped, FDSOI28, period=4000.0)
        rr = retime_forward(result.module, result.clocks, FDSOI28,
                            area_pass=False)
        assert rr.moves == 0
        assert rr.timing_before.ok


class TestRandomCircuits:
    @pytest.mark.parametrize("seed", range(4))
    def test_retiming_preserves_random_circuits(self, seed):
        module = random_sequential_circuit(seed + 900, n_ffs=10, n_gates=50,
                                           feedback=0.3)
        mapped = synthesize(module, FDSOI28).module
        result = convert_to_three_phase(mapped, FDSOI28, period=600.0)
        rr = retime_forward(result.module, result.clocks, FDSOI28)
        check(result.module)
        report = check_equivalent(
            module, ClockSpec.single(2000.0),
            result.module, ClockSpec.default_three_phase(2000.0),
            n_cycles=50,
        )
        assert report.equivalent, f"seed {seed}: {report}"

    def test_latch_count_accounting(self):
        _, _, result, _ = tight_pipeline()
        before = collect_stats(result.module).latches
        rr = retime_forward(result.module, result.clocks, FDSOI28)
        after = collect_stats(result.module).latches
        assert after == before + rr.latches_added - rr.latches_removed


class TestBalanceMode:
    def test_balance_equalizes_and_preserves(self):
        from repro.retime.forward import _downstream_delay, _upstream_delay

        original = linear_pipeline(6, width=4, logic_depth=8, seed=21)
        mapped = synthesize(original, FDSOI28).module
        pmin = minimum_period(mapped, ClockSpec.single, 50, 8000)
        result = convert_to_three_phase(mapped, FDSOI28, period=pmin * 1.15)
        rr = retime_forward(result.module, result.clocks, FDSOI28,
                            area_pass=False, balance=True)
        assert rr.moves > 0
        assert rr.timing_after.ok
        check(result.module)
        # the followers moved off their stems: none still directly fed by
        # its leading latch on EVERY path... at minimum, splits exist.
        up = _upstream_delay(result.module)
        down = _downstream_delay(result.module)
        imbalance = []
        for latch in result.module.latches():
            if latch.attrs.get("phase") != "p2":
                continue
            imbalance.append(down[latch.net_of("Q")] - up[latch.net_of("D")])
        # balanced: no p2 latch has a grossly one-sided split
        assert max(imbalance) < pmin
        report = check_equivalent(
            original, ClockSpec.single(2000.0),
            result.module, ClockSpec.default_three_phase(2000.0),
            n_cycles=40,
        )
        assert report.equivalent, str(report)

    def test_balance_improves_variation_headroom(self):
        from repro.timing.corners import sigma_tolerance

        mapped = synthesize(linear_pipeline(6, width=4, logic_depth=8,
                                            seed=21), FDSOI28).module
        pmin = minimum_period(mapped, ClockSpec.single, 50, 8000)
        period = pmin * 1.15
        lazy = convert_to_three_phase(mapped, FDSOI28, period=period)
        retime_forward(lazy.module, lazy.clocks, FDSOI28, area_pass=False)
        balanced = convert_to_three_phase(mapped, FDSOI28, period=period)
        retime_forward(balanced.module, balanced.clocks, FDSOI28,
                       area_pass=False, balance=True)
        lazy_tol = sigma_tolerance(lazy.module, lazy.clocks, samples=3)
        bal_tol = sigma_tolerance(balanced.module, balanced.clocks,
                                  samples=3)
        assert bal_tol >= lazy_tol


class TestReanalysis:
    """The final report is re-derived only when a pass changed the module."""

    @pytest.mark.parametrize("balance", [False, True], ids=["area", "balance"])
    def test_timing_after_describes_the_final_module(self, balance):
        _, _, result, _ = tight_pipeline()
        rr = retime_forward(result.module, result.clocks, FDSOI28,
                            balance=balance)
        assert rr.timing_after == analyze(result.module, result.clocks)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuits_final_report(self, seed):
        module = random_sequential_circuit(seed + 900, n_ffs=10, n_gates=50,
                                           feedback=0.3)
        mapped = synthesize(module, FDSOI28).module
        result = convert_to_three_phase(mapped, FDSOI28, period=600.0)
        rr = retime_forward(result.module, result.clocks, FDSOI28,
                            balance=True)
        assert rr.timing_after == analyze(result.module, result.clocks)

    def test_pass_without_moves_is_not_reanalyzed(self, monkeypatch):
        from repro.retime import forward

        calls = []

        def counted(module, clocks, **kwargs):
            calls.append(module.name)
            return analyze(module, clocks, **kwargs)

        monkeypatch.setattr(forward, "analyze", counted)
        monkeypatch.setattr(forward, "_balance_moves", lambda *args: None)
        monkeypatch.setattr(forward, "_area_moves", lambda *args: None)
        module = linear_pipeline(4, width=2, logic_depth=3, seed=5)
        mapped = synthesize(module, FDSOI28).module
        result = convert_to_three_phase(mapped, FDSOI28, period=4000.0)
        rr = retime_forward(result.module, result.clocks, FDSOI28,
                            balance=True)
        assert rr.moves == 0
        assert len(calls) == 1  # timing_before only
        assert rr.timing_after is rr.timing_before
