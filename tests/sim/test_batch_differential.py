"""Differential tests: bit-parallel batch engine vs the solo engines.

Every lane of a :class:`~repro.sim.batch.BatchKernel` run must be
*bit-for-bit* identical -- sampled output streams, per-net toggle counts,
per-lane event counts -- to a single-vector run of the compiled kernel
(and, transitively, the reference engine) driven with that lane's
stimulus stream.  The sweep covers lanes in {1, 3, 64}, both solo
engines, s1488 plus fuzzed random netlists, the cell delay model,
mid-run ``reset_activity`` (activity warmup), and unit-delay circuits
whose event queues are dominated by same-time calendar buckets (any
ordering drift there shows up as diverging event counts or samples).
"""

import pytest

from repro.circuits import build
from repro.circuits.random_logic import random_sequential_circuit
from repro.convert import ClockSpec
from repro.library.generic import GENERIC
from repro.sim import (
    SimulationError,
    Simulator,
    derive_lane_seed,
    generate_batch_stimulus,
    run_batch_testbench,
    run_testbench,
)
from repro.sim.batch import MAX_LANES
from repro.sim.stimulus import PROFILES
from repro.synth.clock_gating import infer_clock_gating
from tests.sim.corpus import CORPUS

PERIOD = 1000.0


def assert_lanes_match_solo(module, clocks, lanes, cycles, *,
                            delay_model="unit", warmup=0, seed=9,
                            engines=("reference", "compiled")):
    """One batched run vs ``lanes`` solo runs on each solo engine."""
    stimulus = generate_batch_stimulus(module, cycles, seed=seed,
                                       lanes=lanes)
    batch = run_batch_testbench(module, clocks, stimulus,
                                delay_model=delay_model,
                                activity_warmup=warmup)
    bsim = batch.simulator
    for lane in range(lanes):
        for engine in engines:
            solo = run_testbench(module, clocks,
                                 stimulus.lane_vectors[lane],
                                 delay_model=delay_model, engine=engine,
                                 activity_warmup=warmup)
            ssim = solo.simulator
            label = f"lane {lane} vs {engine}"
            assert batch.lane_samples(lane) == solo.samples, \
                f"{label}: sampled output streams differ"
            assert bsim.lane_toggles(lane) == ssim.toggles, \
                f"{label}: per-net toggle counts differ"
            assert bsim.lane_events(lane) == ssim.events_processed, \
                f"{label}: event counts differ (ordering drift)"


class TestLaneSweep:
    """lanes x engines sweep on s1488 and fuzzed netlists."""

    @pytest.mark.parametrize("lanes", [1, 3, 64])
    def test_s1488(self, lanes):
        module = build("s1488")
        cycles = 12 if lanes == 64 else 20
        assert_lanes_match_solo(module, ClockSpec.single(PERIOD),
                                lanes, cycles)

    @pytest.mark.parametrize("lanes", [1, 3, 64])
    def test_fuzzed_netlist(self, lanes):
        module = random_sequential_circuit(
            seed=800 + lanes, n_ffs=10, n_gates=45, feedback=0.35,
            enable_fraction=0.5,
        )
        assert_lanes_match_solo(module, ClockSpec.single(PERIOD),
                                lanes, 16)

    @pytest.mark.parametrize("seed", range(3))
    def test_fuzzed_cell_delay(self, seed):
        module = random_sequential_circuit(
            seed=900 + seed, n_ffs=8, n_gates=40, feedback=0.4,
        )
        assert_lanes_match_solo(module, ClockSpec.single(PERIOD), 5, 16,
                                delay_model="cell")

    def test_fuzzed_with_icg(self):
        """Clock-gated netlist: the word-packed ICG enable latch."""
        module = random_sequential_circuit(
            seed=123, n_ffs=12, n_gates=50, feedback=True,
            enable_fraction=0.7,
        )
        infer_clock_gating(module, GENERIC, style="gated", min_group=1)
        assert any(i.cell.kind.name == "ICG"
                   for i in module.instances.values())
        assert_lanes_match_solo(module, ClockSpec.single(PERIOD), 7, 16,
                                delay_model="cell")

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus(self, name):
        """des3's 3-phase netlist (ICG_M1, ICG, ICG_AND) and the lowering
        corner cases of tests/sim/corpus.py."""
        module, clocks = CORPUS[name]()
        assert_lanes_match_solo(module, clocks, 4, 16, delay_model="cell")


class TestResetActivityMidBatch:
    """activity_warmup resets toggle planes mid-run; every lane must
    still agree with a solo run using the same warmup."""

    def test_warmup_reset_s1488(self):
        module = build("s1488")
        assert_lanes_match_solo(module, ClockSpec.single(PERIOD), 5, 20,
                                delay_model="cell", warmup=8)

    def test_explicit_reset_between_runs(self):
        module = build("s1488")
        clocks = ClockSpec.single(PERIOD)
        stimulus = generate_batch_stimulus(module, 10, seed=3, lanes=4)
        sim = Simulator(module, clocks, engine="batch", lanes=4)
        for cycle, word in enumerate(stimulus.words):
            t = 0.0 if cycle == 0 else cycle * PERIOD + 0.27 * PERIOD
            for port, packed in word.items():
                sim.set_input_word(port, packed, t)
        sim.run_until(5 * PERIOD)
        assert any(sim.toggles.values())
        sim.reset_activity()
        assert not any(sim.toggles.values())
        sim.run_until(10 * PERIOD)
        # lanes keep counting independently after the reset
        assert any(sim.lane_toggles(0).values())
        assert set(sim.toggles) == set(module.nets)


class TestSameTimeOrdering:
    """Unit-delay circuits funnel many updates into the same calendar
    bucket every cycle; FIFO order within a bucket must match the solo
    engines per lane (drift diverges samples/event counts)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_unit_delay_dense_feedback(self, seed):
        module = random_sequential_circuit(
            seed=1000 + seed, n_ffs=12, n_gates=60, feedback=0.5,
        )
        assert_lanes_match_solo(module, ClockSpec.single(PERIOD), 6, 20,
                                delay_model="unit")

    def test_same_time_schedule_coalescing(self):
        """Two writes to one port at the same instant: the batch engine
        must coalesce per lane exactly like the solo engines."""
        module = build("s1488")
        clocks = ClockSpec.single(PERIOD)
        stimulus = generate_batch_stimulus(module, 4, seed=5, lanes=3)
        port = next(iter(stimulus.words[0]))

        batch = Simulator(module, clocks, engine="batch", lanes=3)
        solos = [Simulator(module, clocks, engine="compiled")
                 for _ in range(3)]
        t = 0.27 * PERIOD
        # first write 1 everywhere, then 0 on lanes 0 and 2 -- same time
        batch.set_input_word(port, 0b111, t)
        batch.set_input_word(port, 0b010, t)
        for lane, solo in enumerate(solos):
            solo.set_input(port, 1, t)
            solo.set_input(port, 1 if lane == 1 else 0, t)
        batch.run_until(2 * PERIOD)
        for lane, solo in enumerate(solos):
            solo.run_until(2 * PERIOD)
            assert batch.lane_toggles(lane) == solo.toggles
            assert batch.lane_events(lane) == solo.events_processed


class TestLaneSeedDerivation:
    """Regression for the base_seed + lane collision (random=11 at lane
    20 used to equal pi=31 at lane 0) and derivation stability."""

    def test_profile_seed_collision_regression(self):
        assert PROFILES["random"].seed == 11
        assert PROFILES["pi"].seed == 31
        assert derive_lane_seed(11, 20) != derive_lane_seed(31, 0)

    def test_lane_zero_is_base(self):
        for base in (0, 7, 11, 31, 2**63):
            assert derive_lane_seed(base, 0) == base

    def test_grid_is_collision_free(self):
        seen = {}
        for profile in PROFILES.values():
            for lane in range(MAX_LANES):
                key = derive_lane_seed(profile.seed, lane)
                assert key not in seen, (
                    f"({profile.name}, {lane}) collides with {seen[key]}")
                seen[key] = (profile.name, lane)

    def test_derivation_is_stable(self):
        """Pinned outputs: changing the mix silently would break replay
        of recorded activity profiles."""
        assert derive_lane_seed(11, 1) == 5833679380957638813
        assert derive_lane_seed(31, 20) == 3582190419925962797
        assert derive_lane_seed(0, 63) == 4467750364978384669

    def test_batch_stimulus_lanes_match_solo_streams(self):
        from repro.sim import generate_vectors

        module = build("s1488")
        stimulus = generate_batch_stimulus(module, 8, seed=11, lanes=4)
        for lane in range(4):
            expected = generate_vectors(module, 8,
                                        seed=derive_lane_seed(11, lane))
            assert stimulus.lane_vectors[lane] == expected


class TestWatchErrors:
    """watch() on an unknown net raises SimulationError naming the net
    and the nearest match (set_input/port_value convention)."""

    def test_kernel_unknown_net_names_nearest(self, s27):
        sim = Simulator(s27, ClockSpec.single(PERIOD))
        net = next(iter(s27.nets))
        with pytest.raises(SimulationError,
                           match=f"did you mean {net!r}"):
            sim.watch([net + "x"])

    def test_kernel_unknown_net_without_match(self, s27):
        sim = Simulator(s27, ClockSpec.single(PERIOD))
        with pytest.raises(SimulationError, match="'zzzzzz'"):
            sim.watch(["zzzzzz"])

    def test_reference_unknown_net(self, s27):
        sim = Simulator(s27, ClockSpec.single(PERIOD), engine="reference")
        net = next(iter(s27.nets))
        with pytest.raises(SimulationError, match="not a net"):
            sim.watch([net + "x"])

    def test_kernel_known_net_still_watches(self, s27):
        sim = Simulator(s27, ClockSpec.single(PERIOD))
        net = next(iter(s27.nets))
        sink = sim.watch([net])
        assert sink == []

    def test_batch_watch_is_single_lane_only(self, s27):
        sim = Simulator(s27, ClockSpec.single(PERIOD), engine="batch",
                        lanes=2)
        net = next(iter(s27.nets))
        with pytest.raises(SimulationError, match="single-lane"):
            sim.watch([net])


class TestBatchFrontEnd:
    """Simulator front-end guards for the lane-aware API."""

    def test_lanes_require_batch_engine(self, s27):
        with pytest.raises(ValueError, match="lanes"):
            Simulator(s27, ClockSpec.single(PERIOD), engine="compiled",
                      lanes=4)

    def test_lane_api_requires_batch_engine(self, s27):
        sim = Simulator(s27, ClockSpec.single(PERIOD))
        with pytest.raises(SimulationError, match="batch"):
            sim.lane_toggles(0)

    def test_lanes_out_of_range(self, s27):
        with pytest.raises(ValueError, match="lanes"):
            Simulator(s27, ClockSpec.single(PERIOD), engine="batch",
                      lanes=MAX_LANES + 1)

    @pytest.mark.parametrize("lane", [3, 7, -1])
    def test_lane_index_out_of_range(self, s27, lane):
        sim = Simulator(s27, ClockSpec.single(PERIOD), engine="batch",
                        lanes=3)
        sim.run_until(2 * PERIOD)
        with pytest.raises(SimulationError, match=r"0\.\.2"):
            sim.lane_toggles(lane)
        with pytest.raises(SimulationError, match=r"0\.\.2"):
            sim.lane_events(lane)

    def test_toggles_dict_is_lane_average(self, s27):
        module = s27
        clocks = ClockSpec.single(PERIOD)
        stimulus = generate_batch_stimulus(module, 12, seed=4, lanes=8)
        batch = run_batch_testbench(module, clocks, stimulus)
        bsim = batch.simulator
        per_lane = [bsim.lane_toggles(lane) for lane in range(8)]
        for net, avg in bsim.toggles.items():
            total = sum(lane[net] for lane in per_lane)
            assert avg == (2 * total + 8) // 16  # round-half-up mean
