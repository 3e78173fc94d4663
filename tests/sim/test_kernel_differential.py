"""Differential tests: compiled kernel vs reference engine.

The compiled integer-indexed kernel (:mod:`repro.sim.kernel`) must be
*bit-for-bit* equivalent to the original string-keyed engine
(:mod:`repro.sim.reference`): identical sampled output streams, identical
per-net toggle counts, and identical event counts (same coalescing, same
ordering).  These tests run both engines over the same randomized
structured circuits in all three design styles.
"""

import pytest

from repro.circuits import build
from repro.circuits.random_logic import random_sequential_circuit
from repro.convert import (
    ClockSpec,
    convert_to_master_slave,
    convert_to_three_phase,
)
from repro.library.generic import GENERIC
from repro.sim import SimulationError, Simulator, generate_vectors, run_testbench
from tests.sim.corpus import CORPUS

PERIOD = 1000.0


def run_both(module, clocks, vectors, delay_model="unit"):
    runs = {}
    for engine in ("reference", "compiled"):
        result = run_testbench(
            module, clocks, vectors, delay_model=delay_model, engine=engine
        )
        sim = result.simulator
        runs[engine] = (result.samples, sim.toggles, sim.events_processed)
    return runs


def assert_bit_for_bit(module, clocks, vectors, delay_model="unit"):
    runs = run_both(module, clocks, vectors, delay_model)
    ref_samples, ref_toggles, ref_events = runs["reference"]
    com_samples, com_toggles, com_events = runs["compiled"]
    assert com_samples == ref_samples, "sampled output streams differ"
    assert com_toggles == ref_toggles, "per-net toggle counts differ"
    assert com_events == ref_events, "event counts differ (ordering drift)"


class TestRandomCircuits:
    """Randomized structured circuits, one conversion per design style."""

    @pytest.mark.parametrize("seed", range(6))
    def test_ff_style(self, seed):
        module = random_sequential_circuit(
            seed + 400, n_ffs=10, n_gates=40, feedback=0.35
        )
        vectors = generate_vectors(module, 50, seed=seed)
        assert_bit_for_bit(module, ClockSpec.single(PERIOD), vectors)

    @pytest.mark.parametrize("seed", range(4))
    def test_master_slave_style(self, seed):
        module = random_sequential_circuit(
            seed + 500, n_ffs=9, n_gates=35, feedback=0.4
        )
        result = convert_to_master_slave(module, GENERIC, PERIOD)
        vectors = generate_vectors(result.module, 50, seed=seed)
        assert_bit_for_bit(result.module, result.clocks, vectors)

    @pytest.mark.parametrize("seed", range(4))
    def test_three_phase_style(self, seed):
        module = random_sequential_circuit(
            seed + 600, n_ffs=10, n_gates=40, feedback=0.35,
            enable_fraction=0.5,
        )
        result = convert_to_three_phase(module, GENERIC, period=PERIOD)
        vectors = generate_vectors(result.module, 50, seed=seed)
        assert_bit_for_bit(result.module, result.clocks, vectors)

    @pytest.mark.parametrize("seed", range(3))
    def test_cell_delay_model(self, seed):
        module = random_sequential_circuit(
            seed + 700, n_ffs=8, n_gates=30, feedback=0.3
        )
        vectors = generate_vectors(module, 40, seed=seed)
        assert_bit_for_bit(module, ClockSpec.single(PERIOD), vectors,
                           delay_model="cell")


class TestBenchmarkCircuit:
    def test_s1488_all_styles(self):
        ff = build("s1488")
        vectors = generate_vectors(ff, 20, seed=11)
        assert_bit_for_bit(ff, ClockSpec.single(PERIOD), vectors)

        ms = convert_to_master_slave(build("s1488"), GENERIC, PERIOD)
        assert_bit_for_bit(ms.module, ms.clocks, vectors)

        p3 = convert_to_three_phase(build("s1488"), GENERIC, period=PERIOD)
        assert_bit_for_bit(p3.module, p3.clocks, vectors)


class TestCorpus:
    """Fixed netlists with cells the random circuits never contain: ICG_M1,
    ICG and ICG_AND (des3's 3-phase netlist), TIE cells, register init
    values, an unconnected gate output and a demoted capture group."""

    @pytest.mark.parametrize("delay_model", ["unit", "cell"])
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus(self, name, delay_model):
        module, clocks = CORPUS[name]()
        vectors = generate_vectors(module, 16, seed=3)
        assert_bit_for_bit(module, clocks, vectors, delay_model=delay_model)


class TestPortErrors:
    """Unknown ports must raise SimulationError naming the port (not a
    bare KeyError leaking engine internals)."""

    @pytest.fixture()
    def sim(self, s27):
        return Simulator(s27, ClockSpec.single(PERIOD))

    def test_set_input_unknown_port(self, sim):
        with pytest.raises(SimulationError, match="'bogus'"):
            sim.set_input("bogus", 1, 0.0)

    def test_port_value_unknown_port(self, sim):
        with pytest.raises(SimulationError, match="'bogus'"):
            sim.port_value("bogus")

    def test_set_input_in_the_past(self, sim):
        sim.run_until(2 * PERIOD)
        with pytest.raises(SimulationError, match="past"):
            sim.set_input("G0", 1, PERIOD)

    def test_reference_engine_same_errors(self, s27):
        sim = Simulator(s27, ClockSpec.single(PERIOD), engine="reference")
        with pytest.raises(SimulationError, match="'bogus'"):
            sim.set_input("bogus", 1, 0.0)
        with pytest.raises(SimulationError, match="'bogus'"):
            sim.port_value("bogus")

    def test_unknown_engine_rejected(self, s27):
        with pytest.raises(ValueError, match="unknown simulation engine"):
            Simulator(s27, ClockSpec.single(PERIOD), engine="turbo")


class TestResetActivity:
    def test_reset_zeroes_all_counters(self, s27):
        module = s27
        sim = Simulator(module, ClockSpec.single(PERIOD))
        vectors = generate_vectors(module, 10, seed=5)
        for i, vec in enumerate(vectors):
            t = 0.0 if i == 0 else i * PERIOD + 0.27 * PERIOD
            for port, value in vec.items():
                sim.set_input(port, value, t)
        sim.run_until(10 * PERIOD)
        assert any(sim.toggles.values())
        sim.reset_activity()
        assert not any(sim.toggles.values())
        assert set(sim.toggles) == set(module.nets)
