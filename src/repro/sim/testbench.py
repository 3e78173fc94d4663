"""Cycle-level testbench: drive input vectors, sample output streams.

Input timing convention (single convention valid for all three design
styles; see the derivation in DESIGN.md section 3 and
:mod:`repro.convert.clocks`):

* vector 0 is applied at t = 0;
* vector n (n >= 1) is applied at ``n*T + 0.27*T``
  (:data:`INPUT_TIME_FRACTION`) -- after the 3-phase p1 latches close
  (T/4) and well before the master-slave master closes ((n+1)*T), which
  makes primary inputs behave "as if clocked by p1" exactly as the paper
  assumes;
* outputs are sampled just before each cycle boundary, where every style
  holds the same architectural state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.netlist.core import Module
from repro.convert.clocks import ClockSpec
from repro.sim.simulator import Simulator
from repro.sim.stimulus import BatchStimulus, Vector

#: fraction of the period after the boundary where vectors are applied.
#: Must be > 1/4 (after the 3-phase p1 latches close, so PIs behave "as if
#: clocked by p1") and small enough that PI-driven logic settles before the
#: master-slave master opens at T/2.
INPUT_TIME_FRACTION = 0.27
#: fraction of the period before the boundary where outputs are sampled.
SAMPLE_GUARD_FRACTION = 0.02


@dataclass
class TestbenchResult:
    """Sampled output streams plus the simulator (for activity queries)."""

    module: Module
    samples: list[Vector] = field(default_factory=list)
    simulator: Simulator | None = None

    def stream(self, port: str) -> list[int]:
        return [sample[port] for sample in self.samples]


def run_testbench(
    module: Module,
    clocks: ClockSpec,
    vectors: list[Vector],
    delay_model: str = "cell",
    activity_warmup: int = 0,
    engine: str = "compiled",
) -> TestbenchResult:
    """Simulate ``module`` over ``vectors`` (one per cycle).

    ``activity_warmup`` resets toggle counters after that many cycles so
    power measurements exclude reset/initialization transients.
    ``engine`` selects the simulation engine (see :class:`Simulator`).
    """
    sim = Simulator(module, clocks, delay_model=delay_model, engine=engine)
    result = TestbenchResult(module=module, simulator=sim)
    _run_schedule(sim, vectors, sim.set_input, sim.port_value,
                  result.samples, activity_warmup,
                  design=module.name, engine=engine, cycles=len(vectors),
                  delay_model=delay_model)
    return result


@dataclass
class BatchTestbenchResult:
    """Per-lane sampled output streams plus the batch simulator.

    ``samples[cycle][port]`` is the list of per-lane values; use
    :meth:`lane_samples` to recover the exact :class:`TestbenchResult`
    sample stream lane ``i``'s solo run would have produced.
    """

    module: Module
    lanes: int
    samples: list[dict[str, list[int]]] = field(default_factory=list)
    simulator: Simulator | None = None

    def lane_samples(self, lane: int) -> list[Vector]:
        return [
            {port: values[lane] for port, values in sample.items()}
            for sample in self.samples
        ]

    def stream(self, port: str, lane: int = 0) -> list[int]:
        return [sample[port][lane] for sample in self.samples]


def run_batch_testbench(
    module: Module,
    clocks: ClockSpec,
    stimulus: BatchStimulus,
    delay_model: str = "cell",
    activity_warmup: int = 0,
) -> BatchTestbenchResult:
    """Simulate ``module`` over all lanes of ``stimulus`` in one pass.

    The apply/sample/warmup schedule is identical to
    :func:`run_testbench`, so lane ``i`` of the result is bit-for-bit the
    solo run over ``stimulus.lane_vectors[i]``.
    """
    sim = Simulator(module, clocks, delay_model=delay_model,
                    engine="batch", lanes=stimulus.lanes)
    result = BatchTestbenchResult(
        module=module, lanes=stimulus.lanes, simulator=sim)
    _run_schedule(sim, stimulus.words, sim.set_input_word, sim.port_values,
                  result.samples, activity_warmup,
                  design=module.name, engine="batch", lanes=stimulus.lanes,
                  cycles=len(stimulus.words), delay_model=delay_model)
    return result


def _run_schedule(sim: Simulator, inputs: list[dict], apply, sample,
                  samples: list, activity_warmup: int, **span_attrs) -> None:
    """Drive ``sim`` with one ``{port: value}`` dict per cycle through
    ``apply(port, value, time)`` and append one ``{port: sample(port)}``
    dict per cycle to ``samples``.

    The schedule of every testbench: inputs at the times of the module
    docstring, outputs sampled :data:`SAMPLE_GUARD_FRACTION` of a period
    before each boundary, and toggle counters reset after
    ``activity_warmup`` cycles.
    """
    period = sim.clocks.period
    outputs = sim.module.output_ports()
    with obs.span("sim.run", **span_attrs) as sp:
        for index, vector in enumerate(inputs):
            time = (0.0 if index == 0
                    else index * period + INPUT_TIME_FRACTION * period)
            for port, value in vector.items():
                apply(port, value, time)

        for cycle in range(len(inputs)):
            sample_time = (cycle + 1) * period - SAMPLE_GUARD_FRACTION * period
            sim.run_until(sample_time)
            samples.append({port: sample(port) for port in outputs})
            if activity_warmup and cycle + 1 == activity_warmup:
                sim.reset_activity()
            sim.run_until((cycle + 1) * period)
        sp.set(events=sim.events_processed,
               events_per_s=round(sim.events_per_second, 1))
    obs.gauge("sim.events_per_s", sim.events_per_second)
