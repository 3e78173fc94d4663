"""Event-driven gate-level simulator with multi-phase clocks.

Capabilities the reproduction needs (and real sign-off flows provide):

* transparent-high latches and rising-edge FFs, including initial values;
* all three ICG behaviours (conventional, M1 with external inverted clock,
  latch-free M2);
* multi-phase clock generation straight from a
  :class:`~repro.convert.clocks.ClockSpec`, including the ``skip_first``
  convention;
* transport delays from the cell library's linear delay model, so glitches
  (which the paper credits latch designs with reducing) show up in the
  activity numbers;
* per-net toggle counting -- the switching-activity input of the power
  model and of data-driven clock gating.

Performance notes (pure Python must carry 100k-cell designs):

* at construction the netlist is **compiled** into the dense
  integer-indexed kernel of :mod:`repro.sim.kernel` (or, with
  ``engine="batch"``, the word-packed engine of :mod:`repro.sim.batch`);
  both build from the one lowering of :mod:`repro.sim.lower`, whose
  per-net subscriber lists carry pre-resolved net ids and delays, so the
  event loop does zero dict lookups per event (``engine="reference"``
  selects the original string-keyed engine of :mod:`repro.sim.reference`,
  kept as differential oracle and throughput baseline);
* pushes that would re-schedule a net to the value it is already headed to
  are skipped -- a register recapturing an unchanged value costs nothing;
* clock distribution cells (buffers, ICGs) propagate with zero delay,
  modelling a balanced (ideal) clock network exactly like STA assumes; a
  simulated unbalanced tree would inject hold hazards no signed-off design
  has.  Their output *events* still happen and are charged to clock power.

Observability: ``events_processed``, ``compile_seconds``, ``run_seconds``,
and ``events_per_second`` expose the kernel's throughput; the pipeline's
simulation stages record them in their :class:`StageRecord` summaries.
"""

from __future__ import annotations

from repro import obs
from repro.netlist.core import Module, PortRef
from repro.sim.batch import BatchKernel
from repro.sim.kernel import CompiledKernel
from repro.sim.lower import SimulationError
from repro.sim.reference import ReferenceEngine
from repro.convert.clocks import ClockSpec

__all__ = ["SimulationError", "Simulator"]

#: engine name -> implementation (all expose the same internal protocol:
#: net_value/schedule/run_until/reset_activity/toggles_dict/watch plus the
#: now/events_processed/compile_seconds/run_seconds counters; the batch
#: engine adds the lane-aware calls).
ENGINES = {
    "compiled": CompiledKernel,
    "reference": ReferenceEngine,
    "batch": BatchKernel,
}


class Simulator:
    """Simulate ``module`` under ``clocks``.

    ``delay_model``: ``"cell"`` uses the library's linear delay model
    (intrinsic + slope * load); ``"unit"`` gives every cell 1 ps, useful
    for fast functional runs.

    ``engine``: ``"compiled"`` (default) lowers the netlist into the
    integer-indexed kernel; ``"reference"`` runs the original string-keyed
    engine.  Both are bit-for-bit equivalent (same samples, same toggle
    counts, same event ordering).
    """

    def __init__(
        self,
        module: Module,
        clocks: ClockSpec | None = None,
        delay_model: str = "cell",
        count_activity: bool = True,
        event_limit: int = 200_000_000,
        engine: str = "compiled",
        lanes: int = 1,
    ):
        try:
            engine_cls = ENGINES[engine]
        except KeyError:
            raise ValueError(
                f"unknown simulation engine {engine!r}; "
                f"available: {', '.join(sorted(ENGINES))}"
            ) from None
        if lanes != 1 and engine != "batch":
            raise ValueError(
                f"engine {engine!r} is single-lane; lanes={lanes} requires "
                "engine='batch'"
            )
        self.module = module
        self.clocks = clocks
        self.count_activity = count_activity
        self.event_limit = event_limit
        self.engine = engine
        self.lanes = lanes
        with obs.span("sim.compile", engine=engine,
                      delay_model=delay_model, lanes=lanes) as sp:
            kwargs = {"lanes": lanes} if engine == "batch" else {}
            self._engine = engine_cls(
                module, clocks, delay_model=delay_model,
                count_activity=count_activity, event_limit=event_limit,
                **kwargs,
            )
            sp.set(nets=len(module.nets), instances=len(module.instances),
                   compile_s=round(self._engine.compile_seconds, 6))
        self._port_nets: dict[str, str] = {}

    # -- observability -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self._engine.now

    @property
    def events_processed(self) -> int:
        return self._engine.events_processed

    @property
    def compile_seconds(self) -> float:
        """Wall time spent lowering the netlist into the engine."""
        return self._engine.compile_seconds

    @property
    def run_seconds(self) -> float:
        """Cumulative wall time spent inside the event loop."""
        return self._engine.run_seconds

    @property
    def events_per_second(self) -> float:
        """Event-loop throughput so far (0.0 before the first run)."""
        seconds = self._engine.run_seconds
        return self._engine.events_processed / seconds if seconds > 0 else 0.0

    # -- public API --------------------------------------------------------------

    @property
    def toggles(self) -> dict[str, int]:
        """Per-net toggle counts, materialized as a name-keyed dict."""
        return self._engine.toggles_dict()

    def value(self, net: str) -> int:
        try:
            return self._engine.net_value(net)
        except KeyError:
            raise SimulationError(
                f"{net!r} is not a net of module {self.module.name!r}"
            ) from None

    def _port_net(self, port: str) -> str:
        # net_of_port scans all nets per output port; on the first miss,
        # one scan fills the map for every port at once (connectivity is
        # frozen during simulation).
        net = self._port_nets.get(port)
        if net is None:
            if port not in self.module.ports:
                raise SimulationError(
                    f"{port!r} is not a port of module {self.module.name!r}"
                )
            for net_obj in self.module.nets.values():
                for ref in net_obj.loads:
                    if type(ref) is PortRef:
                        self._port_nets.setdefault(ref.port, net_obj.name)
            for name in self.module.input_ports():
                if name in self.module.nets:
                    self._port_nets.setdefault(name, name)
            net = self._port_nets.get(port)
            if net is None:
                # unconnected output port: keep net_of_port's diagnostics
                try:
                    net = self.module.net_of_port(port).name
                except KeyError:
                    raise SimulationError(
                        f"{port!r} is not a port of module "
                        f"{self.module.name!r}"
                    ) from None
        return net

    def port_value(self, port: str) -> int:
        return self._engine.net_value(self._port_net(port))

    def port_values(self, port: str) -> list[int]:
        """Per-lane values of a port (batch engine only)."""
        self._require_batch("port_values")
        return self._engine.net_values(self._port_net(port))

    def _require_batch(self, what: str) -> None:
        if self.engine != "batch":
            raise SimulationError(
                f"{what} requires engine='batch' (this simulator runs "
                f"engine={self.engine!r})"
            )

    def set_input(self, port: str, value: int, time: float) -> None:
        """Schedule a primary-input change."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past ({time} < {self.now})"
            )
        try:
            self._engine.schedule(port, value, time)
        except KeyError:
            raise SimulationError(
                f"cannot set input {port!r}: not a net of module "
                f"{self.module.name!r}"
            ) from None

    def set_input_word(self, port: str, word: int, time: float) -> None:
        """Schedule per-lane primary-input values packed as a lane word
        (bit ``i`` drives lane ``i``; batch engine only)."""
        self._require_batch("set_input_word")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past ({time} < {self.now})"
            )
        try:
            self._engine.schedule_lanes(port, word, 0, time)
        except KeyError:
            raise SimulationError(
                f"cannot set input {port!r}: not a net of module "
                f"{self.module.name!r}"
            ) from None

    def lane_toggles(self, lane: int) -> dict[str, int]:
        """Exact per-net toggle counts of one lane (batch engine only;
        ``toggles`` returns the lane average)."""
        self._require_batch("lane_toggles")
        return self._engine.lane_toggles(lane)

    def lane_events(self, lane: int) -> int:
        """Events one lane would have processed solo (batch engine only)."""
        self._require_batch("lane_events")
        return self._engine.lane_events(lane)

    def reset_activity(self) -> None:
        """Zero toggle counters (call after warm-up, before measurement)."""
        self._engine.reset_activity()

    def watch(self, nets: list[str]) -> list[tuple[float, str, int]]:
        """Record every ``(time, net, value)`` change on ``nets``.

        Returns the live sink list the engine appends to; used by
        :class:`~repro.sim.vcd.VcdRecorder`.
        """
        return self._engine.watch(nets)

    def run_until(self, t_end: float) -> None:
        """Advance simulation time to ``t_end`` (inclusive of events at it)."""
        self._engine.run_until(t_end)

    def run_cycles(self, n: int) -> None:
        if self.clocks is None:
            raise SimulationError("run_cycles requires a ClockSpec")
        self.run_until(self.now + n * self.clocks.period)
