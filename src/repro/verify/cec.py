"""Combinational equivalence checking of FF vs converted designs.

Per-register-cone miter construction implementing the correspondence of
``docs/equivalence.md``: with the documented schedule and conventions,
every converted latch group holds exactly the FF design's architectural
state (``X_n = Y_n = Z_n = S_n``).  That reduces sequential equivalence
to a set of *combinational* proof obligations over one symbolic state
generation ``s`` (one variable per FF) and one input generation ``pi``:

* **state cones** -- for every FF ``v``, the FF side computes
  ``en_F ? f_v(s, pi) : s_v`` (the enable is the AND of the EN cones of
  the ICGs on ``v``'s clock path); the converted side computes the same
  expression through its *holder* latch (the latch carrying
  ``orig_ff=v`` on a holding phase), with every latch of the movable
  phase (p2 followers / retimed latches, master-slave slaves)
  substituted symbolically through its own data cone;
* **output cones** -- for every output port, ``g(s, pi)`` on both sides
  under the same environments.

Both sides encode into **one** structurally-hashed
:class:`~repro.verify.cnf.CnfBuilder` over shared ``s``/``pi``
variables, so a faithfully converted cone collapses onto its FF cone
and the miter XOR folds to constant FALSE -- proven with no solver
invocation.  Non-trivial miters go to the in-house CDCL solver
(:mod:`repro.verify.sat`): UNSAT ⇒ proven; SAT ⇒ the model is decoded
into a concrete ``(state, inputs)`` vector and **replayed through the
event simulator** to confirm the divergence before it is reported as an
error (an unconfirmed refutation reports as a warning -- it means the
static model and the simulator disagree).

Structural modeling gaps (a register with no holder, a clock net
reaching a data cone, init mismatches, substitution cycles) surface as
``violation`` cones rather than exceptions, so one broken register
doesn't hide the rest of the report.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable

from repro import obs
from repro.convert.clocks import ClockSpec
from repro.library.cell import ICG_OPS, TIE_OPS
from repro.netlist.core import Instance, Module, PortRef
from repro.netlist.traversal import trace_clock_root
from repro.sim.equivalence import EquivalenceReport, Mismatch
from repro.verify.cnf import CnfBuilder
from repro.verify.report import ConeResult, ReplayResult, VerifyResult

#: latch phases that *hold* architectural state, per style.
_HOLDER_PHASES = {
    "3p": ("p1", "p3"),
    "ms": ("clkbar",),
    "pulsed": ("pclk",),
}

#: phases substituted symbolically through their data cone.
_MOVABLE_PHASES = {
    "3p": ("p2",),
    "ms": ("clk",),
    "pulsed": (),
}

#: replay probe instant (in periods) at which the holder latch and the
#: FF both hold ``S_1``, keyed by holder phase (see docs/verify.md).
_PROBE_FRACTION = {"p1": 1.5, "p3": 1.125, "clkbar": 1.25, "pclk": 1.5}

#: output-port probe: the cycle-0 sample instant of the testbench.
_OUTPUT_GUARD_FRACTION = 0.02

#: styles the checker understands ("ff" verifies trivially).
SUPPORTED_STYLES = ("ff",) + tuple(_HOLDER_PHASES)


class ModelViolation(Exception):
    """The netlist broke a structural assumption of the miter model."""


class _ConeEncoder:
    """Encodes one module's nets into the shared builder.

    ``seq_rule(encoder, inst)`` decides what a sequential cell's output
    means in this environment (a state variable, a symbolic
    substitution through its D cone, or a violation).  Net literals are
    memoized; an in-progress marker catches combinational and
    substitution cycles.
    """

    _IN_PROGRESS = object()

    def __init__(
        self,
        checker: "EquivalenceChecker",
        module: Module,
        seq_rule: Callable[["_ConeEncoder", Instance], int],
    ) -> None:
        self.checker = checker
        self.module = module
        self.seq_rule = seq_rule
        self._memo: dict[str, object] = {}

    def lit(self, net_name: str) -> int:
        memo = self._memo
        cached = memo.get(net_name)
        if cached is self._IN_PROGRESS:
            raise ModelViolation(
                f"combinational/substitution cycle through net {net_name!r}"
            )
        if cached is not None:
            return cached  # type: ignore[return-value]
        memo[net_name] = self._IN_PROGRESS
        try:
            value = self._encode(net_name)
        except ModelViolation:
            memo.pop(net_name, None)
            raise
        memo[net_name] = value
        return value

    def _encode(self, net_name: str) -> int:
        checker = self.checker
        module = self.module
        net = module.nets[net_name]
        driver = net.driver
        if driver is None:
            return checker.free_var(net_name)
        if isinstance(driver, PortRef):
            if driver.port in module.clock_ports:
                raise ModelViolation(
                    f"clock port {driver.port!r} reaches a data cone"
                )
            return checker.pi_var(driver.port)
        inst = module.instances[driver.instance]
        op = inst.cell.op
        if inst.is_sequential:
            return self.seq_rule(self, inst)
        if op in ICG_OPS:
            raise ModelViolation(
                f"gated clock (ICG {inst.name!r}) reaches a data cone "
                f"via net {net_name!r}"
            )
        if op in TIE_OPS:
            return checker.builder.gate(op, [])
        operands = [self.lit(inst.net_of(pin)) for pin in inst.cell.input_pins]
        return checker.builder.gate(op, operands)

    def enable_lit(self, clock_net: str) -> int:
        """AND of the EN cones of every ICG on ``clock_net``'s root path."""
        try:
            chain, _ = trace_clock_root(self.module, clock_net)
        except ValueError as exc:
            raise ModelViolation(str(exc)) from None
        terms = []
        for inst_name in chain:
            inst = self.module.instances[inst_name]
            if inst.cell.op in ICG_OPS:
                terms.append(self.lit(inst.net_of("EN")))
        return self.checker.builder.and_(terms)


class EquivalenceChecker:
    """One FF-design-vs-converted-design formal comparison.

    ``cone_cache`` (a :class:`repro.flow.diskcache.DiskCache`) memoizes
    per-cone verdicts content-addressed on the cone's extracted CNF, so
    a warm rerun -- same netlists or merely structurally identical
    cones anywhere -- discharges every obligation with zero solver
    invocations.
    """

    def __init__(
        self,
        ff_module: Module,
        conv_module: Module,
        style: str,
        clocks: ClockSpec | None = None,
        *,
        design: str | None = None,
        cone_cache=None,
        conflict_budget: int = 200_000,
        replay: bool = True,
        replay_engines: tuple[str, ...] = ("reference",),
    ) -> None:
        if style not in SUPPORTED_STYLES:
            raise ValueError(f"unknown style {style!r}")
        self.ff_module = ff_module
        self.conv_module = conv_module
        self.style = style
        self.clocks = clocks
        self.design = design or ff_module.name
        self.cone_cache = cone_cache
        self.conflict_budget = conflict_budget
        self.replay = replay
        self.replay_engines = replay_engines
        self.builder = CnfBuilder()
        self.state_vars: dict[str, int] = {}
        self.pi_vars: dict[str, int] = {}
        self.free_vars: dict[str, int] = {}
        self.solver_runs = 0
        self.cache_hits = 0

    # -- shared symbolic variables ------------------------------------------

    def state_var(self, ff_name: str) -> int:
        var = self.state_vars.get(ff_name)
        if var is None:
            var = self.state_vars[ff_name] = self.builder.var()
        return var

    def pi_var(self, port: str) -> int:
        var = self.pi_vars.get(port)
        if var is None:
            var = self.pi_vars[port] = self.builder.var()
        return var

    def free_var(self, net_name: str) -> int:
        """Undriven non-port net: one shared unconstrained variable.

        Keyed by net name only, deliberately: conversions copy the FF
        module, so the *same* floating net on both sides must be the
        same unknown, or a spurious counterexample falls out.
        """
        var = self.free_vars.get(net_name)
        if var is None:
            var = self.free_vars[net_name] = self.builder.var()
        return var

    # -- per-style environments ---------------------------------------------

    def _ff_encoder(self) -> _ConeEncoder:
        def seq_rule(enc: _ConeEncoder, inst: Instance) -> int:
            if inst.cell.op != "DFF":
                raise ModelViolation(
                    f"unexpected latch {inst.name!r} in the FF design"
                )
            return self.state_var(inst.name)

        return _ConeEncoder(self, self.ff_module, seq_rule)

    def _conv_envs(self) -> dict[str, _ConeEncoder]:
        """The converted side's capture-instant environments.

        A latch read by a cone contributes *what it holds at the cone's
        capture (or sample) instant*: a closed latch is a state
        variable; a latch transparent at that instant substitutes
        through its own data cone -- which is exactly what the event
        simulator propagates, so SAT models found against these
        environments replay faithfully.  This is what catches the
        generation-skew defects (a dropped p2 follower makes a p1 cone
        read a *transparent* p1 latch -- the next-state value instead of
        the current state -- and the miter goes SAT).

        Returned map: one encoder per holder phase (the environment of
        that phase's state obligations) plus ``"out"`` (output-port
        sample instant) and ``"enable"`` (ICG EN cones).
        """
        conv = self.conv_module
        _RACE = "race"

        def latch_rule(
            transparent: dict[str, object],
        ) -> Callable[["_ConeEncoder", Instance], int]:
            """Environment builder: phase -> encoder to substitute
            through (transparent at this instant), ``_RACE``
            (simultaneous-close, undefined), or absent (closed ->
            state variable)."""

            def rule(enc: _ConeEncoder, inst: Instance) -> int:
                phase = str(inst.attrs.get("phase"))
                target = transparent.get(phase)
                if isinstance(target, _ConeEncoder):
                    return target.lit(inst.net_of("D"))
                if target is _RACE:
                    raise ModelViolation(
                        f"latch {inst.name!r} (phase {phase!r}) closes "
                        "simultaneously with the reading cone's capture; "
                        "undefined race"
                    )
                if phase not in _HOLDER_PHASES[self.style] and \
                        phase not in _MOVABLE_PHASES[self.style]:
                    raise ModelViolation(
                        f"latch {inst.name!r} carries unknown phase "
                        f"{phase!r}"
                    )
                return self.state_var(self._holder_key(inst))

            return rule

        envs: dict[str, _ConeEncoder]
        if self.style == "3p":
            # p2 latches are read only when closed; their capture at
            # 5T/8 saw both leading ranks closed and holding state.  A
            # p2 read by another p2 closes on the same edge: undefined.
            t_p2: dict[str, object] = {"p2": _RACE}
            env_p2 = _ConeEncoder(self, conv, latch_rule(t_p2))
            # generation-n instants (p3 captures, output samples): p1
            # and p2 closed at state; p3 transparent -> substitute.
            t_gen: dict[str, object] = {"p2": env_p2}
            env_gen = _ConeEncoder(self, conv, latch_rule(t_gen))
            t_gen["p3"] = env_gen
            # p1 capture instant (T/4): only p2 is closed.  Another p1
            # is transparent churn (substitute -- exactly what the
            # simulator propagates when a follower is missing) and p3
            # holds one generation ahead (substitute through its own
            # capture cone).
            t_p1: dict[str, object] = {"p2": env_p2, "p3": env_gen}
            env_p1 = _ConeEncoder(self, conv, latch_rule(t_p1))
            t_p1["p1"] = env_p1
            envs = {"p1": env_p1, "p3": env_gen, "out": env_gen}
        elif self.style == "ms":
            # Masters are closed (state) whenever a slave captures; a
            # transparent slave passes its master through.  A master
            # read at the master capture instant is itself transparent
            # -> substitute (this is the rank-skip defect).
            t_slave: dict[str, object] = {}
            env_slave = _ConeEncoder(self, conv, latch_rule(t_slave))
            t_slave["clk"] = env_slave
            t_master: dict[str, object] = {"clk": env_slave}
            env_master = _ConeEncoder(self, conv, latch_rule(t_master))
            t_master["clkbar"] = env_master
            envs = {"clkbar": env_master, "out": env_master}
        else:  # pulsed: one rank, FF-like; every read sees held state
            env_p = _ConeEncoder(self, conv, latch_rule({}))
            envs = {"pclk": env_p, "out": env_p}
        # EN cones are latched while the gated phase is low -- every
        # rank is stable then, so holders read as state and movables
        # substitute through (steady-state approximation).
        t_en: dict[str, object] = {}
        env_en = _ConeEncoder(self, conv, latch_rule(t_en))
        for phase in _MOVABLE_PHASES[self.style]:
            t_en[phase] = env_en
        envs["enable"] = env_en
        return envs

    def _holder_key(self, inst: Instance) -> str:
        orig = inst.attrs.get("orig_ff")
        if orig is None:
            raise ModelViolation(
                f"holder latch {inst.name!r} "
                f"(phase {inst.attrs.get('phase')!r}) has no orig_ff "
                "attribute; cannot map it to an FF state"
            )
        return str(orig)

    def _holders(self) -> tuple[dict[str, Instance], list[ConeResult]]:
        """Map orig_ff -> holder latch; mapping defects become cones."""
        holder_phases = _HOLDER_PHASES[self.style]
        holders: dict[str, Instance] = {}
        defects: list[ConeResult] = []
        for name in sorted(self.conv_module.instances):
            inst = self.conv_module.instances[name]
            if inst.cell.op != "DLATCH":
                continue
            if inst.attrs.get("phase") not in holder_phases:
                continue
            orig = inst.attrs.get("orig_ff")
            if orig is None:
                defects.append(ConeResult(
                    f"state:{inst.name}", "violation", method="structural",
                    detail="holder latch has no orig_ff attribute",
                ))
                continue
            orig = str(orig)
            if orig in holders:
                defects.append(ConeResult(
                    f"state:{orig}", "violation", method="structural",
                    detail=(f"registers {holders[orig].name!r} and "
                            f"{inst.name!r} both claim orig_ff={orig!r}"),
                ))
                continue
            holders[orig] = inst
        return holders, defects

    # -- obligations ---------------------------------------------------------

    def check(self) -> VerifyResult:
        result = VerifyResult(self.design, self.style)
        with obs.span("verify.run", design=self.design, style=self.style):
            if self.style == "ff":
                return result
            self._check_interface(result)
            ff_enc = self._ff_encoder()
            envs = self._conv_envs()
            holders, defects = self._holders()
            result.cones.extend(defects)
            ffs = {i.name: i for i in self.ff_module.flip_flops()}
            for name in sorted(ffs):
                t0 = time.monotonic()
                result.cones.append(
                    self._state_cone(ffs[name], holders.get(name),
                                     ff_enc, envs))
                obs.record("verify.cone_s", time.monotonic() - t0)
            for orig in sorted(set(holders) - set(ffs)):
                result.cones.append(ConeResult(
                    f"state:{orig}", "violation", method="structural",
                    detail=(f"holder {holders[orig].name!r} references "
                            f"unknown FF {orig!r}"),
                ))
            for port in sorted(self.ff_module.output_ports()):
                if port not in self.conv_module.output_ports():
                    continue  # already a violation cone from _check_interface
                t0 = time.monotonic()
                result.cones.append(self._output_cone(port, ff_enc, envs))
                obs.record("verify.cone_s", time.monotonic() - t0)
            result.solver_runs = self.solver_runs
            result.cache_hits = self.cache_hits
            obs.add("verify.cones", len(result.cones))
            obs.add("verify.proven", result.proven)
            obs.add("verify.refuted", result.refuted)
            obs.add("verify.violations", result.violations)
            obs.add("verify.unknown", result.unknown)
            obs.add("verify.solver_conflicts", result.conflicts)
        return result

    def _check_interface(self, result: VerifyResult) -> None:
        for kind, ff_ports, conv_ports in (
            ("input", self.ff_module.data_input_ports(),
             self.conv_module.data_input_ports()),
            ("output", self.ff_module.output_ports(),
             self.conv_module.output_ports()),
        ):
            missing = set(ff_ports) ^ set(conv_ports)
            for port in sorted(missing):
                result.cones.append(ConeResult(
                    f"port:{port}", "violation", method="structural",
                    detail=f"{kind} port {port!r} exists on only one side",
                ))

    def _state_cone(
        self,
        ff: Instance,
        holder: Instance | None,
        ff_enc: _ConeEncoder,
        envs: dict[str, _ConeEncoder],
    ) -> ConeResult:
        name = f"state:{ff.name}"
        if holder is None:
            return ConeResult(
                name, "violation", method="structural",
                detail="no converted register holds this FF's state",
            )
        ff_init = int(ff.attrs.get("init", 0) or 0)
        holder_init = int(holder.attrs.get("init", 0) or 0)
        if ff_init != holder_init:
            return ConeResult(
                name, "violation", method="structural",
                detail=(f"initial value mismatch: FF init={ff_init}, "
                        f"holder {holder.name!r} init={holder_init}"),
            )
        b = self.builder
        s_v = self.state_var(ff.name)
        try:
            f_ff = ff_enc.lit(ff.net_of("D"))
            en_ff = ff_enc.enable_lit(ff.net_of("CK"))
            g_ff = b.ite(en_ff, f_ff, s_v)
            conv_enc = envs[str(holder.attrs.get("phase"))]
            f_conv = conv_enc.lit(holder.net_of("D"))
            en_conv = envs["enable"].enable_lit(holder.net_of("G"))
            g_conv = b.ite(en_conv, f_conv, s_v)
        except ModelViolation as exc:
            return ConeResult(name, "violation", method="structural",
                              detail=str(exc))
        except RecursionError:
            return ConeResult(name, "violation", method="structural",
                              detail="cone too deep to encode")
        cone = self._discharge(name, b.xor2(g_ff, g_conv))
        self._maybe_replay(cone, holder)
        return cone

    def _output_cone(
        self, port: str, ff_enc: _ConeEncoder, envs: dict[str, _ConeEncoder]
    ) -> ConeResult:
        name = f"out:{port}"
        try:
            g_ff = ff_enc.lit(self.ff_module.net_of_port(port).name)
            g_conv = envs["out"].lit(self.conv_module.net_of_port(port).name)
        except ModelViolation as exc:
            return ConeResult(name, "violation", method="structural",
                              detail=str(exc))
        except RecursionError:
            return ConeResult(name, "violation", method="structural",
                              detail="cone too deep to encode")
        cone = self._discharge(name, self.builder.xor2(g_ff, g_conv))
        self._maybe_replay(cone, None)
        return cone

    # -- discharging ---------------------------------------------------------

    def _discharge(self, name: str, miter: int) -> ConeResult:
        b = self.builder
        if miter == b.FALSE:
            return ConeResult(name, "proven", method="hash")
        if miter == b.TRUE:
            return ConeResult(
                name, "refuted", method="trivial",
                detail="miter folded to constant TRUE",
                counterexample=self._extract(None),
            )
        clauses = b.cone([miter]) + [(miter,)]
        key = None
        if self.cone_cache is not None:
            digest = hashlib.sha256(
                repr((miter, clauses)).encode()).hexdigest()
            key = ("verify_cone", digest)
            payload, _size = self.cone_cache.load(key)
            if isinstance(payload, dict) and "status" in payload:
                self.cache_hits += 1
                obs.add("verify.cone_cache_hits")
                return self._from_payload(name, payload, len(clauses))
        from repro.verify.sat import Solver

        outcome = Solver(
            b.n_vars, clauses, conflict_budget=self.conflict_budget).solve()
        self.solver_runs += 1
        obs.add("verify.solver_runs")
        payload = {
            "status": outcome.status,
            "model": outcome.model if outcome.status == "sat" else None,
            "stats": outcome.stats.as_dict(),
        }
        if key is not None:
            self.cone_cache.store(key, payload)
        cone = self._from_payload(name, payload, len(clauses))
        cone.method = "sat"
        cone.cache_hit = False
        return cone

    def _from_payload(
        self, name: str, payload: dict, n_clauses: int
    ) -> ConeResult:
        status = {"sat": "refuted", "unsat": "proven",
                  "unknown": "unknown"}[payload["status"]]
        stats = payload.get("stats") or {}
        cone = ConeResult(
            name, status, method="cache", cache_hit=True,
            conflicts=int(stats.get("conflicts", 0)),
            decisions=int(stats.get("decisions", 0)),
            propagations=int(stats.get("propagations", 0)),
            clauses=n_clauses,
        )
        if status == "refuted":
            cone.counterexample = self._extract(payload.get("model"))
        elif status == "unknown":
            cone.detail = "solver conflict budget exhausted"
        return cone

    def _extract(self, model: dict[int, bool] | None) -> dict:
        model = model or {}
        cex = {
            "state": {name: int(model.get(var, False))
                      for name, var in self.state_vars.items()},
            "inputs": {port: int(model.get(var, False))
                       for port, var in self.pi_vars.items()},
        }
        if self.free_vars:
            cex["floating"] = {net: int(model.get(var, False))
                               for net, var in self.free_vars.items()}
        return cex

    # -- counterexample replay ----------------------------------------------

    def _maybe_replay(self, cone: ConeResult, holder: Instance | None) -> None:
        if (cone.status != "refuted" or not self.replay
                or self.clocks is None or cone.counterexample is None):
            return
        for engine in self.replay_engines:
            with obs.span("verify.replay", cone=cone.cone, engine=engine):
                cone.replays.append(replay_counterexample(
                    self.ff_module, self.conv_module, self.style,
                    self.clocks, cone.cone, cone.counterexample,
                    holder_name=holder.name if holder is not None else None,
                    engine=engine,
                ))


def replay_counterexample(
    ff_module: Module,
    conv_module: Module,
    style: str,
    clocks: ClockSpec,
    cone: str,
    counterexample: dict,
    holder_name: str | None = None,
    engine: str = "reference",
) -> ReplayResult:
    """Drive one SAT model through the event simulator on both sides.

    The model's state assignment becomes the sequential initial values
    (``S_0``), its input assignment is applied at t=0 (the testbench's
    vector-0 convention) and held; then:

    * a ``state:<ff>`` cone is probed where both sides hold ``S_1`` --
      the FF's Q net vs the holder latch's Q net, at the holder phase's
      instant from ``_PROBE_FRACTION``;
    * an ``out:<port>`` cone is probed at the cycle-0 output sample
      instant, ``T - 0.02T``, on the port itself.

    A divergence (binary values, unequal) confirms the counterexample;
    the rendered :class:`~repro.sim.equivalence.EquivalenceReport`
    mismatch format is reused for the probe description.
    """
    from repro.sim.simulator import Simulator

    period = clocks.period
    state = counterexample.get("state", {})
    inputs = counterexample.get("inputs", {})

    ff = ff_module.copy()
    for inst in ff.sequential_instances():
        inst.attrs["init"] = int(
            state.get(inst.name, int(inst.attrs.get("init", 0) or 0)))
    conv = conv_module.copy()
    for inst in conv.sequential_instances():
        orig = inst.attrs.get("orig_ff")
        if orig is not None and str(orig) in state:
            # holders *and* followers inherit the architectural value
            inst.attrs["init"] = int(state[str(orig)])
        else:
            # retimed latches keep their derived init; it is refreshed
            # from the holder rank before anything samples it
            inst.attrs["init"] = int(inst.attrs.get("init", 0) or 0)

    ff_sim = Simulator(ff, ClockSpec.single(period), delay_model="unit",
                       count_activity=False, engine=engine)
    conv_sim = Simulator(conv, clocks, delay_model="unit",
                         count_activity=False, engine=engine)
    for sim, module in ((ff_sim, ff), (conv_sim, conv)):
        for port in module.data_input_ports():
            sim.set_input(port, int(inputs.get(port, 0)), 0.0)

    kind, _, target = cone.partition(":")
    if kind == "state":
        holder = conv.instances[holder_name] if holder_name else None
        if holder is None:
            return ReplayResult(engine, False, probe="no holder to probe")
        phase = str(holder.attrs.get("phase"))
        t = period * _PROBE_FRACTION.get(phase, 1.5)
        ff_net = ff.instances[target].output_net()
        conv_net = holder.output_net()
        ff_sim.run_until(t)
        conv_sim.run_until(t)
        ff_val = ff_sim.value(ff_net)
        conv_val = conv_sim.value(conv_net)
        where = f"{target} (ff net {ff_net}, holder net {conv_net})"
        cycle = 1
    else:
        t = period * (1.0 - _OUTPUT_GUARD_FRACTION)
        ff_sim.run_until(t)
        conv_sim.run_until(t)
        ff_val = ff_sim.port_value(target)
        conv_val = conv_sim.port_value(target)
        where = target
        cycle = 0

    confirmed = ff_val != conv_val and 2 not in (ff_val, conv_val)
    report = EquivalenceReport(cycles=cycle + 1)
    if confirmed:
        report.mismatches.append(Mismatch(cycle, where, ff_val, conv_val))
    return ReplayResult(
        engine=engine,
        confirmed=confirmed,
        probe=f"{where} @ {t:g}ps: {report}",
        ff_value=ff_val,
        conv_value=conv_val,
    )


def check_equivalence(
    ff_module: Module,
    conv_module: Module,
    style: str,
    clocks: ClockSpec | None = None,
    **kwargs,
) -> VerifyResult:
    """Convenience wrapper: construct a checker and run it."""
    return EquivalenceChecker(
        ff_module, conv_module, style, clocks, **kwargs).check()
