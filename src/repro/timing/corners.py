"""Multi-corner (PVT variation) timing analysis.

The paper's introduction motivates latch-based design with robustness:
latches "can consume lower power and area than FF-based designs,
particularly when process variation is considered [4]" and time borrowing
"remove[s] unnecessary margins associated with PVT variations".  This
module quantifies that on our substrate:

* a *corner* scales every cell delay by a derating factor (global
  slow/fast process, voltage, temperature) plus a random per-cell
  mismatch component (local variation);
* for an FF design, any slow excursion on the critical stage directly
  inflates the minimum period -- every stage must carry the full margin;
* for a latch design, transparency windows let a slow stage borrow from
  its neighbours, so the *average* stage delay matters more than the
  worst -- minimum period degrades more slowly with variation.

``variation_study`` measures exactly this: minimum feasible period per
corner for a design, from which the benchmark computes the margin each
style must reserve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.netlist.core import Module
from repro.timing.graph import SeqEdge, TimingGraph, extract_timing_graph
from repro.timing.sta import analyze, minimum_period


@dataclass(frozen=True)
class Corner:
    """One PVT corner: global derate + local (per-cell path) sigma."""

    name: str
    global_derate: float = 1.0  # multiplies all path delays
    local_sigma: float = 0.0  # stddev of per-edge lognormal-ish mismatch
    seed: int = 1


#: A standard corner set: typical, slow process/low voltage, fast, and a
#: "variation" corner with significant local mismatch on top of slow.
STANDARD_CORNERS = (
    Corner("typical", 1.00, 0.00),
    Corner("fast", 0.85, 0.02, seed=7),
    Corner("slow", 1.25, 0.03, seed=11),
    Corner("slow+var", 1.25, 0.10, seed=13),
)


def derate_graph(graph: TimingGraph, corner: Corner) -> TimingGraph:
    """Apply a corner to a timing graph (delays only; structure shared).

    Local mismatch is modelled per *cell* and accumulated per path: a path
    of delay ``d`` contains ~``d/d_cell`` independent cells, so its
    absolute mismatch sigma grows with ``sqrt(d)`` and its **relative**
    sigma shrinks as ``sqrt(d_ref/d)``.  ``local_sigma`` is the relative
    sigma of a reference-length (mean) path.  Without this scaling, a
    latch design's shorter register-to-register hops would be charged the
    full per-path sigma twice per stage, biasing the comparison.
    """
    rng = random.Random(corner.seed)
    positive = [e.max_delay for e in graph.edges if e.max_delay > 0]
    ref = sum(positive) / len(positive) if positive else 1.0
    edges = []
    for edge in graph.edges:
        if corner.local_sigma > 0 and edge.max_delay > 0:
            scale = (ref / edge.max_delay) ** 0.5
            local = max(0.0, 1.0 + rng.gauss(0.0, corner.local_sigma * scale))
        else:
            local = 1.0
        factor = corner.global_derate * local
        edges.append(
            SeqEdge(edge.src, edge.dst,
                    edge.min_delay * corner.global_derate
                    / max(1.0, local),  # min paths speed up under mismatch
                    edge.max_delay * factor)
        )
    return TimingGraph(registers=list(graph.registers), edges=edges)


@dataclass
class CornerResult:
    corner: Corner
    min_period: float


@dataclass
class VariationStudy:
    design: str
    results: list[CornerResult] = field(default_factory=list)

    def min_period(self, corner_name: str) -> float:
        for result in self.results:
            if result.corner.name == corner_name:
                return result.min_period
        raise KeyError(corner_name)

    @property
    def margin_percent(self) -> float:
        """Extra period the worst corner demands over typical, %."""
        typical = self.min_period("typical")
        worst = max(r.min_period for r in self.results)
        return 100.0 * (worst - typical) / typical

    def __str__(self) -> str:
        rows = ", ".join(
            f"{r.corner.name}={r.min_period:.0f}ps" for r in self.results
        )
        return f"{self.design}: {rows} (margin {self.margin_percent:.1f}%)"


def sigma_tolerance(
    module: Module,
    clocks,
    samples: int = 5,
    sigma_hi: float = 0.60,
    tolerance: float = 0.01,
) -> float:
    """Largest local-mismatch sigma the design absorbs at ``clocks``.

    This is the operational form of the robustness claim: at a fixed
    operating period (with its design margin), how much per-path random
    variation can the style take before setup fails at any of ``samples``
    mismatch draws?  An FF design fails as soon as one stage's draw eats
    its stage slack; a latch design soaks local excursions into its
    transparency windows (time borrowing), so it tolerates a larger sigma.
    """
    base = extract_timing_graph(module)

    def survives(sigma: float) -> bool:
        for seed in range(1, samples + 1):
            corner = Corner("probe", 1.0, sigma, seed=seed)
            report = analyze(module, clocks, graph=derate_graph(base, corner))
            if not report.setup_ok:
                return False
        return True

    if not survives(0.0):
        return 0.0
    low, high = 0.0, sigma_hi
    if survives(sigma_hi):
        return sigma_hi
    while high - low > tolerance:
        mid = (low + high) / 2
        if survives(mid):
            low = mid
        else:
            high = mid
    return low


def variation_study(
    module: Module,
    clocks_builder,
    corners: tuple[Corner, ...] = STANDARD_CORNERS,
    lo: float = 50.0,
    hi: float = 20_000.0,
) -> VariationStudy:
    """Minimum period of ``module`` at each corner, to within 2 ps.

    ``clocks_builder(period)`` produces the style's clock spec (e.g.
    ``ClockSpec.single`` or ``ClockSpec.default_three_phase``).
    """
    base = extract_timing_graph(module)
    study = VariationStudy(design=module.name)
    for corner in corners:
        graph = derate_graph(base, corner)
        period = minimum_period(module, clocks_builder, lo, hi,
                                tolerance=2.0, graph=graph)
        study.results.append(CornerResult(corner, period))
    return study
