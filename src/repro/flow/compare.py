"""Style comparison: run FF / M-S / 3-phase flows and tabulate savings.

The three style runs share one :class:`ArtifactCache`, so the design is
synthesized once and the ff/ms/3p pipelines reuse the mapped netlist;
with ``jobs > 1`` the (independent) style runs execute concurrently on
the chosen :mod:`~repro.flow.executor` backend (threads by default;
``executor="process"`` sidesteps the GIL and shares artifacts through
the on-disk cache tier).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flow.design_flow import DesignResult, FlowOptions
from repro.flow.pipeline import ArtifactCache
from repro.flow.scheduler import JobScheduler
from repro.netlist.core import Module
from repro.power.model import savings


@dataclass
class StyleComparison:
    """Results of all three styles on one design (one Table I/II row)."""

    name: str
    ff: DesignResult
    ms: DesignResult
    three_phase: DesignResult

    def result(self, style: str) -> DesignResult:
        return {"ff": self.ff, "ms": self.ms, "3p": self.three_phase}[style]

    # -- Table I quantities ----------------------------------------------------

    @property
    def reg_counts(self) -> dict[str, int]:
        return {
            "ff": self.ff.stats.registers,
            "ms": self.ms.stats.registers,
            "3p": self.three_phase.stats.registers,
        }

    @property
    def reg_saving_vs_2ff(self) -> float:
        """Latches saved vs twice the FF count (paper's '2*FF' column)."""
        two_ff = 2 * self.ff.stats.registers
        return 100.0 * (two_ff - self.three_phase.stats.registers) / two_ff

    @property
    def reg_saving_vs_ms(self) -> float:
        ms = self.ms.stats.registers
        return 100.0 * (ms - self.three_phase.stats.registers) / ms

    @property
    def areas(self) -> dict[str, float]:
        return {
            "ff": self.ff.area,
            "ms": self.ms.area,
            "3p": self.three_phase.area,
        }

    @property
    def area_saving_vs_ff(self) -> float:
        return 100.0 * (self.ff.area - self.three_phase.area) / self.ff.area

    @property
    def area_saving_vs_ms(self) -> float:
        return 100.0 * (self.ms.area - self.three_phase.area) / self.ms.area

    # -- Table II quantities ---------------------------------------------------

    def power_saving_vs(self, base_style: str) -> dict[str, float]:
        base = self.result(base_style).power
        return savings(base, self.three_phase.power)

    def table_row(self) -> dict[str, object]:
        return {
            "design": self.name,
            "regs": self.reg_counts,
            "reg_save_2ff": self.reg_saving_vs_2ff,
            "reg_save_ms": self.reg_saving_vs_ms,
            "area": self.areas,
            "area_save_ff": self.area_saving_vs_ff,
            "area_save_ms": self.area_saving_vs_ms,
            "power": {
                style: self.result(style).power.as_row()
                for style in ("ff", "ms", "3p")
            },
            "power_save_ff": self.power_saving_vs("ff"),
            "power_save_ms": self.power_saving_vs("ms"),
        }


def compare_styles(
    design: Module,
    options: FlowOptions | None = None,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    executor: str | None = None,
    cache_dir: str | None = None,
) -> StyleComparison:
    """Run all three flows on ``design`` with shared options.

    ``jobs`` style runs execute concurrently (default 1: sequential,
    deterministic ordering of any progress output) on the ``executor``
    backend (``None``: threads when ``jobs > 1``).  The shared ``cache``
    means exactly one synthesis feeds all three styles either way --
    process workers share it through ``cache_dir`` instead (see
    :class:`~repro.flow.executor.ProcessExecutor`) -- and the results
    are identical bit for bit regardless of ``jobs`` or ``executor``.

    Thin front-end over a throwaway :class:`JobScheduler` — the serve
    daemon drives the very same scheduler, so CLI and service results
    are the same bits.
    """
    base = options if options is not None else FlowOptions()
    with JobScheduler(jobs=jobs, executor=executor, cache_dir=cache_dir,
                      cache=cache) as scheduler:
        return scheduler.compare(design, base)
