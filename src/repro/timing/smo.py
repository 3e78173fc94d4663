"""The SMO (Sakallah-Mudge-Olukotun) multi-phase clocking model (Sec. II).

The model describes a k-phase clock by the closing times ``e_i`` of its
phases within a common cycle ``Tc`` and relates latches through the
*forward phase shift*::

    E_ij = e_j - e_i        if e_i < e_j
         = Tc + e_j - e_i   otherwise   (including i == j)

which is the time from phase i's closing edge to the next closing edge of
phase j -- the time budget a token launched at i's close has to reach j.

This module provides the phase algebra; the General System Timing
Constraint (GSTC) checks of every edge, with time borrowing, live in the
iterative whole-design analysis of :mod:`repro.timing.sta`.

Registers are unified as :class:`RegisterTiming`: an edge-triggered FF is a
"latch" whose capture is its rising edge with zero transparency width, so
the same equations cover FF, master-slave, and 3-phase designs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.convert.clocks import ClockSpec


@dataclass(frozen=True)
class RegisterTiming:
    """Clocking view of one register for the SMO equations.

    ``capture``: time within the cycle at which the register commits data
    (latch closing edge, FF rising edge); ``width``: transparency window
    ending at ``capture`` (0 for an FF); ``setup``/``hold``: library
    requirements at the capture edge.
    """

    name: str
    phase: str
    capture: float
    width: float
    setup: float = 0.0
    hold: float = 0.0

    @property
    def opening(self) -> float:
        """Earliest possible departure time within the cycle."""
        return self.capture - self.width


def register_timing_for(
    name: str,
    op: str,
    phase: str,
    clocks: ClockSpec,
    setup: float = 0.0,
    hold: float = 0.0,
) -> RegisterTiming:
    """Build the SMO view of a DFF or DLATCH clocked by ``phase``."""
    spec = clocks.phase(phase)
    if op == "DFF":
        return RegisterTiming(name, phase, spec.rise, 0.0, setup, hold)
    if op == "DLATCH":
        return RegisterTiming(name, phase, spec.fall, spec.width, setup, hold)
    raise ValueError(f"{op!r} is not a register op")


def forward_shift(period: float, capture_i: float, capture_j: float) -> float:
    """E_ij: time from capture edge i to the next capture edge of j."""
    diff = capture_j - capture_i
    if diff <= 0:
        diff += period
    return diff


def windows_overlap(src: "RegisterTiming", dst: "RegisterTiming") -> bool:
    """Do the two registers' transparency windows intersect in time?

    Zero-width windows (FFs) never overlap.  Intervals live in [0, T) and
    do not wrap (the schedules in :mod:`repro.convert.clocks` guarantee
    this).
    """
    return (src.opening < dst.capture and dst.opening < src.capture
            and src.width > 0 and dst.width > 0)


def effective_hold_gap(
    period: float, src: "RegisterTiming", dst: "RegisterTiming"
) -> float:
    """Slack the clock schedule contributes to the hold check of src->dst.

    Non-overlapping windows (constraint C2, true for FF/master-slave/
    3-phase designs): the time from dst's previous capture edge to src's
    opening -- data launched at the opening cannot arrive "too early" by
    more than this.  Overlapping windows (pulsed latches, which violate
    C2): *negative* -- newly launched data can race straight through the
    still-transparent capture latch, so the min path must additionally
    outlast ``dst.capture - src.opening``.  This is precisely the pulsed
    latch hold problem of Sec. I.
    """
    if windows_overlap(src, dst):
        return -(dst.capture - src.opening)
    return capture_gap(period, src.opening, dst.capture)


def capture_gap(period: float, opening_i: float, capture_j: float) -> float:
    """Time from j's *previous* capture edge to i's opening edge.

    This is the slack protecting j's held data from i's newly launched
    data; the hold constraint on an edge i -> j is
    ``min_delay + gap >= hold_j``.
    """
    gap = opening_i - capture_j
    while gap < 0:
        gap += period
    return gap % period
