"""Phase assignment: the output of the conversion ILP.

For every flip-flop ``u`` the paper's ILP decides two binaries (Sec. IV-A):

* ``G(u)`` -- 1 if ``u`` becomes a *back-to-back* latch pair (leading latch
  plus an inserted p2 follower), 0 if it becomes a *single* p1 latch;
* ``K(u)`` -- 1 if the leading latch is clocked by p1, 0 if by p3.

:class:`PhaseAssignment` stores the decisions plus solver bookkeeping and
checks the feasibility conditions the netlist rewrite relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.traversal import FFGraph

#: Phase names by role.
SINGLE_PHASE = "p1"
INSERTED_PHASE = "p2"


@dataclass
class PhaseAssignment:
    """Conversion decisions for every FF, keyed by instance name."""

    group: dict[str, int]  # G(u): 1 = back-to-back, 0 = single latch
    k: dict[str, int]  # K(u): 1 = leading latch on p1, 0 = on p3
    objective: int = 0
    solver: str = ""
    solve_seconds: float = 0.0
    optimal: bool = True

    def leading_phase(self, ff: str) -> str:
        return "p1" if self.k[ff] else "p3"

    def is_single(self, ff: str) -> bool:
        return self.group[ff] == 0

    @property
    def num_ffs(self) -> int:
        return len(self.group)

    @property
    def num_single(self) -> int:
        return sum(1 for g in self.group.values() if g == 0)

    @property
    def num_b2b(self) -> int:
        return sum(self.group.values())

    @property
    def total_latches(self) -> int:
        """Latches the converted design will contain: one per single FF,
        two per back-to-back FF."""
        return self.num_single + 2 * self.num_b2b

    def phase_counts(self) -> dict[str, int]:
        counts = {"p1": 0, "p2": 0, "p3": 0}
        for ff in self.group:
            counts[self.leading_phase(ff)] += 1
            if self.group[ff]:
                counts["p2"] += 1
        return counts

    def validate(self, graph: FFGraph) -> None:
        """Check the paper's constraints hold for this assignment.

        * every FF has G/K in {0,1} and G+K >= 1 (a p3 latch is always
          back-to-back);
        * no two consecutive *single* p1 latches: if u is single, every
          combinational fanout FF of u must have K=0;
        * FFs fed by primary inputs are back-to-back when on p1
          (G(v) >= K(v) for v in FO(PI)).
        """
        problems: list[str] = []
        for ff in graph.ffs:
            if ff not in self.group or ff not in self.k:
                problems.append(f"{ff}: missing assignment")
                continue
            g, k = self.group[ff], self.k[ff]
            if g not in (0, 1) or k not in (0, 1):
                problems.append(f"{ff}: non-binary G/K ({g}, {k})")
            if g + k < 1:
                problems.append(f"{ff}: p3 latch must be back-to-back")
        for ff in graph.ffs:
            if self.group.get(ff) != 0:
                continue
            if self.k.get(ff) != 1:
                problems.append(f"{ff}: single latch must be on p1")
            for other in graph.fanout.get(ff, ()):
                if self.k.get(other) == 1:
                    problems.append(
                        f"{ff} -> {other}: single p1 latch feeding a p1 latch "
                        "(simultaneous transparency)"
                    )
            if ff in graph.fanout.get(ff, ()):
                problems.append(f"{ff}: single latch with a self loop")
        for ff in graph.pi_fanout:
            if self.k.get(ff) == 1 and self.group.get(ff) == 0:
                problems.append(f"{ff}: PI-fed latch on p1 must be back-to-back")
        if problems:
            raise ValueError(
                "infeasible phase assignment:\n" + "\n".join(problems)
            )
