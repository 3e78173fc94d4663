"""An in-house CDCL SAT solver.

In the repo's own-solver tradition (``repro.ilp.mis`` is the exact MIS
twin): no external solver dependency, a readable implementation
of the standard modern architecture, sized for the per-cone miters the
equivalence checker produces (hundreds to a few thousand variables).

The feature set is the classic quartet:

* **two-watched-literal propagation** -- each clause is watched by two
  literals; only clauses whose watch is falsified are visited, so
  propagation cost tracks the implication frontier, not the clause DB;
* **first-UIP clause learning** -- conflicts are resolved backwards over
  the trail to the first unique implication point, the learned clause is
  asserting at the computed backjump level;
* **VSIDS-style activity** -- variables bumped in conflict analysis are
  preferred decisions, with multiplicative decay (implemented by
  rescaling the increment) and phase saving;
* **Luby restarts** -- the universally-good restart schedule, unit 100
  conflicts.

``solve`` is budgeted: past ``conflict_budget`` conflicts it returns
``"unknown"`` rather than hanging a pipeline gate, and the caller
reports the cone as undecided.

Literal convention matches :mod:`repro.verify.cnf`: signed DIMACS ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

_UNASSIGNED = -1


def luby(i: int) -> int:
    """The i-th term (1-based) of the Luby sequence 1,1,2,1,1,2,4,..."""
    while True:
        k = i.bit_length()  # 2^(k-1) <= i < 2^k
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


@dataclass
class SolverStats:
    """Counters of one ``solve`` call (cumulative across restarts)."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    #: literals deleted from learned clauses by self-subsumption.
    minimized: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class SolveOutcome:
    """Result of one solve: status plus (on SAT) the model."""

    status: str  # "sat" | "unsat" | "unknown"
    #: on SAT: var -> bool for every variable (unconstrained vars False).
    model: dict[int, bool] = field(default_factory=dict)
    stats: SolverStats = field(default_factory=SolverStats)


class Solver:
    """CDCL over a fixed clause set.

    One-shot: construct, :meth:`solve` once.  ``n_vars`` may exceed the
    highest variable actually mentioned (the checker hands over a slice
    of a larger builder's namespace); untouched variables never become
    decision candidates because only watched variables are bumped, but
    they do receive a (False) model value.
    """

    def __init__(
        self,
        n_vars: int,
        clauses: Iterable[Sequence[int]],
        conflict_budget: int = 200_000,
    ) -> None:
        self.n_vars = n_vars
        self.conflict_budget = conflict_budget
        self.stats = SolverStats()
        n = n_vars + 1
        #: assignment per var: _UNASSIGNED / 0 / 1.
        self._value = [_UNASSIGNED] * n
        self._level = [0] * n
        #: reason clause index per implied var (-1 for decisions).
        self._reason = [-1] * n
        self._saved_phase = [False] * n
        self._activity = [0.0] * n
        self._var_inc = 1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        #: clause DB: original then learned, as mutable lists so watch
        #: maintenance can reorder lits (watches are positions 0 and 1).
        self._clauses: list[list[int]] = []
        #: watches[lit index] = clause indices watching lit.
        self._watches: dict[int, list[int]] = {}
        self._pending_units: list[int] = []
        self._contradiction = False
        occurring: set[int] = set()
        for clause in clauses:
            occurring.update(abs(lit) for lit in clause)
            self._add_clause(list(clause))
        #: decision candidates: variables the clauses actually mention
        #: (the checker passes cone slices of a much larger namespace).
        occurring.discard(1)
        self._order = sorted(occurring)

    # -- clause ingestion ---------------------------------------------------

    def _add_clause(self, lits: list[int]) -> None:
        # dedupe; drop tautologies
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if -lit in seen:
                return
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        if not out:
            self._contradiction = True
            return
        if len(out) == 1:
            self._pending_units.append(out[0])
            return
        self._attach(out)

    def _attach(self, lits: list[int]) -> int:
        idx = len(self._clauses)
        self._clauses.append(lits)
        self._watches.setdefault(lits[0], []).append(idx)
        self._watches.setdefault(lits[1], []).append(idx)
        return idx

    # -- assignment ---------------------------------------------------------

    def _lit_value(self, lit: int) -> int:
        v = self._value[abs(lit)]
        if v == _UNASSIGNED:
            return _UNASSIGNED
        return v ^ (1 if lit < 0 else 0)

    def _enqueue(self, lit: int, reason: int) -> bool:
        var = abs(lit)
        val = self._value[var]
        if val != _UNASSIGNED:
            return self._lit_value(lit) == 1
        self._value[var] = 1 if lit > 0 else 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> int:
        """BCP from the queue head; returns a conflict clause index or -1."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            falsified = -lit
            watching = self._watches.get(falsified)
            if not watching:
                continue
            kept: list[int] = []
            for ci in watching:
                clause = self._clauses[ci]
                # normalize: the falsified watch sits at position 1
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) == 1:
                    kept.append(ci)
                    continue
                # hunt a non-false replacement watch
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(clause[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if self._lit_value(first) == 0:
                    # conflict: restore untouched tail and report
                    kept.extend(watching[watching.index(ci) + 1:])
                    self._watches[falsified] = kept
                    return ci
                self._enqueue(first, ci)
            self._watches[falsified] = kept
        return -1

    # -- conflict analysis --------------------------------------------------

    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self.n_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP learned clause and its backjump level."""
        learned: list[int] = [0]  # slot 0: the asserting (UIP) literal
        seen = [False] * (self.n_vars + 1)
        counter = 0  # current-level vars pending resolution
        lit = 0
        index = len(self._trail)
        clause = self._clauses[conflict]
        cur_level = len(self._trail_lim)
        while True:
            for q in clause if lit == 0 else clause[1:]:
                var = abs(q)
                if seen[var] or self._level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self._level[var] == cur_level:
                    counter += 1
                else:
                    learned.append(q)
            # walk the trail back to the next marked literal
            while True:
                index -= 1
                lit = self._trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            seen[abs(lit)] = False
            if counter == 0:
                break
            clause = self._clauses[self._reason[abs(lit)]]
        learned[0] = -lit
        self._minimize(learned)
        if len(learned) == 1:
            return learned, 0
        # backjump to the second-highest decision level in the clause
        max_i = max(range(1, len(learned)),
                    key=lambda i: self._level[abs(learned[i])])
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self._level[abs(learned[1])]

    def _minimize(self, learned: list[int]) -> None:
        """Self-subsumption: drop lits whose reason is covered by the clause."""
        marked = {abs(lit) for lit in learned}
        kept = [learned[0]]
        for lit in learned[1:]:
            reason = self._reason[abs(lit)]
            if reason < 0:
                kept.append(lit)
                continue
            for q in self._clauses[reason]:
                var = abs(q)
                if var != abs(lit) and var not in marked and self._level[var] > 0:
                    kept.append(lit)
                    break
            else:
                self.stats.minimized += 1
        learned[:] = kept

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._saved_phase[var] = self._value[var] == 1
            self._value[var] = _UNASSIGNED
            self._reason[var] = -1
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = limit

    # -- decisions ----------------------------------------------------------

    def _decide(self) -> bool:
        best = 0
        best_act = -1.0
        for var in self._order:
            if self._value[var] == _UNASSIGNED and self._activity[var] > best_act:
                best, best_act = var, self._activity[var]
        if best == 0:
            return False
        self.stats.decisions += 1
        self._trail_lim.append(len(self._trail))
        lit = best if self._saved_phase[best] else -best
        self._enqueue(lit, -1)
        return True

    # -- main loop ----------------------------------------------------------

    def solve(self) -> SolveOutcome:
        if self._contradiction:
            return SolveOutcome("unsat", stats=self.stats)
        for lit in self._pending_units:
            if not self._enqueue(lit, -1):
                return SolveOutcome("unsat", stats=self.stats)
        # seed activity with occurrence counts so early decisions are
        # informed before the first conflicts start bumping.
        for clause in self._clauses:
            for lit in clause:
                self._activity[abs(lit)] += 1e-6
        restart_round = 1
        conflicts_left = 100 * luby(restart_round)
        while True:
            conflict = self._propagate()
            if conflict >= 0:
                self.stats.conflicts += 1
                if not self._trail_lim:
                    return SolveOutcome("unsat", stats=self.stats)
                if self.stats.conflicts >= self.conflict_budget:
                    return SolveOutcome("unknown", stats=self.stats)
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], -1):
                        return SolveOutcome("unsat", stats=self.stats)
                else:
                    ci = self._attach(learned)
                    self.stats.learned += 1
                    self._enqueue(learned[0], ci)
                self._var_inc /= 0.95
                conflicts_left -= 1
                if conflicts_left <= 0:
                    self.stats.restarts += 1
                    restart_round += 1
                    conflicts_left = 100 * luby(restart_round)
                    self._backtrack(0)
            else:
                if not self._decide():
                    model = {v: self._value[v] == 1 for v in self._order}
                    # var 1 is never a decision candidate (the builder
                    # pins it TRUE), but standalone CNF may mention it:
                    # report whatever propagation settled on.
                    if self._value[1] != _UNASSIGNED:
                        model[1] = self._value[1] == 1
                    return SolveOutcome("sat", model=model, stats=self.stats)


def solve_cnf(
    n_vars: int,
    clauses: Iterable[Sequence[int]],
    conflict_budget: int = 200_000,
) -> SolveOutcome:
    """One-shot convenience wrapper."""
    return Solver(n_vars, clauses, conflict_budget=conflict_budget).solve()
