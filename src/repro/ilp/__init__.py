"""0-1 integer linear programming for the phase ILP (Gurobi substitute).

* :class:`~repro.ilp.model.IlpModel` -- binary minimization models;
* :mod:`~repro.ilp.mis` -- exact maximum-independent-set branch-and-reduce
  (the structure the paper's ILP reduces to; the flow's solver);
* :mod:`~repro.ilp.scipy_backend` -- exact HiGHS backend via scipy, the
  reference the MIS path is tested and benchmarked against.  It is the
  one module here that loads numpy and scipy, so this package does not
  import it: ``from repro.ilp import scipy_backend`` does, and only the
  HiGHS reference (``phase_ilp.solve_ilp``, ``bench_ilp``) asks for it;
* :mod:`~repro.ilp.fuzz` -- seeded random FF-graph generator for the
  differential tests and scale benchmarks.
"""

from repro.ilp import fuzz, mis
from repro.ilp.model import Constraint, IlpModel, Sense, Solution, SolveStatus

__all__ = [
    "Constraint",
    "IlpModel",
    "Sense",
    "Solution",
    "SolveStatus",
    "fuzz",
    "mis",
]
