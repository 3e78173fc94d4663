"""Import footprint: numpy and scipy load only when a HiGHS or LP solve runs.

The flow solves the phase ILP through its pure-Python MIS reduction, so a
default ``repro`` process never needs numpy or scipy, which are most of the
memory and import time a process spends before its first flow (the CLI,
the benchmark worker, every ``--executor process`` worker, the serve
daemon).  Only the HiGHS reference (``phase_ilp.solve_ilp``,
``repro.ilp.scipy_backend``) and the SMO schedule LP
(``optimize_schedule``, ``repro schedule``) import them, inside the
function that solves.

The pytest process itself has scipy loaded, so the probe runs in a fresh
interpreter and reports what it saw as one JSON line.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

_PROBE = r"""
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = repro.cli.main(list(argv))
    return {"code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "loaded": loaded()}

import repro.cli, repro.flow, repro.timing, repro.ilp, repro.serve
seen = {"import": loaded()}
run = ("run", "s1488", "--cycles", "16", "--cache-dir", sys.argv[1])
seen["cold"] = cli(*run)
seen["warm"] = cli(*run)

from repro.circuits import build
from repro.convert.phase_ilp import solve_ilp, solve_via_mis
from repro.netlist.traversal import ff_fanout_map
graph = ff_fanout_map(build("s1196"))
highs = solve_ilp(graph)
seen["ilp"] = {
    "objective": highs.objective,
    "mis_objective": solve_via_mis(graph).objective,
    "optimal": highs.optimal,
    "phase_counts": highs.phase_counts(),
    "loaded": loaded(),
}
seen["schedule"] = cli("schedule", "s1488")
print(json.dumps(seen))
"""


def _probe(cache_dir):
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, str(cache_dir)],
        capture_output=True, text=True, timeout=300, env=env)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_default_process_never_loads_numpy_or_scipy(tmp_path):
    seen = _probe(tmp_path / "cache")
    # (a) importing every entry-point package loads neither
    assert seen["import"] == []
    # (b) nor does a cold and then an all-hit warm `repro run`
    cold, warm = seen["cold"], seen["warm"]
    assert cold["code"] == warm["code"] == 0
    assert cold["stdout"] == warm["stdout"] and "s1488" in cold["stdout"]
    assert " 0 misses" in warm["stderr"]
    assert cold["loaded"] == warm["loaded"] == []
    # (c) the HiGHS reference and the schedule LP still solve, in the same
    # process, and only then are numpy and scipy loaded
    assert seen["ilp"] == {
        "objective": 8,
        "mis_objective": 8,
        "optimal": True,
        "phase_counts": {"p1": 10, "p2": 8, "p3": 8},
        "loaded": ["numpy", "scipy"],
    }
    schedule = seen["schedule"]
    assert schedule["code"] == 0
    assert schedule["stdout"] == (
        "design s1488 (paper period 1000 ps)\n"
        "  default schedule minimum period:    638.3 ps\n"
        "  SMO-optimized schedule:             426.1 ps (12 LP iterations)\n"
        "  optimized edges: Tc=426.1 ps  p1:[0,21), p2:[26,59), p3:[64,426)\n"
    )
