"""The deterministic count gate, ``benchmarks/check_counts.py``, on tiny
synthetic ``BENCH_*.json`` payloads."""

import importlib.util
import json
from pathlib import Path

import pytest

CHECKER = Path(__file__).parents[2] / "benchmarks" / "check_counts.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_counts", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metric(value, unit):
    return {"median": value, "q1": value, "q3": value, "n": 1, "unit": unit}


PAYLOADS = {
    "BENCH_flow_layers.json": {"seed": 1, "workloads": [{
        "name": "ladder", "runs": 1, "designs": [],
        "metrics": {"sta.calls": _metric(12, "count"),
                    "ilp.latches": _metric(3316, "count"),
                    "sta.s": _metric(0.68, "s")},
    }]},
    "BENCH_sim.json": {"design": "s1196", "runs": [
        {"engine": "batch", "delay_model": "unit", "events": 130354,
         "word_events": 5257, "bit_for_bit": True, "wall_s": 0.02},
    ]},
    "BENCH_verify.json": {
        "runs": [{"design": "s1488", "style": "3p", "cones": 25,
                  "solver_runs": 0, "wall_s": 0.005}],
        "negative": {"refuted": 3, "solver_runs": 7, "solver_conflicts": 16,
                     "cache_hit_rate": 1.0, "cold_wall_s": 0.01}},
    "BENCH_ilp.json": {"mis": {"objective": 5986, "wall_s": 0.09}},
}


@pytest.fixture()
def bench(tmp_path, checker):
    """A root with the payloads, and counts.json recorded from them."""
    def write(payloads):
        for name, payload in payloads.items():
            (tmp_path / name).write_text(json.dumps(payload))

    write(PAYLOADS)
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(checker.observe(tmp_path)))
    return tmp_path, counts, write


def _edited(name, edit):
    payloads = json.loads(json.dumps(PAYLOADS))
    edit(payloads[name])
    return {name: payloads[name]}


def test_recorded_counts_match(bench, checker, capsys):
    root, counts, _ = bench
    assert checker.main(root, counts) == 0
    out, err = capsys.readouterr()
    assert err == ""
    observed = json.loads(out)
    assert observed == json.loads(counts.read_text())
    # the unit selects the flow metrics: counts in, seconds out
    assert observed["BENCH_flow_layers.json"] == {
        "ladder": {"sta.calls": 12, "ilp.latches": 3316}}
    assert observed["BENCH_sim.json"] == {"runs/batch/unit": {
        "events": 130354, "word_events": 5257, "bit_for_bit": True}}


def test_changed_count_is_one_line(bench, checker, capsys):
    root, counts, write = bench
    write(_edited("BENCH_flow_layers.json", lambda p: p["workloads"][0][
        "metrics"]["sta.calls"].update(median=13)))
    assert checker.main(root, counts) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["BENCH_flow_layers.json ladder sta.calls: "
                   "expected 12, observed 13"]


def test_missing_field_fails(bench, checker, capsys):
    root, counts, write = bench
    write(_edited("BENCH_verify.json",
                  lambda p: p["negative"].pop("solver_conflicts")))
    assert checker.main(root, counts) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["BENCH_verify.json negative solver_conflicts: "
                   "expected 16, observed nothing"]


def test_missing_file_fails(bench, checker, capsys):
    root, counts, _ = bench
    (root / "BENCH_ilp.json").unlink()
    assert checker.main(root, counts) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["BENCH_ilp.json: no such file (1 pinned)"]


def test_changed_wall_time_passes(bench, checker, capsys):
    root, counts, write = bench
    write(_edited("BENCH_flow_layers.json", lambda p: p["workloads"][0][
        "metrics"]["sta.s"].update(median=6.8)))
    write(_edited("BENCH_sim.json",
                  lambda p: p["runs"][0].update(wall_s=2.0)))
    assert checker.main(root, counts) == 0
    assert capsys.readouterr().err == ""
