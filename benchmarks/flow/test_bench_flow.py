"""Self-tests of the flow benchmark.

    PYTHONPATH=src python -m pytest benchmarks/flow -q

The worker tests run a tiny s1488 workload at 16 cycles in-process,
through the same code the benchmark's child processes run.
"""

from __future__ import annotations

import copy
import json
import math
import re

import pytest

import bench_flow as bf

SPEC = json.loads((bf.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = bf.Workload(("s1488",), sim_cycles=16)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _run(workload=TINY, trace=False, **kwargs) -> dict:
    return bf.run_worker(workload, seed=1, seconds=0.0, trace=trace, **kwargs)


def _tiny_run(workload=TINY, cache_dir=None) -> dict:
    populate_s = (bf.populate(workload, 1, cache_dir) if workload.warm
                  else 0.0)
    return {
        "setup": [0.5, 0.6, 0.7],
        "populate_s": populate_s,
        "untraced": _run(workload, cache_dir=cache_dir),
        "traced": _run(workload, trace=True, cache_dir=cache_dir),
    }


def test_benchmark_json_obeys_schema_and_matches_code():
    raw = (bf.ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.match(path) and not path.startswith("/")
        assert ".." not in path.split("/")
        assert (bf.ROOT / path).is_dir()
    command = SPEC["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in command)
    assert command[1].startswith(tuple(p + "/" for p in SPEC["paths"]))
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60

    workloads, e2e, layers = (SPEC["workloads"], SPEC["end_to_end"],
                              SPEC["per_layer"])
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    for row in workloads:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in e2e:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in layers:
        assert set(row) == {"name", "unit", "better"}
    names = [row["name"] for row in workloads + e2e + layers]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for row in e2e + layers:
        assert UNIT.match(row["unit"])
        assert row["better"] in ("lower", "higher")

    setup = next(row for row in e2e if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] > max(row["bound"] for row in e2e if row is not setup)

    assert [row["name"] for row in workloads] == list(bf.WORKLOADS)
    assert {r["name"]: r["unit"] for r in e2e} == bf.END_TO_END
    assert {r["name"]: (r["unit"], r["better"]) for r in layers} == {
        name: spec[:2] for name, spec in bf.LAYERS.items()}
    # every per-layer row predicts which end-to-end metric it moves, where
    for name, (_, _, moves, on) in bf.LAYERS.items():
        assert moves in bf.END_TO_END, name
        assert on and set(on) <= set(bf.WORKLOADS), name


def test_unknown_workload_is_a_one_line_usage_error(capsys):
    assert bf.main(["--workload", "nope"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "nope" in err


def test_tiny_run_emits_every_declared_metric():
    run = _tiny_run()
    assert bf.check_run(run)[1:] == (0, [])
    e2e = bf.end_to_end(run)
    layers = bf.per_layer(run)
    assert list(e2e) == [row["name"] for row in SPEC["end_to_end"]]
    assert set(layers) == {row["name"] for row in SPEC["per_layer"]}
    for value in (*e2e.values(), *layers.values()):
        assert isinstance(value, (int, float)) and math.isfinite(value)
    assert all(e2e[m] > 0 for m in e2e)
    assert all(layers[m] > 0 for m, spec in bf.LAYERS.items()
               if spec[0] == "s")
    assert layers["cache.misses"] > 0 and layers["cache.disk_mb"] == 0


def test_tiny_warm_rerun_is_all_disk_hits(tmp_path):
    warm = bf.Workload(TINY.designs, sim_cycles=16, warm=True)
    run = _tiny_run(warm, cache_dir=str(tmp_path))
    assert bf.check_run(run)[1:] == (0, [])
    layers = bf.per_layer(run)
    assert layers["cache.misses"] == 0 and layers["cache.hits"] > 0
    assert layers["cache.disk_mb"] > 0 and layers["sta.calls"] == 0
    cold = _run()["designs"]["s1488"]["outputs"]
    assert run["untraced"]["designs"]["s1488"]["outputs"] == cold


def test_perturbed_expected_file_fails_one_flow(monkeypatch, tmp_path):
    outputs = _run()["designs"]["s1488"]["outputs"]
    expected = {"s1488": copy.deepcopy(outputs)}
    expected["s1488"]["3p"]["power"]["total"] *= 1 + 1e-6
    registers = {"s1488": {s: outputs[s]["registers"] for s in bf.STYLES}}
    result = _run(expected=expected, registers=registers)
    assert result["failed"] == 1 and result["attempted"] == 3
    assert result["errors"] == ["s1488/3p: outputs differ from the expected ones"]

    import repro.bench.recorder as recorder

    monkeypatch.setattr(recorder, "default_root", lambda: tmp_path)
    run = {"setup": [0.5], "populate_s": 0.0, "untraced": result,
           "traced": None}
    line, code = bf.report(["tiny"], {"tiny": [run]}, False, 1, 0.0)
    assert (line["correct"], line["failed"], code) == (False, 1, 1)
    assert (tmp_path / "BENCH_flow.json").exists()


def test_within_tolerance_expected_passes():
    outputs = _run()["designs"]["s1488"]["outputs"]
    expected = {"s1488": copy.deepcopy(outputs)}
    expected["s1488"]["3p"]["power"]["total"] *= 1 + 1e-12
    assert _run(expected=expected)["failed"] == 0


def test_counts_repeat_exactly_across_runs():
    first, second = _run(), _run()
    traced = _run(trace=True)
    counts = first["designs"]["s1488"]["counts"]
    assert counts == second["designs"]["s1488"]["counts"]
    assert counts == traced["designs"]["s1488"]["counts"]
    assert counts["sim.events"] > 0 and counts["lint.calls"] > 0


@pytest.mark.parametrize("name", list(bf.WORKLOADS))
def test_expected_files_cover_every_workload(name):
    for seed in (1, 2):
        expected, registers = bf.load_expected(name, seed)
        assert set(expected) == set(bf.WORKLOADS[name].designs)
        for design, row in expected.items():
            assert set(row) == set(bf.STYLES)
            assert {s: row[s]["registers"] for s in bf.STYLES} == registers[design]
