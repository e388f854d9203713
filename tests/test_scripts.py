"""Each script under scripts/ runs end to end at tiny sizes."""

import csv
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _module(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(name):
    return _module(name).main


CASES = {
    "holder_sweep": (["--depths", "4", "5", "--t-end", "0.25", "--log2-step", "5",
                      "--replicas", "2", "--pair-budget", "4"], 2),
    "lifetime_sweep": (["--t-max", "2.0", "--points", "5"], 5),
    "box_dimension_experiment": (["--depth", "8", "--times", "0", "0.25", "--replicas", "2",
                                  "--scale-exponents", "2", "3", "4"], 2),
}


@pytest.mark.parametrize("name", CASES)
def test_script_writes_csv(tmp_path, name):
    argv, rows = CASES[name]
    out = tmp_path / f"{name}.csv"
    assert _main(name)([*argv, "-o", str(out)]) == 0
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert len(table) == rows + 1
    assert all(len(row) == len(table[0]) for row in table)


def test_holder_sweep_digest(tmp_path):
    # sha256 of the CSV at the sizes above, recorded before the sweep read streamed paths
    out = tmp_path / "holder_sweep.csv"
    assert _main("holder_sweep")([*CASES["holder_sweep"][0], "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ea7db15dd50cd4828415c537af01db929399b113be1cc73c185d20644a55c6e1"
    )


def test_bench_compare_help(capsys):
    with pytest.raises(SystemExit) as exc:
        _main("bench_compare")(["--help"])
    assert exc.value.code == 0
    assert "--parent" in capsys.readouterr().out


def test_bench_compare_summarizes_synthetic_runs(tmp_path, monkeypatch):
    # made-up runs stand in for perfbench: per seed, the parent's wall time
    # is 10 + seed and the change's 10.4 + seed; its rate 100 on both sides
    module = _module("bench_compare")

    def run_once(checkout, workload, seed, seconds):
        change = checkout == "."
        values = {"wall_s": 10.0 + seed + 0.4 * change, "setup_s": 1.0,
                  "peak_rss_mb": 100.0 - change, "vertex_steps_per_s": 100.0}
        return {"correct": True, "failed": 0,
                "metrics": {k: {"value": v} for k, v in values.items()}}

    monkeypatch.setattr(module, "run_once", run_once)
    monkeypatch.chdir(SCRIPTS.parent)  # BENCHMARK.json of --change
    out = tmp_path / "bench.json"
    argv = ["--parent", "parent", "--change", ".", "--parent-commit", "a", "--change-commit",
            "b", "--workload", "w", "--seeds", "0", "1", "2", "3", "4", "-o", str(out)]
    assert module.main(argv) == 0
    metrics = json.loads(out.read_text())["workloads"]["w"]["metrics"]
    wall = metrics["wall_s"]
    assert wall["parent"]["median"] == 12.0 and wall["change"]["median"] == 12.4
    assert wall["relative"] == pytest.approx(0.4 / 12.0)
    assert wall["parent_spread"] == pytest.approx(2.0 / 12.0)  # q1 11, q3 13
    assert wall["bound"] == 0.25 and wall["within_bound"] and wall["pairs_won"] == 0
    rss = metrics["peak_rss_mb"]
    assert rss["relative"] == pytest.approx(-0.01) and rss["within_bound"]
    assert rss["pairs_won"] == 5 and rss["parent_spread"] == 0.0
    # a higher-is-better metric is within its bound while it falls no more than it
    assert metrics["vertex_steps_per_s"]["within_bound"]
    assert not module.compare([100.0] * 3, [70.0] * 3, "higher", 0.25)["within_bound"]
    assert module.compare([100.0] * 3, [80.0] * 3, "higher", 0.25)["within_bound"]
    assert not module.compare([1.0] * 3, [1.3] * 3, "lower", 0.25)["within_bound"]


def test_bench_compare_keeps_finished_pairs(tmp_path, monkeypatch):
    # a run that fails on the third pair leaves the two pairs before it on disk
    module = _module("bench_compare")
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(seed)
        if seed == 2:
            raise RuntimeError("run failed")
        return {"correct": True, "failed": 0,
                "metrics": {k: {"value": 1.0 + seed} for k in
                            ("wall_s", "setup_s", "peak_rss_mb", "vertex_steps_per_s")}}

    monkeypatch.setattr(module, "run_once", run_once)
    monkeypatch.chdir(SCRIPTS.parent)  # BENCHMARK.json of --change
    out = tmp_path / "bench.json"
    argv = ["--parent", "parent", "--change", ".", "--parent-commit", "a", "--change-commit",
            "b", "--workload", "w", "--seeds", "0", "1", "2", "3", "-o", str(out)]
    with pytest.raises(RuntimeError, match="run failed"):
        module.main(argv)
    assert calls == [0, 0, 1, 1, 2]
    record = json.loads(out.read_text())["workloads"]["w"]
    assert record["pairs"] == 2 and record["seeds"] == [0, 1]
    wall = record["metrics"]["wall_s"]
    assert wall["pairs"] == 2 and wall["parent"]["runs"] == wall["change"]["runs"] == [1.0, 2.0]
