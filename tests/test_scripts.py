"""Each script under scripts/ runs end to end at tiny sizes."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


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


def test_bench_compare_help(capsys):
    with pytest.raises(SystemExit) as exc:
        _main("bench_compare")(["--help"])
    assert exc.value.code == 0
    assert "--parent" in capsys.readouterr().out
