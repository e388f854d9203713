"""Tests of the benchmark itself: every check accepts a correct result and
rejects a deliberately corrupted one, and the tracer leaves the program
as it found it.

    python3 -m pytest perfbench -q
"""

import json
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from spans import Tracer  # noqa: E402
from treecascade import cli, engine, rng, transport, tree, verify  # noqa: E402
from treecascade import weights as wp  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAW = (3.0, -0.1, 0.3)
DEPTH = 5


def test_independent_draws_match_the_program():
    for key in (7, 2**63 + 5, 2**64 - 1):
        for first, step in ((0, 1), (3, 2**40)):
            want = rng.philox_blocks_numpy(np.arange(first, first + 3, dtype=np.uint64), 0, step, 0, key, 0)
            assert np.array_equal(checks.philox_words(key, first, 3, step, 0), want.reshape(-1))
    assert checks.derive_seeds(2**63 + 11, 6) == [int(s) for s in rng.derive_seeds(2**63 + 11, 6)]


@pytest.fixture(scope="module")
def gauss_path():
    grid = engine.make_grid(0.02, 1e-3)
    return engine.simulate_path(tree.uniform_flow(DEPTH), wp.gaussian_spec(), grid, seed=2**63 + 3)


def _shifted_states(path, step, flat, by):
    def state(j):
        s = path.log_weight_state(j)
        if j >= step:
            s[flat] += by
        return s

    return state


def test_increment_checks(gauss_path):
    p, grid = gauss_path, gauss_path.grid
    addresses = [(1, 0), (7, 13), (20, 61)]
    assert checks.check_addresses(None, p.seed, grid, p.log_weight_state, addresses) == []
    shifted = _shifted_states(p, 7, 13, 1e-6)
    assert checks.check_addresses(None, p.seed, grid, shifted, addresses)
    assert checks.check_final_state(None, p.seed, grid, DEPTH, p.log_weight_state(20)) == []
    assert checks.check_final_state(None, p.seed, grid, DEPTH, shifted(20))


def test_flow_and_replay_checks(gauss_path):
    p = gauss_path
    direct = p.masses_flat(9)
    replayed = np.concatenate(engine.compose_from_path(p, 4, 9).levels)
    assert checks.check_replay(replayed, direct) == []
    bad = direct.copy()
    bad[-1] *= 1 + 1e-9
    assert checks.check_replay(replayed, bad)

    final = p.snapshot(20)
    assert checks.check_flow_levels(final.levels) == []
    assert checks.check_validation(tree.validate_flow(final)) == []
    levels = [np.array(a) for a in final.levels]
    levels[-1][5] *= 1.001
    assert checks.check_flow_levels(levels)
    assert checks.check_validation(tree.validate_flow(tree.flow_from_levels(levels)))

    assert checks.check_initial_root(float(p.root_masses()[0]), 1.0) == []
    assert checks.check_initial_root(1.0 + 2**-52, 1.0)


def test_series_and_observable_checks(gauss_path):
    p = gauss_path
    leaf, other = tree.Vertex(DEPTH, 19), tree.Vertex(2, 0)
    series = p.vertex_mass_series([leaf, other])
    want = checks.leaf_series(None, p.seed, p.grid, DEPTH, 19)
    assert checks.check_series(series[:, 0], want) == []
    bad = series[:, 0].copy()
    bad[11] *= 1 + 1e-9
    assert checks.check_series(bad, want)

    from treecascade import observables

    br = observables.empirical_bracket(p, leaf, other)
    assert checks.check_bracket(br, series, 0.02) == []
    assert checks.check_bracket(br + 1e-6, series, 0.02)

    roots = p.root_masses()
    realized = float(np.sum(np.diff(np.log(roots)) ** 2))
    assert checks.check_qv([roots], [realized], [realized * 1.1]) == []
    assert checks.check_qv([roots], [realized], [realized * 1.2])
    assert checks.check_qv([roots], [realized * 1.01], [realized])


def test_holder_check():
    @dataclass
    class Fit:
        slope: float
        degenerate: bool = False

    assert checks.check_holder(Fit(0.5)) == []
    assert checks.check_holder(Fit(0.61))
    assert checks.check_holder(Fit(0.5, degenerate=True))


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    law = ["--kind", "compound_poisson", "--rate", repr(LAW[0]), "--jump-mean", repr(LAW[1]),
           "--jump-sd", repr(LAW[2])]
    grid = ["--measure", "theta", "--depth", str(DEPTH), "--t-end", "0.5", "--step", "0.25"]
    for argv in (
        ["simulate", *grid, "--replicas", "2", "--seed", "5", "--output", str(d / "roots.csv"),
         "--track-vertex", f"{DEPTH}:9", "--vertex-output", str(d / "v.csv"), *law],
        ["simulate", *grid, "--seed", "6", "--output", str(d / "r1.csv"), "--save-flow", str(d / "f1.json"), *law],
        ["simulate", *grid, "--seed", "7", "--output", str(d / "r2.csv"), "--save-flow", str(d / "f2.json"), *law],
        ["analyze", "--measure", str(d / "f1.json"), "--t", "0.5", "--output", str(d / "a.json"), *law],
        ["transport", "--mu", str(d / "f1.json"), "--nu", str(d / "f2.json"), "--normalize",
         "--output", str(d / "t.json")],
        ["kpz", "--mode", "box", "--t", "0.5", "--depth", str(DEPTH), "--seed", "8",
         "--scale-exponents", "2,3,5", "--output", str(d / "k.json"), *law],
    ):
        assert cli.run(argv) == 0
    return d, np.array([0.0, 0.25, 0.5])


def _edit_json(src, dst, edit):
    doc = json.loads(src.read_text())
    edit(doc)
    dst.write_text(json.dumps(doc))
    return dst


def _edit_csv_row(src, dst, row, col, value):
    with open(src, newline="") as fh:
        lines = fh.read().split("\r\n")
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    dst.write_text("\r\n".join(lines))
    return dst


def test_root_and_vertex_csv_checks(cli_outputs, tmp_path):
    d, grid = cli_outputs
    assert checks.check_root_csv(d / "roots.csv", grid, 2) == []
    assert checks.check_root_csv(_edit_csv_row(d / "roots.csv", tmp_path / "r.csv", 2, 2, "1.0000001"), grid, 2)
    seeds = checks.derive_seeds(5, 2)
    assert checks.check_vertex_csv(d / "v.csv", LAW, seeds, grid, DEPTH, 9) == []
    bad = _edit_csv_row(d / "v.csv", tmp_path / "v.csv", 4, 4, "0.03125000001")
    assert checks.check_vertex_csv(bad, LAW, seeds, grid, DEPTH, 9)


def test_saved_flow_check(cli_outputs, tmp_path):
    d, grid = cli_outputs
    seed = checks.derive_seeds(6, 1)[0]
    assert checks.check_saved_flow(d / "f1.json", LAW, seed, grid, DEPTH, d / "r1.csv") == []

    def change_leaf(doc):
        doc["levels"][-1][3] *= 1.0 + 1e-9

    bad = _edit_json(d / "f1.json", tmp_path / "f.json", change_leaf)
    assert checks.check_saved_flow(bad, LAW, seed, grid, DEPTH, d / "r1.csv")
    # the other path's flow is a valid flow, but not this seed's
    assert checks.check_saved_flow(d / "f2.json", LAW, seed, grid, DEPTH, d / "r1.csv")


def test_analyze_transport_and_lp_checks(cli_outputs, tmp_path):
    d, _ = cli_outputs
    assert checks.check_analyze(d / "a.json", d / "f1.json", LAW, 0.5) == []

    def bump_pressure(doc):
        doc["pressure_samples"][4][1] += 1e-6

    assert checks.check_analyze(_edit_json(d / "a.json", tmp_path / "a.json", bump_pressure),
                                d / "f1.json", LAW, 0.5)
    assert checks.check_transport(d / "t.json", d / "f1.json", d / "f2.json") == []

    def bump_value(doc):
        doc["value"] *= 1 + 1e-9

    assert checks.check_transport(_edit_json(d / "t.json", tmp_path / "t.json", bump_value),
                                  d / "f1.json", d / "f2.json")
    mu, nu = (tree.normalize(tree.load_flow(d / f)) for f in ("f1.json", "f2.json"))
    exact = transport.wasserstein_exact(mu, nu).value
    assert checks.check_lp(exact, transport.wasserstein_lp_oracle(mu, nu).value) == []
    assert checks.check_lp(exact * 1.001, transport.wasserstein_lp_oracle(mu, nu).value)


def test_kpz_box_check(cli_outputs, tmp_path):
    d, _ = cli_outputs
    assert checks.check_kpz_box(d / "k.json", LAW, 8, 0.5, DEPTH, (2, 3, 5)) == []

    def bump_count(doc):
        doc["counts"][1] += 1

    bad = _edit_json(d / "k.json", tmp_path / "k.json", bump_count)
    assert checks.check_kpz_box(bad, LAW, 8, 0.5, DEPTH, (2, 3, 5))
    # the flow of another seed gives other counts
    assert checks.check_kpz_box(d / "k.json", LAW, 9, 0.5, DEPTH, (2, 3, 5))


def test_report_check():
    make = lambda name, stat, thr, verdict: verify.TestReport(name, stat, thr, 500, 0, verdict)  # noqa: E731
    expected = [("markov_marginal", "Pass"), ("martingale_control", "Fail")]
    good = [make("markov_marginal", 0.3, 1e-6, "Pass"), make("martingale_control", 30.0, 6.0, "Fail")]
    assert checks.check_reports(good, expected, [True, False]) == []
    flipped = [good[0], make("martingale_control", 30.0, 6.0, "Pass")]
    assert checks.check_reports(flipped, expected, [True, False])
    assert checks.check_reports(good[::-1], expected, [True, False])


def test_inputs_depend_on_the_seed_only(tmp_path):
    for name, cls in WORKLOADS.items():
        a, b, c = cls(3, tmp_path), cls(3, tmp_path), cls(4, tmp_path)
        assert pickle.dumps(vars(a)) == pickle.dumps(vars(b)), name
        assert cls.ops_per_round > 0 and a.nominal_vertex_steps > 0
        assert pickle.dumps(vars(a)) != pickle.dumps(vars(c)), name


def test_tracer_records_and_restores():
    original = engine.simulate_path
    tracer = Tracer().install()
    assert engine.simulate_path is not original
    tracer.enabled = True
    path = engine.simulate_path(tree.uniform_flow(3), wp.gaussian_spec(), [0.0, 0.1, 0.2], seed=1)
    path.root_masses()
    with tracer.pause():
        path.root_masses()
    tracer.enabled = False
    tracer.uninstall()
    assert engine.simulate_path is original
    assert tracer.calls["engine.simulate_path"] == 1
    assert tracer.calls["engine.mass_levels"] == 3
    assert tracer.calls["bench.check"] == 1
    assert tracer.counts["weights.vertex_steps"] == 2 * 14
    assert tracer.counts["engine.stored_snapshots"] == 3
    for name, total in tracer.inclusive.items():
        assert 0.0 <= tracer.self_time[name] <= total + 1e-12
    assert tracer.self_time["engine.simulate_path"] < tracer.inclusive["engine.simulate_path"]
