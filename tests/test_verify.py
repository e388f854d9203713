import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from treecascade import cli, engine, observables, tree, verify
from treecascade import weights as wp
from treecascade.rng import derive_seeds


def _report(name, verdict, expected=verify.PASS):
    return verify.TestReport(
        test_name=name,
        statistic=0.0,
        threshold=1.0,
        replicas=10,
        seed=0,
        verdict=verdict,
        expected=expected,
    )


class TestVerdicts:
    def test_markov_marginal_passes(self):
        [rep] = verify.markov_marginal(depth=8, replicas=600, seed=3, controls=(False,))
        assert rep.verdict == verify.PASS
        assert rep.statistic > rep.threshold
        assert rep.replicas == 600

    def test_markov_control_fails(self):
        # control needs the quick-suite sample size for reliable power
        [rep] = verify.markov_marginal(depth=10, replicas=800, seed=3, controls=(True,))
        assert rep.verdict == verify.FAIL
        assert rep.statistic <= rep.threshold

    def test_underpowered_is_inconclusive(self):
        reports = verify.markov_marginal(depth=6, replicas=50, seed=3, min_replicas=200)
        assert [r.verdict for r in reports] == [verify.INCONCLUSIVE] * 2

    def test_martingale_control_fails(self):
        [rep] = verify.martingale(depth=8, replicas=400, seed=5, controls=(True,))
        assert rep.verdict == verify.FAIL
        assert rep.statistic > rep.threshold

    @pytest.mark.parametrize("mass", [1.0, 0.1])
    def test_martingale_depth0_is_exact(self, mass):
        # every replica keeps the initial mass: no spread and no deviation
        base = tree.flow_from_leaves([mass])
        [rep] = verify.martingale(base=base, replicas=300, seed=3, controls=(False,))
        assert rep.statistic == 0.0
        assert rep.verdict == verify.PASS

    def test_composition_exact(self):
        rep = verify.test_composition(depth=6, t_end=0.3)
        assert rep.verdict == verify.PASS
        assert rep.statistic < 1e-12

    def test_composition_needs_two_grid_times(self):
        with pytest.raises(ValueError, match="at least two grid times"):
            verify.test_composition(depth=2, t_end=0.0)


class TestSuites:
    def test_quick_suite_runs_green(self):
        reports = verify.run_suite(verify.quick_suite(seed=42))
        assert len(reports) == 6
        assert verify.unexpected_reports(reports) == []
        by_name = {r.test_name: r for r in reports}
        assert by_name["markov_marginal"].verdict == verify.PASS
        assert by_name["markov_marginal_control"].verdict == verify.FAIL
        assert by_name["markov_marginal_control"].expected == verify.FAIL
        assert by_name["martingale_control"].verdict == verify.FAIL
        assert by_name["composition"].statistic < 1e-12

    def test_entry_seeds_distinct_and_stable(self):
        names = [e.name for e in verify.default_suite().entries]
        seeds = [verify._entry_seed(42, n) for n in names]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [verify._entry_seed(42, n) for n in names]
        assert verify._entry_seed(43, names[0]) != seeds[0]

    def test_unknown_entry_rejected(self):
        config = verify.SuiteConfig(seed=1, entries=(verify.SuiteEntry(name="nope"),))
        with pytest.raises(ValueError, match="unknown test"):
            verify.run_suite(config)

    def test_threads_do_not_change_reports(self):
        config = verify.SuiteConfig(
            seed=9,
            entries=(
                verify.SuiteEntry(name="composition", params={"depth": 6, "t_end": 0.3}),
                verify.SuiteEntry(name="markov_marginal", params={"depth": 8, "replicas": 400}),
            ),
        )
        one = verify.run_suite(config, threads=1)
        four = verify.run_suite(config, threads=4)
        assert one == four


class TestUnexpected:
    def test_matching_verdicts_pass(self):
        reports = [
            _report("a", verify.PASS),
            _report("b", verify.FAIL, expected=verify.FAIL),
        ]
        assert verify.unexpected_reports(reports) == []

    def test_mismatches_surface(self):
        bad = _report("b", verify.PASS, expected=verify.FAIL)
        reports = [_report("a", verify.PASS), bad]
        assert verify.unexpected_reports(reports) == [bad]

    def test_inconclusive_never_fails_suite(self):
        reports = [
            _report("a", verify.INCONCLUSIVE),
            _report("b", verify.INCONCLUSIVE, expected=verify.FAIL),
        ]
        assert verify.unexpected_reports(reports) == []


class TestSerialization:
    def test_json_sorted_and_complete(self):
        reports = [_report("b", verify.PASS), _report("a", verify.FAIL)]
        text = verify.reports_to_json(reports, suite_seed=7)
        data = json.loads(text)
        assert data["suite_seed"] == 7
        assert data["ok"] is False
        assert [r["test_name"] for r in data["reports"]] == ["b", "a"]
        assert set(data["reports"][0]) == {
            "test_name", "statistic", "threshold", "replicas",
            "seed", "verdict", "expected", "detail",
        }
        assert text == verify.reports_to_json(reports, suite_seed=7)

    def test_json_ok_true_when_expected(self):
        reports = [_report("a", verify.FAIL, expected=verify.FAIL)]
        assert json.loads(verify.reports_to_json(reports, suite_seed=1))["ok"] is True

    def test_report_is_frozen(self):
        rep = _report("a", verify.PASS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.verdict = verify.FAIL


class TestRootSamples:
    # frozen replica-batched root masses: leaf products and their sums
    ROOTS = {
        "gaussian": [
            [1.5608757630813783, 3.3587822906238296],
            [1.2343956231859954, 0.8542278805042565],
            [0.6122990696404671, 0.43741491741266214],
            [0.7163347544045168, 0.3876476612042866],
            [0.9413244953205449, 0.5590354215458289],
            [0.6884540318483476, 0.6983479419512095],
            [1.5102059813801751, 0.9161968880250119],
            [0.7510520725872631, 0.5414138649623879],
        ],
        "compound_poisson": [
            [1.1495008829213549, 1.5176904506333406],
            [0.9932483423617966, 1.0073617386174498],
            [0.9799914273282724, 1.1112945190044181],
            [0.965437844670993, 0.8374636969405171],
            [0.9990561625474279, 1.0072052671498353],
            [0.9281664530555158, 1.1277710807814523],
            [1.0415804996651097, 1.0224510478427375],
            [0.8744621334288404, 0.8350090849333536],
        ],
    }

    @pytest.mark.parametrize("spec", [wp.gaussian_spec(), wp.compound_poisson_spec()])
    def test_frozen_anchor(self, spec):
        roots = verify._root_samples(tree.uniform_flow(6), spec, (0.1, 0.3), derive_seeds(2024, 8))
        assert roots.tolist() == self.ROOTS[spec.kind]


class TestMarkovAnchor:
    # frozen KS p-values of the test and its control: direct samples, the
    # time-t state and the fresh windows at s and s/2
    P_VALUES = {
        "gaussian": (0.2926468667924955, 0.00033397069759294196),
        "compound_poisson": (0.2926468667924955, 0.21005749381264038),
    }

    @pytest.mark.parametrize("spec", [wp.gaussian_spec(), wp.compound_poisson_spec()])
    def test_frozen_statistics(self, spec):
        kw = dict(spec=spec, depth=6, replicas=300, seed=7)
        reports = [verify.markov_marginal(controls=(c,), **kw)[0] for c in (False, True)]
        assert tuple(r.statistic for r in reports) == self.P_VALUES[spec.kind]
        # both controls in one call draw once what the two calls draw twice
        assert verify.markov_marginal(**kw) == reports


def test_martingale_pair_matches_separate_calls():
    kw = dict(depth=7, replicas=300, seed=9, times=(0.1, 0.3))
    pair = verify.martingale(**kw)
    assert pair == [verify.martingale(controls=(c,), **kw)[0] for c in (False, True)]
    assert [r.verdict for r in pair] == [verify.PASS, verify.FAIL]
    with pytest.raises(ValueError):
        verify.martingale(spec=wp.compound_poisson_spec(), **kw)
    # the test alone is defined for every kind
    [rep] = verify.martingale(spec=wp.compound_poisson_spec(), controls=(False,), **kw)
    assert rep.test_name == "martingale"


@pytest.mark.parametrize("times", [(), (0.3, 0.1), (-0.1, 0.2)])
@pytest.mark.parametrize("controls", [(False,), (False, True)], ids=["test", "pair"])
def test_martingale_rejects_bad_times(controls, times):
    with pytest.raises(ValueError, match="times"):
        verify.martingale(times=times, depth=3, replicas=10, controls=controls)


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


class TestReplicaBlocks:
    """Replica loops evolve seeds in blocks of at most ``_BLOCK`` state elements."""

    def test_rows_per_block(self):
        assert engine._BLOCK // engine._flat_size(12) == 4
        assert engine._BLOCK // engine._flat_size(13) == 2
        assert engine._BLOCK // engine._flat_size(14) == 1
        for depth, count in [(0, 5), (3, 20000), (12, 100), (14, 17), (18, 3)]:
            blocks = list(engine._replica_blocks(count, depth))
            assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
            assert blocks[-1].stop == count
            rows = {b.stop - b.start for b in blocks[:-1]}
            assert rows <= {max(1, engine._BLOCK // max(engine._flat_size(depth), 1))}
        assert list(engine._replica_blocks(0, 5)) == []

    @pytest.mark.parametrize("base", [tree.uniform_flow(0), tree.uniform_flow(5)], ids=["depth0", "depth5"])
    @pytest.mark.parametrize("spec", [wp.gaussian_spec(), wp.compound_poisson_spec()])
    def test_one_row_blocks_match_default(self, monkeypatch, base, spec):
        def outputs():
            roots = verify._root_samples(base, spec, (0.1, 0.1, 0.3), derive_seeds(11, 40))
            pair = verify.markov_marginal(base=base, spec=spec, replicas=40, seed=3)
            return _hex(roots) + _hex([r.statistic for r in pair])

        default = outputs()
        monkeypatch.setattr(engine, "_BLOCK", 1)
        assert outputs() == default

    @pytest.mark.parametrize("kind", [wp.GAUSSIAN, wp.COMPOUND_POISSON])
    def test_one_row_blocks_match_default_probe_and_cli(self, monkeypatch, tmp_path, kind):
        spec = wp.gaussian_spec() if kind == wp.GAUSSIAN else wp.compound_poisson_spec()
        argv = [
            "simulate", "--measure", "theta", "--depth", "6", "--t-end", "0.2", "--step", "0.1",
            "--kind", kind, "--replicas", "5", "--seed", "3", "--track-vertex", "6:9",
            "--track-vertex", "2:1", "--vertex-output", str(tmp_path / "v.csv"),
            "--output", str(tmp_path / "r.csv"),
        ]

        def outputs():
            probe = engine.convergence_probe(tree.uniform_flow(7), spec, 0.3, [3, 6], 1.0, 40, 2)
            assert cli.run(argv) == 0
            files = [(tmp_path / name).read_bytes() for name in ("r.csv", "v.csv")]
            return _hex([(r.mean, r.se) for r in probe.rows]) + files

        default = outputs()
        monkeypatch.setattr(engine, "_BLOCK", 1)
        assert outputs() == default

    @pytest.mark.parametrize("entry", [verify.markov_marginal, verify.martingale])
    def test_replica_entry_peak_memory(self, entry):
        # a depth-12, 500-replica suite entry (one control) holds a few
        # block-sized buffers at a time (about 1.2 MB at the 256 KiB budget,
        # 8 MB at a 2 MiB one), the Markov entry's outer block included,
        # live through its inner evolutions
        entry(depth=3, replicas=10, controls=(False,))  # imports, out of the figure
        tracemalloc.start()
        try:
            entry(depth=12, replicas=500, controls=(False,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_evolve_never_exceeds_the_block(self, monkeypatch, tmp_path):
        seen = []
        evolve = engine._evolve

        def wrapped(spec, seeds, durations, first_step, state, *buffers):
            depth = (state.shape[1] + 2).bit_length() - 2
            seen.append((depth, state.size))
            return evolve(spec, seeds, durations, first_step, state, *buffers)

        monkeypatch.setattr(engine, "_evolve", wrapped)
        # the default block: 4 depth-12 replicas, ten times, then the other 2
        verify._root_samples(tree.uniform_flow(12), wp.gaussian_spec(), (0.2,), derive_seeds(1, 42))
        assert seen == [(12, 4 * engine._flat_size(12))] * 10 + [(12, 2 * engine._flat_size(12))]
        assert seen[0][1] <= engine._BLOCK
        seen.clear()
        monkeypatch.setattr(engine, "_BLOCK", 100)
        simulate = ["simulate", "--measure", "theta", "--depth", "4", "--t-end", "0.2"]
        callers = [
            lambda: verify._root_samples(
                tree.uniform_flow(4), wp.gaussian_spec(), (0.2,), derive_seeds(1, 50)
            ),
            lambda: verify.markov_marginal(depth=4, replicas=50, seed=1),
            lambda: observables.girsanov_check(
                tree.uniform_flow(4), wp.gaussian_spec(), 0.1, tree.Vertex(2, 1), 50, 1, step=0.05
            ),
            lambda: engine.convergence_probe(
                tree.uniform_flow(4), wp.gaussian_spec(), 0.2, [2, 3], 1.0, 50, 1
            ),
            lambda: cli.run(simulate + ["--replicas", "50", "--output", str(tmp_path / "r.csv")]),
        ]
        for call in callers:
            evolved = len(seen)
            call()
            assert len(seen) > evolved  # each caller evolves through the loop
        # a depth-6 replica (126 elements) is larger than the block: each is a block of its own
        verify._root_samples(tree.uniform_flow(6), wp.gaussian_spec(), (0.2,), derive_seeds(1, 5))
        assert {depth for depth, _ in seen} == {4, 6}
        assert max(size for depth, size in seen if depth == 4) <= 100
        assert max(size for depth, size in seen if depth == 6) == engine._flat_size(6)
