import dataclasses
import json

import pytest

from treecascade import tree, verify
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
        rep = verify.test_markov_marginal(depth=8, replicas=600, seed=3)
        assert rep.verdict == verify.PASS
        assert rep.statistic > rep.threshold
        assert rep.replicas == 600

    def test_markov_control_fails(self):
        # control needs the quick-suite sample size for reliable power
        rep = verify.test_markov_marginal(depth=10, replicas=800, seed=3, control=True)
        assert rep.verdict == verify.FAIL
        assert rep.statistic <= rep.threshold

    def test_underpowered_is_inconclusive(self):
        rep = verify.test_markov_marginal(depth=6, replicas=50, seed=3, min_replicas=200)
        assert rep.verdict == verify.INCONCLUSIVE

    def test_martingale_control_fails(self):
        rep = verify.test_martingale(depth=8, replicas=400, seed=5, uncompensated=True)
        assert rep.verdict == verify.FAIL
        assert rep.statistic > rep.threshold

    @pytest.mark.parametrize("mass", [1.0, 0.1])
    def test_martingale_depth0_is_exact(self, mass):
        # every replica keeps the initial mass: no spread and no deviation
        base = tree.flow_from_leaves([mass])
        rep = verify.test_martingale(base=base, replicas=300, seed=3)
        assert rep.statistic == 0.0
        assert rep.verdict == verify.PASS

    def test_composition_exact(self):
        rep = verify.test_composition(depth=6, t_end=0.3)
        assert rep.verdict == verify.PASS
        assert rep.statistic < 1e-12


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
