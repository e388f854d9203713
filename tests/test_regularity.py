import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from treecascade import engine, tree
from treecascade import regularity as reg
from treecascade import weights as wp

LOG2 = math.log(2.0)


class TestPressureAnalytic:
    @given(h=st.floats(min_value=0.0, max_value=6.0, allow_nan=False))
    def test_theta_pressure_exact(self, h):
        assert reg.pressure(reg.THETA, h) == (1.0 - h) * LOG2

    def test_theta_derivative_exact(self):
        assert reg.pressure_derivative(reg.THETA, 1.0, "+") == -LOG2
        assert reg.pressure_derivative(reg.THETA, 1.0, "-") == -LOG2

    def test_theta_repr(self):
        assert repr(reg.THETA) == "THETA"


class TestPressureFit:
    def test_uniform_flow_fit_is_exact(self):
        # log sum at level k is (1-h) k log 2 exactly, so the fit has
        # zero residual and recovers the analytic slope
        f = tree.uniform_flow(8)
        for h in (0.0, 0.5, 2.0):
            fit = reg.pressure_fit(f, h)
            assert fit.slope == pytest.approx((1.0 - h) * LOG2, abs=1e-12)
            assert fit.residual < 1e-12
            assert reg.pressure(f, h) == pytest.approx((1.0 - h) * LOG2, abs=1e-12)

    def test_single_ray_pressure_zero(self):
        # one atom: sum of masses^h is constant in depth
        f = tree.single_ray_flow(8, bits=3, mass=1.0)
        for h in (0.5, 1.0, 2.0):
            assert reg.pressure(f, h) == pytest.approx(0.0, abs=1e-12)

    def test_h_zero_counts_support(self):
        f = tree.single_ray_flow(8)
        fit = reg.pressure_fit(f, 0.0)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        g = tree.uniform_flow(8)
        assert reg.pressure_fit(g, 0.0).slope == pytest.approx(LOG2, abs=1e-12)

    def test_requires_depth(self):
        with pytest.raises(ValueError):
            reg.pressure_fit(tree.uniform_flow(3), 1.5)

    def test_max_depth_cap(self):
        f = tree.uniform_flow(10)
        fit = reg.pressure_fit(f, 2.0, max_depth=6)
        assert fit.depths[-1] == 6

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            reg.pressure(reg.THETA, -0.5)

    def test_log_power_sum_matches_logsumexp_bits(self):
        g = np.random.default_rng(12)
        cases = [g.random(n) for n in (1, 2, 3, 7, 64, 1000)]
        cases += [np.array([0.0, 0.3, 0.0]), np.full(16, 1 / 16), tree.uniform_flow(9).level(9)]
        tied = g.random(50)
        tied[[3, 17, 40]] = 2.0
        cases += [tied, g.dirichlet(np.ones(4096)), np.array([0.25, 0.25, 0.5, 0.5, 1e-300])]
        for masses in cases:
            positive = masses[masses > 0]
            for h in (0.0, 0.25, 1.0, 1.7, 4.0):
                want = float(special.logsumexp(h * np.log(positive)))
                assert reg._log_power_sum(masses, h) == want


class TestAlphaAndCritical:
    def test_alpha_composition(self):
        spec = wp.gaussian_spec()
        for t in (0.0, 0.4, 1.0):
            for h in (0.5, 1.5, 3.0):
                want = (1.0 - h) * LOG2 + wp.log_moment(spec, t, h)
                assert reg.alpha(reg.THETA, spec, t, h) == pytest.approx(want, abs=1e-14)

    def test_critical_h_theta_gaussian_closed_form(self):
        spec = wp.gaussian_spec()
        for t in (0.3, 0.7, 1.2):
            assert reg.critical_h(reg.THETA, spec, t) == pytest.approx(
                2.0 * LOG2 / t, abs=1e-9
            )

    def test_critical_h_infinite_when_alpha_stays_negative(self):
        # compound poisson with tiny jumps keeps alpha negative out to h_max
        spec = wp.compound_poisson_spec(rate=1.0, jump_mean=0.0, jump_sd=0.01)
        assert reg.critical_h(reg.THETA, spec, 0.1) == math.inf

    def test_critical_h_one_at_boundary_and_beyond(self):
        spec = wp.gaussian_spec()
        t_star = 2.0 * LOG2
        assert reg.critical_h(reg.THETA, spec, t_star) == 1.0
        assert reg.critical_h(reg.THETA, spec, t_star + 0.2) == 1.0

    def test_lifetime_theta(self):
        assert reg.lifetime(reg.THETA) == pytest.approx(2.0 * LOG2, abs=1e-12)

    def test_lifetime_single_ray_zero(self):
        # an atom has zero pressure slope, so it dies immediately
        f = tree.single_ray_flow(8)
        assert reg.lifetime(f) == pytest.approx(0.0, abs=1e-9)


class TestClassification:
    def test_theta_flips_at_lifetime(self):
        spec = wp.gaussian_spec()
        t_star = 2.0 * LOG2
        assert reg.classify_regularity(reg.THETA, spec, t_star - 1e-3) == reg.REGULAR
        assert reg.classify_regularity(reg.THETA, spec, t_star) == reg.BOUNDARY
        assert reg.classify_regularity(reg.THETA, spec, t_star + 1e-3) == reg.IRREGULAR

    def test_labels_are_pinned_strings(self):
        assert (reg.REGULAR, reg.IRREGULAR, reg.BOUNDARY) == (
            "Regular",
            "Irregular",
            "Boundary",
        )

    def test_single_ray_is_irregular_for_positive_time(self):
        # E[W log W] = t/2 > 0 and the atom contributes no entropy
        f = tree.single_ray_flow(8)
        assert reg.classify_regularity(f, wp.gaussian_spec(), 0.5) == reg.IRREGULAR

    def test_uniform_flow_matches_theta_classification(self):
        f = tree.uniform_flow(10)
        spec = wp.gaussian_spec()
        for t in (0.3, 2.0):
            assert reg.classify_regularity(f, spec, t) == reg.classify_regularity(
                reg.THETA, spec, t
            )


class TestReport:
    def test_report_fields_and_round_trip(self):
        spec = wp.gaussian_spec()
        report = reg.regularity_report(reg.THETA, spec, 0.5)
        assert report.classification == reg.REGULAR
        assert report.h_t == pytest.approx(2.0 * LOG2 / 0.5, abs=1e-9)
        assert report.lifetime == pytest.approx(2.0 * LOG2, abs=1e-12)
        doc = json.loads(reg.report_to_json(report))
        assert doc["measure"] == report.measure
        assert wp.spec_from_config(doc["spec"]) == report.spec
        assert doc["t"] == report.t and doc["h_t"] == report.h_t
        assert [tuple(p) for p in doc["pressure_samples"]] == list(report.pressure_samples)
        assert [tuple(a) for a in doc["alpha_samples"]] == list(report.alpha_samples)
        for name in ("lifetime", "classification", "derivative_estimate", "fit_residual"):
            assert doc[name] == getattr(report, name)

    def test_report_round_trip_with_infinite_h(self):
        spec = wp.compound_poisson_spec(rate=1.0, jump_mean=0.0, jump_sd=0.01)
        report = reg.regularity_report(reg.THETA, spec, 0.1)
        assert report.h_t == math.inf
        # JSON has no infinity: the text carries a marker that reads back as one
        assert float(json.loads(reg.report_to_json(report))["h_t"]) == math.inf

    def test_report_json_sorted_and_deterministic(self):
        spec = wp.gaussian_spec()
        a = reg.report_to_json(reg.regularity_report(reg.THETA, spec, 0.3))
        b = reg.report_to_json(reg.regularity_report(reg.THETA, spec, 0.3))
        assert a == b
        keys = list(json.loads(a))
        assert keys == sorted(keys)

    def test_curves_csv_shape(self):
        spec = wp.gaussian_spec()
        report = reg.regularity_report(reg.THETA, spec, 0.3, h_grid=np.linspace(0, 2, 5))
        text = reg.report_curves_csv(report)
        lines = text.split("\r\n")
        assert lines[0] == "h,pressure,alpha"
        assert len([l for l in lines if l]) == 6

    def test_report_on_empirical_flow(self, random_flow):
        f = random_flow(8, seed=3)
        report = reg.regularity_report(f, wp.gaussian_spec(), 0.2)
        assert report.classification in (reg.REGULAR, reg.IRREGULAR, reg.BOUNDARY)
        assert report.fit_residual >= 0.0


class TestOneCurve:
    def test_report_fits_each_exponent_once(self, monkeypatch):
        # a depth-12 flow evolved under a dense compound-Poisson law
        grid = engine.make_grid(0.5, 0.05)
        path = engine.simulate_path(
            tree.uniform_flow(12), wp.compound_poisson_spec(40.0, 0.0, 0.15), grid, seed=5
        )
        flow = path.snapshot(len(grid) - 1)
        fitted = []
        real_fit = reg.pressure_fit

        def counting_fit(flow, h, max_depth=None):
            fitted.append(h)
            return real_fit(flow, h, max_depth=max_depth)

        monkeypatch.setattr(reg, "pressure_fit", counting_fit)
        report = reg.regularity_report(flow, wp.gaussian_spec(), 0.5)
        assert report.classification == reg.REGULAR
        assert len(fitted) == len(set(fitted)) > 17

    def test_no_flow_outlives_its_curve(self, random_flow):
        f = random_flow(8, seed=4)
        alive = weakref.ref(f)
        reg.regularity_report(f, wp.gaussian_spec(), 0.2)
        reg.classify_regularity(f, wp.gaussian_spec(), 0.2)
        del f
        gc.collect()
        assert alive() is None
