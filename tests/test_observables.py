import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecascade import engine, observables as obs, tree
from treecascade import weights as wp


class TestOverlap:
    @given(n=st.integers(1, 12))
    def test_theta_overlap_closed_form(self, n):
        assert obs.overlap(tree.uniform_flow(n)) == pytest.approx(1.0 - 2.0**-n, abs=1e-12)

    def test_single_ray_overlap_is_depth(self):
        # two independent rays under an atom always meet at full depth
        assert obs.overlap(tree.single_ray_flow(7)) == pytest.approx(7.0, abs=1e-12)

    def test_overlap_by_direct_sum(self, random_flow):
        f = tree.normalize(random_flow(5, seed=9))
        want = sum(
            float(np.sum((np.asarray(f.level(k)) / f.root_mass) ** 2))
            for k in range(1, f.depth + 1)
        )
        assert obs.overlap(f) == pytest.approx(want, rel=1e-12)

    def test_overlap_series_and_tail_flag(self):
        base = tree.uniform_flow(10)
        path = engine.simulate_path(base, wp.gaussian_spec(), engine.make_grid(0.3, 0.1), seed=1)
        series = obs.overlap_series(path)
        assert series.times.shape == series.overlap.shape
        assert series.overlap[0] == pytest.approx(1.0 - 2.0**-10, abs=1e-12)
        assert isinstance(series.tail_flag, bool)

    @pytest.mark.filterwarnings("error")
    def test_zero_mass_path_gives_nan_overlaps_without_warning(self):
        base = tree.flow_from_leaves(np.zeros(4))
        path = engine.simulate_path(base, wp.gaussian_spec(), engine.make_grid(0.1, 0.05), seed=1)
        assert np.array_equal(path.root_masses(), np.zeros(3))
        series = obs.overlap_series(path)
        assert np.all(np.isnan(series.overlap)) and series.tail_flag is False
        assert np.all(np.isnan(path.snapshot_summaries()[2]))
        assert math.isnan(obs.overlap(path.snapshot(2)))


class TestQuadraticVariation:
    def test_realized_tracks_predicted(self):
        base = tree.uniform_flow(10)
        grid = engine.make_grid(0.3, 1e-3)
        rels = []
        from treecascade.rng import derive_seeds

        for s in derive_seeds(31, 8):
            path = engine.simulate_path(base, wp.gaussian_spec(), grid, seed=int(s))
            rels.append(obs.realized_vs_predicted_qv(path).rel_err)
        assert float(np.mean(rels)) < 0.2

    def test_gaussian_only(self):
        base = tree.uniform_flow(4)
        path = engine.simulate_path(
            base, wp.compound_poisson_spec(), engine.make_grid(0.2, 0.1), seed=1
        )
        with pytest.raises(ValueError):
            obs.realized_vs_predicted_qv(path)
        with pytest.raises(ValueError, match="continuous weight kind"):
            obs.realized_vs_predicted_qv(
                engine.stream_path(base, wp.compound_poisson_spec(), engine.make_grid(0.2, 0.1))
            )

    def test_single_time_is_degenerate_zero(self):
        base = tree.uniform_flow(4)
        path = engine.simulate_path(base, wp.gaussian_spec(), engine.make_grid(0.0, 0.1))
        cmp = obs.realized_vs_predicted_qv(path)
        assert cmp.realized == cmp.predicted == cmp.rel_err == 0.0


class TestBracket:
    def test_bracket_rate_is_meeting_depth(self):
        u = tree.Vertex(4, 0b0110)
        v = tree.Vertex(4, 0b0111)
        assert obs.bracket_rate(u, v) == 3.0
        assert obs.bracket_rate(u, tree.Vertex(4, 0b1110)) == 0.0

    def test_bracket_rate_rejects_ancestral(self):
        u = tree.Vertex(2, 0b01)
        with pytest.raises(ValueError):
            obs.bracket_rate(u, tree.Vertex(4, 0b0111))
        with pytest.raises(ValueError):
            obs.bracket_rate(u, u)

    def test_empirical_bracket_matches_rate(self):
        base = tree.uniform_flow(6)
        grid = engine.make_grid(0.3, 1e-3)
        u, v = tree.Vertex(3, 0b010), tree.Vertex(3, 0b011)
        from treecascade.rng import derive_seeds

        vals = [
            obs.empirical_bracket(
                engine.simulate_path(base, wp.gaussian_spec(), grid, seed=int(s)), u, v
            )
            for s in derive_seeds(77, 24)
        ]
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        assert abs(mean - obs.bracket_rate(u, v)) < 4 * se


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make", [engine.stream_path, engine.simulate_path])
    def test_empirical_bracket_nan_at_zero_mass(self, make):
        # leaf 0 carries no mass, so its log mass is NaN at every snapshot
        base = tree.flow_from_leaves([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        path = make(base, wp.gaussian_spec(), engine.make_grid(0.1, 0.01), seed=5)
        assert math.isnan(obs.empirical_bracket(path, tree.Vertex(3, 0), tree.Vertex(3, 7)))
        assert math.isfinite(obs.empirical_bracket(path, tree.Vertex(3, 1), tree.Vertex(3, 7)))


class TestExplosion:
    def test_no_flags_at_small_time(self):
        base = tree.uniform_flow(8)
        path = engine.simulate_path(base, wp.gaussian_spec(), engine.make_grid(0.2, 0.05), seed=2)
        report = obs.explosion_monitor(path)
        assert not report.flagged
        assert report.cum_overlap_integral[-1] == pytest.approx(
            (1.0 - 2.0**-8) * 0.2, rel=0.5
        )

    def test_flags_deep_collapsed_path(self):
        # a deep atom-dominated flow under long evolution collapses: the
        # overlap integral passes 10 while the root mass underflows
        base = tree.single_ray_flow(18, bits=7, mass=1.0)
        grid = engine.make_grid(2.0, 0.125)
        from treecascade.rng import derive_seeds

        flagged = False
        for s in derive_seeds(5, 12):
            report = obs.explosion_monitor(
                engine.simulate_path(base, wp.gaussian_spec(), grid, seed=int(s))
            )
            if report.flagged:
                flagged = True
                assert report.cum_overlap_integral[np.argmax(report.flags)] > 10.0
                break
        assert flagged

    def test_report_shapes(self):
        base = tree.uniform_flow(5)
        path = engine.simulate_path(base, wp.gaussian_spec(), engine.make_grid(0.2, 0.1), seed=3)
        report = obs.explosion_monitor(path)
        assert (
            report.times.shape
            == report.overlap.shape
            == report.cum_overlap_integral.shape
            == report.root_masses.shape
            == report.flags.shape
        )


class TestGirsanov:
    def test_tilted_mean_matches_prediction(self):
        base = tree.uniform_flow(3)
        report = obs.girsanov_check(
            base, wp.gaussian_spec(), t_end=0.2, vertex=tree.Vertex(2, 1), replicas=4000, seed=11
        )
        assert abs(report.statistic) < 4.0
        assert report.replicas == 4000

    def test_validation(self):
        base = tree.uniform_flow(3)
        spec = wp.gaussian_spec()
        with pytest.raises(ValueError):
            obs.girsanov_check(base, wp.compound_poisson_spec(), 0.2, tree.Vertex(1, 0), 10, 0)
        with pytest.raises(ValueError):
            obs.girsanov_check(tree.uniform_flow(6), spec, 0.2, tree.Vertex(1, 0), 10, 0)
        with pytest.raises(ValueError):
            obs.girsanov_check(base, spec, 0.2, tree.Vertex(4, 0), 10, 0)
        with pytest.raises(ValueError):
            obs.girsanov_check(
                tree.flow_from_leaves([1.0, 2.0] * 4), spec, 0.2, tree.Vertex(1, 0), 10, 0
            )

    def test_frozen_report(self):
        # pins the replica-batched leaf products and level sums bit for bit;
        # at 16 leaves numpy's pairwise sum and the tree's differ in order
        report = obs.girsanov_check(
            tree.uniform_flow(4), wp.gaussian_spec(), 0.2, tree.Vertex(2, 1), 16, 5, step=0.05
        )
        assert report.tilted_mean == 0.010282594761122432
        assert report.predicted_mean == 0.04877894012599587
        assert report.statistic == -0.3491142238899209
        assert report.se == 0.08692643225141926

    def test_zero_time_report(self):
        base = tree.uniform_flow(2)
        report = obs.girsanov_check(base, wp.gaussian_spec(), 0.0, tree.Vertex(1, 0), 10, 0)
        assert report.statistic == 0.0


@pytest.mark.parametrize("depth", [1, 3])
def test_girsanov_one_row_blocks_match_default(monkeypatch, depth):
    def report():
        r = obs.girsanov_check(
            tree.uniform_flow(depth), wp.gaussian_spec(), 0.2, tree.Vertex(depth, 1), 30, 4, step=0.05
        )
        return [float(x).hex() for x in (r.tilted_mean, r.predicted_mean, r.statistic, r.se)]

    default = report()
    monkeypatch.setattr(engine, "_BLOCK", 1)
    assert report() == default
