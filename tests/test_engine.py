import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecascade import engine, observables, tree
from treecascade import weights as wp
from treecascade.rng import derive_seeds


class TestGrid:
    def test_make_grid_basic(self):
        g = engine.make_grid(0.3, 0.1)
        np.testing.assert_allclose(g, [0.0, 0.1, 0.2, 0.3], atol=1e-15)
        assert g[-1] == 0.3

    def test_make_grid_zero(self):
        assert list(engine.make_grid(0.0, 0.1)) == [0.0]

    def test_make_grid_rejects_misaligned(self):
        with pytest.raises(ValueError):
            engine.make_grid(0.25, 0.1)
        with pytest.raises(ValueError):
            engine.make_grid(-1.0, 0.1)
        with pytest.raises(ValueError):
            engine.make_grid(1.0, 0.0)


class TestCascadeStatic:
    def test_unit_weights_reproduce_base_exactly(self):
        base = tree.flow_from_leaves([1.0, 2.0, 3.0, 4.0])
        out = engine.cascade_static(base, [np.ones(2), np.ones(4)])
        assert out == base

    def test_hand_computed_masses(self):
        base = tree.uniform_flow(1)
        out = engine.cascade_static(base, [np.array([2.0, 4.0])])
        assert list(out.leaves) == [1.0, 2.0]
        assert out.root_mass == 3.0

    def test_rejects_bad_weights(self):
        base = tree.uniform_flow(2)
        with pytest.raises(ValueError):
            engine.cascade_static(base, [np.ones(2)])
        with pytest.raises(ValueError):
            engine.cascade_static(base, [np.ones(2), np.array([1.0, 1.0, 1.0, 0.0])])

    @given(
        seed=st.integers(0, 2**32),
        depth=st.integers(1, 6),
    )
    @settings(max_examples=25)
    def test_conservation_after_cascade(self, seed, depth):
        g = np.random.default_rng(seed)
        base = tree.flow_from_leaves(g.random(1 << depth) + 0.1)
        weights = [g.lognormal(0.0, 0.5, size=1 << k) for k in range(1, depth + 1)]
        out = engine.cascade_static(base, weights)
        assert not tree.validate_flow(out).violations


class TestSimulatePath:
    def test_snapshot_zero_is_base_object(self):
        base = tree.uniform_flow(3)
        path = engine.simulate_path(base, wp.gaussian_spec(), engine.make_grid(0.2, 0.1))
        assert path.snapshot(0) is base
        assert path.n_snapshots == 3
        assert list(path.times) == [0.0, 0.1, 0.2]

    def test_deterministic_regression_anchor(self):
        # frozen root masses pin the noise layout; any change to keying or
        # transforms must be deliberate
        base = tree.uniform_flow(4)
        grid = engine.make_grid(0.3, 0.1)
        p = engine.simulate_path(base, wp.gaussian_spec(), grid, seed=123)
        assert p.root_mass(3) == 0.9352037795172267
        pcp = engine.simulate_path(base, wp.compound_poisson_spec(), grid, seed=123)
        assert pcp.root_mass(3) == 1.0264096051618137

    def test_snapshots_conserve_mass(self):
        base = tree.uniform_flow(5)
        path = engine.simulate_path(base, wp.gaussian_spec(), engine.make_grid(0.4, 0.1), seed=5)
        for i in range(path.n_snapshots):
            assert not tree.validate_flow(path.snapshot(i)).violations

    def test_martingale_mean_frozen_seed(self):
        base = tree.uniform_flow(6)
        grid = engine.make_grid(0.5, 0.25)
        from treecascade.rng import derive_seeds

        roots = np.array(
            [
                engine.simulate_path(base, wp.gaussian_spec(), grid, seed=int(s)).root_mass(2)
                for s in derive_seeds(99, 400)
            ]
        )
        z = abs(roots.mean() - 1.0) / (roots.std(ddof=1) / math.sqrt(len(roots)))
        assert z < 4.0

    def test_snapshot_times_subset(self):
        base = tree.uniform_flow(3)
        grid = engine.make_grid(0.4, 0.1)
        full = engine.simulate_path(base, wp.gaussian_spec(), grid, seed=1)
        part = engine.simulate_path(base, wp.gaussian_spec(), grid, seed=1, snapshot_times=[0.2])
        assert part.n_snapshots == 1
        assert part.snapshot(0) == full.snapshot(2)
        with pytest.raises(ValueError):
            engine.simulate_path(base, wp.gaussian_spec(), grid, seed=1, snapshot_times=[0.15])

    def test_depth_truncation_couples_noise(self):
        # flat level-major keying: a shallower run of the same seed draws
        # exactly the deeper run's weights on the shared vertex range
        grid = engine.make_grid(0.3, 0.1)
        deep = engine.simulate_path(tree.uniform_flow(5), wp.gaussian_spec(), grid, seed=3)
        shallow = engine.simulate_path(
            tree.uniform_flow(5), wp.gaussian_spec(), grid, seed=3, depth=3
        )
        n_shared = (1 << 4) - 2
        for i in range(len(grid)):
            assert np.array_equal(
                shallow.log_weight_state(i), deep.log_weight_state(i)[:n_shared]
            )

    def test_vertex_mass_series_matches_snapshots(self):
        base = tree.uniform_flow(3)
        path = engine.simulate_path(base, wp.gaussian_spec(), engine.make_grid(0.2, 0.1), seed=2)
        vs = [tree.Vertex(1, 0), tree.Vertex(3, 5)]
        series = path.vertex_mass_series(vs)
        for i in range(path.n_snapshots):
            for j, v in enumerate(vs):
                assert series[i, j] == path.snapshot(i).mass(v)

    @pytest.mark.parametrize(
        "case",
        ["depth0", "uniform", "zero_leaves", "loaded", "snapshot_times", "no_initial_snapshot"],
    )
    def test_vertex_mass_series_bits_match_materialized(self, case):
        grid = engine.make_grid(0.3, 0.05)
        leaves = np.random.default_rng(4).random(1 << 6)
        # correctly rounded block sums: internal masses that differ in the
        # last bits from pairwise sums, as a flow read from a file may
        loaded = tree.flow_from_levels(
            [[math.fsum(b) for b in leaves.reshape(1 << k, -1)] for k in range(7)]
        )
        leaves[[0, 5, 6, 63]] = 0.0
        base, spec, times = {
            "depth0": (tree.uniform_flow(0), wp.gaussian_spec(), None),
            "uniform": (tree.uniform_flow(6), wp.gaussian_spec(), None),
            "zero_leaves": (tree.flow_from_leaves(leaves), wp.compound_poisson_spec(), None),
            "loaded": (loaded, wp.gaussian_spec(), None),
            "snapshot_times": (tree.uniform_flow(6), wp.gaussian_spec(), [0.3, 0.0, 0.1]),
            "no_initial_snapshot": (tree.uniform_flow(5), wp.gaussian_spec(), [0.25, 0.05]),
        }[case]
        path = engine.simulate_path(base, spec, grid, seed=9, snapshot_times=times)
        # every vertex: the root, both depth-1 vertices, the leaves at both ends
        vs = [tree.Vertex(d, b) for d in range(base.depth + 1) for b in range(1 << d)]
        series = path.vertex_mass_series(vs)
        for i in range(path.n_snapshots):
            flat = path.masses_flat(i)
            want = flat[[(1 << v.depth) - 1 + v.bits for v in vs]]
            assert series[i].tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            path.vertex_mass_series([tree.Vertex(base.depth + 1, 0)])

    @pytest.mark.parametrize("case", ["depth0", "depth1", "zero_leaves", "subtree"])
    def test_leaf_masses_batch_rows_match_single(self, case):
        # an (R, size) replica batch runs the same code as one (size,) state
        leaves = np.random.default_rng(6).random(1 << 5)
        leaves[[0, 7, 8, 31]] = 0.0
        base, v = {
            "depth0": (tree.uniform_flow(0), tree.ROOT),
            "depth1": (tree.uniform_flow(1), tree.ROOT),
            "zero_leaves": (tree.flow_from_leaves(leaves), tree.ROOT),
            "subtree": (tree.flow_from_leaves(leaves), tree.Vertex(2, 1)),
        }[case]
        n = base.depth
        size = engine._flat_size(n)
        cum = wp.log_increments_multi(wp.gaussian_spec(), 0.0, 0.4, derive_seeds(8, 5), 1, 0, size)
        slices = engine._level_slices(n, v)
        sub = base.leaves[v.bits << (n - v.depth) : (v.bits + 1) << (n - v.depth)]
        batch = engine._leaf_masses(sub, cum, slices)
        assert batch.shape == (5, len(sub))
        for r in range(5):
            assert batch[r].tobytes() == engine._leaf_masses(sub, cum[r], slices).tobytes()

    def test_root_masses_returns_fresh_array(self):
        path = engine.simulate_path(
            tree.uniform_flow(3), wp.gaussian_spec(), engine.make_grid(0.2, 0.1), seed=2
        )
        first = path.root_masses()
        want = first.copy()
        first[:] = -1.0
        second = path.root_masses()
        assert second is not first
        assert np.array_equal(second, want)

    def test_summaries_materialize_each_snapshot_once(self, monkeypatch):
        calls = []
        mass_levels = engine._mass_levels

        def counted(base, cum):
            calls.append(1)
            return mass_levels(base, cum)

        monkeypatch.setattr(engine, "_mass_levels", counted)
        path = engine.simulate_path(
            tree.uniform_flow(4), wp.gaussian_spec(), engine.make_grid(0.3, 0.05), seed=5
        )
        roots = path.root_masses()
        _, roots_again, q, _ = observables.path_observables(path)
        series = observables.overlap_series(path)
        # the base flow stands for grid index 0 and is not recomputed
        assert len(calls) == path.n_snapshots - 1
        assert np.array_equal(roots, roots_again)
        assert np.array_equal(q, series.overlap)

    def test_index_of_time(self):
        base = tree.uniform_flow(2)
        path = engine.simulate_path(base, wp.gaussian_spec(), engine.make_grid(0.2, 0.1))
        assert path.index_of_time(0.1) == 1
        with pytest.raises(ValueError):
            path.index_of_time(0.05)


class TestComposition:
    def test_compose_zero_duration_identity(self):
        f = tree.uniform_flow(3)
        assert engine.compose(f, wp.gaussian_spec(), 0.3, 0.0, seed=1) is f

    def test_compose_from_path_matches_direct(self):
        base = tree.uniform_flow(6)
        spec = wp.gaussian_spec()
        grid = engine.make_grid(0.5, 0.1)
        path = engine.simulate_path(base, spec, grid, seed=17)
        for i, j in [(0, 5), (0, 2), (2, 5), (3, 4)]:
            replayed = engine.compose_from_path(path, i, j)
            direct = path.snapshot(j)
            for k in range(base.depth + 1):
                np.testing.assert_allclose(
                    replayed.level(k), direct.level(k), rtol=1e-12, atol=0.0
                )

    def test_compose_from_path_compound_poisson(self):
        base = tree.uniform_flow(5)
        spec = wp.compound_poisson_spec()
        grid = engine.make_grid(0.4, 0.1)
        path = engine.simulate_path(base, spec, grid, seed=23)
        replayed = engine.compose_from_path(path, 1, 4)
        direct = path.snapshot(4)
        for k in range(base.depth + 1):
            np.testing.assert_allclose(replayed.level(k), direct.level(k), rtol=1e-12, atol=0.0)

    def test_window_weights_route_matches_snapshots(self):
        # cascading snapshot i by exp(cum_j - cum_i) reproduces snapshot j:
        # the same identity through a different arithmetic path
        base = tree.uniform_flow(6)
        spec = wp.gaussian_spec()
        grid = engine.make_grid(0.6, 0.1)
        path = engine.simulate_path(base, spec, grid, seed=29)
        sl = [slice((1 << k) - 2, (1 << (k + 1)) - 2) for k in range(1, base.depth + 1)]
        for i, j in [(0, 6), (1, 3), (4, 6)]:
            dcum = path.log_weight_state(j) - path.log_weight_state(i)
            weights = [np.exp(dcum[s]) for s in sl]
            out = engine.cascade_static(path.snapshot(i), weights)
            direct = path.snapshot(j)
            for k in range(base.depth + 1):
                np.testing.assert_allclose(out.level(k), direct.level(k), rtol=1e-12, atol=0.0)

    def test_compose_validation(self):
        f = tree.uniform_flow(2)
        with pytest.raises(ValueError):
            engine.compose(f, wp.gaussian_spec(), 0.0, -0.1, seed=1)
        with pytest.raises(ValueError):
            engine.compose(f, wp.gaussian_spec(), 0.0, 0.1, seed=1, steps=0)

    def test_markov_two_step_equals_one_path(self):
        # evolving to t then composing with the path's own increments lands
        # exactly on the path's state at t + s
        base = tree.uniform_flow(4)
        spec = wp.gaussian_spec()
        grid = engine.make_grid(0.4, 0.2)
        path = engine.simulate_path(base, spec, grid, seed=31)
        mid = path.snapshot(1)
        end = engine.compose(mid, spec, 0.2, 0.2, seed=31, steps=1, first_step=2)
        for k in range(base.depth + 1):
            np.testing.assert_allclose(
                end.level(k), path.snapshot(2).level(k), rtol=1e-12, atol=0.0
            )


class TestConvergenceProbe:
    def test_theta_moment_decay_within_bound(self):
        report = engine.convergence_probe(
            tree.uniform_flow(7),
            wp.gaussian_spec(),
            t=0.4,
            depths=(2, 3, 4, 5, 6),
            h=1.5,
            replicas=512,
            seed=11,
        )
        assert not any(row.flagged for row in report.rows)
        assert report.c_fitted < 1.0
        # analytic decay rate per level: log(E[W^h] 2^(1-h)) < 0 here
        alpha = math.log(wp.moment(wp.gaussian_spec(), 0.4, 1.5) * 2.0**-0.5)
        assert report.fitted_slope() < alpha + 0.1

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            engine.convergence_probe(
                tree.uniform_flow(4), wp.gaussian_spec(), 0.1, (4,), 2.0, 8, 0
            )
        with pytest.raises(ValueError):
            engine.convergence_probe(
                tree.uniform_flow(4), wp.gaussian_spec(), 0.1, (2,), 2.0, 1, 0
            )
