import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecascade import engine, transport, tree
from treecascade import weights as wp


def normalized_flow(depth, seed):
    g = np.random.default_rng(seed)
    return tree.normalize(tree.flow_from_leaves(g.random(1 << depth) + 0.05))


def normalized_pairs(max_depth=5):
    return st.tuples(
        st.integers(1, max_depth), st.integers(0, 2**31), st.integers(0, 2**31)
    ).map(lambda a: (normalized_flow(a[0], a[1]), normalized_flow(a[0], a[2])))


class TestExactDistance:
    def test_depth_one_hand_value(self):
        # the two point masses sit at resolution distance 2^-1 - ... = the
        # level-1 edge weight sum: 2 * 2^-2 * |1 - 0| = 1/2
        mu = tree.flow_from_levels([[1.0], [1.0, 0.0]])
        nu = tree.flow_from_levels([[1.0], [0.0, 1.0]])
        r = transport.wasserstein_exact(mu, nu)
        assert r.value == pytest.approx(0.5, abs=1e-15)
        assert r.method == "tree_formula"
        assert r.truncation_bound == 0.5

    def test_zero_for_identical(self):
        f = normalized_flow(4, 0)
        assert transport.wasserstein_exact(f, f).value == 0.0

    def test_mismatched_depth_rejected(self):
        with pytest.raises(ValueError):
            transport.wasserstein_exact(tree.uniform_flow(2), tree.uniform_flow(3))

    def test_unnormalized_rejected(self):
        f = tree.flow_from_leaves([1.0, 2.0])
        with pytest.raises(ValueError):
            transport.wasserstein_exact(f, tree.uniform_flow(1))

    @given(pair=normalized_pairs())
    @settings(max_examples=30)
    def test_metric_properties(self, pair):
        mu, nu = pair
        d = transport.wasserstein_exact(mu, nu).value
        assert d >= 0.0
        assert d == pytest.approx(transport.wasserstein_exact(nu, mu).value, abs=1e-15)
        # diameter bound for the truncated resolution metric
        assert d <= 1.0

    @given(
        depth=st.integers(1, 4),
        seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
    )
    @settings(max_examples=20)
    def test_triangle_inequality(self, depth, seeds):
        a, b, c = (normalized_flow(depth, s) for s in seeds)
        dab = transport.wasserstein_exact(a, b).value
        dbc = transport.wasserstein_exact(b, c).value
        dac = transport.wasserstein_exact(a, c).value
        assert dac <= dab + dbc + 1e-12


class TestLpOracle:
    @given(pair=normalized_pairs(4))
    @settings(max_examples=15)
    def test_lp_matches_tree_formula(self, pair):
        mu, nu = pair
        exact = transport.wasserstein_exact(mu, nu).value
        lp = transport.wasserstein_lp_oracle(mu, nu).value
        assert lp == pytest.approx(exact, abs=1e-9)

    def test_lp_depth_cap(self):
        f = normalized_flow(transport.LP_MAX_DEPTH + 1, 0)
        with pytest.raises(ValueError):
            transport.wasserstein_lp_oracle(f, f)


class TestCouplingBound:
    @given(pair=normalized_pairs(5))
    @settings(max_examples=30)
    def test_dominates_exact(self, pair):
        mu, nu = pair
        exact = transport.wasserstein_exact(mu, nu).value
        upper = transport.coupling_upper_bound(mu, nu).value
        assert upper >= exact - 1e-12

    def test_requires_positive_masses(self):
        mu = tree.flow_from_levels([[1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            transport.coupling_upper_bound(mu, tree.uniform_flow(1))

    def test_zero_for_identical(self):
        f = normalized_flow(3, 1)
        assert transport.coupling_upper_bound(f, f).value == pytest.approx(0.0, abs=1e-15)


class TestHolderMachinery:
    def test_holder_lags_dyadic(self):
        assert list(transport.holder_lags(513)) == [1, 2, 4, 8, 16, 32, 64, 128, 256]
        assert list(transport.holder_lags(5)) == [1, 2]

    def test_lag_starts_in_range(self):
        for n, lag, budget in [(100, 8, 16), (10, 4, 32), (513, 256, 64)]:
            starts = transport._lag_starts(n, lag, budget)
            assert len(starts) == len(set(starts))
            assert all(0 <= s and s + lag < n for s in starts)
            assert len(starts) <= budget

    def test_distances_shape_and_positivity(self):
        base = tree.uniform_flow(6)
        grid = engine.make_grid(0.25, 2.0**-6)
        path = engine.simulate_path(base, wp.gaussian_spec(), grid, seed=4)
        rows = transport.holder_distances(path, pair_budget=8)
        assert len(rows) == len(transport.holder_lags(len(grid)))
        for lag_time, dists in rows:
            assert lag_time > 0
            assert len(dists) <= 8
            assert np.all(np.asarray(dists) > 0)

    def test_holder_exponent_near_half_small(self):
        base = tree.uniform_flow(9)
        grid = engine.make_grid(0.5, 2.0**-7)
        from treecascade.rng import derive_seeds

        seeds = derive_seeds(2024, 6)
        paths = (
            engine.simulate_path(base, wp.gaussian_spec(), grid, seed=int(s)) for s in seeds
        )
        fit = transport.holder_exponent(paths, pair_budget=32)
        assert not fit.degenerate
        assert 0.35 <= fit.slope <= 0.65
        assert fit.r_squared > 0.9

    def test_finished_path_freed_before_next(self):
        base = tree.uniform_flow(4)
        grid = engine.make_grid(0.1, 0.025)
        refs = []
        alive = []

        def paths():
            for seed in range(3):
                alive.append(sum(r() is not None for r in refs))
                path = engine.simulate_path(base, wp.gaussian_spec(), grid, seed=seed)
                refs.append(weakref.ref(path))
                yield path
                del path

        transport.holder_exponent(paths(), lags=(1, 2))
        assert alive == [0, 0, 0]

    def test_degenerate_with_single_lag(self):
        # 3 snapshots give exactly one dyadic lag: not enough for a slope
        base = tree.uniform_flow(4)
        path = engine.simulate_path(base, wp.gaussian_spec(), engine.make_grid(0.2, 0.1), seed=6)
        fit = transport.holder_exponent([path])
        assert fit.degenerate
        assert math.isnan(fit.slope)

    def test_too_few_snapshots_rejected(self):
        base = tree.uniform_flow(4)
        path = engine.simulate_path(base, wp.gaussian_spec(), engine.make_grid(0.0, 0.1))
        with pytest.raises(ValueError):
            transport.holder_distances(path)

    def test_single_path_accepted(self):
        base = tree.uniform_flow(6)
        grid = engine.make_grid(0.25, 2.0**-5)
        path = engine.simulate_path(base, wp.gaussian_spec(), grid, seed=8)
        fit = transport.holder_exponent(path, pair_budget=8)
        assert not fit.degenerate
