import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

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
        cases = [(100, 8, 16), (10, 4, 32), (513, 256, 64), (100, 3, 64), (30, 5, 4), (12, 11, 8)]
        for n, lag, budget in cases:
            starts = transport._lag_starts(n, lag, budget)
            assert len(starts) == len(set(starts))
            assert all(0 <= s and s + lag < n for s in starts)
            assert len(starts) <= budget
            # on multiples of ceil(lag / 2), odd lags too: no two closer than lag / 2
            assert all(s % -(-lag // 2) == 0 for s in starts)
        # every candidate taken while the budget allows: 0, 2, ..., 96 for lag 3
        assert list(transport._lag_starts(100, 3, 64)) == list(range(0, 97, 2))

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


def _gauss_path(depth, t_end, step, snapshot_times=None):
    grid = engine.make_grid(t_end, step)
    return engine.simulate_path(
        tree.uniform_flow(depth), wp.gaussian_spec(), grid, seed=3, snapshot_times=snapshot_times
    )


def _pairs(n_snapshots, lags, pair_budget=64):
    lags = transport.holder_lags(n_snapshots) if lags is None else lags
    return [
        [(int(i), int(i) + lag) for i in transport._lag_starts(n_snapshots, lag, pair_budget)]
        for lag in lags
    ]


def _zero_leaf_cp_path():
    leaves = np.random.default_rng(9).random(1 << 5)
    leaves[::3] = 0.0
    spec = wp.compound_poisson_spec(rate=30.0, jump_mean=-0.1, jump_sd=0.4)
    grid = engine.make_grid(0.2, 0.01)
    return engine.simulate_path(tree.flow_from_leaves(leaves), spec, grid, seed=2)


def _output_at_blas_threads(script, threads):
    """Standard output of a Python script run with the given BLAS thread count."""
    src = str(Path(transport.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_dot_reductions_independent_of_blas_threads():
    # levels of 2^13 and 2^14 masses, long enough for a threaded BLAS dot
    script = (
        "import numpy as np\n"
        "from treecascade import engine, transport, tree, weights\n"
        "report = engine.convergence_probe(tree.uniform_flow(15), weights.gaussian_spec(),\n"
        "                                  0.3, [13, 14], 1.0, 2, 5)\n"
        "print(report.means().tobytes().hex())\n"
        # nearly equal pair sums: the bound is all deepest level, 2^14 terms
        "g = np.random.default_rng(0)\n"
        "pairs = g.random(1 << 14) + 0.1\n"
        "mu, nu = (\n"
        "    tree.normalize(tree.flow_from_leaves(np.stack([pairs * s, pairs * (1 - s)], 1).ravel()))\n"
        "    for s in g.random((2, 1 << 14)) * 0.8 + 0.1\n"
        ")\n"
        "print(float(transport.coupling_upper_bound(mu, nu).value).hex())\n"
    )
    outputs = [_output_at_blas_threads(script, threads) for threads in ("1", "2")]
    assert len(outputs[0].split()) == 2
    assert outputs[0] == outputs[1]


SWEEP_CASES = {
    "depth0": lambda: _gauss_path(0, 0.1, 0.01),
    "depth1": lambda: _gauss_path(1, 0.1, 0.01),
    "zero_leaves_cp": _zero_leaf_cp_path,
    "subset_with_time0": lambda: _gauss_path(6, 0.4, 0.01, np.arange(0, 41, 4) / 100),
    "subset_without_time0": lambda: _gauss_path(6, 0.4, 0.01, np.arange(10, 41, 2) / 100),
}


class TestHolderSweep:
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_distances_match_exact_transport(self, case):
        path = SWEEP_CASES[case]()
        rows = transport.holder_distances(path, pair_budget=16)
        pairs = _pairs(path.n_snapshots, None, 16)
        assert len(rows) == len(pairs)
        dt = path.times[1] - path.times[0]
        for (lag_time, dists), lag_pairs in zip(rows, pairs):
            lag = lag_pairs[0][1] - lag_pairs[0][0]
            assert lag_time == lag * dt
            want = [
                transport.wasserstein_exact(
                    tree.normalize(path.snapshot(i)), tree.normalize(path.snapshot(j))
                ).value
                for i, j in lag_pairs
            ]
            assert np.allclose(dists, want, rtol=1e-13, atol=0.0)
            if path.depth == 0:
                assert np.all(dists == 0.0)

    # recorded with lag L's starts on multiples of ceil(L/2); the same bits as
    # the earlier all-index reader gives for those pairs
    @pytest.mark.parametrize(
        "case, digest",
        [
            ("depth0", "f1fc9696c311df3b033dffc7d9244432862b8b25f512ca6ccc9bc3ad828a0141"),
            ("depth1", "4015214221d1611f6eff6cd8540f3ee81ba60a08efc06cb4e573d1cc53e71a7c"),
            ("subset_with_time0", "2c2bec608dd7f5ed32e69e5b0725cc5e7c52e67ce05fd4c1bb805d815f923cf7"),
            ("subset_without_time0", "6750161bf917034a65f1292d6a82f4f08a1cdd1b8f66002a971d9f38f35ad23a"),
            ("zero_leaves_cp", "be28e9ad9e4a82770ece7a90db0a14ba10f3ecea21c2d85d31d2b3fb578c09e2"),
        ],
    )
    def test_distances_frozen(self, case, digest):
        rows = transport.holder_distances(SWEEP_CASES[case]())
        flat = np.concatenate([np.r_[lag_time, dists] for lag_time, dists in rows])
        assert hashlib.sha256(flat.tobytes()).hexdigest() == digest

    def test_each_paired_snapshot_materialized_once(self, monkeypatch):
        path = _gauss_path(5, 0.4, 0.005)
        lags = (1, 3, 16, 64)
        calls = []
        mass_levels = engine.CascadePath.mass_levels

        def counted(self, i):
            calls.append(i)
            return mass_levels(self, i)

        monkeypatch.setattr(engine.CascadePath, "mass_levels", counted)
        transport.holder_distances(path, pair_budget=10, lags=lags)
        needed = {s for lag_pairs in _pairs(path.n_snapshots, lags, 10) for pair in lag_pairs for s in pair}
        assert needed != set(range(path.n_snapshots))
        assert calls == sorted(needed)

    def test_held_snapshots_bounded_by_spanning_pairs(self, monkeypatch):
        # no time 0: the base snapshot's leaves live as long as the path does
        path = _gauss_path(4, 0.5, 0.005, np.arange(1, 101) / 200)
        lags = (1, 2, 8, 32)
        by_lag = _pairs(path.n_snapshots, lags, 12)
        pairs = [pair for lag_pairs in by_lag for pair in lag_pairs]
        last = {}
        for i, j in pairs:
            last[i] = max(last.get(i, i), j)
            last.setdefault(j, j)
        refs = {}
        checked = []
        mass_levels = engine.CascadePath.mass_levels

        def watched(self, s):
            # the Hölder reader's held set as it stands when snapshot s is materialized
            frame = sys._getframe(1)
            while frame.f_code is not transport.HolderPairs.read.__code__:
                frame = frame.f_back
            held = frame.f_locals["self"].held
            assert set(held) == {i for i in last if i < s <= last[i]}
            spanning = sum(i < s <= j for i, j in pairs)
            assert len(held) <= spanning
            # at most two open starts a lag; with s about to join, 2 * len(lags) + 1
            assert all(sum(i < s <= j for i, j in lag_pairs) <= 2 for lag_pairs in by_lag)
            assert len(held) + 1 <= 2 * len(lags) + 1
            refs.update((i, weakref.ref(a)) for i, a in held.items())
            checked.append(len(held))
            return mass_levels(self, s)

        monkeypatch.setattr(engine.CascadePath, "mass_levels", watched)
        transport.holder_distances(path, pair_budget=12, lags=lags)
        assert len(checked) == len(last)
        assert max(checked) > 1
        assert all(ref() is None for ref in refs.values())

    def test_held_buffers_do_not_pin_materialized_buffers(self, monkeypatch):
        # each materialization is one level-major buffer; the sweep holds a
        # new normalized buffer, so no materialized one outlives its own step
        path = _gauss_path(4, 0.5, 0.005, np.arange(1, 101) / 200)
        buffers = []
        mass_levels = engine.CascadePath.mass_levels

        def watched(self, s):
            assert all(ref() is None for ref in buffers)
            levels = mass_levels(self, s)
            assert all(lvl.base is levels[0].base for lvl in levels)
            buffers.append(weakref.ref(levels[0].base))
            return levels

        monkeypatch.setattr(engine.CascadePath, "mass_levels", watched)
        transport.holder_distances(path, pair_budget=12, lags=(1, 2, 8, 32))
        assert len(buffers) > 30

    def test_streamed_sweep_holds_spanning_pairs_only(self, monkeypatch):
        # the same two bounds on a path that is evolved, not stored
        grid = engine.make_grid(0.5, 0.005)
        lags = (1, 2, 8, 32)
        reader = transport.HolderPairs(grid, 4, pair_budget=12, lags=lags)
        pairs = [pair for lag_pairs in _pairs(len(grid), lags, 12) for pair in lag_pairs]
        buffers, sizes = [], []
        mass_levels_at = engine._mass_levels_at

        def watched(base, cum, s):
            assert all(ref() is None for ref in buffers)
            assert len(reader.held) <= sum(i < s <= j for i, j in pairs)
            sizes.append(len(reader.held))
            levels = mass_levels_at(base, cum, s)
            buffers.append(weakref.ref(levels[0].base))
            return levels

        monkeypatch.setattr(engine, "_mass_levels_at", watched)
        engine.stream_path(tree.uniform_flow(4), wp.gaussian_spec(), grid, [reader], seed=3)
        assert len(sizes) > 30 and max(sizes) > 1
        assert reader.held == {}

    def test_streamed_sweep_memory_bounded(self):
        # holder_sweep.py's shape at depth 12: 129 times, default lags, budget 48;
        # each held snapshot is 2^13 - 2 floats, 64 KiB.  The reader holds at
        # most 15 of them, the evolution a few more; a pair on every start
        # would hold 54, a 3.7 MiB peak
        grid = engine.make_grid(0.5, 2.0**-8)
        assert len(transport.holder_lags(len(grid))) == 7
        base, spec = tree.uniform_flow(12), wp.gaussian_spec()
        tracemalloc.start()
        try:
            transport.streamed_holder_exponent(base, spec, grid, [5], pair_budget=48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 64 * 1024

    def test_streamed_fit_matches_stored(self):
        base, spec = tree.uniform_flow(6), wp.gaussian_spec()
        grid = engine.make_grid(0.25, 2.0**-6)
        seeds = [3, 2**63 + 4]
        stored = transport.holder_exponent(
            (engine.simulate_path(base, spec, grid, seed=s) for s in seeds), pair_budget=8
        )
        streamed = transport.streamed_holder_exponent(base, spec, grid, seeds, pair_budget=8)
        assert not stored.degenerate
        assert repr(streamed) == repr(stored)

    def test_distances_independent_of_blas_threads(self):
        # depth 13: 16 382 masses per snapshot, long enough for a threaded BLAS dot
        script = (
            "import hashlib, numpy as np\n"
            "from treecascade import engine, transport, tree, weights\n"
            "path = engine.simulate_path(tree.uniform_flow(13), weights.gaussian_spec(),\n"
            "                            engine.make_grid(0.006, 1e-3), seed=7)\n"
            "rows = transport.holder_distances(path, lags=(1, 2, 4))\n"
            "print(hashlib.sha256(np.concatenate([d for _, d in rows]).tobytes()).hexdigest())\n"
        )
        digests = [_output_at_blas_threads(script, threads) for threads in ("1", "2")]
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("lag", [20, 11, 0, -1, 1.5])
    def test_lag_out_of_range_rejected(self, lag):
        path = _gauss_path(3, 0.1, 0.01)
        assert path.n_snapshots == 11
        with pytest.raises(ValueError, match=f"lag {lag} "):
            transport.holder_distances(path, lags=(1, lag))

    @pytest.mark.parametrize("pair_budget", [0, -1])
    def test_pair_budget_below_one_rejected(self, pair_budget):
        path = _gauss_path(3, 0.1, 0.01)
        with pytest.raises(ValueError, match=f"pair_budget must be at least 1, got {pair_budget}"):
            transport.holder_distances(path, pair_budget=pair_budget)

    def test_longest_lag_accepted(self):
        path = _gauss_path(3, 0.1, 0.01)
        [(lag_time, dists)] = transport.holder_distances(path, lags=(10,))
        assert lag_time == pytest.approx(0.1)
        assert len(dists) == 1
