import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecascade import engine, observables, transport, tree
from treecascade import weights as wp
from treecascade.rng import derive_seeds


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _series_case(case):
    """A stored path and the vertices whose mass series the tests read."""
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
        "depth14_blocks": (tree.uniform_flow(14), wp.gaussian_spec(), [0.05, 0.1, 0.2, 0.25, 0.3]),
    }[case]
    path = engine.simulate_path(base, spec, grid, seed=9, snapshot_times=times)
    if base.depth < 14:
        # every vertex: the root, both depth-1 vertices, the leaves at both ends
        return path, [tree.Vertex(d, b) for d in range(base.depth + 1) for b in range(1 << d)]
    # the root's blocks hold two snapshots each, so five split 2 + 2 + 1
    assert engine._BLOCK // 2**14 == 2
    return path, [tree.ROOT, tree.Vertex(14, 12345), tree.Vertex(3, 5)]


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
    def test_compound_poisson_subset_negative_seed_anchor(self):
        # frozen root masses and level bytes of a path stored at a subset of
        # its grid, under a negative seed (keys are taken mod 2^64)
        grid = engine.make_grid(0.5, 0.1)
        p = engine.simulate_path(
            tree.uniform_flow(5), wp.compound_poisson_spec(), grid, seed=-3, snapshot_times=[0.2, 0.5]
        )
        assert p.root_masses().tolist() == [0.9831655352792409, 0.8399780474094312]
        assert [_digest(p.masses_flat(i)) for i in range(2)] == [
            "b50cfe5ea5767b3618f6155c184af512768ec379da8763be0bacf45fb50f9d54",
            "5c87f8d36a613eee1a1d697c1d2769108ba4da79a0c1cc28aac159ce3682e130",
        ]

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
        # the stored states are one read-only array, a row per stored time
        assert full._cum.shape == (5, engine._flat_size(3))
        assert not full._cum.flags.writeable
        assert part.log_weight_state(0).tobytes() == full._cum[2].tobytes()
        with pytest.raises(ValueError):
            engine.simulate_path(base, wp.gaussian_spec(), grid, seed=1, snapshot_times=[0.15])

    def test_depth_truncation_couples_noise(self):
        # flat level-major keying: a shallower run of the same seed draws
        # exactly the deeper run's weights on the shared vertex range
        grid = engine.make_grid(0.3, 0.1)
        deep = engine.simulate_path(tree.uniform_flow(5), wp.gaussian_spec(), grid, seed=3)
        shallow = engine.simulate_path(
            tree.truncate(tree.uniform_flow(5), 3), wp.gaussian_spec(), grid, seed=3
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
        [
            "depth0",
            "uniform",
            "zero_leaves",
            "loaded",
            "snapshot_times",
            "no_initial_snapshot",
            "depth14_blocks",
        ],
    )
    def test_vertex_mass_series_bits_match_materialized(self, case):
        path, vs = _series_case(case)
        series = path.vertex_mass_series(vs)
        for i in range(path.n_snapshots):
            flat = path.masses_flat(i)
            want = flat[[(1 << v.depth) - 1 + v.bits for v in vs]]
            assert series[i].tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            path.vertex_mass_series([tree.Vertex(path.depth + 1, 0)])

    @pytest.mark.parametrize(
        "case, digest",
        [
            ("loaded", "925e6509e814b605c2320533aa2455678cff6da762131680fe700743ede43b9e"),
            ("depth14_blocks", "2923bd00d56c9092ed432df7ea9a40b9c41d202310b214526d346ea739c94e4e"),
        ],
    )
    def test_vertex_mass_series_frozen(self, case, digest):
        path, vs = _series_case(case)
        assert _digest(path.vertex_mass_series(vs)) == digest

    @pytest.mark.parametrize("depth", [0, 1, 6, 14])
    def test_materialized_layout_matches_repeat_reference(self, depth):
        # reference: log X grown by np.repeat, leaf masses, then numpy's sum
        # over each pair, level by level, concatenated level-major
        leaves = np.random.default_rng(depth).random(1 << depth)
        leaves[::3] = 0.0
        base = tree.flow_from_leaves(leaves)
        path = engine.simulate_path(base, wp.gaussian_spec(), engine.make_grid(0.2, 0.1), seed=4)
        want = []
        for i in range(path.n_snapshots):
            cum = path.log_weight_state(i)
            logx = np.zeros(1)
            for k in range(1, depth + 1):
                logx = np.repeat(logx, 2) + cum[(1 << k) - 2 : (2 << k) - 2]
            ref = [np.exp(logx) * leaves]
            while len(ref[-1]) > 1:
                ref.append(ref[-1].reshape(-1, 2).sum(axis=1))
            ref = ref[::-1]
            want.append(np.concatenate(ref))

            levels = path.mass_levels(i)
            assert len(levels) == depth + 1
            assert all(lvl.base is levels[0].base for lvl in levels)
            assert levels[0].base.tobytes() == want[i].tobytes()
            for lvl, r in zip(levels, ref):
                assert lvl.tobytes() == r.tobytes()
            assert path.masses_flat(i).tobytes() == want[i].tobytes()
            snap = path.snapshot(i)
            for lvl, r in zip(snap.levels, ref):
                assert lvl.tobytes() == r.tobytes()
            # a flow's levels share one buffer, not a copy, frozen with them
            assert snap.levels[0].base is not None
            assert all(lvl.base is snap.levels[0].base for lvl in snap.levels)
            assert not snap.levels[0].base.flags.writeable
            assert not any(lvl.flags.writeable for lvl in snap.levels)
        # an (R, size) batch: one (R, 2^(n+1) - 1) buffer, a level-major row per state
        batch = np.stack([path.log_weight_state(i) for i in range(path.n_snapshots)])
        levels = tree._levels_from_leaves(
            engine._leaf_masses(leaves, batch, engine._level_slices(depth))
        )
        flat = levels[0].base
        assert flat.shape == (path.n_snapshots, (2 << depth) - 1)
        assert all(lvl.base is flat for lvl in levels)
        assert flat.tobytes() == np.stack(want).tobytes()

    @pytest.mark.parametrize("case", ["depth0", "depth1", "zero_leaves", "subtree", "wide_batch"])
    def test_leaf_masses_batch_rows_match_single(self, case):
        # an (R, size) replica batch runs the same code as one (size,) state
        leaves = np.random.default_rng(6).random(1 << 5)
        leaves[[0, 7, 8, 31]] = 0.0
        base, v = {
            "depth0": (tree.uniform_flow(0), tree.ROOT),
            "depth1": (tree.uniform_flow(1), tree.ROOT),
            "zero_leaves": (tree.flow_from_leaves(leaves), tree.ROOT),
            "subtree": (tree.flow_from_leaves(leaves), tree.Vertex(2, 1)),
            # a batch wider than the block budget, as one row of each
            # replica: both give the same bits
            "wide_batch": (tree.uniform_flow(14), tree.ROOT),
        }[case]
        n = base.depth
        size = engine._flat_size(n)
        cum = wp.log_increments_multi(wp.gaussian_spec(), 0.4, derive_seeds(8, 5), 1, 0, size)
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

    @pytest.mark.parametrize("depth", [0, 1, 9])
    def test_overlap_bits_match_squared_ratios(self, depth):
        # reference: a new (level / root) ** 2 array per level, summed by numpy
        leaves = np.random.default_rng(depth).random(1 << depth)
        leaves[::3] = 0.0
        leaves[-1] = 0.5
        path = engine.simulate_path(
            tree.flow_from_leaves(leaves), wp.gaussian_spec(), engine.make_grid(0.2, 0.1), seed=4
        )
        for i in range(path.n_snapshots):
            levels = path.mass_levels(i)
            shares = [float(np.sum((lvl / levels[0][0]) ** 2)) for lvl in levels]
            want = (sum(shares[1:], 0.0), shares[-1])
            assert engine._overlap_from_flat(path.masses_flat(i)) == want
            assert (path.snapshot_summaries()[1][i], path.snapshot_summaries()[2][i]) == want

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

    def test_snapshot_rejects_non_finite_masses(self):
        # the root mass of this base already overflows, and a step of
        # weight near one keeps it past the largest double
        with np.errstate(over="ignore"):
            base = tree.flow_from_leaves([1.5e308, 1.5e308])
            path = engine.simulate_path(base, wp.gaussian_spec(), [0.0, 0.1], seed=1)
            with pytest.raises(ValueError):
                path.snapshot(1)


def _counted_draws(monkeypatch):
    """A list that gains one entry per ``log_increments_multi`` call."""
    calls = []
    draw = wp.log_increments_multi

    def counted(*args, **kwargs):
        calls.append(args[3])  # the step index
        return draw(*args, **kwargs)

    monkeypatch.setattr(wp, "log_increments_multi", counted)
    return calls


def _stream_case(case):
    """(base, spec, grid, snapshot times) of a path that the readers see."""
    leaves = np.random.default_rng(6).random(1 << 5)
    leaves[::3] = 0.0
    return {
        "depth0": (tree.uniform_flow(0), wp.gaussian_spec(), engine.make_grid(0.1, 0.01), None),
        "without_time0": (
            tree.uniform_flow(6), wp.gaussian_spec(), engine.make_grid(0.4, 0.01),
            np.arange(10, 41, 2) / 100,
        ),
        # rate * step = 2
        "dense_compound_poisson": (
            tree.uniform_flow(5), wp.compound_poisson_spec(rate=40.0, jump_mean=0.0, jump_sd=0.15),
            engine.make_grid(0.5, 0.05), None,
        ),
        "zero_mass_leaves": (
            tree.flow_from_leaves(leaves), wp.gaussian_spec(), engine.make_grid(0.2, 0.01), None,
        ),
    }[case]


class TestStreamPath:
    @pytest.mark.parametrize(
        "case", ["depth0", "without_time0", "dense_compound_poisson", "zero_mass_leaves"]
    )
    def test_readers_match_stored_path(self, case):
        base, spec, grid, times = _stream_case(case)
        path = engine.simulate_path(base, spec, grid, seed=11, snapshot_times=times)
        storage = engine._StoredRows(path.n_snapshots, engine._flat_size(base.depth))
        summaries = engine.SnapshotSummaries(path.n_snapshots)
        pairs = transport.HolderPairs(path.times, base.depth, pair_budget=8)
        readers = [storage, summaries, pairs]
        engine.stream_path(base, spec, grid, readers, seed=11, snapshot_times=times)
        assert storage.rows.tobytes() == path._cum.tobytes()
        assert summaries.values.tobytes() == np.stack(path.snapshot_summaries()).tobytes()
        stored = transport.holder_distances(path, pair_budget=8)
        assert [lag for lag, _ in pairs.distances] == [lag for lag, _ in stored]
        for (_, got), (_, want) in zip(pairs.distances, stored):
            assert got.tobytes() == want.tobytes()

    def test_one_materialization_per_step_for_all_readers(self, monkeypatch):
        calls = []
        mass_levels = engine._mass_levels

        def counted(base, cum):
            calls.append(1)
            return mass_levels(base, cum)

        monkeypatch.setattr(engine, "_mass_levels", counted)
        grid = engine.make_grid(0.2, 0.01)
        readers = [engine.SnapshotSummaries(len(grid)), transport.HolderPairs(grid, 4)]
        engine.stream_path(tree.uniform_flow(4), wp.gaussian_spec(), grid, readers, seed=3)
        # the base flow stands for grid index 0
        assert len(calls) == len(grid) - 1

    def test_draws_stop_at_last_wanted_step(self, monkeypatch):
        base, spec, grid = tree.uniform_flow(6), wp.gaussian_spec(), engine.make_grid(0.3, 1e-3)
        full = engine.simulate_path(base, spec, grid, seed=5)
        calls = _counted_draws(monkeypatch)
        part = engine.simulate_path(base, spec, grid, seed=5, snapshot_times=[0.0, 0.002])
        assert calls == [1, 2]
        assert part._cum.tobytes() == full._cum[[0, 2]].tobytes()

    def test_stored_state_over_limit_raises_before_drawing(self, monkeypatch):
        calls = _counted_draws(monkeypatch)
        monkeypatch.setattr(engine, "_stored_state_limit", lambda: 10_500)
        grid = engine.make_grid(0.1, 0.01)
        # 11 states of 126 log-weights take 11 088 bytes, 10 take 10 080
        with pytest.raises(MemoryError, match="stored states: 11088 bytes > limit 10500"):
            engine.simulate_path(tree.uniform_flow(6), wp.gaussian_spec(), grid, seed=1)
        assert calls == []
        path = engine.simulate_path(tree.uniform_flow(6), wp.gaussian_spec(), grid[:10], seed=1)
        assert path.n_snapshots == 10 and len(calls) == 9

    def test_stored_state_unbounded_without_sysconf(self, monkeypatch):
        # platforms without os.sysconf still store paths
        monkeypatch.delattr(engine.os, "sysconf")
        assert engine._stored_state_limit() == math.inf
        path = engine.simulate_path(tree.uniform_flow(2), wp.gaussian_spec(), [0.0, 0.1], seed=1)
        assert path.n_snapshots == 2

    def test_stream_path_checks_like_simulate_path(self):
        with pytest.raises(ValueError, match="grid must start at 0"):
            engine.stream_path(tree.uniform_flow(2), wp.gaussian_spec(), [0.1, 0.2], [])
        with pytest.raises(ValueError, match="not on the grid"):
            engine.stream_path(
                tree.uniform_flow(2), wp.gaussian_spec(), [0.0, 0.1], [], snapshot_times=[0.05]
            )


class TestComposition:
    def test_compose_zero_duration_identity(self):
        path = engine.simulate_path(tree.uniform_flow(3), wp.gaussian_spec(), [0.0, 0.1], seed=1)
        for i in range(path.n_snapshots):
            assert engine.compose_from_path(path, i, i) == path.snapshot(i)

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

    COMPOSED = {
        "gaussian": "01f6d3d8f57c7896530ef7b8b2b0659f798b642475533f783f62a368f0b25342",
        "compound_poisson": "7714e466d5a7bd23b9b10dbf6ec683b1fc04f1fa4508ff58f46d23113e89f116",
    }

    @pytest.mark.parametrize("spec", [wp.gaussian_spec(), wp.compound_poisson_spec()])
    def test_frozen_levels(self, spec):
        # level bytes of compose_from_path, pinned bit for bit
        base = tree.uniform_flow(4)
        path = engine.simulate_path(base, spec, engine.make_grid(0.5, 0.1), seed=19)
        replayed = engine.compose_from_path(path, 1, 4)
        assert _digest(np.concatenate(replayed.levels)) == self.COMPOSED[spec.kind]

    def test_compose_validation(self):
        path = engine.simulate_path(tree.uniform_flow(2), wp.gaussian_spec(), [0.0, 0.1], seed=1)
        with pytest.raises(ValueError, match="at or before"):
            engine.compose_from_path(path, 1, 0)
        with pytest.raises(ValueError, match="at or before"):
            engine.compose_from_path(path, 0, 2)


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

    FROZEN = {
        "gaussian": (
            [
                (0.1236011117809064, 0.06634966544368792),
                (0.09305331645207127, 0.04995207650141525),
                (0.03031727965375683, 0.014344416960192386),
            ],
            0.24864858028839903,
        ),
        "compound_poisson": (
            [
                (0.028520283340458166, 0.007858543618204525),
                (0.006656739271663231, 0.001914618400140348),
                (0.002273066518075368, 0.0007715208321734632),
            ],
            0.07711690786396763,
        ),
    }

    @pytest.mark.parametrize("spec", [wp.gaussian_spec(), wp.compound_poisson_spec()])
    def test_frozen_anchor(self, spec):
        # row means, SEs and the fitted constant, bit for bit; the powers are
        # Python's float ** h, which numpy's array power differs from in ulps
        report = engine.convergence_probe(tree.uniform_flow(7), spec, 0.4, (2, 4, 6), 1.5, 12, 3)
        rows, c_fitted = self.FROZEN[spec.kind]
        assert [(row.mean, row.se) for row in report.rows] == rows
        assert report.c_fitted == c_fitted

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            engine.convergence_probe(
                tree.uniform_flow(4), wp.gaussian_spec(), 0.1, (4,), 2.0, 8, 0
            )
        with pytest.raises(ValueError):
            engine.convergence_probe(
                tree.uniform_flow(4), wp.gaussian_spec(), 0.1, (2,), 2.0, 1, 0
            )
