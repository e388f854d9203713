import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treecascade import engine, tree
from treecascade import weights as wp


def leaf_arrays(max_depth=6):
    return st.integers(0, max_depth).flatmap(
        lambda d: st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=1 << d,
            max_size=1 << d,
        )
    )


class TestVertex:
    def test_children_and_path_bits(self):
        v = tree.Vertex(2, 0b10)
        assert tree.ROOT.is_ancestor_of(v)
        assert v.is_ancestor_of(tree.Vertex(3, 0b101))
        assert v.is_ancestor_of(tree.Vertex(4, 0b1011))
        assert not v.is_ancestor_of(tree.Vertex(4, 0b1111))

    def test_bounds(self):
        with pytest.raises(ValueError):
            tree.Vertex(-1, 0)
        with pytest.raises(ValueError):
            tree.Vertex(2, 4)

    def test_flat_index_level_major(self):
        seen = [tree.flat_index(tree.Vertex(k, b)) for k in (1, 2, 3) for b in range(1 << k)]
        assert seen == list(range(14))
        with pytest.raises(ValueError):
            tree.flat_index(tree.ROOT)

    def test_common_ancestor_depth(self):
        u = tree.Vertex(4, 0b0110)
        assert tree.common_ancestor_depth(u, tree.Vertex(4, 0b0111)) == 3
        assert tree.common_ancestor_depth(u, tree.Vertex(4, 0b1110)) == 0
        assert tree.common_ancestor_depth(u, u) == 4
        assert tree.common_ancestor_depth(u, tree.Vertex(2, 0b01)) == 2


class TestFlowConstruction:
    def test_uniform_flow_masses(self):
        f = tree.uniform_flow(3)
        assert f.depth == 3
        assert f.root_mass == 1.0
        for k in range(4):
            assert np.all(f.level(k) == 2.0**-k)

    def test_single_ray_flow(self):
        f = tree.single_ray_flow(3, bits=0b101, mass=2.0)
        assert f.mass(tree.Vertex(3, 0b101)) == 2.0
        assert f.mass(tree.Vertex(2, 0b10)) == 2.0
        assert f.mass(tree.Vertex(3, 0b100)) == 0.0
        assert f.root_mass == 2.0

    def test_from_leaves_sums_exactly(self):
        f = tree.flow_from_leaves([1.0, 2.0, 3.0, 4.0])
        assert list(f.level(1)) == [3.0, 7.0]
        assert f.root_mass == 10.0

    def test_from_leaves_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            tree.flow_from_leaves([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            tree.flow_from_leaves([])
        with pytest.raises(ValueError):
            tree.flow_from_leaves([1.0, -1.0])
        with pytest.raises(ValueError):
            tree.flow_from_leaves([1.0, np.nan])

    def test_levels_are_immutable(self):
        f = tree.uniform_flow(2)
        with pytest.raises(ValueError):
            f.leaves[0] = 5.0

    def test_from_levels_copies_caller_arrays(self):
        root, leaves = np.array([1.0]), np.array([0.5, 0.5])
        f = tree.flow_from_levels([root, leaves])
        assert root.flags.writeable and leaves.flags.writeable
        leaves[0] = 0.25
        assert f.leaves[0] == 0.5
        with pytest.raises(ValueError):
            f.leaves[0] = 0.25

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            tree.uniform_flow(tree.MAX_DEPTH + 1)

    @pytest.mark.parametrize(
        "make",
        [
            tree.uniform_flow,
            tree.single_ray_flow,
            # the uniform levels as zero-stride views: nothing is allocated
            lambda d: tree.flow_from_levels(
                [np.broadcast_to(2.0**-k, 1 << k) for k in range(d + 1)]
            ),
        ],
        ids=["uniform_flow", "single_ray_flow", "flow_from_levels"],
    )
    def test_depth_cap_checked_before_levels_are_filled(self, make, monkeypatch):
        # the cap is read at call time; filling depth 16 would take 1 MiB
        monkeypatch.setattr(tree, "MAX_DEPTH", 4)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="depth 16 exceeds MAX_DEPTH=4"):
                make(16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert make(4).depth == 4

    @given(leaves=leaf_arrays())
    def test_conservation_from_leaves(self, leaves):
        f = tree.flow_from_leaves(leaves)
        assert not tree.validate_flow(f).violations
        assert f.root_mass == pytest.approx(sum(leaves), rel=1e-12)

    @given(leaves=leaf_arrays())
    def test_pairwise_levels_match_reshape_sum(self, leaves):
        # reference: numpy's reduce over a length-2 axis
        level = np.asarray(leaves, dtype=np.float64)
        f = tree.flow_from_leaves(level)
        for k in range(f.depth, 0, -1):
            assert f.level(k).tobytes() == level.tobytes()
            level = level.reshape(-1, 2).sum(axis=1)
        assert f.level(0).tobytes() == level.tobytes()
        # an (R, 2^n) replica batch reduces along its last axis
        batch = np.asarray(leaves, dtype=np.float64)
        batch = np.stack([batch, batch[::-1], 3.0 * batch])
        levels = tree._level_views(tree._flat_from_leaves(batch))
        assert len(levels) == f.depth + 1
        for k in range(f.depth, 0, -1):
            assert levels[k].tobytes() == batch.tobytes()
            batch = batch.reshape(3, -1, 2).sum(axis=2)
        assert levels[0].tobytes() == batch.tobytes()


def _stored_path():
    base = tree.flow_from_leaves(np.arange(1.0, 9.0))
    return engine.simulate_path(base, wp.gaussian_spec(), [0.0, 0.1, 0.3], seed=3)


def _loaded(suffix):
    def load(tmp_path):
        path = tmp_path / f"flow{suffix}"
        tree.save_flow(tree.flow_from_leaves(np.arange(1.0, 9.0)), path)
        return tree.load_flow(path)

    return load


# every way to make a flow, each called with a temporary directory
FLOW_MAKERS = {
    "flow_from_leaves": lambda _: tree.flow_from_leaves(np.arange(1.0, 9.0)),
    "flow_from_levels": lambda _: tree.flow_from_levels([[3.0], [1.0, 2.0], [0.5, 0.5, 1.0, 1.0]]),
    "uniform_flow": lambda _: tree.uniform_flow(4),
    "single_ray_flow": lambda _: tree.single_ray_flow(3, bits=0b110, mass=2.0),
    "normalize": lambda _: tree.normalize(tree.flow_from_leaves(np.arange(1.0, 9.0))),
    "truncate": lambda _: tree.truncate(tree.uniform_flow(4), 2),
    "load_flow_json": _loaded(".json"),
    "load_flow_csv": _loaded(".csv"),
    "snapshot": lambda _: _stored_path().snapshot(2),
    "compose_from_path": lambda _: engine.compose_from_path(_stored_path(), 1, 2),
}


class TestFlowBuffer:
    @pytest.mark.parametrize("make", sorted(FLOW_MAKERS))
    def test_flat_is_read_only_and_levels_are_views(self, make, tmp_path):
        f = FLOW_MAKERS[make](tmp_path)
        flat = f.flat
        assert flat.dtype == np.float64 and flat.shape == ((2 << f.depth) - 1,)
        assert not flat.flags.writeable
        with pytest.raises(ValueError):
            flat[0] = 1.0
        assert len(f.levels) == f.depth + 1
        for k, level in enumerate(f.levels):
            # level k starts 2^k - 1 masses into the buffer
            assert np.shares_memory(level, flat)
            assert level.ctypes.data == flat.ctypes.data + 8 * ((1 << k) - 1)
            assert level.shape == (1 << k,) and not level.flags.writeable
            assert f.level(k).ctypes.data == level.ctypes.data
        assert f.leaves.ctypes.data == f.levels[-1].ctypes.data
        assert f == tree.flow_from_levels(f.levels)

    @pytest.mark.parametrize("make", sorted(FLOW_MAKERS))
    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))], ids=["deepcopy", "pickle"]
    )
    def test_copies_stay_read_only(self, make, clone, tmp_path):
        f = FLOW_MAKERS[make](tmp_path)
        g = clone(f)
        assert g == f and g.flat is not f.flat
        assert not g.flat.flags.writeable

    @pytest.mark.parametrize(
        "flat",
        [np.ones(4), np.arange(3), np.ones(0), np.ones((1, 3)), np.ones(3, dtype=np.float32),
         [1.0]],
    )
    def test_constructor_rejects_malformed_buffer(self, flat):
        with pytest.raises(ValueError, match="1-D float64 array of 2"):
            tree.Flow(flat)

    def test_truncate_makes_no_copy(self):
        f = tree.flow_from_leaves(np.arange(1.0, 17.0))
        for depth in range(f.depth + 1):
            t = tree.truncate(f, depth)
            assert t.flat.ctypes.data == f.flat.ctypes.data
            assert t.flat.tobytes() == f.flat[: (2 << depth) - 1].tobytes()
        assert tree.truncate(f, f.depth) is f

    def test_equality_reads_every_mass(self):
        f = tree.uniform_flow(2)
        assert f != tree.uniform_flow(3)
        assert f != tree.flow_from_levels([[1.0], [0.5, 0.5], [0.25, 0.25, 0.5, 0.0]])


class TestFlowOps:
    def test_validate_flags_broken_conservation(self):
        f = tree.flow_from_levels([[1.0], [0.7, 0.2]])
        kinds = {v[0] for v in tree.validate_flow(f).violations}
        assert "conservation" in kinds

    def test_validate_flags_zero_mass(self):
        f = tree.single_ray_flow(2)
        kinds = {v[0] for v in tree.validate_flow(f).violations}
        assert kinds == {"nonpositive"}

    def test_normalize(self):
        f = tree.flow_from_leaves([1.0, 3.0])
        g = tree.normalize(f)
        assert g.root_mass == 1.0
        assert list(g.leaves) == [0.25, 0.75]
        assert tree.normalize(g) is g

    def test_truncate(self):
        f = tree.flow_from_leaves([1.0, 2.0, 3.0, 4.0])
        g = tree.truncate(f, 1)
        assert g.depth == 1
        assert list(g.leaves) == [3.0, 7.0]
        assert tree.truncate(f, 2) is f
        with pytest.raises(ValueError):
            tree.truncate(f, 3)

    @given(leaves=leaf_arrays(5))
    def test_normalize_preserves_proportions(self, leaves):
        f = tree.flow_from_leaves(leaves)
        g = tree.normalize(f)
        assert abs(g.root_mass - 1.0) <= 1e-12
        np.testing.assert_allclose(g.leaves * f.root_mass, f.leaves, rtol=1e-12)


class TestCdfAndSampling:
    def test_leaf_cdf_endpoints_exact(self):
        f = tree.flow_from_leaves(np.random.default_rng(0).random(64) + 0.1)
        f = tree.normalize(f)
        cdf = tree.leaf_cdf(f)
        assert cdf.shape == (65,)
        assert cdf[0] == 0.0
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0)
        # the mass of [0, k 2^-n] sits at index k
        assert tree.leaf_cdf(tree.uniform_flow(3))[4] == 0.5


class TestSerialization:
    @given(leaves=leaf_arrays(4))
    def test_json_round_trip_exact(self, leaves):
        f = tree.flow_from_leaves(leaves)
        g = tree.flow_from_json(tree.flow_to_json(f))
        assert g == f

    @given(leaves=leaf_arrays(4))
    def test_csv_round_trip_exact(self, leaves):
        f = tree.flow_from_leaves(leaves)
        g = tree.flow_from_csv(tree.flow_to_csv(f))
        assert g == f

    def test_csv_is_crlf(self):
        text = tree.flow_to_csv(tree.uniform_flow(1))
        assert "\r\n" in text
        assert text.endswith("\r\n")

    def test_save_load_by_suffix(self, tmp_path):
        f = tree.flow_from_leaves([0.25, 0.75])
        for name in ("f.json", "f.csv"):
            p = tmp_path / name
            tree.save_flow(f, p)
            assert tree.load_flow(p) == f
        with pytest.raises(ValueError):
            tree.save_flow(f, tmp_path / "f.xml")

    def test_json_rejects_inconsistent_depth(self):
        with pytest.raises(ValueError):
            tree.flow_from_json('{"depth": 2, "levels": [[1.0]]}')

    # A valid depth-1 table; each case appends one malformed row to it.
    DEPTH1_CSV = "depth,path_bits,mass\r\n0,0,1.0\r\n1,0,0.5\r\n1,1,0.5\r\n"

    @pytest.mark.parametrize(
        "row, match",
        [
            ("1,-1,0.5", r"line 5: no vertex at depth 1, path_bits -1"),
            ("-1,0,9.0", r"line 5: no vertex at depth -1, path_bits 0"),
            ("1,2,0.5", r"line 5: no vertex at depth 1, path_bits 2"),
            (f"{tree.MAX_DEPTH + 1},0,0.5", rf"line 5: no vertex at depth {tree.MAX_DEPTH + 1}"),
            ("1,1,0.7", r"line 5: duplicate vertex at depth 1, path_bits 1"),
            ("1,1", r"line 5: bad row \['1', '1'\]"),
            ("1,x,0.5", r"line 5: bad row"),
        ],
        ids=["negative_bits", "negative_depth", "bits_past_level", "depth_past_max",
             "duplicate", "short_row", "non_integer"],
    )
    def test_csv_rejects_malformed_row(self, row, match):
        with pytest.raises(ValueError, match=match):
            tree.flow_from_csv(self.DEPTH1_CSV + row + "\r\n")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[1, 2]", r"must be an object, got list"),
            ('{"depth": 1}', r"lacks the field\(s\) \['levels'\]"),
            ('{"levels": [[1.0]]}', r"lacks the field\(s\) \['depth'\]"),
            ('{"depth": -1, "levels": []}', r"depth field -1 is not an integer"),
            ('{"depth": "0", "levels": [[1.0]]}', r"depth field '0' is not an integer"),
            ('{"depth": 0, "levels": {"0": [1.0]}}', r"inconsistent with level count"),
            ('{"depth": 0, "levels": [[{}]]}', r"levels hold a value that is not a number"),
        ],
        ids=["list", "no_levels", "no_depth", "negative_depth", "string_depth", "levels_not_list",
             "object_mass"],
    )
    def test_json_rejects_malformed_document(self, text, match):
        with pytest.raises(ValueError, match=match):
            tree.flow_from_json(text)
