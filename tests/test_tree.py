import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treecascade import tree


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
        assert v.left == tree.Vertex(3, 0b100)
        assert v.right == tree.Vertex(3, 0b101)
        assert [v.path_bit(g) for g in (1, 2)] == [1, 0]
        assert v.parent == tree.Vertex(1, 1)
        assert v.ancestor(0) == tree.ROOT
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

    def test_ray_distance_truncation_floor(self):
        a = tree.Vertex(5, 3)
        assert tree.ray_distance(a, a) == 2.0**-5
        assert tree.ray_distance(tree.Vertex(5, 0), tree.Vertex(5, 16)) == 1.0
        with pytest.raises(ValueError):
            tree.ray_distance(a, tree.Vertex(4, 3))


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

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            tree.uniform_flow(tree.MAX_DEPTH + 1)

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
        levels = tree._levels_from_leaves(batch)
        assert len(levels) == f.depth + 1
        for k in range(f.depth, 0, -1):
            assert levels[k].tobytes() == batch.tobytes()
            batch = batch.reshape(3, -1, 2).sum(axis=2)
        assert levels[0].tobytes() == batch.tobytes()


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

    def test_restrict(self):
        f = tree.flow_from_leaves([1.0, 2.0, 3.0, 4.0])
        g = tree.restrict(f, tree.Vertex(1, 1))
        assert g.depth == 1
        assert g.root_mass == 7.0
        assert list(g.leaves) == [3.0, 4.0]

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

    def test_pushforward_cdf_values(self):
        f = tree.uniform_flow(3)
        assert tree.pushforward_cdf(f, 0.0) == 0.0
        assert tree.pushforward_cdf(f, 0.5) == 0.5
        assert tree.pushforward_cdf(f, 1.0) == 1.0
        with pytest.raises(ValueError):
            tree.pushforward_cdf(f, 0.3)
        with pytest.raises(ValueError):
            tree.pushforward_cdf(f, 1.5)

    def test_sample_ray_point_mass(self):
        f = tree.single_ray_flow(4, bits=0b1010, mass=2.0)
        g = np.random.default_rng(1)
        assert tree.sample_ray(f, g) == tree.Ray(4, 0b1010)

    def test_sample_rays_match_scalar_law(self):
        f = tree.normalize(tree.flow_from_leaves([1.0, 2.0, 3.0, 4.0]))
        bits = tree.sample_rays(f, 20000, np.random.default_rng(7))
        freq = np.bincount(bits, minlength=4) / 20000
        np.testing.assert_allclose(freq, np.asarray(f.leaves), atol=0.02)

    def test_sample_ray_rejects_dead_branch(self):
        f = tree.single_ray_flow(3)
        # force the walk onto the zero branch by restricting to it
        dead = tree.restrict(f, tree.Vertex(1, 1))
        with pytest.raises(ValueError):
            tree.sample_ray(dead, np.random.default_rng(0))


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
