import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special, stats

from treecascade import engine, rng, tree
from treecascade import weights as wp

H = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
T = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


class TestSpec:
    def test_gaussian_rejects_jump_params(self):
        with pytest.raises(ValueError):
            wp.WeightSpec(kind="gaussian", rate=1.0)

    def test_compound_requires_params(self):
        with pytest.raises(ValueError):
            wp.WeightSpec(kind="compound_poisson", rate=1.0, jump_sd=0.3)
        with pytest.raises(ValueError):
            wp.WeightSpec(kind="compound_poisson", rate=-1.0, jump_mean=0.0, jump_sd=0.3)

    @pytest.mark.parametrize("field", ["rate", "jump_mean", "jump_sd"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_compound_rejects_non_finite_params(self, field, value):
        with pytest.raises(ValueError):
            wp.compound_poisson_spec(**{field: value})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            wp.WeightSpec(kind="levy")

    def test_config_round_trip(self):
        for spec in (wp.gaussian_spec(), wp.compound_poisson_spec(2.0, 0.1, 0.4)):
            assert wp.spec_from_config(wp.spec_to_config(spec)) == spec
        with pytest.raises(ValueError):
            wp.spec_from_config({"kind": "gaussian", "bogus": 1})
        with pytest.raises(ValueError, match="gaussian kind takes no jump parameters"):
            wp.spec_from_config({"kind": "gaussian", "rate": 2.0})
        with pytest.raises(ValueError, match="jump fields must be numbers"):
            wp.spec_from_config({"kind": "compound_poisson", "rate": [1]})


class TestMoments:
    @given(t=T)
    def test_mean_one_both_kinds(self, t):
        for spec in (wp.gaussian_spec(), wp.compound_poisson_spec()):
            assert wp.moment(spec, t, 0.0) == pytest.approx(1.0, abs=1e-12)
            assert wp.moment(spec, t, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_log_moment_closed_form(self):
        spec = wp.gaussian_spec()
        for t in (0.0, 0.3, 1.2):
            for h in (0.0, 0.5, 1.0, 2.0, 3.5):
                assert wp.log_moment(spec, t, h) == pytest.approx(
                    t * h * (h - 1.0) / 2.0, abs=1e-14
                )

    def test_compound_jump_mgf_against_quadrature(self):
        # independent oracle: integrate e^{hx} against the jump density
        spec = wp.compound_poisson_spec(rate=1.3, jump_mean=0.2, jump_sd=0.5)
        for h in (0.5, 1.0, 2.0):
            num, _ = integrate.quad(
                lambda x: math.exp(h * x) * stats.norm.pdf(x, 0.2, 0.5), -12, 12
            )
            lam, want = 1.3, None
            mgf_one, _ = integrate.quad(
                lambda x: math.exp(x) * stats.norm.pdf(x, 0.2, 0.5), -12, 12
            )
            want = lam * (num - 1.0 - h * (mgf_one - 1.0))
            got = wp.log_moment(spec, 1.0, h)
            assert got == pytest.approx(want, rel=1e-9)

    @given(t=st.floats(min_value=1e-3, max_value=2.0), h=st.floats(min_value=0.1, max_value=3.0))
    def test_log_moment_linear_in_t(self, t, h):
        for spec in (wp.gaussian_spec(), wp.compound_poisson_spec()):
            assert wp.log_moment(spec, t, h) == pytest.approx(
                t * wp.log_moment(spec, 1.0, h), rel=1e-12, abs=1e-15
            )

    def test_w_log_w_matches_moment_derivative(self):
        # E[W log W] = d/dh E[W^h] at h = 1
        for spec in (wp.gaussian_spec(), wp.compound_poisson_spec(1.7, -0.1, 0.4)):
            for t in (0.25, 1.0):
                eps = 1e-6
                numeric = (wp.moment(spec, t, 1.0 + eps) - wp.moment(spec, t, 1.0 - eps)) / (
                    2 * eps
                )
                assert wp.w_log_w(spec, t) == pytest.approx(numeric, rel=1e-8)

    def test_w_log_w_nonnegative(self):
        assert wp.w_log_w(wp.gaussian_spec(), 0.8) == pytest.approx(0.4)
        assert wp.w_log_w(wp.compound_poisson_spec(), 1.0) > 0.0


class TestPoissonCounts:
    @pytest.mark.parametrize("mu", [0.001, 0.025, 2.0, 50.0, 500.0])
    def test_matches_ppf(self, mu):
        u = np.random.default_rng(3).random(1 << 16)
        u = np.concatenate([u, [2.0**-54, 1.0 - 2.0**-53]])
        assert np.array_equal(wp._poisson_counts(u, mu), stats.poisson.ppf(u, mu))

    @pytest.mark.parametrize("mu", [0.025, 2.0, 500.0])
    def test_smallest_count_reaching_u(self, mu):
        # at, just below and just above each CDF value
        cdf = special.pdtr(np.arange(int(mu) + 40), mu)
        cdf = cdf[(cdf > 2.0**-54) & (cdf < 1.0)]
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
        k = wp._poisson_counts(u, mu)
        assert np.all(special.pdtr(k, mu) >= u)
        assert np.all((k == 0) | (special.pdtr(k - 1, mu) < u))

    @pytest.mark.parametrize("mu, u", [(500.0, 1e-30), (1e6, 1.0 - 2.0**-53)])
    def test_past_table_falls_back_to_ppf(self, mu, u):
        # below the table's first count, and above its last CDF value
        u = np.array([u, 0.5])
        assert np.array_equal(wp._poisson_counts(u, mu), stats.poisson.ppf(u, mu))


class TestIncrements:
    def test_deterministic_given_key(self):
        spec = wp.gaussian_spec()
        a = wp.log_increments(spec, 0.1, 7, 1, 0, 64)
        b = wp.log_increments(spec, 0.1, 7, 1, 0, 64)
        assert np.array_equal(a, b)

    def test_zero_duration_is_unit_weight(self):
        spec = wp.gaussian_spec()
        assert np.all(wp.log_increments(spec, 0.0, 7, 1, 0, 8) == 0.0)
        one = wp.log_increments(spec, 0.0, 7, 1, tree.flat_index(tree.Vertex(1, 0)), 1)
        assert np.exp(one).tolist() == [1.0]

    def test_multi_matches_single_seed_rows(self):
        spec = wp.compound_poisson_spec()
        seeds = np.array([11, 99], dtype=np.uint64)
        multi = wp.log_increments_multi(spec, 0.2, seeds, 3, 0, 32)
        for i, s in enumerate(seeds):
            row = wp.log_increments(spec, 0.2, int(s), 3, 0, 32)
            assert np.array_equal(multi[i], row)

    @pytest.mark.parametrize("spec", [wp.gaussian_spec(), wp.compound_poisson_spec()])
    def test_multi_reduces_seeds_like_single(self, spec):
        # keys are taken mod 2^64 in both samplers: -3 and 2^64 + 5 are
        # batch seeds as valid as they are single ones
        multi = wp.log_increments_multi(spec, 0.1, [-3, 2**64 + 5], 1, 0, 14)
        assert np.array_equal(multi[0], wp.log_increments(spec, 0.1, -3, 1, 0, 14))
        assert np.array_equal(multi[1], wp.log_increments(spec, 0.1, 5, 1, 0, 14))

    @pytest.mark.parametrize("spec", [wp.gaussian_spec(), wp.compound_poisson_spec()])
    def test_one_vertex_draw_matches_bulk(self, spec):
        # draws are keyed: a vertex's increment is the same alone or in a range
        index = tree.flat_index(tree.Vertex(3, 5))
        bulk = wp.log_increments(spec, 0.25, 13, 2, 0, 14)
        one = wp.log_increments(spec, 0.25, 13, 2, index, 1)
        assert one.tobytes() == bulk[index : index + 1].tobytes()

    def test_gaussian_increment_moments(self):
        # frozen-seed Monte Carlo against the analytic law of log W
        spec = wp.gaussian_spec()
        t = 0.4
        x = wp.log_increments(spec, t, 2024, 1, 0, 200_000)
        assert np.mean(x) == pytest.approx(-t / 2, abs=4 * math.sqrt(t / len(x)))
        assert np.var(x) == pytest.approx(t, rel=0.02)

    def test_compound_increment_mean_one(self):
        spec = wp.compound_poisson_spec()
        t = 0.5
        w = np.exp(wp.log_increments(spec, t, 555, 1, 0, 200_000))
        se = np.std(w) / math.sqrt(len(w))
        assert abs(np.mean(w) - 1.0) < 4 * se

    def test_compound_jump_count_distribution(self):
        # weights with no jumps take the exact compensation value e^{-lam t (M(1)-1)}
        spec = wp.compound_poisson_spec()
        t = 0.3
        logw = wp.log_increments(spec, t, 321, 1, 0, 100_000)
        m1 = math.exp(spec.jump_mean + spec.jump_sd**2 / 2)
        no_jump_value = -spec.rate * t * (m1 - 1.0)
        frac = np.mean(np.abs(logw - no_jump_value) < 1e-12)
        assert frac == pytest.approx(math.exp(-spec.rate * t), abs=0.01)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            wp.log_increments(wp.gaussian_spec(), -0.1, 1, 1, 0, 4)

    @pytest.mark.parametrize("spec", [wp.gaussian_spec(), wp.compound_poisson_spec()])
    @pytest.mark.parametrize("duration", [0.0, 0.2])
    def test_multi_into_out(self, spec, duration):
        seeds = np.array([11, 99, 5], dtype=np.uint64)
        out = np.full((3, 30), np.nan)
        got = wp.log_increments_multi(spec, duration, seeds, 3, 2, 30, out=out)
        assert got is out
        assert np.array_equal(out, wp.log_increments_multi(spec, duration, seeds, 3, 2, 30))
        for bad in (np.empty((3, 31)), np.empty((30, 3)).T):
            with pytest.raises(ValueError, match="out must be"):
                wp.log_increments_multi(spec, duration, seeds, 3, 2, 30, out=bad)

    # rate * duration of 0.025, 2 and 2000; count 0 is a depth-0 state
    @pytest.mark.parametrize("rate, duration", [(0.5, 0.05), (2.0, 1.0), (4000.0, 0.5)])
    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize("count", [0, 30])
    def test_compound_matches_reference(self, rate, duration, replicas, count):
        # the jump sum as a fresh expression over the drawn uniforms
        spec = wp.compound_poisson_spec(rate=rate, jump_mean=0.1, jump_sd=0.4)
        seeds = rng.derive_seeds(17, replicas)
        u = rng.vertex_uniforms_multi(seeds, 2, 5, count, 2).reshape(-1, 2)
        n_jumps = wp._poisson_counts(u[:, 0], rate * duration)
        z = special.ndtri(u[:, 1])
        jump_sum = spec.jump_mean * n_jumps + spec.jump_sd * np.sqrt(n_jumps) * z
        want = jump_sum - duration * rate * (wp._jump_mgf(spec, 1.0) - 1.0)
        got = wp.log_increments_multi(spec, duration, seeds, 2, 5, count)
        assert got.shape == (replicas, count)
        assert np.array_equal(got, want.reshape(replicas, count))

    @pytest.mark.parametrize("spec", [wp.gaussian_spec(), wp.compound_poisson_spec(rate=40.0)])
    def test_evolution_reuses_buffers_exactly(self, spec):
        # every step of an evolution draws into the same increments and lane buffers
        seeds = rng.derive_seeds(4, 3)
        durations = [0.1, 0.0, 0.05]
        *_, (_, _, state) = engine._evolve_blocks(spec, seeds, durations, 3)
        size = engine._flat_size(3)
        want = np.zeros((3, size))
        for j, dt in enumerate(durations):
            want += wp.log_increments_multi(spec, dt, seeds, 1 + j, 0, size)
        assert np.array_equal(state, want)

    def test_single_draw_stores_zero_increments_as_an_add_would(self):
        # a lone draw goes straight into the zero state; with no compensator
        # (jump mean -sd^2/2) a jump-free vertex draws -0.0, stored as 0.0 + -0.0
        spec = wp.compound_poisson_spec(rate=1.0, jump_mean=-0.125, jump_sd=0.5)
        seeds = rng.derive_seeds(4, 3)
        increments = wp.log_increments_multi(spec, 0.1, seeds, 2, 0, engine._flat_size(5))
        assert np.any(np.signbit(increments) & (increments == 0.0))
        *_, (_, _, state) = engine._evolve_blocks(spec, seeds, [0.0, 0.1], 5)
        assert state.tobytes() == (np.zeros_like(increments) + increments).tobytes()

    @pytest.mark.parametrize("spec", [wp.gaussian_spec(), wp.compound_poisson_spec()])
    def test_multi_rejects_negative_duration(self, spec):
        seeds = np.array([1], dtype=np.uint64)
        with pytest.raises(ValueError, match="duration must be nonnegative"):
            wp.log_increments_multi(spec, -0.1, seeds, 1, 0, 2)
