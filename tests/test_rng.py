
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

from treecascade import rng

U64 = st.integers(min_value=0, max_value=2**64 - 1)


def test_philox_known_answer():
    # pinned output of the reference block (cross-checked against numpy's
    # Philox implementation below)
    words = rng.philox4x64((0, 0, 0, 0), (1, 2))
    assert [hex(int(x)) for x in words] == [
        "0x46fdf329c224985e",
        "0x49ebd8a28e9ec134",
        "0x528e3ef07e630d40",
        "0x69a57877b5c520c8",
    ]


@given(c=st.tuples(U64, U64, U64, U64), k=st.tuples(U64, U64))
def test_philox_matches_numpy(c, k):
    ref = np.random.Philox(
        counter=np.array(c, dtype=np.uint64), key=np.array(k, dtype=np.uint64)
    )
    # numpy increments the 256-bit counter before producing the first
    # block, so its output at counter c equals our block at c+1
    bumped = list(c)
    for i in range(4):
        bumped[i] = (bumped[i] + 1) % 2**64
        if bumped[i] != 0:
            break
    theirs = rng.philox4x64(tuple(bumped), k)
    assert tuple(int(x) for x in ref.random_raw(4)) == theirs


@pytest.mark.parametrize("key", [0, 2**64 - 1])
def test_philox_blocks_match_reference_at_borrows(key):
    # numpy's generator starts one below the wanted counter; these counters
    # make that subtraction borrow across words, or wrap around 2**256
    for counter in [(0, 0, 1, 0), (0, 0, 7, 0), (0, 0, 0, rng.PURPOSE_DERIVE), (0, 0, 0, 0)]:
        c0, c1, c2, c3 = counter
        words = rng._raw_words(rng._start_counter(counter), 3, (key, 0)).reshape(3, 4)
        for i in range(3):
            assert tuple(int(x) for x in words[i]) == rng.philox4x64((c0 + i, c1, c2, c3), (key, 0))
    # the public producers at those counters
    block = rng.philox4x64((0, 0, 2, rng.PURPOSE_INCREMENT), (key, 0))
    want = rng.words_to_uniforms(np.array(block, dtype=np.uint64)).reshape(2, 2)
    assert np.array_equal(rng.vertex_uniforms_multi([key], 2, 0, 2, 2)[0], want)
    multi = rng.vertex_uniforms_multi(np.array([key, 5], dtype=np.uint64), 2, 0, 2, 2)
    assert np.array_equal(multi[0], want)
    assert [int(x) for x in rng.derive_seeds(key, 4)] == list(
        rng.philox4x64((0, 0, 0, rng.PURPOSE_DERIVE), (key, 0))
    )
    # general counter words and a nonzero second key word
    c0 = np.arange(5, dtype=np.uint64)
    blocks = rng.philox_blocks_numpy(c0, 3, 7, 9, key, 13)
    for i in range(5):
        assert tuple(int(x) for x in blocks[i]) == rng.philox4x64((i, 3, 7, 9), (key, 13))


def test_uniforms_in_open_unit_interval():
    u = rng.vertex_uniforms_multi([0], 1, 0, 4096, 2)[0]
    assert u.shape == (4096, 2)
    assert np.all(u > 0) and np.all(u < 1)


def test_top_words_map_below_one():
    u = rng.words_to_uniforms(np.array([2**64 - 1], dtype=np.uint64))
    assert u[0] < 1.0
    assert np.isfinite(ndtri(u)).all()
    # no word below the top 2**11 changes value
    words = np.array([0, 2**64 - 2**12, 2**64 - 2**11 - 1], dtype=np.uint64)
    want = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert np.array_equal(rng.words_to_uniforms(words), want)


def test_words_to_uniforms_into_out():
    words = np.array([0, 12345, 2**63, 2**64 - 1], dtype=np.uint64)
    out = np.full(4, np.nan)
    assert rng.words_to_uniforms(words, out=out) is out
    assert np.array_equal(out, rng.words_to_uniforms(words))


def test_vertex_uniforms_frozen():
    u = rng.vertex_uniforms_multi([9], 1, 0, 6, 2)[0]
    assert float(u[0, 0]) == 0.3768497853424308
    assert float(u[0, 1]) == 0.46931954863827546


def test_vertex_uniforms_position_keyed():
    # draws for a vertex range do not depend on how the range is chunked
    full = rng.vertex_uniforms_multi([5], 2, 0, 64, 2)[0]
    lo = rng.vertex_uniforms_multi([5], 2, 0, 24, 2)[0]
    hi = rng.vertex_uniforms_multi([5], 2, 24, 40, 2)[0]
    assert np.array_equal(full, np.vstack([lo, hi]))


def test_vertex_uniforms_streams_disjoint():
    a = rng.vertex_uniforms_multi([5], 1, 0, 128, 2)[0]
    b = rng.vertex_uniforms_multi([5], 2, 0, 128, 2)[0]
    c = rng.vertex_uniforms_multi([6], 1, 0, 128, 2)[0]
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_vertex_uniforms_multi_matches_single():
    seeds = np.array([3, 17, 123456789], dtype=np.uint64)
    multi = rng.vertex_uniforms_multi(seeds, 4, 0, 10, 2)
    for i, s in enumerate(seeds):
        assert np.array_equal(multi[i], rng.vertex_uniforms_multi([int(s)], 4, 0, 10, 2)[0])


def test_vertex_uniforms_multi_into_out():
    seeds = np.array([3, 17], dtype=np.uint64)
    out = np.full((2, 10, 2), np.nan)
    assert rng.vertex_uniforms_multi(seeds, 4, 5, 10, 2, out=out) is out
    assert np.array_equal(out, rng.vertex_uniforms_multi(seeds, 4, 5, 10, 2))
    with pytest.raises(ValueError, match="out must be"):
        rng.vertex_uniforms_multi(seeds, 4, 5, 10, 2, out=np.empty((2, 10, 1)))


@pytest.mark.parametrize("lanes", [3, 4])
def test_lanes_are_one_or_two(lanes):
    # the Gaussian kind draws one word per vertex, compound Poisson two
    with pytest.raises(ValueError, match="lanes must be 1 or 2"):
        rng.vertex_uniforms_multi([5], 1, 0, 8, lanes)


def test_derive_seed_frozen_values():
    assert rng.derive_seed(0, 0) == 850825565651668785
    assert rng.derive_seed(42, 7) == 10097173069124897316
    assert [int(x) for x in rng.derive_seeds(5, 3)] == [
        6816394993982132000,
        12731256513431107095,
        18383620716788395786,
    ]


def test_derive_seeds_matches_derive_seed():
    got = rng.derive_seeds(11, 9)
    want = [rng.derive_seed(11, i) for i in range(9)]
    assert [int(x) for x in got] == want
    # a 64-bit tag, as verify derives each suite entry's seed, and a two-index path
    tag = 0xE3B0C44298FC1C14
    child = rng.derive_seed(42, tag)
    assert child == _reference_derive_seed(42, tag)
    assert rng.derive_seed(42, tag, 5) == int(rng.derive_seeds(child, 6)[5])
    assert rng.derive_seed(42, tag, 5) == _reference_derive_seed(42, tag, 5)


def _reference_derive_seed(seed, *indices):
    # derive_seed through the pure-python reference block
    s = int(seed) & (2**64 - 1)
    for idx in indices:
        s = rng.philox4x64((idx >> 2, 0, 0, rng.PURPOSE_DERIVE), (s, 0))[idx & 3]
    return s


@given(
    seed=st.integers(-(2**64), 2**66),
    indices=st.lists(st.integers(-(2**66), 2**66), max_size=3),
)
def test_derive_seed_matches_reference_block(seed, indices):
    assert rng.derive_seed(seed, *indices) == _reference_derive_seed(seed, *indices)


@given(seed=U64, i=st.integers(0, 1000), j=st.integers(0, 1000))
def test_derive_seed_collision_free_in_practice(seed, i, j):
    if i != j:
        assert rng.derive_seed(seed, i) != rng.derive_seed(seed, j)


def test_spawn_generator_deterministic():
    g1 = rng.spawn_generator(7, 1, 2)
    g2 = rng.spawn_generator(7, 1, 2)
    g3 = rng.spawn_generator(7, 1, 3)
    a, b, c = g1.random(4), g2.random(4), g3.random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
