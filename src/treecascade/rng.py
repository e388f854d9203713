"""Counter-based random number supply for cascade simulations.

Every stochastic draw used by the simulation engine is addressed by a
(seed, flat vertex index, step index) triple and produced by the
Philox-4x64-10 block cipher.  A draw depends only on its address, never on
batching or on the depth of the tree a particular run uses.
Consequences that the rest of the package relies on:

* identical addresses give identical draws, distinct addresses give
  independent draws,
* a depth n+1 simulation reuses the depth-n draws on shared vertices, so
  refinements of the same seed are coupled realizations,
* the order in which replicas or blocks are drawn cannot change results.

Blocks come from numpy's C implementation, ``numpy.random.Philox``: one
module-level generator, made on first use, is set to the wanted counter and
key before every draw, so draws are made from one thread at a time.
``vertex_uniforms_multi`` is the one path from blocks to uniforms, for a
batch of seeds (a batch of one for a single path), and ``derive_seed`` and
``derive_seeds`` draw from the same generator.  ``philox4x64`` is a
pure-python reference the tests check the blocks against.
"""

import numpy as np

# Philox-4x64 round multipliers and Weyl key increments.
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_MASK64 = (1 << 64) - 1
_ROUNDS = 10
_BELOW_ONE = np.nextafter(1.0, 0.0)
_NO_BUFFER = (0, 0, 0, 0)
_philox = None  # the one generator, made on first use

# Key-lane tags keeping unrelated draw families in disjoint counter spaces.
PURPOSE_INCREMENT = 0
PURPOSE_DERIVE = 1


def philox4x64(counter, key):
    """Reference Philox-4x64-10 block, plain python integers.

    Parameters
    ----------
    counter : sequence of 4 ints
        128x2-bit counter words, each taken modulo 2**64.
    key : sequence of 2 ints
        Key words, each taken modulo 2**64.

    Returns
    -------
    tuple of 4 ints
        The cipher output block.
    """
    x0, x1, x2, x3 = (int(c) & _MASK64 for c in counter)
    k0, k1 = (int(k) & _MASK64 for k in key)
    for _ in range(_ROUNDS):
        p0 = _M0 * x0
        p1 = _M1 * x2
        x0, x1, x2, x3 = (
            ((p1 >> 64) ^ x1 ^ k0) & _MASK64,
            p1 & _MASK64,
            ((p0 >> 64) ^ x3 ^ k1) & _MASK64,
            p0 & _MASK64,
        )
        k0 = (k0 + _W0) & _MASK64
        k1 = (k1 + _W1) & _MASK64
    return x0, x1, x2, x3


def _start_counter(counter):
    # numpy's generator increments its counter before it produces a block,
    # so a stream that begins at the 256-bit counter (c0, c1, c2, c3) starts
    # one below it, the borrow carried across words and the all-zero counter
    # wrapping to 2**256 - 1.
    value = sum((int(c) & _MASK64) << (64 * i) for i, c in enumerate(counter))
    start = (value - 1) % (1 << 256)
    return tuple((start >> (64 * i)) & _MASK64 for i in range(4))


def _raw_words(start, n_blocks, key):
    # Words of n_blocks consecutive blocks under `key`, from a counter made
    # by _start_counter.  The one generator is reset: building one per call
    # would read OS entropy for a seed sequence that the key overrides.
    global _philox
    if _philox is None:
        _philox = np.random.Philox(key=0)
    _philox.state = {
        "bit_generator": "Philox",
        "state": {"counter": start, "key": (int(key[0]) & _MASK64, int(key[1]) & _MASK64)},
        "buffer": _NO_BUFFER,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _philox.random_raw(4 * n_blocks)


def philox_blocks_numpy(c0, c1, c2, c3, k0, k1):
    """Philox-4x64-10 blocks at broadcast counter words under the scalar key (k0, k1).

    Returns an array of shape ``broadcast(c0, c1, c2, c3) + (4,)`` and
    dtype uint64.  One generator reset per block: for checks, not for bulk draws.
    """
    counters = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3)))
    flat = np.stack([c.reshape(-1) for c in counters], axis=-1)
    out = np.empty(flat.shape, dtype=np.uint64)
    for i, counter in enumerate(flat):
        out[i] = _raw_words(_start_counter(counter), 1, (k0, k1))
    return out.reshape(counters[0].shape + (4,))


def words_to_uniforms(words, out=None):
    """Map uint64 cipher words to float64 uniforms strictly inside (0, 1).

    The top 2**11 words would round to exactly 1.0; they map to the largest
    double below 1 instead.  ``out``, if given, is a float64 array of the
    words' shape that receives the uniforms.
    """
    if out is None:
        out = np.empty(words.shape)
    return _top_bits_to_uniforms(words >> np.uint64(11), out)


def _top_bits_to_uniforms(top, out):
    # ``top`` holds the top 53 bits of each word
    out[...] = top
    out += 0.5
    out *= 2.0**-53
    return np.minimum(out, _BELOW_ONE, out=out)


def _word_span(first, count, lanes):
    # First block, block count and offset of the first wanted word, for
    # items first .. first+count-1 of `lanes` words each.
    if lanes not in (1, 2):
        raise ValueError("lanes must be 1 or 2")
    w_lo = first * lanes
    b_lo = w_lo // 4
    return b_lo, -(-(w_lo + count * lanes) // 4) - b_lo, w_lo - 4 * b_lo


def vertex_uniforms_multi(seeds, step_index, first, count, lanes, out=None):
    """Uniforms addressed by flat vertex index; shape (len(seeds), count, lanes).

    Row r holds the draws keyed by ``seeds[r]`` (reduced mod 2^64) at grid
    step ``step_index``: item ``f`` (``first <= f < first + count``) gets
    ``lanes`` (1 or 2) consecutive words of the keyed Philox stream from
    word ``f * lanes``, so bulk and single-vertex draws agree however the
    range or the seeds are batched.  ``out``, if given, is a C-contiguous
    float64 array of that shape that receives the uniforms and is returned.
    """
    b_lo, n_blocks, skip = _word_span(first, count, lanes)
    shape = (len(seeds), count, lanes)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {shape}")
    if count == 0:
        return out
    # Each seed's words become uniforms while they are in cache, straight
    # into the one output array.
    start = _start_counter((b_lo, 0, step_index, PURPOSE_INCREMENT))
    rows = out.reshape(len(seeds), count * lanes)
    for r, seed in enumerate(seeds):
        words = _raw_words(start, n_blocks, (seed, 0))[skip : skip + count * lanes]
        # the words are this row's own, so they are shifted in place: with
        # a shifted copy per row, compound Poisson steps page-fault anew
        _top_bits_to_uniforms(np.right_shift(words, np.uint64(11), out=words), rows[r])
    return out


def derive_seed(seed, *indices):
    """Deterministic child seed from a parent seed and an index path.

    Consistent with ``derive_seeds``: ``derive_seed(s, i) == derive_seeds(s, n)[i]``.
    """
    s = int(seed) & _MASK64
    for idx in indices:
        idx = int(idx)
        s = int(_raw_words(_start_counter((idx >> 2, 0, 0, PURPOSE_DERIVE)), 1, (s, 0))[idx & 3])
    return s


def derive_seeds(seed, count):
    """Vector of ``count`` independent child seeds of ``seed``."""
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    return _raw_words(_start_counter((0, 0, 0, PURPOSE_DERIVE)), -(-count // 4), (seed, 0))[:count]


def spawn_generator(seed, *indices):
    """Seeded ``numpy.random.Generator`` for auxiliary (non-keyed) sampling."""
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, *indices, 3)))
