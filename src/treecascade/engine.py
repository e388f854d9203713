"""Cascade construction and its evolution along a time grid.

The cascade of a base flow by per-vertex weights W multiplies each leaf
mass by the product of the weights along its root path and rebuilds the
internal masses bottom-up, so the result is again a flow.  Evolving the
weights as independent mean-one processes in t turns a fixed base flow
into a measure-valued path: per vertex the accumulated log-weight performs
a random walk over the grid steps, and the flow at time t is the cascade
of the base by exp of the accumulated state.

Because increments are addressed by (seed, vertex, step index), evolving
to time t+s equals evolving to t and then cascading the result by the
remaining increments; ``compose_from_path`` does that with a stored
path's own increments, which reproduces its snapshots to floating-point
accuracy.

Every log-state advances through one evolution loop, ``_evolve_blocks``,
which yields (rows, step, state) for each replica block and grid step;
paths, replica statistics, fresh cascades and ``cli simulate`` read what
they need from it, and a single path is a batch of one seed.  Blocks are
sized by bytes (``_replica_blocks``): each block's state holds at most
``_BLOCK`` elements (256 KiB), or one replica past depth 13, so a step
holds a few such buffers whatever the replica count.  Rows are
independent, so every statistic is the same bit for bit whatever the
block size.

Weight state is accumulated in log space; masses exponentiate only when a
snapshot is materialized: leaf log-states are summed root first along each
root path, exponentiated, and summed pairwise level by level.  This module
holds the one implementation of that root-path product; it works on the
last axis, so ``verify`` and ``observables`` hand it whole (R, size)
replica batches, and ``tree`` holds the one level reduction.  A
materialized snapshot is one level-major buffer of 2^(n+1) - 1 masses
(``CascadePath.masses_flat``), as is a ``Flow``'s ``flat``; its levels
are views of that buffer.

A path hands each wanted step, in time order, to readers through one
entry, ``read``.  A ``StreamedPath`` (``stream_path``) stores nothing and
evolves the path on each read; a ``CascadePath`` (``simulate_path``) is
one read into a storage reader, the rows of one read-only
(T, 2^(n+1) - 2) array, and replays them.  So every analysis gives the
same bits on either kind.  A vertex's masses (``_vertex_masses``) read
only its root path and subtree, in the same order of operations, so they
match the full snapshot bit for bit, from a block of log-states at a
time: a stored path's consecutive snapshots, or one step's replica block.
"""

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .rng import derive_seeds
from .tree import (
    ROOT,
    Flow,
    _flat_from_leaves,
    _level_views,
    flow_from_leaves,
    truncate,
)
from . import weights as wp

__all__ = [
    "StreamedPath",
    "CascadePath",
    "SnapshotSummaries",
    "ConvergenceRow",
    "ConvergenceReport",
    "cascade_static",
    "simulate_path",
    "stream_path",
    "compose_from_path",
    "convergence_probe",
    "make_grid",
]


# Largest block, in float64 elements (256 KiB), of every batched loop: a
# replica block's state in ``_evolve_blocks`` (4 rows at depth 12, 2 at
# depth 13, one past) and a block of subtree leaves in ``_vertex_masses``
# (two depth-14 root snapshots).  Peak RSS, not speed, sets it: from 2^18
# down to 2^15 the peak of the depth-12 verify benchmark (replica_stats)
# fell from 110.6 to 102.5 MB, CPU per round unchanged beyond noise;
# 2^14 saved 0.4 MB more.
_BLOCK = 1 << 15


def _flat_size(depth):
    # Vertices at levels 1..depth in level-major order.
    return (1 << (depth + 1)) - 2


def _blocks(count, width):
    """Slices of ``range(count)``, each as many rows of ``width`` elements as
    ``_BLOCK`` elements hold (at least one row)."""
    rows = max(1, _BLOCK // max(width, 1))
    for lo in range(0, count, rows):
        yield slice(lo, min(lo + rows, count))


def _replica_blocks(count, depth):
    """Blocks of ``count`` replicas whose depth-``depth`` state fits ``_BLOCK``."""
    return _blocks(count, _flat_size(depth))


@functools.lru_cache(maxsize=256)
def _level_slices(depth, vertex=ROOT):
    # Per level k = 1..depth, the flat slice of the vertices whose state
    # reaches the leaves under ``vertex``: its depth-k ancestor for
    # k <= |vertex|, its depth-k descendants below.  A tuple, since the
    # cache hands the same result to every caller.
    out = []
    for k in range(1, depth + 1):
        below = max(k - vertex.depth, 0)
        lo = (1 << k) - 2 + ((vertex.bits << below) >> max(vertex.depth - k, 0))
        out.append(slice(lo, lo + (1 << below)))
    return tuple(out)


def _logx_levels(cum, slices):
    """log X at levels 0..depth of the vertices the slices select.

    log X(v) is the sum of the accumulated log-weights along v's root path,
    added root first; the root's is 0.  Works on the last axis, so a
    ``(size,)`` state and an ``(R, size)`` replica batch run the same code.
    A yielded array may be overwritten by the next level; use it first.
    """
    logx = np.zeros(cum.shape[:-1] + (1,))
    yield logx
    for sl in slices:
        step = cum[..., sl]
        if step.shape[-1] == logx.shape[-1]:
            logx += step
        else:
            # each parent's log X plus its two children's state, into a
            # new array twice as wide
            wide = np.empty(step.shape)
            np.add(logx, step[..., 0::2], out=wide[..., 0::2])
            np.add(logx, step[..., 1::2], out=wide[..., 1::2])
            logx = wide
        yield logx


def _leaf_masses(leaves, cum, slices):
    """exp(log X) times the leaf masses at the leaves the slices lead to.

    Works in place on the deepest log X, so each level allocates one array.
    """
    for logx in _logx_levels(cum, slices):
        pass
    np.exp(logx, out=logx)
    logx *= leaves
    return logx


def _masses_flat(base, cum):
    return _flat_from_leaves(_leaf_masses(base.leaves, cum, _level_slices(base.depth)))


def _masses_flat_at(base, cum, grid_index):
    # ``CascadePath.masses_flat`` of a log-state; index 0 copies the base flow
    if grid_index == 0:
        return base.flat.copy()
    return _masses_flat(base, cum)


def _evolve(spec, seeds, durations, first_step, state, increments, lanes):
    """Yield ``state``, zeroed, and again after each duration: one block of ``_evolve_blocks``.

    Step j adds, in place, increments keyed (seed, vertex, first_step + j),
    drawn into ``increments``, or straight into the zero state when that is
    None (a single draw); a zero duration draws nothing.
    """
    state.fill(0.0)
    yield state
    for step, dt in enumerate(map(float, durations), start=first_step):
        if dt != 0.0:
            out = state if increments is None else increments
            wp.log_increments_multi(spec, dt, seeds, step, 0, out.shape[1], out, _lanes=lanes)
            state += 0.0 if increments is None else increments  # as 0.0 + x: -0.0 becomes 0.0
        yield state


def _evolve_blocks(spec, seeds, durations, depth, first_step=1):
    """Yield (rows, j, state) for each replica block and step j = 0..len(durations).

    ``rows`` slices ``seeds``; ``state`` is the block's (rows, size) log-state
    after its first j durations.  Every block reuses the first block's
    buffers, so none is allocated while the caller holds a state; a single
    draw needs none for increments, which halves a nested loop's memory.
    """
    buffers = None
    for rows in _replica_blocks(len(seeds), depth):
        if buffers is None:
            shape = (rows.stop, _flat_size(depth))
            increments = np.empty(shape) if np.count_nonzero(durations) > 1 else None
            buffers = np.empty(shape), increments, wp._lane_buffer(spec, shape)
        block = [None if b is None else b[: rows.stop - rows.start] for b in buffers]
        for j, state in enumerate(_evolve(spec, seeds[rows], durations, first_step, *block)):
            yield rows, j, state


def _vertex_masses(base, cum, vertices):
    """Masses of ``vertices`` in the cascade of ``base`` by each row of ``cum``.

    Shape (rows, len(vertices)), from each vertex's root path and subtree
    alone, read in place, one batched product and reduction per block of
    rows that ``_BLOCK`` subtree leaves hold.  Grid index 0 is the
    caller's: it reads the base flow's own masses.
    """
    n = base.depth
    out = np.empty((len(cum), len(vertices)))
    for c, v in enumerate(vertices):
        if v.depth > n:
            raise ValueError(f"vertex depth {v.depth} exceeds path depth {n}")
        sub = base.leaves[v.bits << (n - v.depth) : (v.bits + 1) << (n - v.depth)]
        for rows in _blocks(len(cum), len(sub)):
            leaves = _leaf_masses(sub, cum[rows], _level_slices(n, v))
            out[rows, c] = _flat_from_leaves(leaves)[:, 0]
    return out


def _snapshot(base, cum, grid_index):
    """The flow of log-state ``cum``, checked finite; grid index 0 is the base flow itself."""
    if grid_index == 0:
        return base
    flat = _masses_flat(base, cum)
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"non-finite masses at grid index {grid_index}")
    return Flow(flat)


def _overlap_from_flat(flat):
    """(overlap, deepest share) of the masses in a level-major buffer.

    The overlap is the sum over v != root of (mass(v)/mass(root))^2; the
    deepest share is that sum's term for the deepest level alone (the
    root's own term, 1, at depth 0).  A zero root gives NaN for both.
    """
    if flat[0] == 0.0:
        return math.nan, math.nan
    # x * x is numpy's x ** 2, and np.add.reduce over each level is np.sum's
    # pairwise sum of that level without its Python wrapper
    squares = np.divide(flat, flat[0])
    np.multiply(squares, squares, out=squares)
    shares = [float(np.add.reduce(lvl)) for lvl in _level_views(squares)]
    q = 0.0
    for share in shares[1:]:
        q += share
    return q, shares[-1]


def _feed(readers, i, state, materialize):
    # the first reader that asks materializes the masses, the rest share them;
    # a lone reader gets them uncached, so the buffer dies when it drops it
    masses = functools.cache(materialize) if len(readers) > 1 else materialize
    for reader in readers:
        reader.read(i, state, masses)


def _stored_state_limit():
    # physical memory in bytes; unbounded where sysconf does not report it
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


class _StoredRows:
    """Storage reader of the log-states into ``rows``, at most ``_stored_state_limit()`` bytes."""

    def __init__(self, n_snapshots, size):
        nbytes = n_snapshots * size * 8
        if nbytes > (limit := _stored_state_limit()):
            raise MemoryError(f"stored states: {nbytes} bytes > limit {limit}")
        self.rows = np.empty((n_snapshots, size))

    def read(self, i, state, masses):
        self.rows[i] = state


class SnapshotSummaries:
    """Reader of each snapshot's root mass, overlap and deepest-level share: rows of ``values``."""

    def __init__(self, n_snapshots):
        self.values = np.empty((3, n_snapshots))

    def read(self, i, state, masses):
        flat = masses()
        self.values[0, i] = flat[0]
        self.values[1:, i] = _overlap_from_flat(flat)


class _VertexSeries:
    """Reader of the masses of ``vertices`` at each snapshot: rows of ``values``."""

    def __init__(self, n_snapshots, depth, vertices):
        for v in vertices:
            if v.depth > depth:
                raise ValueError(f"vertex depth {v.depth} exceeds path depth {depth}")
        self._at = [(1 << v.depth) - 1 + v.bits for v in vertices]
        self.values = np.empty((n_snapshots, len(vertices)))

    def read(self, i, state, masses):
        self.values[i] = masses()[self._at]


def make_grid(t_end, step):
    """Uniform grid 0, step, ..., t_end; t_end must be a near-multiple of step."""
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if t_end == 0:
        return np.zeros(1)
    if step <= 0:
        raise ValueError("step must be positive")
    m = t_end / step
    if abs(m - round(m)) > 1e-9:
        raise ValueError("t_end must be an integer multiple of step")
    m = int(round(m))
    grid = step * np.arange(m + 1)
    grid[-1] = t_end
    return grid


def cascade_static(base, level_weights):
    """Cascade the base flow by explicit per-vertex weights.

    Parameters
    ----------
    base : Flow
    level_weights : sequence of ndarray
        ``level_weights[k-1]`` holds the 2^k strictly positive weights of
        the depth-k vertices, for k = 1..base.depth.

    Returns
    -------
    Flow
        Leaf masses are base leaf masses times the product of the weights
        along each root path; internal masses are rebuilt bottom-up.  All
        weights equal to 1 return the base masses unchanged.
    """
    if len(level_weights) != base.depth:
        raise ValueError(f"need {base.depth} weight levels, got {len(level_weights)}")
    x = np.ones(1)
    for k, w in enumerate(level_weights, start=1):
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (1 << k,):
            raise ValueError(f"weight level {k} must have {1 << k} entries")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError(f"weight level {k} has nonpositive or non-finite entries")
        x = np.repeat(x, 2) * w
    return flow_from_leaves(base.leaves * x)


@dataclass(frozen=True)
class StreamedPath:
    """A cascade evolution that stores no state; each ``read`` evolves it again,
    so several analyses of one such path should feed their readers through
    one ``read``.  Only the snapshot summaries are kept, once read."""

    base: Flow
    spec: wp.WeightSpec
    grid: np.ndarray
    seed: int
    snapshot_indices: np.ndarray
    _summaries: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def depth(self):
        return self.base.depth

    @property
    def times(self):
        return self.grid[self.snapshot_indices]

    @property
    def n_snapshots(self):
        return len(self.snapshot_indices)

    def read(self, readers):
        """At the i-th wanted time each reader's ``read(i, state, masses)`` gets
        the log-state and a callable that returns the ``masses_flat`` buffer,
        made once for all readers; both live only for the call."""
        # keyed draws: stopping at the last wanted step changes no earlier one
        rows = {j: r for r, j in enumerate(self.snapshot_indices.tolist())}
        durations = np.diff(self.grid[: max(rows, default=0) + 1])
        for _, j, (state,) in _evolve_blocks(self.spec, [self.seed], durations, self.depth):
            if j in rows:
                _feed(readers, rows[j], state, lambda: _masses_flat_at(self.base, state, j))

    def snapshot_summaries(self):
        """(root masses, overlaps, deepest-level shares) at every wanted snapshot.

        Read-only arrays of length ``n_snapshots``; each snapshot is
        materialized once, by the first call, for all three.
        """
        if self._summaries is None:
            summaries = SnapshotSummaries(self.n_snapshots)
            self.read([summaries])
            summaries.values.flags.writeable = False
            object.__setattr__(self, "_summaries", tuple(summaries.values))
        return self._summaries

    def vertex_mass_series(self, vertices):
        """Masses of the given vertices at every snapshot; shape (T, len(vertices))."""
        series = _VertexSeries(self.n_snapshots, self.depth, vertices)
        self.read([series])
        return series.values


@dataclass(frozen=True)
class CascadePath(StreamedPath):
    """A streamed path whose log-weight states are stored, as the rows of
    ``_cum``; ``read`` replays them.  Snapshots are materialized lazily
    from them; ``snapshot(0)`` returns the base flow itself."""

    _cum: np.ndarray = field(repr=False)

    def read(self, readers):
        """Feed the stored rows to readers, materialized by ``masses_flat``."""
        for i in range(self.n_snapshots):
            _feed(readers, i, self._cum[i], functools.partial(self.masses_flat, i))

    def log_weight_state(self, i):
        """Accumulated per-vertex log-weights at stored snapshot i (levels 1..n flat)."""
        return self._cum[i].copy()

    def mass_levels(self, i):
        """Per-level masses at stored snapshot i, root first.

        The levels are views of one new level-major buffer, the array
        ``masses_flat`` returns; at grid index 0 it is a copy of the base
        flow's ``flat``.
        """
        return _level_views(_masses_flat_at(self.base, self._cum[i], self.snapshot_indices[i]))

    def masses_flat(self, i):
        """All masses at snapshot i, level-major; vertex v sits at 2^|v| - 1 + bits.

        A new buffer per call, the one that the levels ``mass_levels``
        returns are views of.
        """
        return self.mass_levels(i)[0].base

    def snapshot(self, i):
        """The flow at stored snapshot i; index 0 is the base flow, exactly."""
        return _snapshot(self.base, self._cum[i], self.snapshot_indices[i])

    def root_mass(self, i):
        return float(self.mass_levels(i)[0][0])

    def root_masses(self):
        return self.snapshot_summaries()[0].copy()

    def vertex_mass_series(self, vertices):
        """Masses of the given vertices at every stored snapshot; shape (T, len(vertices)).

        Bit for bit ``masses_flat(i)`` at each vertex's offset, read in place
        from the stored rows by ``_vertex_masses``; grid index 0 reads the base.
        """
        out = np.empty((self.n_snapshots, len(vertices)))
        first = int(np.count_nonzero(self.snapshot_indices == 0))  # 0 or 1: grid index 0
        out[first:] = _vertex_masses(self.base, self._cum[first:], vertices)
        out[:first] = [self.base.mass(v) for v in vertices]
        return out


def _path_frame(grid, snapshot_times):
    # (read-only grid, wanted grid indices), checked
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or len(grid) == 0 or grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    grid = grid.copy()
    grid.flags.writeable = False
    want = np.arange(len(grid))
    if snapshot_times is not None:
        idx = []
        for t in snapshot_times:
            hits = np.nonzero(np.abs(grid - t) <= 1e-12 * max(1.0, abs(t)))[0]
            if len(hits) != 1:
                raise ValueError(f"snapshot time {t!r} is not on the grid")
            idx.append(int(hits[0]))
        want = np.array(sorted(set(idx)), dtype=np.int64)
    return grid, want


def stream_path(base, spec, grid, seed=0, snapshot_times=None):
    """The path ``simulate_path`` would return, as a ``StreamedPath``: nothing
    is drawn until it is read, and nothing is stored."""
    grid, want = _path_frame(grid, snapshot_times)
    return StreamedPath(base=base, spec=spec, grid=grid, seed=seed, snapshot_indices=want)


def simulate_path(base, spec, grid, seed=0, snapshot_times=None):
    """Evolve the cascade of ``base`` along a time grid.

    Parameters
    ----------
    base : Flow
        Initial flow; must be valid.
    spec : WeightSpec
    grid : ndarray
        Strictly increasing times starting at 0.
    seed : int
        Path seed; every draw is addressed by (seed, vertex, step index).
    snapshot_times : sequence of float, optional
        Grid times at which to store state (default: all grid times).

    Returns
    -------
    CascadePath
        Raises MemoryError, before any draw, if the states would not fit
        in the machine's physical memory.
    """
    path = stream_path(base, spec, grid, seed, snapshot_times)
    storage = _StoredRows(path.n_snapshots, _flat_size(base.depth))
    path.read([storage])
    storage.rows.flags.writeable = False
    return CascadePath(base, spec, path.grid, seed, path.snapshot_indices, _cum=storage.rows)


def _cascade_leaves(leaves, spec, seeds, durations, first_step=1):
    """Yield (rows, those rows of ``leaves`` cascaded by the fresh increments of their seeds)."""
    depth = leaves.shape[-1].bit_length() - 1
    for rows, j, state in _evolve_blocks(spec, seeds, durations, depth, first_step):
        if j == len(durations):
            yield rows, _leaf_masses(leaves[rows], state, _level_slices(depth))


def compose_from_path(path, i, j):
    """Replay the path's increments from stored snapshot i to grid index j.

    Equals ``path`` state at grid index j to floating-point accuracy (the
    composition is exact at finite depth; only rounding differs).
    """
    gi = int(path.snapshot_indices[i])
    if not 0 <= gi <= j < len(path.grid):
        raise ValueError("need snapshot index i at or before grid index j")
    current = path.snapshot(i)
    if current.depth == 0:
        return current
    durations = np.diff(path.grid[gi : j + 1])
    [(_, leaves)] = _cascade_leaves(
        current.leaves[None], path.spec, [path.seed], durations, first_step=gi + 1
    )
    return flow_from_leaves(leaves[0])


@dataclass(frozen=True)
class ConvergenceRow:
    depth: int
    mean: float
    se: float
    bound_shape: float
    flagged: bool


@dataclass(frozen=True)
class ConvergenceReport:
    """Empirical h-th moments of successive root-mass refinements vs the analytic decay."""

    t: float
    h: float
    rows: tuple
    c_fitted: float

    def depths(self):
        return np.array([r.depth for r in self.rows])

    def means(self):
        return np.array([r.mean for r in self.rows])

    def shapes(self):
        return np.array([r.bound_shape for r in self.rows])

    def fitted_slope(self):
        """Least-squares slope of log mean against depth."""
        d = self.depths()
        y = np.log(self.means())
        return float(np.polyfit(d, y, 1)[0])


def convergence_probe(base, spec, t, depths, h, replicas, seed):
    """Measure E|M_{n+1}(t) - M_n(t)|^h across coupled depth refinements.

    M_n(t) is the root mass of the depth-n cascade at time t; refinements
    share every draw on common vertices, so the differences are the actual
    martingale increments in n.  The analytic bound shape is
    (E[W_t^h])^{n+1} sum_{|v|=n+1} base(v)^h; a row is flagged when the
    empirical mean's lower 2-SE bound exceeds the fitted bound.
    """
    depths = sorted(int(n) for n in depths)
    if not depths or depths[0] < 1:
        raise ValueError("depths must be positive")
    if depths[-1] + 1 > base.depth:
        raise ValueError("base must be at least one level deeper than max(depths)")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    n_max = depths[-1] + 1
    base = truncate(base, n_max)

    diffs = np.empty((replicas, len(depths)))
    slices = _level_slices(n_max)
    for rows, j, cum in _evolve_blocks(spec, derive_seeds(seed, replicas), [t], n_max):
        if j:
            # per level, a numpy reduction of each replica's row, not a BLAS
            # dot, so the sums do not depend on the BLAS thread count
            levels = zip(base.levels, _logx_levels(cum, slices))
            roots = [np.add.reduce(lv * np.exp(lx), axis=-1).tolist() for lv, lx in levels]
            diffs[rows] = [[abs(m[n + 1] - m[n]) ** h for n in depths] for m in zip(*roots)]
    means = diffs.mean(axis=0)
    ses = diffs.std(axis=0, ddof=1) / math.sqrt(replicas)
    moment = wp.moment(spec, t, h)
    shapes = np.array([moment ** (n + 1) * float(np.sum(base.level(n + 1) ** h)) for n in depths])
    c_fitted = float(np.max(means / shapes))
    rows = tuple(
        ConvergenceRow(n, float(m), float(se), float(sh), bool(m - 2.0 * se > c_fitted * sh))
        for n, m, se, sh in zip(depths, means, ses, shapes)
    )
    return ConvergenceReport(t=float(t), h=float(h), rows=rows, c_fitted=c_fitted)
