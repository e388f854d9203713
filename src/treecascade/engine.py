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
remaining increments; ``compose`` exposes that operation and
``compose_from_path`` replays a stored path's own increments, which
reproduces its snapshots to floating-point accuracy.

Weight state is accumulated in log space; masses exponentiate only when a
snapshot is materialized: leaf log-states are summed root first along each
root path, exponentiated, and summed pairwise level by level.  This module
holds the one implementation of that root-path product; it works on the
last axis, so ``verify`` and ``observables`` hand it whole (R, size)
replica batches, and ``tree`` holds the one level reduction.  A path
computes its per-snapshot summaries (root mass, overlap, deepest-level
share) once, in one sweep, for every reader; a vertex mass series reads
only the vertex's root path and subtree, in the same order of operations,
so it matches the full snapshot bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import derive_seeds
from .tree import ROOT, Flow, _levels_from_leaves, flow_from_leaves, truncate
from . import weights as wp

__all__ = [
    "CascadePath",
    "ConvergenceRow",
    "ConvergenceReport",
    "cascade_static",
    "simulate_path",
    "compose",
    "compose_from_path",
    "convergence_probe",
    "make_grid",
]


def _flat_size(depth):
    # Vertices at levels 1..depth in level-major order.
    return (1 << (depth + 1)) - 2


def _level_slices(depth, vertex=ROOT):
    # Per level k = 1..depth, the flat slice of the vertices whose state
    # reaches the leaves under ``vertex``: its depth-k ancestor for
    # k <= |vertex|, its depth-k descendants below.
    out = []
    for k in range(1, depth + 1):
        below = max(k - vertex.depth, 0)
        lo = (1 << k) - 2 + ((vertex.bits << below) >> max(vertex.depth - k, 0))
        out.append(slice(lo, lo + (1 << below)))
    return out


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
        if sl.stop - sl.start > logx.shape[-1]:
            logx = np.repeat(logx, 2, axis=-1)
        logx += cum[..., sl]
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


def _mass_levels(base, cum):
    return _levels_from_leaves(_leaf_masses(base.leaves, cum, _level_slices(base.depth)))


def _overlap_from_levels(levels):
    """(overlap, deepest share) of per-level masses given root first.

    The overlap is the sum over v != root of (mass(v)/mass(root))^2; the
    deepest share is that sum's term for the deepest level alone (the
    root's own term, 1, at depth 0).
    """
    root = levels[0][0]
    shares = [float(np.sum((lvl / root) ** 2)) for lvl in levels]
    q = 0.0
    for share in shares[1:]:
        q += share
    return q, shares[-1]


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
class CascadePath:
    """A cascade evolution: base flow, grid, and stored weight states.

    Snapshots are materialized lazily from the stored accumulated
    log-weight state; ``snapshot(0)`` returns the base flow itself.
    Per-snapshot summaries (root mass, overlap, deepest-level share) are
    computed by the first call that needs them, in one sweep over the
    snapshots, and kept.
    """

    base: Flow
    spec: wp.WeightSpec
    grid: np.ndarray
    seed: int
    snapshot_indices: np.ndarray
    _cum: tuple = field(repr=False)
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

    def log_weight_state(self, i):
        """Accumulated per-vertex log-weights at stored snapshot i (levels 1..n flat)."""
        return self._cum[i].copy()

    def mass_levels(self, i):
        """Per-level masses at stored snapshot i (list of arrays, root first)."""
        if self.snapshot_indices[i] == 0:
            return [np.asarray(a) for a in self.base.levels]
        return _mass_levels(self.base, self._cum[i])

    def masses_flat(self, i):
        """All masses at snapshot i, level-major; vertex v sits at 2^|v| - 1 + bits."""
        return np.concatenate(self.mass_levels(i))

    def snapshot(self, i):
        """The flow at stored snapshot i; index 0 is the base flow, exactly."""
        if self.snapshot_indices[i] == 0:
            return self.base
        levels = self.mass_levels(i)
        return flow_from_leaves(levels[-1])

    def root_mass(self, i):
        return float(self.mass_levels(i)[0][0])

    def snapshot_summaries(self):
        """(root masses, overlaps, deepest-level shares) at every stored snapshot.

        Read-only arrays of length ``n_snapshots``; each snapshot is
        materialized once, by the first call, for all three.  The overlap
        is ``observables.overlap`` of the snapshot; the deepest-level
        share is its deepest level's term.
        """
        if self._summaries is None:
            summaries = np.empty((3, self.n_snapshots))
            for i in range(self.n_snapshots):
                levels = self.mass_levels(i)
                summaries[0, i] = levels[0][0]
                summaries[1:, i] = _overlap_from_levels(levels)
            summaries.flags.writeable = False
            object.__setattr__(self, "_summaries", tuple(summaries))
        return self._summaries

    def root_masses(self):
        return self.snapshot_summaries()[0].copy()

    def vertex_mass_series(self, vertices):
        """Masses of the given vertices at every stored snapshot; shape (T, len(vertices)).

        Each entry equals ``masses_flat(i)`` at the vertex's offset bit for
        bit, but is computed from the vertex's root path and subtree alone.
        """
        n = self.depth
        out = np.empty((self.n_snapshots, len(vertices)))
        for c, v in enumerate(vertices):
            if v.depth > n:
                raise ValueError(f"vertex depth {v.depth} exceeds path depth {n}")
            slices = _level_slices(n, v)
            sub = self.base.leaves[v.bits << (n - v.depth) : (v.bits + 1) << (n - v.depth)]
            for i, cum in enumerate(self._cum):
                if self.snapshot_indices[i] == 0:
                    out[i, c] = self.base.mass(v)
                else:
                    out[i, c] = _levels_from_leaves(_leaf_masses(sub, cum, slices))[0][0]
        return out

    def index_of_time(self, t):
        """Stored snapshot index whose grid time equals t (within 1e-12)."""
        times = self.times
        hits = np.nonzero(np.abs(times - t) <= 1e-12 * max(1.0, abs(t)))[0]
        if len(hits) != 1:
            raise ValueError(f"time {t!r} is not a stored snapshot time")
        return int(hits[0])


def _resolve_snapshot_indices(grid, snapshot_times):
    if snapshot_times is None:
        return np.arange(len(grid))
    idx = []
    for t in snapshot_times:
        hits = np.nonzero(np.abs(grid - t) <= 1e-12 * max(1.0, abs(t)))[0]
        if len(hits) != 1:
            raise ValueError(f"snapshot time {t!r} is not on the grid")
        idx.append(int(hits[0]))
    idx = sorted(set(idx))
    return np.array(idx, dtype=np.int64)


def simulate_path(base, spec, grid, depth=None, seed=0, snapshot_times=None):
    """Evolve the cascade of ``base`` along a time grid.

    Parameters
    ----------
    base : Flow
        Initial flow; must be valid.  Truncated to ``depth`` if given.
    spec : WeightSpec
    grid : ndarray
        Strictly increasing times starting at 0.
    depth : int, optional
        Cascade depth, at most ``base.depth`` (default: the base depth).
    seed : int
        Path seed; every draw is addressed by (seed, vertex, step index).
    snapshot_times : sequence of float, optional
        Grid times at which to store state (default: all grid times).

    Returns
    -------
    CascadePath
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or len(grid) == 0 or grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if depth is None:
        depth = base.depth
    if not 0 <= depth <= base.depth:
        raise ValueError("depth must be between 0 and base.depth")
    base = truncate(base, depth)
    want = _resolve_snapshot_indices(grid, snapshot_times)
    size = _flat_size(depth)

    stored = []
    state = np.zeros(size)
    want_set = set(int(i) for i in want)
    if 0 in want_set:
        stored.append(state.copy())
    for j in range(1, len(grid)):
        dt = float(grid[j] - grid[j - 1])
        state += wp.log_increments(spec, float(grid[j - 1]), dt, seed, j, 0, size)
        if j in want_set:
            stored.append(state.copy())
    for a in stored:
        a.flags.writeable = False
    grid = grid.copy()
    grid.flags.writeable = False
    return CascadePath(
        base=base,
        spec=spec,
        grid=grid,
        seed=seed,
        snapshot_indices=want,
        _cum=tuple(stored),
    )


def _compose_with_increments(current, spec, start_time, durations, seed, first_step):
    if current.depth == 0:
        return current
    size = _flat_size(current.depth)
    cum = np.zeros(size)
    t = start_time
    for j, dt in enumerate(durations):
        cum += wp.log_increments(spec, t, float(dt), seed, first_step + j, 0, size)
        t += dt
    return flow_from_leaves(_leaf_masses(current.leaves, cum, _level_slices(current.depth)))


def compose(current, spec, t, s, seed, steps=1, first_step=1):
    """Cascade ``current`` by fresh weight increments of total duration s.

    Draws ``steps`` consecutive increments of duration ``s/steps`` keyed by
    (seed, vertex, first_step + j).  With the seed, step indices, and step
    durations of a simulated path this replays that path's own increments;
    ``compose_from_path`` wraps that alignment.

    Returns the composed Flow; ``s = 0`` returns ``current`` unchanged.
    """
    if s < 0:
        raise ValueError("duration must be nonnegative")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if s == 0.0:
        return current
    durations = np.full(steps, s / steps)
    return _compose_with_increments(current, spec, t, durations, seed, first_step)


def compose_from_path(path, i, j):
    """Replay the path's increments from stored snapshot i to grid index j.

    Equals ``path`` state at grid index j to floating-point accuracy (the
    composition is exact at finite depth; only rounding differs).
    """
    gi = int(path.snapshot_indices[i])
    if not 0 <= gi <= j < len(path.grid):
        raise ValueError("need snapshot index i at or before grid index j")
    current = path.snapshot(i)
    durations = np.diff(path.grid[gi : j + 1])
    return _compose_with_increments(
        current, path.spec, float(path.grid[gi]), durations, path.seed, gi + 1
    )


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
    size = _flat_size(n_max)
    seeds = [int(s) for s in derive_seeds(seed, replicas)]

    diffs = np.empty((replicas, len(depths)))
    slices = _level_slices(n_max)
    for r, sr in enumerate(seeds):
        cum = wp.log_increments(spec, 0.0, t, sr, 1, 0, size) if t > 0 else np.zeros(size)
        roots = [
            float(np.dot(level, np.exp(logx)))
            for level, logx in zip(base.levels, _logx_levels(cum, slices))
        ]
        for c, n in enumerate(depths):
            diffs[r, c] = abs(roots[n + 1] - roots[n]) ** h
    means = diffs.mean(axis=0)
    ses = diffs.std(axis=0, ddof=1) / math.sqrt(replicas)
    shapes = np.array(
        [
            wp.moment(spec, t, h) ** (n + 1) * float(np.sum(base.level(n + 1) ** h))
            for n in depths
        ]
    )
    c_fitted = float(np.max(means / shapes))
    rows = tuple(
        ConvergenceRow(
            depth=n,
            mean=float(means[c]),
            se=float(ses[c]),
            bound_shape=float(shapes[c]),
            flagged=bool(means[c] - 2.0 * ses[c] > c_fitted * shapes[c]),
        )
        for c, n in enumerate(depths)
    )
    return ConvergenceReport(t=float(t), h=float(h), rows=rows, c_fitted=c_fitted)
