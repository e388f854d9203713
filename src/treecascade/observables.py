"""Stochastic-calculus observables of the Gaussian-driven evolution.

The log total mass accumulates quadratic variation at the overlap rate
Q_t = sum_{v != root} (mass(v)/mass(root))^2, the expected depth at
which two independent rays drawn from the normalized flow split.  Pairs
of non-ancestral vertex masses have log-bracket rate |u ^ v| dt, the
depth of their common ancestor.  Under the measure tilted by the
mean-one total-mass martingale, each vertex's driving Brownian motion
acquires drift equal to the normalized mass of that vertex; the
Girsanov check renders that identity as a z-score.

All of these use the continuous (Gaussian) weight kind; jump kinds are
rejected where the continuous bracket is assumed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .engine import SnapshotSummaries, _evolve_blocks, _leaf_masses, _level_slices
from .engine import _overlap_from_flat, stream_path
from .rng import derive_seeds
from .tree import FLOW_REL_TOL, _levels_from_leaves, common_ancestor_depth, flat_index
from . import weights as wp

__all__ = [
    "OverlapSeries",
    "QvComparison",
    "ExplosionReport",
    "GirsanovReport",
    "overlap",
    "overlap_series",
    "path_observables",
    "realized_vs_predicted_qv",
    "streamed_qv",
    "bracket_rate",
    "empirical_bracket",
    "explosion_monitor",
    "girsanov_check",
]

GIRSANOV_MAX_DEPTH = 4


def overlap(f):
    """sum over v != root of (mass(v)/mass(root))^2, the truncated
    expected meeting depth of two independent rays."""
    return _overlap_from_flat(np.concatenate(f.levels))[0]


@dataclass(frozen=True)
class OverlapSeries:
    times: np.ndarray
    overlap: np.ndarray
    tail_flag: bool


def _require_gaussian(spec, what):
    if spec.kind != wp.GAUSSIAN:
        raise ValueError(f"{what} assumes the continuous weight kind")


def overlap_series(path):
    """Overlap at every stored snapshot; tail_flag marks any time where
    the deepest level carries more than 1% of the sum (truncation is
    then suspect)."""
    _, q, tail = path.snapshot_summaries()
    flagged = bool(np.any(tail > 0.01 * q))
    return OverlapSeries(times=path.times.copy(), overlap=q.copy(), tail_flag=flagged)


def path_observables(path):
    """(times, root_mass, overlap, cum_qv) arrays over stored snapshots;
    cum_qv is the running sum of squared log root-mass increments."""
    return _observables(path.times, *path.snapshot_summaries()[:2])


def _observables(times, roots, q):
    cum_qv = np.zeros_like(roots)
    np.cumsum(np.diff(np.log(roots)) ** 2, out=cum_qv[1:])
    return times.copy(), roots.copy(), q.copy(), cum_qv


@dataclass(frozen=True)
class QvComparison:
    realized: float
    predicted: float
    rel_err: float


def realized_vs_predicted_qv(path):
    """Realized squared log root increments against the integrated overlap."""
    _require_gaussian(path.spec, "quadratic variation comparison")
    return _qv_comparison(*path_observables(path))


def streamed_qv(base, spec, grid, seed=0):
    """``realized_vs_predicted_qv`` of ``simulate_path(base, spec, grid, seed=seed)``,
    bit for bit, from ``engine.stream_path``: nothing stored."""
    _require_gaussian(spec, "quadratic variation comparison")
    summaries = SnapshotSummaries(len(grid))
    stream_path(base, spec, grid, [summaries], seed=seed)
    return _qv_comparison(*_observables(np.asarray(grid, dtype=np.float64), *summaries.values[:2]))


def _qv_comparison(times, roots, q, cum_qv):
    realized = float(cum_qv[-1])
    predicted = float(np.sum(q[:-1] * np.diff(times)))
    if predicted == 0.0:
        rel_err = 0.0 if realized == 0.0 else math.inf
    else:
        rel_err = abs(realized - predicted) / predicted
    return QvComparison(realized=realized, predicted=predicted, rel_err=rel_err)


def bracket_rate(u, v):
    """|u ^ v|: the log-bracket rate of two non-ancestral vertex masses."""
    if u.is_ancestor_of(v) or v.is_ancestor_of(u):
        raise ValueError("bracket rate is defined for non-ancestral pairs")
    return common_ancestor_depth(u, v)


def empirical_bracket(path, u, v):
    """Realized covariation of log masses per unit time, drift-centered."""
    if u.is_ancestor_of(v) or v.is_ancestor_of(u):
        raise ValueError("bracket rate is defined for non-ancestral pairs")
    series = path.vertex_mass_series([u, v])
    duration = float(path.times[-1] - path.times[0])
    if duration <= 0:
        raise ValueError("path must span positive time")
    d = np.diff(np.log(series), axis=0)
    d = d - d.mean(axis=0)
    return float(np.sum(d[:, 0] * d[:, 1])) / duration


@dataclass(frozen=True)
class ExplosionReport:
    times: np.ndarray
    overlap: np.ndarray
    cum_overlap_integral: np.ndarray
    root_masses: np.ndarray
    flags: np.ndarray
    flagged: bool


def explosion_monitor(path, mass_ratio=1e-6, integral_threshold=10.0):
    """Accumulated overlap integral with collapse flags.

    A time is flagged when the root mass has fallen below mass_ratio of
    its initial value while the integral is already past the threshold;
    qualitative by construction, since the true divergence criterion is
    invisible at finite depth.
    """
    _require_gaussian(path.spec, "explosion monitoring")
    times, roots, q, _ = path_observables(path)
    cum = np.zeros_like(q)
    if len(times) > 1:
        dt = np.diff(times)
        np.cumsum(0.5 * (q[1:] + q[:-1]) * dt, out=cum[1:])
    flags = (roots < mass_ratio * roots[0]) & (cum > integral_threshold)
    return ExplosionReport(
        times=times,
        overlap=q,
        cum_overlap_integral=cum,
        root_masses=roots,
        flags=flags,
        flagged=bool(np.any(flags)),
    )


@dataclass(frozen=True)
class GirsanovReport:
    tilted_mean: float
    predicted_mean: float
    statistic: float
    se: float
    replicas: int


def girsanov_check(base, spec, t_end, vertex, replicas, seed, step=0.01):
    """Tilted-drift identity: E[M (B(v) - int mass*(v) ds)] = 0.

    M is the terminal root mass of the normalized cascade (a mean-one
    martingale), B(v) the vertex's driving Brownian value at t_end, and
    mass*(v) the normalized vertex mass.  Importance-weight variance
    grows exponentially with depth, so depth is capped.
    """
    if spec.kind != wp.GAUSSIAN:
        raise ValueError("the drift identity assumes the continuous weight kind")
    if base.depth > GIRSANOV_MAX_DEPTH:
        raise ValueError(f"girsanov check limited to depth {GIRSANOV_MAX_DEPTH}")
    if abs(base.root_mass - 1.0) > FLOW_REL_TOL:
        raise ValueError("base flow must be normalized")
    if not 1 <= vertex.depth <= base.depth:
        raise ValueError("test vertex must be a proper vertex of the flow")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    if t_end == 0.0:
        return GirsanovReport(0.0, 0.0, 0.0, 0.0, replicas)

    m_steps = int(round(t_end / step))
    if abs(m_steps * step - t_end) > 1e-9 or m_steps < 1:
        raise ValueError("t_end must be a positive multiple of step")
    seeds = derive_seeds(seed, replicas)
    slices = _level_slices(base.depth)

    integral = np.zeros(replicas)
    m_weight, b_vertex = np.empty((2, replicas))
    dt = t_end / m_steps
    for rows, j, cum in _evolve_blocks(spec, seeds, np.full(m_steps, dt), base.depth):
        if j < m_steps:
            levels = _levels_from_leaves(_leaf_masses(base.leaves, cum, slices))
            integral[rows] += (levels[vertex.depth][:, vertex.bits] / levels[0][:, 0]) * dt
        else:
            m_weight[rows] = _leaf_masses(base.leaves, cum, slices).sum(axis=1)
            b_vertex[rows] = cum[:, flat_index(vertex)] + 0.5 * t_end

    y = m_weight * (b_vertex - integral)
    se = float(y.std(ddof=1) / math.sqrt(replicas))
    z = float(y.mean() / se) if se > 0 else 0.0
    total = float(m_weight.sum())
    return GirsanovReport(
        tilted_mean=float(np.dot(m_weight, b_vertex)) / total,
        predicted_mean=float(np.dot(m_weight, integral)) / total,
        statistic=z,
        se=se,
        replicas=replicas,
    )
