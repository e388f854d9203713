"""Wasserstein distance between flows and Hölder-exponent estimation.

Distances are computed at cylinder resolution: two rays agreeing through
depth n are at distance 0 for a depth-n flow, so the effective ground
metric is 2^(-|common prefix|) - 2^(-n).  That metric is a path metric
on the tree with the edge above a depth-k vertex carrying weight
2^(-(k+1)), which turns optimal transport into the closed form

    sum_{1 <= |v| <= n} 2^(-(|v|+1)) |mu(v) - nu(v)|,

the mass imbalance that must cross each edge.  An explicit LP oracle at
small depth certifies the formula; both carry a 2^(-n) truncation bound
against the distance on the full boundary.

The Hölder distances of a stored path come from one sweep over its
snapshots in time order: each snapshot a pair reads is materialized
once, into one level-major buffer, divided by the root into a new
buffer of its levels 1..n, and held only while a later pair still reads
it; the held buffer does not keep the materialized one alive.  The live
set never exceeds the pairs spanning the current snapshot plus one: 32
buffers of 256 KiB at most for depth 14 with lags up to 64 over 301
snapshots.  The per-level sums, here and in the coupling bound, are
numpy reductions, not a BLAS dot, so the results are the same at any
BLAS thread count.
"""

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .tree import FLOW_REL_TOL

__all__ = [
    "TransportResult",
    "HolderFit",
    "wasserstein_exact",
    "wasserstein_lp_oracle",
    "coupling_upper_bound",
    "holder_lags",
    "holder_distances",
    "holder_exponent",
]

LP_MAX_DEPTH = 8


@dataclass(frozen=True)
class TransportResult:
    value: float
    method: str
    truncation_bound: float


def _check_pair(mu, nu, positive=False):
    if mu.depth != nu.depth:
        raise ValueError(f"depth mismatch: {mu.depth} vs {nu.depth}")
    for f in (mu, nu):
        if abs(f.root_mass - 1.0) > FLOW_REL_TOL:
            raise ValueError("flows must be normalized")
        if positive and any(np.any(lvl <= 0) for lvl in f.levels):
            raise ValueError("coupling bound requires strictly positive masses")


def wasserstein_exact(mu, nu):
    """Edge-decomposition Wasserstein distance at cylinder resolution."""
    _check_pair(mu, nu)
    value = 0.0
    for k in range(1, mu.depth + 1):
        value += 2.0 ** -(k + 1) * float(np.sum(np.abs(mu.level(k) - nu.level(k))))
    return TransportResult(
        value=value, method="tree_formula", truncation_bound=2.0**-mu.depth
    )


def wasserstein_lp_oracle(mu, nu):
    """Direct optimal-transport LP between leaf masses; depth <= 8 only."""
    _check_pair(mu, nu)
    n = mu.depth
    if n > LP_MAX_DEPTH:
        raise ValueError(f"LP oracle limited to depth {LP_MAX_DEPTH}")
    m = 1 << n
    if n == 0:
        return TransportResult(value=0.0, method="lp_oracle", truncation_bound=1.0)
    # slow imports, made only where they are used
    from scipy import sparse
    from scipy.optimize import linprog

    idx = np.arange(m, dtype=np.uint32)
    diverge = idx[:, None] ^ idx[None, :]
    depth_below = np.zeros_like(diverge)
    nz = diverge > 0
    depth_below[nz] = np.floor(np.log2(diverge[nz])).astype(np.uint32) + 1
    cost = 2.0 ** -(n - depth_below.astype(np.float64)) - 2.0**-n

    ones = np.ones(m)
    eye = sparse.identity(m, format="csr")
    a_eq = sparse.vstack(
        [sparse.kron(eye, ones.reshape(1, -1)), sparse.kron(ones.reshape(1, -1), eye)],
        format="csr",
    )
    b_eq = np.concatenate([mu.leaves, nu.leaves])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return TransportResult(
        value=float(res.fun), method="lp_oracle", truncation_bound=2.0**-n
    )


def coupling_upper_bound(mu, nu):
    """Match-children-greedily coupling cost; requires strictly positive flows.

    sum_k 2^(-k+1) sum_{|v|=k-1} nu(v) |nu(vL)/nu(v) - mu(vL)/mu(v)|.
    """
    _check_pair(mu, nu, positive=True)
    value = 0.0
    for k in range(1, mu.depth + 1):
        nu_parent = nu.level(k - 1)
        mu_parent = mu.level(k - 1)
        nu_left = nu.level(k)[0::2]
        mu_left = mu.level(k)[0::2]
        gap = np.abs(nu_left / nu_parent - mu_left / mu_parent)
        # a numpy reduction, not a BLAS dot: the same at any BLAS thread count
        value += 2.0 ** (-k + 1) * float(np.add.reduce(np.multiply(nu_parent, gap)))
    return TransportResult(
        value=value, method="coupling_bound", truncation_bound=2.0**-mu.depth
    )


@dataclass(frozen=True)
class HolderFit:
    """Log-log fit of median snapshot distance against time lag."""

    slope: float
    intercept: float
    slope_se: float
    r_squared: float
    lag_times: tuple
    median_log_distance: tuple
    n_pairs: int
    degenerate: bool


def holder_lags(n_times):
    """Dyadic lags 1, 2, 4, ... up to half the series length."""
    lags = []
    lag = 1
    while lag <= (n_times - 1) // 2:
        lags.append(lag)
        lag *= 2
    return lags


def _lag_starts(n_times, lag, pair_budget):
    n_pairs = n_times - lag
    k = min(pair_budget, n_pairs)
    return np.unique(np.linspace(0, n_pairs - 1, k).round().astype(np.int64))


def holder_distances(path, pair_budget=64, lags=None):
    """Wasserstein distances between stored snapshots at dyadic lags.

    The stored snapshot times must be uniformly spaced, and every lag
    must be an integer at least 1 and below the number of stored
    snapshots.  Returns a list of (lag_time, distances) with up to
    pair_budget evenly spaced pairs per lag.

    One sweep in time order materializes each snapshot that a pair reads
    once, through ``path.masses_flat``, and holds its levels 1..n
    divided by its root until its last pair; so the sweep holds at most
    one normalized buffer per pair spanning the current snapshot, plus
    the current one (32 buffers of 256 KiB at depth 14 with lags up to
    64).  Each distance is the per-level sum of the absolute differences
    of two held buffers, weighted by the edge weight of the level; the
    sums are numpy reductions, not BLAS, so the result does not depend
    on the BLAS thread count.
    """
    if pair_budget < 1:
        raise ValueError(f"pair_budget must be at least 1, got {pair_budget}")
    times = path.times
    n_times = len(times)
    if n_times < 3:
        raise ValueError("need at least 3 stored snapshots")
    steps = np.diff(times)
    dt = float(steps[0])
    if np.any(np.abs(steps - dt) > 1e-9 * max(dt, 1.0)):
        raise ValueError("stored snapshots must be uniformly spaced")
    lags = list(holder_lags(n_times) if lags is None else lags)
    for lag in lags:
        if int(lag) != lag or not 1 <= lag < n_times:
            raise ValueError(
                f"lag {lag} must be an integer in [1, {n_times - 1}] for {n_times} stored snapshots"
            )
    lags = [int(lag) for lag in lags]

    # pairs (i, i + lag) keyed by their later snapshot; each snapshot's last reader
    readers = defaultdict(list)
    last = {}
    dists = []
    for r, lag in enumerate(lags):
        starts = _lag_starts(n_times, lag, pair_budget)
        dists.append(np.empty(len(starts)))
        for c, i in enumerate(starts.tolist()):
            j = i + lag
            readers[j].append((r, c, i))
            last[i] = max(last.get(i, i), j)
            last.setdefault(j, j)
    released = defaultdict(list)
    for i, j in last.items():
        released[j].append(i)

    n = path.depth
    offsets = (1 << np.arange(1, n + 1)) - 2
    edge_w = 2.0 ** -(np.arange(1, n + 1) + 1.0)
    diff = np.empty((1 << (n + 1)) - 2)
    held = {}
    for s in sorted(last):
        flat = path.masses_flat(s)
        # levels 1..n divided by the root: a new array, so the materialized
        # buffer dies here
        held[s] = np.divide(flat[1:], flat[0])
        del flat
        for r, c, i in readers[s]:
            np.subtract(held[i], held[s], out=diff)
            np.abs(diff, out=diff)
            dists[r][c] = float(np.sum(np.add.reduceat(diff, offsets) * edge_w))
        for i in released[s]:
            del held[i]
    return [(lag * dt, d) for lag, d in zip(lags, dists)]


def holder_exponent(paths, pair_budget=64, lags=None):
    """Pooled log-log slope of median distance vs lag across paths.

    `paths` may be a single path or an iterable (consumed lazily, so a
    generator keeps only one path in memory).  Zero distances are
    dropped; a fit with fewer than 2 usable lags is reported degenerate.
    """
    if hasattr(paths, "masses_flat"):
        paths = [paths]
    pooled = {}
    n_pairs = 0
    for path in paths:
        for lag_time, dists in holder_distances(path, pair_budget, lags):
            pooled.setdefault(lag_time, []).append(dists)
            n_pairs += len(dists)
        # free the finished path before the iterator simulates the next one
        del path
    lag_times = []
    med_log = []
    for lag_time in sorted(pooled):
        d = np.concatenate(pooled[lag_time])
        d = d[d > 0]
        if len(d) == 0:
            continue
        lag_times.append(lag_time)
        med_log.append(float(np.median(np.log(d))))
    if len(lag_times) < 2:
        return HolderFit(
            slope=math.nan,
            intercept=math.nan,
            slope_se=math.nan,
            r_squared=math.nan,
            lag_times=tuple(lag_times),
            median_log_distance=tuple(med_log),
            n_pairs=n_pairs,
            degenerate=True,
        )
    x = np.log(np.array(lag_times))
    y = np.array(med_log)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    dof = len(x) - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    slope_se = math.sqrt(ss_res / dof / sxx) if dof > 0 else math.nan
    return HolderFit(
        slope=float(slope),
        intercept=float(intercept),
        slope_se=slope_se,
        r_squared=r_squared,
        lag_times=tuple(lag_times),
        median_log_distance=tuple(med_log),
        n_pairs=n_pairs,
        degenerate=False,
    )
