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

Hölder distances come from one reader, ``HolderPairs``, fed a path's
snapshots in time order, by ``engine.stream_path`` or by a stored
path's rows.  Each snapshot a pair reads is materialized once, divided
by the root into a new buffer of its levels 1..n, and held only while a
later pair still reads it.  A lag L's pairs start on multiples of
ceil(L/2), so at most two of them span any snapshot, and the live set
never exceeds 2 * len(lags) + 1 buffers, whatever the pair budget and
the number of snapshots: 15 of 256 KiB at most for depth 14 with lags
up to 64 (8 are reached over 301 snapshots).  The per-level sums, here
and in the coupling bound, are numpy reductions, not a BLAS dot, so the
results are the same at any BLAS thread count.
"""

import functools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import engine
from .tree import FLOW_REL_TOL

__all__ = [
    "TransportResult",
    "HolderFit",
    "wasserstein_exact",
    "wasserstein_lp_oracle",
    "coupling_upper_bound",
    "HolderPairs",
    "holder_lags",
    "holder_distances",
    "holder_exponent",
    "streamed_holder_exponent",
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
    # Starts fall on multiples of ceil(lag / 2), so two starts of one lag lie
    # at least lag / 2 apart and at most two of its pairs span any snapshot;
    # dyadic lags share endpoints, since each candidate start of 2L is one of L.
    # The factor 2 is set by the slope's spread: over 40 gauss_paths-shaped
    # fits (4 depth-14 paths, 301 times, lags 1..64) its sd is 0.0221 with
    # every start a candidate, 0.0224 with this stride, and 0.0268 with
    # starts on multiples of the lag itself, which holds one snapshot a lag.
    stride = -(-lag // 2)
    n_starts = (n_times - 1 - lag) // stride + 1
    k = min(pair_budget, n_starts)
    return stride * np.unique(np.linspace(0, n_starts - 1, k).round().astype(np.int64))


class HolderPairs:
    """Reader of the Wasserstein distances between snapshots at dyadic lags.

    ``times``, those of the snapshots it reads, must be uniformly spaced,
    and every lag an integer in [1, len(times)).  ``distances`` is a list
    of (lag_time, distances): a lag L's pairs (i, i + L) start on
    multiples of ceil(L/2), up to pair_budget of them evenly spaced among
    those.  So at most two pairs of a lag span any snapshot, and ``held``
    never holds more than 2 * len(lags) + 1 normalized snapshots.
    """

    def __init__(self, times, depth, pair_budget=64, lags=None):
        if pair_budget < 1:
            raise ValueError(f"pair_budget must be at least 1, got {pair_budget}")
        times = np.asarray(times, dtype=np.float64)
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
        self._pairs = defaultdict(list)
        self._last = last = {}
        self.distances = []
        for r, lag in enumerate(lags):
            starts = _lag_starts(n_times, lag, pair_budget)
            self.distances.append((lag * dt, np.empty(len(starts))))
            for c, i in enumerate(starts.tolist()):
                j = i + lag
                self._pairs[j].append((r, c, i))
                last[i] = max(last.get(i, i), j)
                last.setdefault(j, j)

        self._offsets = (1 << np.arange(1, depth + 1)) - 2
        self._edge_w = 2.0 ** -(np.arange(1, depth + 1) + 1.0)
        self._diff = np.empty((1 << (depth + 1)) - 2)
        self.held = {}

    def read(self, s, state, masses):
        held, diff, last = self.held, self._diff, self._last
        if s not in last:
            return  # no pair reads snapshot s
        flat = masses()
        # levels 1..n over the root, a new array: no materialized buffer outlives its step
        held[s] = np.divide(flat[1:], flat[0])
        for r, c, i in self._pairs[s]:
            np.subtract(held[i], held[s], out=diff)
            np.abs(diff, out=diff)
            sums = np.add.reduceat(diff, self._offsets)
            self.distances[r][1][c] = float(np.sum(sums * self._edge_w))
        for i in [i for i in held if last[i] == s]:
            del held[i]


def holder_distances(path, pair_budget=64, lags=None):
    """``HolderPairs.distances`` of a stored path: each snapshot a pair reads
    is materialized once, through ``path.masses_flat``."""
    pairs = HolderPairs(path.times, path.depth, pair_budget, lags)
    engine._read_stored(path, [pairs])
    return pairs.distances


def holder_exponent(paths, pair_budget=64, lags=None):
    """Pooled log-log slope of median distance vs lag across paths.

    `paths` may be a single path or an iterable (consumed lazily, so a
    generator keeps only one path in memory).  Zero distances are
    dropped; a fit with fewer than 2 usable lags is reported degenerate.
    """
    if hasattr(paths, "masses_flat"):
        paths = [paths]
    distances = functools.partial(holder_distances, pair_budget=pair_budget, lags=lags)
    # map keeps no finished path, so a generator can free each before the next
    return _pooled_fit(map(distances, paths))


def streamed_holder_exponent(base, spec, grid, seeds, pair_budget=64):
    """``holder_exponent`` of ``simulate_path(base, spec, grid, seed=s)`` for s
    in ``seeds``, bit for bit, from ``engine.stream_path``: nothing stored."""

    def distances():
        for seed in seeds:
            pairs = HolderPairs(grid, base.depth, pair_budget)
            engine.stream_path(base, spec, grid, [pairs], seed=int(seed))
            yield pairs.distances

    return _pooled_fit(distances())


def _pooled_fit(per_path):
    # the fit of ``holder_exponent`` over per-path lists of (lag_time, distances)
    pooled = {}
    n_pairs = 0
    for rows in per_path:
        for lag_time, dists in rows:
            pooled.setdefault(lag_time, []).append(dists)
            n_pairs += len(dists)
    lag_times = []
    med_log = []
    for lag_time in sorted(pooled):
        d = np.concatenate(pooled[lag_time])
        d = d[d > 0]
        if len(d) == 0:
            continue
        lag_times.append(lag_time)
        med_log.append(float(np.median(np.log(d))))
    degenerate = len(lag_times) < 2
    slope = intercept = slope_se = r_squared = math.nan
    if not degenerate:
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
        degenerate=degenerate,
    )
