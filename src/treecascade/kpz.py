"""Dimension transport under the cascade's distribution function.

phi_t(h) = h - log2 E[W_t^h] relates the dimension of a deterministic
set to the dimension of its random image under the pushforward of the
evolving uniform cascade: d(0) = phi_t(d(t)).  Differentiating gives,
for the Gaussian kind, the non-autonomous ODE

    d' = -d(1-d) / (2 log 2 - t(2d-1)),

integrated here by fixed-step RK4 and checked against the closed-form
root of the quadratic a d^2 - (1+a) d + d0 = 0 with a = t/(2 log 2).
A box-counting estimator over dyadic covers of the image of a
structured ray set provides the empirical side of the relation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tree import leaf_cdf
from . import weights as wp

__all__ = [
    "DimensionPath",
    "StructuredRaySet",
    "BoxCountFit",
    "EVEN_FREE",
    "FULL",
    "phi",
    "phi_inverse",
    "kpz_ode_solve",
    "kpz_closed_form",
    "box_counts",
    "box_dimension_estimate",
    "dimension_csv",
]

_2LOG2 = 2.0 * math.log(2.0)
_LN2 = math.log(2.0)


def phi(spec, t, h):
    """h - log2 E[W_t^h], the dimension map at time t; h in [0, 1]."""
    if not 0.0 <= h <= 1.0:
        raise ValueError("h must lie in [0, 1]")
    return h - wp.log_moment(spec, t, h) / _LN2


def phi_inverse(spec, t, y):
    """The h in [0, 1], to 1e-12, with phi(spec, t, h) = y; phi must be increasing
    on [0, 1], which holds for the Gaussian kind up to t = 2 log 2."""
    if not 0.0 <= y <= 1.0:
        raise ValueError("y must lie in [0, 1]")
    if y == 0.0 or y == 1.0:
        return y
    from scipy.optimize import brentq  # a slow import, made only where it is used

    return float(brentq(lambda h: phi(spec, t, h) - y, 0.0, 1.0, xtol=1e-12))


@dataclass(frozen=True)
class DimensionPath:
    times: np.ndarray
    d: np.ndarray
    d0: float


def _ode_rhs(t, d):
    den = _2LOG2 - t * (2.0 * d - 1.0)
    if den < 1e-12:
        raise ValueError("dimension ODE denominator vanished (t too close to 2 log 2)")
    return -d * (1.0 - d) / den


def kpz_ode_solve(d0, t_end, step):
    """RK4 integration of the Gaussian dimension ODE from d(0) = d0."""
    if not 0.0 <= d0 <= 1.0:
        raise ValueError("d0 must lie in [0, 1]")
    if not 0.0 <= t_end < _2LOG2:
        raise ValueError("t_end must lie in [0, 2 log 2)")
    if t_end == 0.0:
        return DimensionPath(times=np.zeros(1), d=np.full(1, d0), d0=float(d0))
    if step <= 0 or step > t_end:
        raise ValueError("step must lie in (0, t_end]")
    m = max(1, int(round(t_end / step)))
    h = t_end / m
    times = np.linspace(0.0, t_end, m + 1)
    d = np.empty(m + 1)
    d[0] = d0
    for i in range(m):
        t, y = times[i], d[i]
        k1 = _ode_rhs(t, y)
        k2 = _ode_rhs(t + h / 2, y + h / 2 * k1)
        k3 = _ode_rhs(t + h / 2, y + h / 2 * k2)
        k4 = _ode_rhs(t + h, y + h * k3)
        d[i + 1] = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return DimensionPath(times=times, d=d, d0=float(d0))


def kpz_closed_form(d0, t):
    """d(t) for the Gaussian kind: the [0,1] root of
    (t/2log2) d^2 - (1 + t/2log2) d + d0, continuous in t from d0."""
    if not 0.0 <= d0 <= 1.0:
        raise ValueError("d0 must lie in [0, 1]")
    if not 0.0 <= t <= _2LOG2:
        raise ValueError("t must lie in [0, 2 log 2]")
    a = t / _2LOG2
    if a == 0.0:
        return float(d0)
    disc = (1.0 + a) ** 2 - 4.0 * a * d0
    if disc < 0:
        raise ValueError("discriminant negative; inputs outside the valid domain")
    return float((1.0 + a - math.sqrt(disc)) / (2.0 * a))


def dimension_csv(path):
    """CSV rows (t, d_ode, d_closed_form) for a solved DimensionPath."""
    lines = ["t,d_ode,d_closed_form"]
    for t, d in zip(path.times, path.d):
        lines.append(f"{float(t)!r},{float(d)!r},{kpz_closed_form(path.d0, float(t))!r}")
    return "\r\n".join(lines) + "\r\n"


@dataclass(frozen=True)
class StructuredRaySet:
    """A deterministic ray set given by a constraint on path bits."""

    name: str

    def __post_init__(self):
        if self.name not in ("even_free", "full"):
            raise ValueError(f"unknown ray set {self.name!r}")

    @property
    def dimension(self):
        # even_free fills half the bit positions, full fills all.
        return 0.5 if self.name == "even_free" else 1.0

    def cylinders(self, depth):
        """Sorted path_bits of the depth-n cylinders meeting the set."""
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if self.name == "full":
            return np.arange(1 << depth, dtype=np.int64)
        free = [p for p in range(1, depth + 1) if p % 2 == 1]
        f = np.arange(1 << len(free), dtype=np.int64)
        bits = np.zeros_like(f)
        for j, pos in enumerate(free):
            bits |= ((f >> j) & 1) << (depth - pos)
        return np.sort(bits)


EVEN_FREE = StructuredRaySet("even_free")
FULL = StructuredRaySet("full")


def box_counts(flow, ray_set, scales):
    """Dyadic-cover counts of the image of the ray set under the flow's
    normalized distribution function, one count per scale."""
    cyl = ray_set.cylinders(flow.depth)
    cdf = leaf_cdf(flow)
    left = cdf[cyl]
    right = cdf[cyl + 1]
    counts = []
    for eps in scales:
        if not 0 < eps <= 1:
            raise ValueError("scales must lie in (0, 1]")
        lo = np.floor(left / eps).astype(np.int64)
        hi = np.ceil(right / eps).astype(np.int64) - 1
        hi = np.maximum(hi, lo)
        # merge overlapping [lo, hi] index ranges, then count cells
        starts = np.ones(len(lo), dtype=bool)
        if len(lo) > 1:
            starts[1:] = lo[1:] > np.maximum.accumulate(hi)[:-1] + 1
        glo = lo[starts]
        ghi = np.maximum.reduceat(hi, np.flatnonzero(starts))
        counts.append(int(np.sum(ghi - glo + 1)))
    return counts


@dataclass(frozen=True)
class BoxCountFit:
    dimension: float
    scales: tuple
    counts: tuple
    r_squared: float


def box_dimension_estimate(flow, ray_set, scales):
    """Slope of log N(eps) against log(1/eps) over the given scales."""
    if len(scales) < 2:
        raise ValueError("need at least 2 scales")
    counts = box_counts(flow, ray_set, scales)
    x = -np.log(np.asarray(scales, dtype=np.float64))
    y = np.log(np.asarray(counts, dtype=np.float64))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return BoxCountFit(
        dimension=float(slope),
        scales=tuple(float(s) for s in scales),
        counts=tuple(counts),
        r_squared=r2,
    )
