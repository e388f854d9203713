"""Mean-one multiplicative weight processes with independent increments.

A weight process W_t attaches to every tree vertex an independent copy of a
positive process with W_0 = 1, E[W_t] = 1, and independent multiplicative
increments: log W_t has stationary independent increments with cumulant
kappa, so E[W_t^h] = exp(t kappa(h)).  Two kinds are built in:

* ``gaussian``: W_t = exp(B_t - t/2), kappa(h) = h(h-1)/2.
* ``compound_poisson``: W_t = exp(L_t - t lam (M(1)-1)) for a compound
  Poisson L_t with rate lam and normal jumps N(mu_J, sd_J^2), where
  M(h) = E[e^{h J}]; kappa(h) = lam (M(h) - 1 - h (M(1) - 1)).

Both have every real moment finite.  E[W_t log W_t] = t kappa'(1) >= 0 by
Jensen (strictly positive for nondegenerate weights); for the Gaussian kind
it equals t/2.

Every increment is addressed by (seed, vertex, step index): identical
addresses give identical increments, distinct ones independent ones.
Every draw runs through one code path, ``log_increments_multi``, for a
batch of seeds and a range of vertices in level-major flat order:
``log_increments`` is one row of it, and a one-vertex range reproduces
any simulated increment exactly.  ``engine._evolve`` passes it an increments
buffer (or the state itself, for a single draw) and, for compound Poisson,
a lane buffer that every step and block of an evolution reuses.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, pdtr

from . import rng

__all__ = [
    "GAUSSIAN",
    "COMPOUND_POISSON",
    "WeightSpec",
    "gaussian_spec",
    "compound_poisson_spec",
    "spec_from_config",
    "spec_to_config",
    "moment",
    "log_moment",
    "w_log_w",
    "log_increments",
    "log_increments_multi",
]

GAUSSIAN = "gaussian"
COMPOUND_POISSON = "compound_poisson"
KINDS = (GAUSSIAN, COMPOUND_POISSON)


@dataclass(frozen=True)
class WeightSpec:
    """Distribution family of the per-vertex weight process."""

    kind: str
    rate: float = None
    jump_mean: float = None
    jump_sd: float = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "compound_poisson":
            if self.rate is None or self.rate <= 0:
                raise ValueError("compound_poisson requires rate > 0")
            if self.jump_sd is None or self.jump_sd < 0:
                raise ValueError("compound_poisson requires jump_sd >= 0")
            if self.jump_mean is None:
                raise ValueError("compound_poisson requires jump_mean")
            if not all(map(math.isfinite, (self.rate, self.jump_mean, self.jump_sd))):
                raise ValueError("compound_poisson requires finite rate, jump_mean and jump_sd")
        elif self.rate is not None or self.jump_mean is not None or self.jump_sd is not None:
            raise ValueError("gaussian kind takes no jump parameters")


def gaussian_spec():
    return WeightSpec(kind="gaussian")


def compound_poisson_spec(rate=1.0, jump_mean=0.0, jump_sd=0.3):
    return WeightSpec(kind="compound_poisson", rate=rate, jump_mean=jump_mean, jump_sd=jump_sd)


def spec_from_config(config):
    """Build a spec from the wire dict {kind, rate?, jump_mean?, jump_sd?}."""
    extra = set(config) - {"kind", "rate", "jump_mean", "jump_sd"}
    if extra:
        raise ValueError(f"unknown config fields {sorted(extra)}")
    kind = config.get("kind")
    try:
        jump = {k: float(v) for k, v in config.items() if k != "kind"}
    except TypeError as exc:  # a list or null, say
        raise ValueError(f"jump fields must be numbers: {exc}") from None
    if kind == "gaussian":
        # WeightSpec rejects jump fields for this kind
        return WeightSpec(kind="gaussian", **jump)
    if kind == "compound_poisson":
        # a field left out takes its default from compound_poisson_spec
        return compound_poisson_spec(**jump)
    raise ValueError(f"unknown weight kind {kind!r}")


def spec_to_config(spec):
    if spec.kind == "gaussian":
        return {"kind": "gaussian"}
    return {
        "kind": "compound_poisson",
        "rate": spec.rate,
        "jump_mean": spec.jump_mean,
        "jump_sd": spec.jump_sd,
    }


def _jump_mgf(spec, h):
    # E[e^{h J}] for the normal jump law.
    return math.exp(h * spec.jump_mean + 0.5 * (h * spec.jump_sd) ** 2)


def _cumulant(spec, h):
    # kappa(h) with E[W_t^h] = exp(t kappa(h)); kappa(0) = kappa(1) = 0.
    if spec.kind == "gaussian":
        return 0.5 * h * (h - 1.0)
    lam = spec.rate
    return lam * (_jump_mgf(spec, h) - 1.0 - h * (_jump_mgf(spec, 1.0) - 1.0))


def log_moment(spec, t, h):
    """log E[W_t^h] = t kappa(h)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return t * _cumulant(spec, h)


def moment(spec, t, h):
    """E[W_t^h]; finite for every real h for the built-in kinds."""
    return math.exp(log_moment(spec, t, h))


def w_log_w(spec, t):
    """E[W_t log W_t] = t kappa'(1), the entropy rate of the weight.

    Nonnegative by Jensen applied to the mean-one variable W_t.  Gaussian:
    t/2.  Compound Poisson: t lam (M'(1) - M(1) + 1) with
    M'(1) = (mu_J + sd_J^2) M(1).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if spec.kind == "gaussian":
        return 0.5 * t
    m1 = _jump_mgf(spec, 1.0)
    m1p = (spec.jump_mean + spec.jump_sd**2) * m1
    return t * spec.rate * (m1p - m1 + 1.0)


def _poisson_counts(u, mu, out=None):
    """Poisson(mu) counts by inversion: the smallest k with pdtr(k, mu) >= u.

    One CDF table over mu +- (8 sd + 30) serves every uniform of the call;
    the rare uniform past either end goes to ``poisson.ppf``.  The two agree
    except where ``ppf``, through ``pdtrik``, misses by one: within an ulp
    above a CDF value, and far in the upper tail of a large mu.  ``out``,
    if given, is a contiguous float64 array of ``u``'s shape that receives
    the counts.
    """
    half = 8.0 * math.sqrt(mu) + 30.0
    lo = max(0, int(mu - half))
    cdf = pdtr(np.arange(lo, int(mu + half) + 1), mu)
    if out is None:
        out = np.empty(u.shape)
    # searchsorted copies a strided ``u`` first; a contiguous one it reads
    out[...] = u
    idx = np.searchsorted(cdf, out, side="left")
    np.add(idx, lo, out=out)
    past = (idx == len(cdf)) | ((idx == 0) & (lo > 0))
    if past.any():
        from scipy.stats import poisson  # a slow import, made only where it is used

        out[past] = poisson.ppf(u[past], mu)
    return out


def _lane_buffer(spec, shape):
    """Scratch that ``log_increments_multi`` needs for ``shape`` increments:
    the (R, count, 2) uniforms of a compound Poisson draw; none for Gaussian."""
    return np.empty(shape + (2,)) if spec.kind == COMPOUND_POISSON else None


def log_increments(spec, duration, seed, step_index, first_flat, count):
    """log of the weight increments over a step of ``duration`` for a flat vertex range.

    One row of ``log_increments_multi``.  ``first_flat``/``count`` address
    vertices in level-major flat order (see ``tree.flat_index``).  The
    built-in kinds have stationary increments, so the step's start time
    does not enter.
    """
    return log_increments_multi(spec, duration, [seed], step_index, first_flat, count)[0]


def log_increments_multi(
    spec, duration, seeds, step_index, first_flat, count, out=None, *, _lanes=None
):
    """Log weight increments over a step of ``duration`` per seed; shape (len(seeds), count).

    Row r holds the increments keyed by ``seeds[r]``.  ``out``, if given,
    is a C-contiguous float64 array of that shape that receives the
    increments and is returned.  ``_lanes`` is internal: ``engine._evolve``
    passes one ``_lane_buffer`` that every step of an evolution reuses.
    """
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    shape = (len(seeds), count)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {shape}")
    if duration == 0.0:
        out.fill(0.0)
        return out
    if spec.kind == GAUSSIAN:
        # one uniform per vertex-step, drawn into ``out`` and turned into
        # the increments there
        rng.vertex_uniforms_multi(seeds, step_index, first_flat, count, 1, out=out[..., None])
        ndtri(out, out=out)
        out *= math.sqrt(duration)
        out -= 0.5 * duration
        return out
    # a Poisson count and a normal per vertex-step, then the jump sum
    # jump_mean * n + (jump_sd * sqrt(n)) * z, formed in that order
    lanes = _lane_buffer(spec, shape) if _lanes is None else _lanes
    rng.vertex_uniforms_multi(seeds, step_index, first_flat, count, 2, out=lanes)
    u, z = lanes[..., 0], lanes[..., 1]
    lam = spec.rate
    n_jumps = _poisson_counts(u, lam * duration, out=out)
    ndtri(z, out=z)
    np.sqrt(n_jumps, out=u)
    u *= spec.jump_sd
    u *= z
    n_jumps *= spec.jump_mean
    n_jumps += u
    n_jumps -= duration * lam * (_jump_mgf(spec, 1.0) - 1.0)
    return out
