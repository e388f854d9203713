"""Pressure function, moment exponents, and regularity classification.

The pressure of a flow at exponent h is the exponential growth rate in k
of the level sums sum_{|v|=k} mass(v)^h.  Together with the weight
moments it controls whether the cascade of the flow survives as a
nonzero measure: with m(h) = E[W_t^h], the combined exponent

    alpha_t(h) = pressure(h) + log m(h)

is negative on an interval (1, h_t) exactly in the regular regime, and
the classification boundary is w_log_w(spec, t) + pressure'(1+) = 0.

The uniform measure is handled through the THETA tag, for which the
pressure is the closed form (1 - h) log 2; finite flows get a
least-squares estimate over their deepest levels, reported with a fit
residual since finite data cannot certify a limit.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .tree import truncate
from . import weights as wp

__all__ = [
    "THETA",
    "PressureFit",
    "RegularityReport",
    "pressure",
    "pressure_fit",
    "pressure_derivative",
    "alpha",
    "critical_h",
    "classify_regularity",
    "lifetime",
    "regularity_report",
    "report_to_json",
    "report_curves_csv",
]

_LOG2 = math.log(2.0)

REGULAR = "Regular"
IRREGULAR = "Irregular"
BOUNDARY = "Boundary"


class _Theta:
    """Tag for the self-similar uniform measure at unbounded depth.

    Closed forms replace fits wherever this tag is accepted.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "THETA"


THETA = _Theta()


def _is_theta(measure):
    return measure is THETA or (isinstance(measure, str) and measure.lower() == "theta")


def _log_power_sum(masses, h):
    # log sum m^h, tolerating zero masses (they contribute nothing for h > 0
    # and are excluded from the h = 0 support count).  These are the steps of
    # scipy.special.logsumexp (scipy 1.17) in its order, so the bits match,
    # without its array-API dispatch, which costs more than the sum: the m
    # tied maxima leave the shifted sum and return as log(m).
    positive = masses[masses > 0]
    if positive.size == 0:
        raise ValueError("level has no positive mass")
    a = h * np.log(positive)
    a_max = np.max(a)
    top = a == a_max
    m = np.count_nonzero(top)
    a[top] = -np.inf
    s = np.sum(np.exp(a - a_max)) / m
    return float(np.log1p(s) + np.log(m) + a_max)


@dataclass(frozen=True)
class PressureFit:
    """Least-squares pressure estimate over the deepest half of the levels."""

    h: float
    depths: tuple
    log_sums: tuple
    slope: float
    intercept: float
    residual: float


def pressure_fit(flow, h, max_depth=None):
    if h < 0:
        raise ValueError("h must be nonnegative")
    if max_depth is not None:
        flow = truncate(flow, max_depth)
    n = flow.depth
    if n < 4:
        raise ValueError("flow too shallow for a pressure fit (need depth >= 4)")
    ks = np.arange(n // 2 + 1, n + 1)
    log_sums = np.array([_log_power_sum(flow.level(int(k)), h) for k in ks])
    slope, intercept = np.polyfit(ks, log_sums, 1)
    residual = float(np.max(np.abs(slope * ks + intercept - log_sums)))
    return PressureFit(
        h=float(h),
        depths=tuple(int(k) for k in ks),
        log_sums=tuple(float(x) for x in log_sums),
        slope=float(slope),
        intercept=float(intercept),
        residual=residual,
    )


def pressure(measure, h, max_depth=None):
    """Growth rate of log sum_{|v|=k} mass(v)^h in k.

    THETA gives the closed form (1 - h) log 2; a Flow gives the fitted
    slope over its deepest half of levels (depth >= 4 required).
    """
    if _is_theta(measure):
        if h < 0:
            raise ValueError("h must be nonnegative")
        return (1.0 - h) * _LOG2
    return pressure_fit(measure, h, max_depth=max_depth).slope


def pressure_derivative(measure, h=1.0, side="+", step=1e-4, max_depth=None):
    """One-sided derivative of the pressure at h, Richardson-refined.

    One-sided because the pressure may be kinked; side "+" or "-".
    """
    if side not in ("+", "-"):
        raise ValueError('side must be "+" or "-"')
    if _is_theta(measure):
        return -_LOG2
    sgn = 1.0 if side == "+" else -1.0

    def diff(s):
        p0 = pressure(measure, h, max_depth=max_depth)
        p1 = pressure(measure, h + sgn * s, max_depth=max_depth)
        return sgn * (p1 - p0) / s

    d1 = diff(step)
    d2 = diff(step / 2.0)
    return 2.0 * d2 - d1


def alpha(measure, spec, t, h, max_depth=None):
    """pressure(measure, h) + log E[W_t^h]; negative where moments contract."""
    return pressure(measure, h, max_depth=max_depth) + wp.log_moment(spec, t, h)


def critical_h(measure, spec, t, h_max=64.0, tol=1e-12, max_depth=None):
    """Largest h >= 1 with alpha_t < 0 on (1, h).

    alpha_t(1) = 0 always, so the sought point is the second root of
    alpha_t above 1; dividing out the (h - 1) factor leaves a bracketable
    function.  Returns 1.0 when alpha_t already increases at 1+, and
    math.inf when alpha_t stays negative up to h_max.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    slope_at_one = pressure_derivative(measure, 1.0, "+", max_depth=max_depth)
    alpha_slope = slope_at_one + wp.w_log_w(spec, t)
    if alpha_slope >= 0:
        return 1.0

    def g(h):
        if h == 1.0:
            return alpha_slope
        return alpha(measure, spec, t, h, max_depth=max_depth) / (h - 1.0)

    lo, hi = 1.0, 2.0
    while g(hi) < 0:
        lo, hi = hi, hi * 2.0
        if hi > h_max:
            return math.inf
    from scipy.optimize import brentq  # a slow import, made only where it is used

    return float(brentq(g, lo, hi, xtol=tol))


def _classification_tol(measure, step, max_depth):
    if _is_theta(measure):
        return 1e-6
    res_p = pressure_fit(measure, 1.0 + step, max_depth=max_depth).residual
    res_m = pressure_fit(measure, 1.0 - step, max_depth=max_depth).residual
    return max(1e-6, (res_p + res_m) / step)


def classify_regularity(measure, spec, t, tol=None, step=1e-4, max_depth=None):
    """Regular, Irregular, or Boundary for the cascade of measure by W_t.

    Regular when w_log_w + pressure'(1+) < -tol; Irregular when
    w_log_w + pressure'(1-) > tol.  The default band is 1e-6 for THETA
    and fit-residual-scaled for finite flows.
    """
    if tol is None:
        tol = _classification_tol(measure, step, max_depth)
    wlw = wp.w_log_w(spec, t)
    d_plus = pressure_derivative(measure, 1.0, "+", step=step, max_depth=max_depth)
    d_minus = pressure_derivative(measure, 1.0, "-", step=step, max_depth=max_depth)
    if wlw + d_plus < -tol:
        return REGULAR
    if wlw + d_minus > tol:
        return IRREGULAR
    return BOUNDARY


def lifetime(measure, max_depth=None):
    """-2 pressure'(1+): the time horizon of the Gaussian-driven evolution.

    2 log 2 exactly for THETA, and at most that for any flow.
    """
    if _is_theta(measure):
        return 2.0 * _LOG2
    return -2.0 * pressure_derivative(measure, 1.0, "+", max_depth=max_depth)


@dataclass(frozen=True)
class RegularityReport:
    measure: str
    spec: wp.WeightSpec
    t: float
    pressure_samples: tuple
    alpha_samples: tuple
    h_t: float
    lifetime: float
    classification: str
    derivative_estimate: float
    fit_residual: float


def regularity_report(measure, spec, t, h_grid=None, max_depth=None):
    """Full diagnostics for (measure, spec, t): curves, h_t, lifetime, class."""
    if h_grid is None:
        h_grid = np.linspace(0.0, 4.0, 17)
    h_grid = np.asarray(h_grid, dtype=np.float64)
    theta = _is_theta(measure)
    pressure_samples = []
    alpha_samples = []
    residual = 0.0
    for h in h_grid:
        h = float(h)
        if theta:
            p = pressure(THETA, h)
        else:
            fit = pressure_fit(measure, h, max_depth=max_depth)
            p = fit.slope
            residual = max(residual, fit.residual)
        pressure_samples.append((h, p))
        alpha_samples.append((h, p + wp.log_moment(spec, t, h)))
    return RegularityReport(
        measure="theta" if theta else f"flow(depth={measure.depth})",
        spec=spec,
        t=float(t),
        pressure_samples=tuple(pressure_samples),
        alpha_samples=tuple(alpha_samples),
        h_t=critical_h(measure, spec, t, max_depth=max_depth),
        lifetime=lifetime(measure, max_depth=max_depth),
        classification=classify_regularity(measure, spec, t, max_depth=max_depth),
        derivative_estimate=pressure_derivative(measure, 1.0, "+", max_depth=max_depth),
        fit_residual=residual,
    )


def report_to_json(report):
    doc = {
        "measure": report.measure,
        "spec": wp.spec_to_config(report.spec),
        "t": report.t,
        "pressure_samples": [[h, v] for h, v in report.pressure_samples],
        "alpha_samples": [[h, v] for h, v in report.alpha_samples],
        # JSON has no infinities: "inf" or "-inf" stands for one
        "h_t": str(report.h_t) if math.isinf(report.h_t) else report.h_t,
        "lifetime": report.lifetime,
        "classification": report.classification,
        "derivative_estimate": report.derivative_estimate,
        "fit_residual": report.fit_residual,
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def report_curves_csv(report):
    """CSV of (h, pressure, alpha) rows for plotting."""
    lines = ["h,pressure,alpha"]
    for (h, p), (_, a) in zip(report.pressure_samples, report.alpha_samples):
        lines.append(f"{h!r},{p!r},{a!r}")
    return "\r\n".join(lines) + "\r\n"
