"""Pressure function, moment exponents, and regularity classification.

The pressure of a flow at exponent h is the exponential growth rate in k
of the level sums sum_{|v|=k} mass(v)^h.  Together with the weight
moments it controls whether the cascade of the flow survives as a
nonzero measure: with m(h) = E[W_t^h], the combined exponent

    alpha_t(h) = pressure(h) + log m(h)

is negative on an interval (1, h_t) exactly in the regular regime, and
the classification boundary is w_log_w(spec, t) + pressure'(1+) = 0.

Every analysis reads one pressure curve per (measure, max_depth),
``_Curve``, the one place that tells the THETA tag from a flow: THETA
has closed forms, a flow least-squares fits over its deepest levels,
each exponent fitted once per curve and reported with a fit residual,
since finite data cannot certify a limit.
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
_STEP = 1e-4  # the difference step of the one-sided derivatives
_H_MAX = 64.0  # critical_h reports math.inf when alpha_t stays negative up to here
_H_TOL = 1e-12  # brentq's xtol for critical_h
_BAND = 1e-6  # the narrowest classification band, and THETA's

REGULAR = "Regular"
IRREGULAR = "Irregular"
BOUNDARY = "Boundary"


class _Theta:
    """Tag for the self-similar uniform measure at unbounded depth: closed forms, no fits."""

    def __repr__(self):
        return "THETA"


THETA = _Theta()


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


class _Curve:
    """The pressure curve of THETA or of a flow cut at ``max_depth``.

    ``fit(h)`` is (pressure, fit residual); a flow's curve keeps its fits,
    so each exponent is fitted once however often it is read.
    """

    def __init__(self, measure, max_depth=None):
        self.theta = measure is THETA
        self.label = "theta" if self.theta else f"flow(depth={measure.depth})"
        if not self.theta:
            self._flow = measure if max_depth is None else truncate(measure, max_depth)
            self._fits = {}

    def fit(self, h):
        if h < 0:
            raise ValueError("h must be nonnegative")
        if self.theta:
            return (1.0 - h) * _LOG2, 0.0
        if h not in self._fits:
            fit = pressure_fit(self._flow, h)
            self._fits[h] = fit.slope, fit.residual
        return self._fits[h]

    def derivative(self, h, side):
        """One-sided derivative at h, Richardson-refined; -log 2 for THETA."""
        if side not in ("+", "-"):
            raise ValueError('side must be "+" or "-"')
        if self.theta:
            return -_LOG2
        sgn = 1.0 if side == "+" else -1.0
        p0 = self.fit(h)[0]
        d1, d2 = (sgn * (self.fit(h + sgn * s)[0] - p0) / s for s in (_STEP, _STEP / 2.0))
        return 2.0 * d2 - d1


def pressure(measure, h, max_depth=None):
    """Growth rate of log sum_{|v|=k} mass(v)^h in k.

    THETA gives the closed form (1 - h) log 2; a Flow gives the fitted
    slope over its deepest half of levels (depth >= 4 required).
    """
    return _Curve(measure, max_depth).fit(h)[0]


def pressure_derivative(measure, h=1.0, side="+", max_depth=None):
    """One-sided derivative of the pressure at h, Richardson-refined.

    One-sided because the pressure may be kinked; side "+" or "-".
    """
    return _Curve(measure, max_depth).derivative(h, side)


def alpha(measure, spec, t, h, max_depth=None):
    """pressure(measure, h) + log E[W_t^h]; negative where moments contract."""
    return pressure(measure, h, max_depth=max_depth) + wp.log_moment(spec, t, h)


def _critical_h(curve, spec, t, d_plus):
    # critical_h of the curve, given its right derivative at 1
    alpha_slope = d_plus + wp.w_log_w(spec, t)
    if alpha_slope >= 0:
        return 1.0

    def g(h):
        if h == 1.0:
            return alpha_slope
        return (curve.fit(h)[0] + wp.log_moment(spec, t, h)) / (h - 1.0)

    lo, hi = 1.0, 2.0
    while g(hi) < 0:
        lo, hi = hi, hi * 2.0
        if hi > _H_MAX:
            return math.inf
    from scipy.optimize import brentq  # a slow import, made only where it is used

    return float(brentq(g, lo, hi, xtol=_H_TOL))


def critical_h(measure, spec, t, max_depth=None):
    """Largest h >= 1 with alpha_t < 0 on (1, h).

    alpha_t(1) = 0 always, so the sought point is the second root of
    alpha_t above 1; dividing out the (h - 1) factor leaves a bracketable
    function.  Returns 1.0 when alpha_t already increases at 1+, and
    math.inf when alpha_t stays negative up to h = 64.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    curve = _Curve(measure, max_depth)
    return _critical_h(curve, spec, t, curve.derivative(1.0, "+"))


def _classify(curve, spec, t, d_plus, d_minus):
    # classify_regularity of the curve, given its one-sided derivatives at 1
    res = curve.fit(1.0 + _STEP)[1] + curve.fit(1.0 - _STEP)[1]
    tol = max(_BAND, res / _STEP)
    wlw = wp.w_log_w(spec, t)
    if wlw + d_plus < -tol:
        return REGULAR
    if wlw + d_minus > tol:
        return IRREGULAR
    return BOUNDARY


def classify_regularity(measure, spec, t, max_depth=None):
    """Regular, Irregular, or Boundary for the cascade of measure by W_t.

    Regular when w_log_w + pressure'(1+) < -tol; Irregular when
    w_log_w + pressure'(1-) > tol.  The band tol is 1e-6 for THETA and
    the fit residuals at 1 +- 1e-4 over 1e-4, at least 1e-6, for flows.
    """
    curve = _Curve(measure, max_depth)
    return _classify(curve, spec, t, curve.derivative(1.0, "+"), curve.derivative(1.0, "-"))


def lifetime(measure, max_depth=None):
    """-2 pressure'(1+): the time horizon of the Gaussian-driven evolution.

    2 log 2 exactly for THETA, and at most that for any flow.
    """
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
    curve = _Curve(measure, max_depth)
    fits = [(h, *curve.fit(h)) for h in map(float, np.asarray(h_grid, dtype=np.float64))]
    d_plus, d_minus = curve.derivative(1.0, "+"), curve.derivative(1.0, "-")
    return RegularityReport(
        measure=curve.label,
        spec=spec,
        t=float(t),
        pressure_samples=tuple((h, p) for h, p, _ in fits),
        alpha_samples=tuple((h, p + wp.log_moment(spec, t, h)) for h, p, _ in fits),
        h_t=_critical_h(curve, spec, t, d_plus),
        lifetime=-2.0 * d_plus,
        classification=_classify(curve, spec, t, d_plus, d_minus),
        derivative_estimate=d_plus,
        fit_residual=max([0.0] + [r for _, _, r in fits]),
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
