"""Statistical pass/fail rendering of the structural identities.

Each test reduces one identity to a scalar statistic with a configured
threshold: two-sample KS for the one-step-vs-composed marginal law,
z-scores for martingale means, exact relative error for the pathwise
composition identity, and interval checks for the Hölder slope and the
quadratic-variation match.  Every distributional test has an adversarial
control (wrong composition duration, uncompensated weights) that must
come out Fail; a suite therefore records the expected verdict per entry
and succeeds only when every actual verdict matches it.  A test whose
replica budget is below its declared power floor reports Inconclusive
rather than a verdict it cannot support.

The replica-batched tests (martingale means, the Markov marginal) read
their states from engine's one evolution loop, ``engine._evolve_blocks``,
in blocks of at most ``engine._BLOCK`` state elements: a step's state
stays within 256 KiB whatever the replica count (4 replicas at depth 12;
past depth 13 one replica is a block, as large as its depth makes it).
Rows are independent, so every statistic is the same bit for bit whatever
the block size.  Blocks run one after another in the calling thread.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .rng import derive_seed, derive_seeds
from .tree import uniform_flow
from . import engine, observables, regularity, transport
from . import weights as wp

__all__ = [
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
    "TestReport",
    "SuiteEntry",
    "SuiteConfig",
    "markov_marginal",
    "martingale",
    "test_composition",
    "test_regularity_propagation",
    "test_holder_slope",
    "test_qv_agreement",
    "default_suite",
    "quick_suite",
    "run_suite",
    "unexpected_reports",
    "reports_to_json",
]

PASS = "Pass"
FAIL = "Fail"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class TestReport:
    test_name: str
    statistic: float
    threshold: float
    replicas: int
    seed: int
    verdict: str
    expected: str = PASS
    detail: str = ""


def _verdict(ok, replicas, min_replicas):
    if replicas < min_replicas:
        return INCONCLUSIVE
    return PASS if ok else FAIL


def _root_samples(base, spec, times, seeds):
    """Root masses at the given times for one path per seed; (R, T) array."""
    durations = np.diff(np.asarray(times, dtype=np.float64), prepend=0.0)
    slices = engine._level_slices(base.depth)
    out = np.empty((len(seeds), len(durations)))
    for rows, j, cum in engine._evolve_blocks(spec, seeds, durations, base.depth):
        if j:  # j = 0 is the zero state at time 0
            out[rows, j - 1] = engine._leaf_masses(base.leaves, cum, slices).sum(axis=1)
    return out


def markov_marginal(
    base=None,
    spec=None,
    t=0.3,
    s=0.3,
    depth=12,
    replicas=2000,
    seed=0,
    threshold=0.01,
    min_replicas=200,
    controls=(False, True),
):
    """KS equality of the root-mass law at t+s: one step vs evolve-then-cascade.

    One report per entry of ``controls``: False is the test, True its
    control, which composes with duration s/2 instead of s and must Fail.
    All share the direct samples and the time-t states; each window (s, or
    s/2 for the control) cascades them by the same fresh uniforms, so each
    report equals the one a call with that entry alone gives.
    """
    if base is None:
        base = uniform_flow(depth)
    if spec is None:
        spec = wp.gaussian_spec()
    direct = _root_samples(base, spec, [t + s], derive_seeds(derive_seed(seed, 0), replicas))[:, 0]
    evolve_seeds, fresh_seeds = (derive_seeds(derive_seed(seed, k), replicas) for k in (1, 2))
    windows = [s / 2.0 if control else s for control in controls]
    composed = np.empty((replicas, len(windows)))
    for rows, j, cum in engine._evolve_blocks(spec, evolve_seeds, [t], base.depth):
        if j:
            leaves_t = engine._leaf_masses(base.leaves, cum, engine._level_slices(base.depth))
            for c, w in enumerate(windows):
                for block, roots in engine._cascade_leaves(leaves_t, spec, fresh_seeds[rows], [w]):
                    composed[rows][block, c] = roots.sum(axis=1)

    from scipy.stats import ks_2samp  # a slow import, made only where it is used

    reports = []
    for c, (control, s_used) in enumerate(zip(controls, windows)):
        p_value = float(ks_2samp(direct, composed[:, c]).pvalue)
        reports.append(
            TestReport(
                test_name="markov_marginal_control" if control else "markov_marginal",
                statistic=p_value,
                threshold=threshold,
                replicas=replicas,
                seed=seed,
                verdict=_verdict(p_value > threshold, replicas, min_replicas),
                detail=f"t={t} s={s_used} depth={base.depth}",
            )
        )
    return reports


def martingale(
    base=None,
    spec=None,
    times=(0.2, 0.4, 0.6),
    depth=12,
    replicas=2000,
    seed=0,
    threshold=4.0,
    min_replicas=200,
    controls=(False, True),
):
    """Replica-mean root mass against the initial mass, max |z| over times.

    One report per entry of ``controls``, all scored on the same root
    samples: False is the test, True its control, which removes the
    mean-one compensation by scaling each root by exp(depth * t / 2); its
    means drift and it must Fail.  The control is defined for the Gaussian
    kind only.  The default times stay below log 2: the binary Gaussian
    cascade's root mass has finite variance only while
    2 (1/2)^2 E[W_t^2] = e^t / 2 < 1.
    """
    if base is None:
        base = uniform_flow(depth)
    if spec is None:
        spec = wp.gaussian_spec()
    if any(controls) and spec.kind != wp.GAUSSIAN:
        raise ValueError("uncompensated control is defined for the continuous kind")
    times = tuple(float(t) for t in times)
    if not times or times[0] < 0 or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError(f"times must be nonempty, nonnegative and nondecreasing, got {times}")
    samples = _root_samples(base, spec, times, derive_seeds(seed, replicas))
    reports = []
    for uncompensated in controls:
        roots = samples
        if uncompensated:
            roots = roots * np.exp(base.depth * np.asarray(times) / 2.0)[None, :]
        means = roots.mean(axis=0)
        ses = roots.std(axis=0, ddof=1) / math.sqrt(replicas)
        # Where every replica equals the initial mass (a depth-0 base) there
        # is neither spread nor deviation: z is 0, not 0/0.
        exact = np.all(roots == base.root_mass, axis=0)
        z = np.abs(means - base.root_mass) / np.where(exact, np.inf, ses)
        stat = float(np.max(z))
        reports.append(
            TestReport(
                test_name="martingale_control" if uncompensated else "martingale",
                statistic=stat,
                threshold=threshold,
                replicas=replicas,
                seed=seed,
                verdict=_verdict(stat <= threshold, replicas, min_replicas),
                detail=f"times={times} depth={base.depth}",
            )
        )
    return reports


def test_composition(
    depth=10,
    t_end=1.0,
    step=0.1,
    spec=None,
    seed=0,
    threshold=1e-12,
):
    """Replay every stored pair (i, j) and compare all vertex masses."""
    if spec is None:
        spec = wp.gaussian_spec()
    base = uniform_flow(depth)
    grid = engine.make_grid(t_end, step)
    if len(grid) < 2:
        raise ValueError(f"composition needs at least two grid times, got t_end={t_end}")
    path = engine.simulate_path(base, spec, grid, seed=seed)

    def worst_for_start(i):
        worst = 0.0
        for j in range(i + 1, len(grid)):
            replayed = engine.compose_from_path(path, i, j)
            direct = path.masses_flat(j)
            worst = max(worst, float(np.max(np.abs(replayed.flat / direct - 1.0))))
        return worst

    stat = max(worst_for_start(i) for i in range(len(grid) - 1))
    return TestReport(
        test_name="composition",
        statistic=stat,
        threshold=threshold,
        replicas=1,
        seed=seed,
        verdict=PASS if stat <= threshold else FAIL,
        detail=f"depth={depth} grid=[0,{t_end}] step={step}",
    )


# test_regularity_propagation: the pressure exponents it checks, the slack
# over the propagated bound, and the fraction of replicas that must hold it
REGULARITY_H_VALUES = (1.1, 1.3, 1.5)
REGULARITY_TOL = 0.05
REGULARITY_MIN_FRACTION = 0.95


def test_regularity_propagation(depth=16, t=0.3, replicas=24, seed=0, min_replicas=16, spec=None):
    """Snapshots keep fitted pressure under the propagated analytic bound."""
    if spec is None:
        spec = wp.gaussian_spec()
    base = uniform_flow(depth)
    seeds = derive_seeds(seed, replicas)

    def one(r):
        path = engine.simulate_path(base, spec, [0.0, t], seed=int(seeds[r]), snapshot_times=[t])
        snap = path.snapshot(0)
        for h in REGULARITY_H_VALUES:
            bound = regularity.pressure(regularity.THETA, h) + wp.log_moment(spec, t, h)
            if regularity.pressure(snap, h) > bound + REGULARITY_TOL:
                return False
        return True

    good = [one(r) for r in range(replicas)]
    frac = sum(good) / replicas
    return TestReport(
        test_name="regularity_propagation",
        statistic=float(frac),
        threshold=REGULARITY_MIN_FRACTION,
        replicas=replicas,
        seed=seed,
        verdict=_verdict(frac >= REGULARITY_MIN_FRACTION, replicas, min_replicas),
        detail=f"depth={depth} t={t} h={REGULARITY_H_VALUES}",
    )


def test_holder_slope(
    depth=10,
    t_end=0.5,
    step=2.0**-7,
    replicas=6,
    pair_budget=32,
    seed=0,
    bounds=(0.40, 0.60),
    min_replicas=4,
    spec=None,
):
    """Pooled log-log Wasserstein slope across dyadic lags sits near 1/2."""
    if spec is None:
        spec = wp.gaussian_spec()
    base = uniform_flow(depth)
    grid = engine.make_grid(t_end, step)
    seeds = derive_seeds(seed, replicas)
    paths = (engine.stream_path(base, spec, grid, seed=int(s)) for s in seeds)
    fit = transport.holder_exponent(paths, pair_budget=pair_budget)
    lo, hi = bounds
    ok = (not fit.degenerate) and lo <= fit.slope <= hi
    return TestReport(
        test_name="holder_slope",
        statistic=fit.slope,
        threshold=hi,
        replicas=replicas,
        seed=seed,
        verdict=_verdict(ok, replicas, min_replicas),
        detail=f"bounds={bounds} depth={depth} step={step}",
    )


def test_qv_agreement(
    depth=12,
    t_end=0.3,
    step=1e-3,
    replicas=16,
    seed=0,
    threshold=0.15,
    min_replicas=8,
    spec=None,
):
    """Mean relative error of realized vs predicted log-root quadratic variation."""
    if spec is None:
        spec = wp.gaussian_spec()
    base = uniform_flow(depth)
    grid = engine.make_grid(t_end, step)
    seeds = derive_seeds(seed, replicas)
    paths = (engine.stream_path(base, spec, grid, seed=int(s)) for s in seeds)
    rels = [observables.realized_vs_predicted_qv(path).rel_err for path in paths]
    stat = float(np.mean(rels))
    return TestReport(
        test_name="qv_agreement",
        statistic=stat,
        threshold=threshold,
        replicas=replicas,
        seed=seed,
        verdict=_verdict(stat <= threshold, replicas, min_replicas),
        detail=f"depth={depth} T'={t_end} step={step}",
    )


_REGISTRY = {
    "markov_marginal": lambda **kw: markov_marginal(controls=(False,), **kw)[0],
    "markov_marginal_control": lambda **kw: markov_marginal(controls=(True,), **kw)[0],
    "martingale": lambda **kw: martingale(controls=(False,), **kw)[0],
    "martingale_control": lambda **kw: martingale(controls=(True,), **kw)[0],
    "composition": test_composition,
    "regularity_propagation": test_regularity_propagation,
    "holder_slope": test_holder_slope,
    "qv_agreement": test_qv_agreement,
}


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    expected: str = PASS
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    entries: tuple = ()


def default_suite(seed=42):
    return SuiteConfig(
        seed=seed,
        entries=(
            SuiteEntry("composition"),
            SuiteEntry("markov_marginal"),
            SuiteEntry("markov_marginal_control", expected=FAIL),
            SuiteEntry("martingale"),
            SuiteEntry("martingale_control", expected=FAIL),
            SuiteEntry("regularity_propagation"),
            SuiteEntry("holder_slope"),
            SuiteEntry("qv_agreement"),
        ),
    )


def quick_suite(seed=42):
    return SuiteConfig(
        seed=seed,
        entries=(
            SuiteEntry("composition", params={"depth": 8, "t_end": 0.5}),
            SuiteEntry("markov_marginal", params={"depth": 10, "replicas": 800}),
            SuiteEntry(
                "markov_marginal_control",
                expected=FAIL,
                params={"depth": 10, "replicas": 800},
            ),
            SuiteEntry("martingale", params={"depth": 10, "replicas": 800}),
            SuiteEntry(
                "martingale_control",
                expected=FAIL,
                params={"depth": 10, "replicas": 800},
            ),
            SuiteEntry("qv_agreement", params={"depth": 10, "replicas": 8}),
        ),
    )


def _entry_seed(suite_seed, name):
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return derive_seed(suite_seed, tag)


def run_suite(config, threads=1):
    """Execute the configured entries; deterministic given the suite seed.

    Each entry runs under a seed derived from (suite seed, test name), so
    entries are independent and reorderable.  ``threads`` is accepted for
    existing callers and ignored: every entry runs in the calling thread.
    """
    reports = []
    for entry in config.entries:
        if entry.name not in _REGISTRY:
            raise ValueError(f"unknown test name {entry.name!r}")
        fn = _REGISTRY[entry.name]
        report = fn(seed=_entry_seed(config.seed, entry.name), **entry.params)
        reports.append(replace(report, expected=entry.expected))
    return reports


def unexpected_reports(reports):
    """Entries whose verdict contradicts the expectation (Inconclusive never does)."""
    return [r for r in reports if r.verdict != INCONCLUSIVE and r.verdict != r.expected]


def reports_to_json(reports, suite_seed=None):
    doc = {
        "suite_seed": suite_seed,
        "reports": [
            {
                "test_name": r.test_name,
                "statistic": r.statistic,
                "threshold": r.threshold,
                "replicas": r.replicas,
                "seed": r.seed,
                "verdict": r.verdict,
                "expected": r.expected,
                "detail": r.detail,
            }
            for r in reports
        ],
        "ok": not unexpected_reports(reports),
    }
    return json.dumps(doc, sort_keys=True, indent=2)
