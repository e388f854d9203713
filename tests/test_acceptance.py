"""End-to-end acceptance checks.

Each test prints one summary line (criterion number, PASS/FAIL, wall
time, headline statistic) to the real stdout so the full run reads as a
checklist, then asserts the same conditions for pytest.  Criteria with a
runtime budget assert it too.  Statistical criteria run at pinned seeds
chosen once and never tuned per run.
"""

import math
import time

import numpy as np
import pytest

from treecascade import cli, engine, kpz, observables, regularity, transport, tree, verify
from treecascade import weights as wp
from treecascade.rng import derive_seed, derive_seeds, spawn_generator
from treecascade.tree import Vertex

LOG2 = math.log(2.0)


@pytest.fixture(name="report")
def _report_fixture(capfd):
    def report(num, ok, elapsed, detail):
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"criterion {num:02d}: {verdict} in {elapsed:7.2f}s  {detail}", flush=True)

    return report


def test_criterion_01_composition_exactness(report):
    # every (t, t+s) grid pair, every vertex, 1e-12 relative, under 30 s
    t0 = time.perf_counter()
    depth = 12
    base = tree.uniform_flow(depth)
    spec = wp.gaussian_spec()
    grid = engine.make_grid(1.2, 0.01)
    path = engine.simulate_path(base, spec, grid, seed=101, snapshot_times=list(grid))
    n = len(grid)
    cums = [path.log_weight_state(i) for i in range(n)]
    snaps = [path.snapshot(i) for i in range(n)]
    bounds = [((1 << k) - 2, (1 << (k + 1)) - 2) for k in range(1, depth + 1)]

    worst = 0.0
    for i in range(n):
        ci, si = cums[i], snaps[i]
        for j in range(i + 1, n):
            window = np.exp(cums[j] - ci)
            got = engine.cascade_static(si, [window[a:b] for a, b in bounds])
            want = snaps[j]
            for k in range(depth + 1):
                err = float(np.max(np.abs(got.levels[k] - want.levels[k]) / want.levels[k]))
                if err > worst:
                    worst = err

    # cross-check a subset of pairs through the raw-increment replay route
    replay_worst = 0.0
    for i, j in ((0, 1), (0, 60), (0, 120), (17, 94), (40, 41), (60, 119)):
        got = engine.compose_from_path(path, i, j)
        want = snaps[j]
        for k in range(depth + 1):
            err = float(np.max(np.abs(got.levels[k] - want.levels[k]) / want.levels[k]))
            replay_worst = max(replay_worst, err)

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and replay_worst <= 1e-12 and elapsed < 30.0
    report(1, ok, elapsed, f"worst rel err {worst:.2e} (replay subset {replay_worst:.2e}), {n * (n - 1) // 2} pairs")
    assert worst <= 1e-12
    assert replay_worst <= 1e-12
    assert elapsed < 30.0


def test_criterion_02_markov_marginal(report):
    t0 = time.perf_counter()
    rep, ctrl = verify.markov_marginal(t=0.3, s=0.3, depth=12, replicas=10_000, seed=42)
    elapsed = time.perf_counter() - t0
    ok = rep.verdict == verify.PASS and rep.statistic > 0.01 and ctrl.verdict == verify.FAIL
    report(2, ok, elapsed, f"KS p={rep.statistic:.3f}, control p={ctrl.statistic:.1e} ({ctrl.verdict})")
    assert rep.verdict == verify.PASS
    assert rep.statistic > 0.01
    assert ctrl.verdict == verify.FAIL
    assert elapsed < 300.0


def test_criterion_03_martingale_means(report):
    t0 = time.perf_counter()
    rep, ctrl = verify.martingale(times=(0.2, 0.5, 0.9), depth=14, replicas=10_000, seed=42)
    elapsed = time.perf_counter() - t0
    ok = rep.verdict == verify.PASS and rep.statistic <= 4.0 and ctrl.verdict == verify.FAIL
    report(3, ok, elapsed, f"max|z|={rep.statistic:.2f}, control max|z|={ctrl.statistic:.1f} ({ctrl.verdict})")
    assert rep.verdict == verify.PASS
    assert rep.statistic <= 4.0
    assert ctrl.verdict == verify.FAIL


def test_criterion_04_regularity_analytics(report):
    t0 = time.perf_counter()
    spec = wp.gaussian_spec()
    t_star = 2.0 * LOG2

    pressure_exact = all(
        regularity.pressure(regularity.THETA, h) == (1.0 - h) * LOG2
        for h in np.linspace(0.0, 6.0, 61)
    )
    crit_err = max(
        abs(regularity.critical_h(regularity.THETA, spec, t) - t_star / t) for t in (0.3, 0.7, 1.2)
    )
    life_err = abs(regularity.lifetime(regularity.THETA) - t_star)
    labels = tuple(
        regularity.classify_regularity(regularity.THETA, spec, t)
        for t in (t_star - 1e-3, t_star, t_star + 1e-3)
    )
    flips = labels == (regularity.REGULAR, regularity.BOUNDARY, regularity.IRREGULAR)

    elapsed = time.perf_counter() - t0
    ok = pressure_exact and crit_err <= 1e-9 and life_err <= 1e-12 and flips
    report(4, ok, elapsed, f"critical_h err {crit_err:.1e}, lifetime err {life_err:.1e}, flips {labels}")
    assert pressure_exact
    assert crit_err <= 1e-9
    assert life_err <= 1e-12
    assert flips


def test_criterion_05_transport_oracles(report):
    # 100 random positive normalized pairs at each depth 2..6, under 2 min
    t0 = time.perf_counter()
    worst = 0.0
    coupling_ok = True
    for depth in range(2, 7):
        for k in range(100):
            g = spawn_generator(derive_seed(20250815, depth * 1000 + k))
            mu = tree.normalize(tree.flow_from_leaves(g.gamma(1.0, size=1 << depth) + 1e-9))
            nu = tree.normalize(tree.flow_from_leaves(g.gamma(1.0, size=1 << depth) + 1e-9))
            exact = transport.wasserstein_exact(mu, nu).value
            lp = transport.wasserstein_lp_oracle(mu, nu).value
            worst = max(worst, abs(exact - lp))
            coupling_ok = coupling_ok and transport.coupling_upper_bound(mu, nu).value >= exact - 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and coupling_ok and elapsed < 120.0
    report(5, ok, elapsed, f"worst |exact - lp| {worst:.2e} over 500 pairs, coupling dominates: {coupling_ok}")
    assert worst <= 1e-9
    assert coupling_ok
    assert elapsed < 120.0


def test_criterion_06_holder_exponent(report):
    t0 = time.perf_counter()
    base = tree.uniform_flow(14)
    spec = wp.gaussian_spec()
    grid = engine.make_grid(0.5, 2.0**-10)
    seeds = derive_seeds(606, 32)
    fit = transport.streamed_holder_exponent(base, spec, grid, seeds)
    elapsed = time.perf_counter() - t0
    ok = 0.40 <= fit.slope <= 0.60 and not fit.degenerate and elapsed < 600.0
    report(6, ok, elapsed, f"slope {fit.slope:.4f} (se {fit.slope_se:.4f}, r^2 {fit.r_squared:.3f})")
    assert 0.40 <= fit.slope <= 0.60
    assert not fit.degenerate
    assert elapsed < 600.0


def test_criterion_07_overlap_quadratic_variation(report):
    t0 = time.perf_counter()
    base = tree.uniform_flow(14)
    spec = wp.gaussian_spec()
    grid = engine.make_grid(0.3, 1e-3)
    seeds = derive_seeds(707, 64)
    rel_errs = []
    for s in seeds:
        rel_errs.append(observables.streamed_qv(base, spec, grid, seed=int(s)).rel_err)
    mean_rel = float(np.mean(rel_errs))

    overlap_err = max(
        abs(observables.overlap(tree.uniform_flow(n)) - (1.0 - 2.0**-n)) for n in range(1, 15)
    )
    elapsed = time.perf_counter() - t0
    ok = mean_rel <= 0.15 and overlap_err <= 1e-12
    report(7, ok, elapsed, f"mean QV rel err {mean_rel:.4f} over 64 paths, overlap err {overlap_err:.1e}")
    assert mean_rel <= 0.15
    assert overlap_err <= 1e-12


def test_criterion_08_ancestor_covariance(report):
    t0 = time.perf_counter()
    depth = 8
    spec = wp.gaussian_spec()
    g = spawn_generator(derive_seed(881, 0))
    pairs = []
    while len(pairs) < 10:
        du = int(g.integers(1, depth + 1))
        dv = int(g.integers(1, depth + 1))
        u = Vertex(du, int(g.integers(0, 1 << du)))
        v = Vertex(dv, int(g.integers(0, 1 << dv)))
        if u == v or u.is_ancestor_of(v) or v.is_ancestor_of(u):
            continue
        pairs.append((u, v))

    replicas = 48
    base = tree.uniform_flow(depth)
    grid = engine.make_grid(0.3, 1e-3)
    seeds = derive_seeds(882, replicas)
    samples = np.empty((replicas, len(pairs)))
    for r, s in enumerate(seeds):
        path = engine.simulate_path(base, spec, grid, seed=int(s))
        for k, (u, v) in enumerate(pairs):
            samples[r, k] = observables.empirical_bracket(path, u, v)

    worst_z = 0.0
    hits = 0
    for k, (u, v) in enumerate(pairs):
        mean = float(samples[:, k].mean())
        se = float(samples[:, k].std(ddof=1)) / math.sqrt(replicas)
        z = abs(mean - observables.bracket_rate(u, v)) / se
        worst_z = max(worst_z, z)
        hits += z <= 3.0
    elapsed = time.perf_counter() - t0
    ok = hits == len(pairs)
    report(8, ok, elapsed, f"{hits}/{len(pairs)} pairs within 3 SE (worst |z| {worst_z:.2f})")
    assert hits == len(pairs)


def test_criterion_09_kpz_dimension_map(report):
    t0 = time.perf_counter()
    spec = wp.gaussian_spec()
    sup_err = 0.0
    for d0 in np.arange(0.1, 0.95, 0.1):
        path = kpz.kpz_ode_solve(float(d0), 1.0, 1e-3)
        closed = np.array([kpz.kpz_closed_form(float(d0), float(t)) for t in path.times])
        sup_err = max(sup_err, float(np.max(np.abs(path.d - closed))))

    endpoint = kpz.kpz_ode_solve(0.75, 1.386, 1e-4).d[-1]
    endpoint_err = abs(endpoint - 0.5)

    round_trip_err = max(
        abs(kpz.phi_inverse(spec, t, kpz.phi(spec, t, h)) - h)
        for t in np.linspace(0.0, 1.2, 7)
        for h in np.linspace(0.0, 1.0, 11)
    )
    elapsed = time.perf_counter() - t0
    ok = sup_err <= 1e-4 and endpoint_err <= 1e-4 and round_trip_err <= 1e-12 and elapsed < 1.0
    report(9, ok, elapsed, f"ode sup err {sup_err:.1e}, endpoint err {endpoint_err:.1e}, round trip {round_trip_err:.1e}")
    assert sup_err <= 1e-4
    assert endpoint_err <= 1e-4
    assert round_trip_err <= 1e-12
    assert elapsed < 1.0


def test_criterion_10_box_dimension_evidence(report):
    # evidence-level: single realization at a pinned seed, coarse tolerance
    t0 = time.perf_counter()
    spec = wp.gaussian_spec()
    scales = [2.0**-m for m in (8, 10, 12, 14, 16)]
    base = tree.uniform_flow(18)

    fit0 = kpz.box_dimension_estimate(base, kpz.EVEN_FREE, scales)
    err0 = abs(fit0.dimension - kpz.phi_inverse(spec, 0.0, 0.5))

    path = engine.simulate_path(
        base, spec, engine.make_grid(0.5, 0.0625), seed=12345, snapshot_times=[0.5]
    )
    fit5 = kpz.box_dimension_estimate(path.snapshot(0), kpz.EVEN_FREE, scales)
    pred5 = kpz.phi_inverse(spec, 0.5, 0.5)
    err5 = abs(fit5.dimension - pred5)

    elapsed = time.perf_counter() - t0
    ok = err0 <= 0.1 and err5 <= 0.1
    report(10, ok, elapsed, f"t=0: est {fit0.dimension:.4f} (err {err0:.1e}); t=0.5: est {fit5.dimension:.4f} vs {pred5:.4f} (err {err5:.3f})")
    assert err0 <= 0.1
    assert err5 <= 0.1


def test_criterion_11_determinism(tmp_path, monkeypatch, report):
    t0 = time.perf_counter()
    sim = [
        "simulate", "--measure", "theta", "--depth", "8", "--t-end", "0.3",
        "--step", "0.05", "--replicas", "4", "--seed", "9",
    ]
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert cli.run(sim + ["--output", str(a), "--threads", "1"]) == 0
    assert cli.run(sim + ["--output", str(b), "--threads", "4"]) == 0
    monkeypatch.setenv("CASCADE_THREADS", "5")
    assert cli.run(sim + ["--output", str(c)]) == 0
    monkeypatch.delenv("CASCADE_THREADS")
    sim_same = a.read_bytes() == b.read_bytes() == c.read_bytes()

    ver = ["verify", "--suite", "quick", "--seed", "42"]
    va, vb = tmp_path / "va.json", tmp_path / "vb.json"
    assert cli.run(ver + ["--output", str(va), "--threads", "1"]) == 0
    assert cli.run(ver + ["--output", str(vb), "--threads", "4"]) == 0
    verify_same = va.read_bytes() == vb.read_bytes()

    elapsed = time.perf_counter() - t0
    ok = sim_same and verify_same
    report(11, ok, elapsed, f"simulate bytes equal: {sim_same}, verify bytes equal: {verify_same}")
    assert sim_same
    assert verify_same
