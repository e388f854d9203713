"""Correctness checks, made apart from the treecascade code they check.

Increments are recomputed from numpy's own Philox generator and scipy's
``ndtri`` / ``poisson.ppf``; flows, distances, pressures and box counts
are recomputed here with plain numpy.  Each check returns a list of
failure messages, empty when the result is correct, so a test can hand
it a corrupted result and see it rejected.
"""

import csv
import json
import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp, ndtri
from scipy.stats import poisson

MASK64 = (1 << 64) - 1
PURPOSE_INCREMENT = 0
PURPOSE_DERIVE = 1


# -- independent draws ------------------------------------------------------


def philox_words(key, first_block, n_blocks, c2, purpose):
    """Words of the Philox-4x64 blocks at counters (first_block + i, 0, c2, purpose).

    numpy's generator advances the 256-bit counter before its first block,
    so it is started at the wanted counter minus one, borrow carried.  The
    counter and key go in as uint64 arrays: a Python list mis-converts
    words of 2**63 and above.
    """
    value = (first_block + (c2 << 128) + (purpose << 192) - 1) % (1 << 256)
    counter = np.array([(value >> (64 * i)) & MASK64 for i in range(4)], dtype=np.uint64)
    gen = np.random.Philox(counter=counter, key=np.array([key & MASK64, 0], dtype=np.uint64))
    return gen.random_raw(4 * n_blocks)


def uniforms(words):
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def derive_seeds(seed, count):
    """Child seeds: the words of blocks (i, 0, 0, DERIVE) under key (seed, 0)."""
    words = philox_words(seed, 0, -(-count // 4), 0, PURPOSE_DERIVE)
    return [int(w) for w in words[:count]]


def lanes(law):
    return 1 if law is None else 2


def increments(law, dt, u):
    """Log increments over a step of length dt; ``u`` has one row per vertex.

    ``law`` is None for Gaussian weights, else (rate, jump_mean, jump_sd).
    """
    if law is None:
        return math.sqrt(dt) * ndtri(u[:, 0]) - 0.5 * dt
    rate, jump_mean, jump_sd = law
    n = poisson.ppf(u[:, 0], rate * dt)
    compensator = dt * rate * (math.exp(jump_mean + 0.5 * jump_sd**2) - 1.0)
    return jump_mean * n + jump_sd * np.sqrt(n) * ndtri(u[:, 1]) - compensator


def flat_size(depth):
    return (1 << (depth + 1)) - 2


def log_state(law, seed, grid, depth):
    """Accumulated log-weights of every non-root vertex at the last grid time."""
    size = flat_size(depth)
    k = lanes(law)
    state = np.zeros(size)
    for j in range(1, len(grid)):
        words = philox_words(seed, 0, -(-size * k // 4), j, PURPOSE_INCREMENT)[: size * k]
        state += increments(law, float(grid[j] - grid[j - 1]), uniforms(words).reshape(size, k))
    return state


def increment_at(law, seed, step, flat, dt):
    """The single increment addressed by (seed, flat vertex index, step)."""
    k = lanes(law)
    block, offset = divmod(flat * k, 4)
    words = philox_words(seed, block, 1, step, PURPOSE_INCREMENT)[offset : offset + k]
    return float(increments(law, dt, uniforms(words).reshape(1, k))[0])


def leaf_series(law, seed, grid, depth, bits):
    """Mass of the depth-``depth`` leaf ``bits`` of the uniform flow at every grid time."""
    flats = [(1 << k) - 2 + (bits >> (depth - k)) for k in range(1, depth + 1)]
    total = np.zeros(len(grid))
    cum = np.zeros(len(flats))
    for j in range(1, len(grid)):
        dt = float(grid[j] - grid[j - 1])
        cum += [increment_at(law, seed, j, f, dt) for f in flats]
        total[j] = cum.sum()
    return 2.0**-depth * np.exp(total)


def levels_from_state(state, depth):
    """Levels (root first) of the uniform flow cascaded by exp(state)."""
    logx = np.zeros(1)
    for k in range(1, depth + 1):
        logx = np.repeat(logx, 2) + state[(1 << k) - 2 : (1 << (k + 1)) - 2]
    levels = [2.0**-depth * np.exp(logx)]
    while len(levels[-1]) > 1:
        levels.append(levels[-1].reshape(-1, 2).sum(axis=1))
    return levels[::-1]


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300), initial=0.0))


def _expect(failures, ok, message):
    if not ok:
        failures.append(message)


# -- library results (gauss_paths) ----------------------------------------


def check_addresses(law, seed, grid, state, addresses):
    """Sampled increments equal the recomputed ones.

    ``state(j)`` gives the accumulated log-state at grid index j and
    ``addresses`` holds (step, flat index) pairs, steps 1-based.
    """
    failures = []
    for step, flat in addresses:
        after = state(step)[flat]
        got = float(after - state(step - 1)[flat])
        want = increment_at(law, seed, step, flat, float(grid[step] - grid[step - 1]))
        _expect(failures, abs(got - want) <= 1e-12 * max(1.0, abs(after)),
                f"increment at step {step}, vertex {flat}: {got!r} != recomputed {want!r}")
    return failures


def check_final_state(law, seed, grid, depth, state):
    want = log_state(law, seed, grid, depth)
    err = float(np.max(np.abs(np.asarray(state) - want)))
    return [] if err <= 1e-10 else [f"final log-state differs from recomputed by {err:.3e}"]


def check_replay(replayed, direct):
    """A composed replay reproduces the stored masses to 1e-12."""
    err = rel_err(replayed, direct)
    return [] if err <= 1e-12 else [f"compose_from_path replay off by {err:.3e} (relative)"]


def check_flow_levels(levels, rel_tol=1e-12):
    """Finite, positive masses and parent = sum of children at every level."""
    failures = []
    for k, a in enumerate(levels):
        a = np.asarray(a)
        _expect(failures, bool(np.all(np.isfinite(a)) and np.all(a > 0)),
                f"level {k} has non-finite or nonpositive masses")
        if k:
            parent = np.asarray(levels[k - 1])
            err = rel_err(a.reshape(-1, 2).sum(axis=1), parent)
            _expect(failures, err <= rel_tol, f"level {k - 1} is not the sum of level {k} ({err:.3e})")
    return failures


def check_validation(validation):
    return [] if validation.ok else [f"validate_flow rejects the flow: {validation}"]


def check_initial_root(root0, base_root):
    return [] if root0 == base_root else [f"t=0 root mass {root0!r} != base mass {base_root!r}"]


def check_series(series, want):
    err = rel_err(series, want)
    return [] if err <= 1e-12 else [f"vertex mass series off the recomputed one by {err:.3e}"]


def check_qv(roots_per_path, realized, predicted, max_rel=0.15):
    """Realized QV is the squared log-root increments, and pooled it
    matches the integrated overlap within ``max_rel``."""
    failures = []
    for roots, got in zip(roots_per_path, realized):
        want = float(np.sum(np.diff(np.log(roots)) ** 2))
        _expect(failures, abs(got - want) <= 1e-12 * want,
                f"realized QV {got!r} != sum of squared log-root increments {want!r}")
    rel = abs(sum(realized) - sum(predicted)) / sum(predicted)
    _expect(failures, rel <= max_rel, f"pooled QV relative error {rel:.4f} > {max_rel}")
    return failures


def bracket(series, duration):
    d = np.diff(np.log(series), axis=0)
    d = d - d.mean(axis=0)
    return float(np.sum(d[:, 0] * d[:, 1])) / duration


def check_bracket(got, series, duration):
    want = bracket(series, duration)
    ok = abs(got - want) <= 1e-9 * max(1.0, abs(want))
    return [] if ok else [f"empirical bracket {got!r} != recomputed {want!r}"]


def check_holder(fit, lo=0.40, hi=0.60):
    ok = (not fit.degenerate) and lo <= fit.slope <= hi
    return [] if ok else [f"Hölder slope {fit.slope!r} outside [{lo}, {hi}]"]


# -- CLI outputs (jump_cli) -------------------------------------------------


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def flow_levels_from_json(path):
    with open(path) as fh:
        doc = json.load(fh)
    return [np.array(a, dtype=np.float64) for a in doc["levels"]]


def check_root_csv(path, grid, replicas):
    """Header, the grid times, and the exact base mass at t = 0."""
    failures = []
    header, rows = read_csv(path)
    _expect(failures, header == ["time", "replica", "root_mass"], f"bad header {header}")
    _expect(failures, len(rows) == len(grid) * replicas, f"{len(rows)} rows, want {len(grid) * replicas}")
    if failures:
        return failures
    times = np.array([float(r[0]) for r in rows]).reshape(len(grid), replicas)
    masses = np.array([float(r[2]) for r in rows]).reshape(len(grid), replicas)
    _expect(failures, rel_err(times, np.repeat(grid[:, None], replicas, axis=1)) <= 1e-12,
            "time column is not the grid")
    _expect(failures, bool(np.all(masses[0] == 1.0)), f"t=0 root masses {masses[0]} != base mass 1.0")
    _expect(failures, bool(np.all(np.isfinite(masses)) and np.all(masses > 0)),
            "root masses not finite and positive")
    return failures


def vertex_series_from_csv(path, replicas, vertex):
    _, rows = read_csv(path)
    depth, bits = vertex
    out = [[] for _ in range(replicas)]
    for t, r, d, b, m in rows:
        if int(d) == depth and int(b) == bits:
            out[int(r)].append(float(m))
    return np.array(out)


def check_vertex_csv(path, law, seeds, grid, depth, leaf_bits):
    """Every replica's tracked-leaf series equals the recomputed one."""
    got = vertex_series_from_csv(path, len(seeds), (depth, leaf_bits))
    want = np.array([leaf_series(law, s, grid, depth, leaf_bits) for s in seeds])
    return check_series(got, want)


def check_saved_flow(path, law, seed, grid, depth, root_csv):
    """The saved final flow equals the recomputed one and closes the root CSV."""
    failures = []
    levels = flow_levels_from_json(path)
    failures += check_flow_levels(levels)
    want = levels_from_state(log_state(law, seed, grid, depth), depth)
    err = max(rel_err(a, b) for a, b in zip(levels, want)) if len(levels) == len(want) else math.inf
    _expect(failures, err <= 1e-12, f"saved flow off the recomputed flow by {err:.3e}")
    _, rows = read_csv(root_csv)
    final_root, saved_root = float(rows[-1][2]), float(levels[0][0])
    _expect(failures, rel_err(final_root, saved_root) <= 1e-12,
            f"final root mass {final_root!r} != saved flow root {saved_root!r}")
    return failures


def cumulant(law, h):
    """log E[W_1^h] of the compound-Poisson weight."""
    rate, jm, sd = law
    mgf = lambda x: math.exp(x * jm + 0.5 * (x * sd) ** 2)  # noqa: E731
    return rate * (mgf(h) - 1.0 - h * (mgf(1.0) - 1.0))


def pressure_slope(levels, h):
    depth = len(levels) - 1
    ks = np.arange(depth // 2 + 1, depth + 1)
    sums = [float(logsumexp(h * np.log(levels[k][levels[k] > 0]))) for k in ks]
    return float(np.polyfit(ks, sums, 1)[0])


def check_analyze(report_path, flow_path, law, t):
    """Pressure samples refit from the flow; alpha = pressure + t kappa(h)."""
    failures = []
    with open(report_path) as fh:
        doc = json.load(fh)
    levels = flow_levels_from_json(flow_path)
    for (h, p), (h2, a) in zip(doc["pressure_samples"], doc["alpha_samples"]):
        want = pressure_slope(levels, h)
        _expect(failures, abs(p - want) <= 1e-9, f"pressure at h={h}: {p!r} != refit {want!r}")
        _expect(failures, h == h2 and abs(a - (p + t * cumulant(law, h))) <= 1e-9,
                f"alpha at h={h}: {a!r} != pressure + t kappa(h)")
    _expect(failures, len(doc["pressure_samples"]) == 17, "want 17 pressure samples")
    return failures


def exact_distance(mu_levels, nu_levels):
    """Edge-weighted mass imbalance between two normalized flows."""
    total = 0.0
    for k in range(1, len(mu_levels)):
        gap = np.abs(mu_levels[k] / mu_levels[0][0] - nu_levels[k] / nu_levels[0][0])
        total += 2.0 ** -(k + 1) * float(np.sum(gap))
    return total


def check_transport(result_path, mu_path, nu_path):
    with open(result_path) as fh:
        doc = json.load(fh)
    want = exact_distance(flow_levels_from_json(mu_path), flow_levels_from_json(nu_path))
    ok = doc["method"] == "tree_formula" and abs(doc["value"] - want) <= 1e-12 * max(1.0, want)
    return [] if ok else [f"transport value {doc['value']!r} != recomputed {want!r}"]


def check_lp(exact_value, lp_value):
    ok = abs(exact_value - lp_value) <= 1e-9
    return [] if ok else [f"wasserstein_exact {exact_value!r} != LP oracle {lp_value!r}"]


def even_free_cylinders(depth):
    return [b for b in range(1 << depth)
            if all((b >> (depth - p)) & 1 == 0 for p in range(2, depth + 1, 2))]


def box_counts(leaves, cylinders, exponents):
    """Dyadic cells of side 2^-m met by the images [F(c), F(c+1)] of the cylinders."""
    cdf = np.concatenate([[0.0], np.cumsum(leaves / leaves.sum())])
    counts = []
    for m in exponents:
        eps = 2.0**-m
        cells = set()
        for c in cylinders:
            lo = int(math.floor(cdf[c] / eps))
            hi = max(lo, int(math.ceil(cdf[c + 1] / eps)) - 1)
            cells.update(range(lo, hi + 1))
        counts.append(len(cells))
    return counts


def dimension_prediction(law, t, dim):
    """h in [0, 1] with h - t kappa(h) / log 2 = dim."""
    return brentq(lambda h: h - t * cumulant(law, h) / math.log(2.0) - dim, 0.0, 1.0, xtol=1e-14)


def check_kpz_box(result_path, law, seed, t, depth, exponents):
    failures = []
    with open(result_path) as fh:
        doc = json.load(fh)
    grid = t / 8.0 * np.arange(9)
    grid[-1] = t
    leaves = levels_from_state(log_state(law, seed, grid, depth), depth)[-1]
    want = box_counts(leaves, even_free_cylinders(depth), exponents)
    _expect(failures, doc["counts"] == want, f"box counts {doc['counts']} != recomputed {want}")
    x = np.array(exponents) * math.log(2.0)
    slope = float(np.polyfit(x, np.log(np.array(doc["counts"], dtype=float)), 1)[0])
    _expect(failures, abs(doc["estimate"] - slope) <= 1e-9,
            f"box dimension {doc['estimate']!r} != slope of its counts {slope!r}")
    pred = dimension_prediction(law, t, 0.5)
    _expect(failures, abs(doc["prediction"] - pred) <= 1e-9,
            f"predicted dimension {doc['prediction']!r} != {pred!r}")
    return failures


# -- suite reports (replica_stats) -----------------------------------------


def check_reports(reports, expected, higher_passes):
    """Verdicts as expected, and each verdict follows from its statistic."""
    failures = []
    _expect(failures, [r.verdict for r in reports] == [e for _, e in expected],
            f"verdicts {[r.verdict for r in reports]} != {[e for _, e in expected]}")
    for r, (name, _), higher in zip(reports, expected, higher_passes):
        passes = r.statistic > r.threshold if higher else r.statistic <= r.threshold
        _expect(failures, r.test_name == name, f"report {r.test_name} where {name} was run")
        _expect(failures, (r.verdict == "Pass") == passes,
                f"{r.test_name}: verdict {r.verdict} contradicts statistic {r.statistic!r}")
    return failures
