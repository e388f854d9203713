"""The three benchmark workloads.

A workload builds its inputs from the seed alone and runs them as rounds:
every round attempts the same operations on the same inputs, so the
share of failed operations does not depend on the seed or on how many
rounds fit in a run.  Round 0 is checked in full against computations
made in ``checks``; later rounds must reproduce round 0 exactly.

``run_round`` returns the seconds each of the round's operations took,
in a fixed order and leaving out the benchmark's own checking, and the
number of operations that raised or exited nonzero.

Operations are timed on this process's CPU clock.  They run in this one
thread and wait on nothing but the page cache, so on a quiet machine the
CPU clock reads as the wall clock; on a virtual machine whose host takes
the CPU away (up to 40 % of a CPU on the 2-core VM of the reference
figures in README.md) the wall clock would count the host's load as well.
"""

import hashlib
import shutil
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import process_time as clock

import numpy as np

import checks


def _report(exc_context):
    sys.stderr.write(f"operation failed in {exc_context}:\n{traceback.format_exc()}")


class Workload:
    name = ""
    ops_per_round = 0
    nominal_vertex_steps = 0  # per round, from the inputs alone

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.failures = []
        self.digests = []
        self.tracer = None

    def setup(self):
        raise NotImplementedError

    def run_round(self, index):
        raise NotImplementedError

    def final_checks(self):
        """Checks made after the timed rounds; rounds must agree with round 0."""
        if any(d != self.digests[0] for d in self.digests[1:]):
            self.failures.append(f"{self.name}: a later round differs from round 0")

    def output_bytes(self):
        return 0

    def cleanup(self):
        pass

    def _op(self, op_index):
        if self.tracer is not None:
            self.tracer.op_id = op_index

    def _pause(self):
        return self.tracer.pause() if self.tracer is not None else nullcontext()


class GaussPaths(Workload):
    """Gaussian paths on the uniform depth-14 flow over 301 grid times.

    Each of the round's paths is simulated, analysed and checked while it
    is the only one the workload holds, inside the generator that feeds
    the pooled Hölder fit.
    """

    name = "gauss_paths"
    DEPTH = 14
    T_END = 0.3
    STEP = 1e-3
    PATHS = 4
    # Lags up to 64 grid steps: longer lags have too few independent windows
    # in 301 snapshots to keep the pooled slope of four paths inside the check.
    LAGS = (1, 2, 4, 8, 16, 32, 64)
    ADDRESSES = 16
    ops_per_round = PATHS

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        g = np.random.default_rng([seed % 2**64, 1])
        self.path_seeds = [int(s) for s in g.integers(0, 2**63, size=self.PATHS)]
        n = self.DEPTH
        self.leaf_bits = int(g.integers(0, 1 << n))
        # a depth-3 vertex off the leaf's root path
        self.other_bits = (self.leaf_bits >> (n - 3)) ^ int(g.integers(1, 8))
        steps = int(round(self.T_END / self.STEP))
        size = checks.flat_size(n)
        self.addresses = [
            [(int(g.integers(1, steps + 1)), int(g.integers(0, size))) for _ in range(self.ADDRESSES)]
            for _ in range(self.PATHS)
        ]
        start = int(g.integers(1, steps - 3))
        self.replays = [(0, 2), (start, start + 3)]
        self.nominal_vertex_steps = self.PATHS * steps * size

    def setup(self):
        from treecascade import engine, observables, transport, tree, weights

        self.engine, self.observables, self.transport, self.tree = engine, observables, transport, tree
        self.spec = weights.gaussian_spec()
        self.base = tree.uniform_flow(self.DEPTH)
        self.grid = engine.make_grid(self.T_END, self.STEP)
        self.leaf = tree.Vertex(self.DEPTH, self.leaf_bits)
        self.other = tree.Vertex(3, self.other_bits)
        # one tiny call per layer
        small = engine.simulate_path(tree.uniform_flow(3), self.spec, engine.make_grid(0.008, 1e-3), seed=1)
        small.root_masses()
        small.vertex_mass_series([tree.Vertex(3, 0), tree.Vertex(3, 7)])
        observables.realized_vs_predicted_qv(small)
        observables.empirical_bracket(small, tree.Vertex(3, 0), tree.Vertex(3, 7))
        transport.holder_exponent(iter([small]), lags=(1, 2))
        engine.compose_from_path(small, 0, 2)
        tree.validate_flow(small.snapshot(small.n_snapshots - 1))

    def run_round(self, index):
        engine, observables, transport = self.engine, self.observables, self.transport
        outputs = []
        times = []
        marks = {"mark": clock(), "checks": 0.0}

        def lap():
            # an operation runs from one resumption of the generator to the
            # next: its simulation and analyses, then the Hölder distances
            # of its path, less the benchmark's checks in between
            now = clock()
            times.append(now - marks["mark"] - marks["checks"])
            marks["mark"], marks["checks"] = now, 0.0

        def paths():
            for k, seed in enumerate(self.path_seeds):
                self._op(index * 100 + k + 1)
                path = engine.simulate_path(self.base, self.spec, self.grid, seed=seed)
                roots = path.root_masses()
                series = path.vertex_mass_series([self.leaf, self.other])
                qv = observables.realized_vs_predicted_qv(path)
                br = observables.empirical_bracket(path, self.leaf, self.other)
                t0 = clock()
                with self._pause():
                    outputs.append((roots, series, qv.realized, qv.predicted, br))
                    if index == 0:
                        self._check_path(k, path, roots, series, qv, br)
                marks["checks"] += clock() - t0
                yield path
                del path
                lap()
            self._op(index * 100)

        try:
            self._op(index * 100)
            fit = transport.holder_exponent(paths(), lags=self.LAGS)
        except Exception:
            _report(self.name)
            return times, self.PATHS - len(times)
        lap()  # the pooled fit itself

        with self._pause():
            digest = hashlib.sha256()
            for roots, series, *scalars in outputs:
                digest.update(roots.tobytes() + series.tobytes() + repr(scalars).encode())
            digest.update(repr(fit.slope).encode())
            self.digests.append(digest.hexdigest())
            if index == 0:
                self.failures += checks.check_qv(
                    [o[0] for o in outputs], [o[2] for o in outputs], [o[3] for o in outputs]
                )
                self.failures += checks.check_holder(fit)
        return times, 0

    def _check_path(self, k, path, roots, series, qv, br):
        seed, grid, n = self.path_seeds[k], self.grid, self.DEPTH
        f = self.failures
        last = path.n_snapshots - 1
        f += checks.check_initial_root(float(roots[0]), self.base.root_mass)
        f += checks.check_initial_root(float(series[0, 1]), float(self.base.mass(self.other)))
        f += checks.check_addresses(None, seed, grid, path.log_weight_state, self.addresses[k])
        if k == 0:
            f += checks.check_final_state(None, seed, grid, n, path.log_weight_state(last))
        for i, j in self.replays:
            replayed = self.engine.compose_from_path(path, i, j)
            f += checks.check_replay(np.concatenate(replayed.levels), path.masses_flat(j))
        final = path.snapshot(last)
        f += checks.check_validation(self.tree.validate_flow(final))
        f += checks.check_flow_levels(final.levels)
        f += checks.check_series(series[:, 0], checks.leaf_series(None, seed, grid, n, self.leaf_bits))
        f += checks.check_bracket(br, series, float(grid[-1] - grid[0]))


class JumpCli(Workload):
    """In-process CLI pipelines on compound-Poisson weights, one per jump law."""

    name = "jump_cli"
    # (rate, jump_mean, jump_sd): rate * step is 0.025 for "sparse", 2 for "dense"
    LAWS = {"sparse": (0.5, -0.1, 0.4), "dense": (40.0, 0.0, 0.15)}
    DEPTH = 12
    T_END = 0.5
    STEP = 0.05
    REPLICAS = 4
    KPZ_T = 0.5
    KPZ_EXPONENTS = (4, 6, 8, 10, 12)
    LP_DEPTH = 8
    ops_per_round = 6 * len(LAWS)

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        g = np.random.default_rng([seed % 2**64, 2])
        self.inputs = {
            law: {
                "sim": int(g.integers(0, 2**31)),
                "save": [int(g.integers(0, 2**31)) for _ in range(2)],
                "kpz": int(g.integers(0, 2**31)),
                "leaf": int(g.integers(0, 1 << self.DEPTH)),
            }
            for law in self.LAWS
        }
        steps = int(round(self.T_END / self.STEP))
        size = checks.flat_size(self.DEPTH)
        # replicas, two saved flows, and the kpz path's 8 steps of t/8
        per_law = (self.REPLICAS * steps + 2 * steps + 8) * size
        self.nominal_vertex_steps = len(self.LAWS) * per_law
        self.grid = self.STEP * np.arange(steps + 1)
        self.bytes_written = []

    def _law_flags(self, law):
        rate, jm, sd = self.LAWS[law]
        return ["--kind", "compound_poisson", "--rate", repr(rate),
                "--jump-mean", repr(jm), "--jump-sd", repr(sd), "--threads", "1"]

    def _pipeline(self, law, d):
        """(argv, files written) for each cli.run call of one law."""
        inp = self.inputs[law]
        flags = self._law_flags(law)
        grid = ["--measure", "theta", "--depth", str(self.DEPTH),
                "--t-end", repr(self.T_END), "--step", repr(self.STEP)]
        f1, f2 = d / f"{law}_flow1.json", d / f"{law}_flow2.json"
        calls = [
            (["simulate", *grid, "--replicas", str(self.REPLICAS), "--seed", str(inp["sim"]),
              "--output", str(d / f"{law}_roots.csv"),
              "--track-vertex", f"{self.DEPTH}:{inp['leaf']}", "--track-vertex", "1:0",
              "--vertex-output", str(d / f"{law}_vertices.csv"), *flags],
             [d / f"{law}_roots.csv", d / f"{law}_vertices.csv"]),
        ]
        for i, f in enumerate((f1, f2)):
            out = d / f"{law}_flow{i + 1}_roots.csv"
            calls.append((["simulate", *grid, "--replicas", "1", "--seed", str(inp["save"][i]),
                           "--output", str(out), "--save-flow", str(f), *flags], [out, f]))
        calls += [
            (["analyze", "--measure", str(f1), "--t", repr(self.T_END),
              "--output", str(d / f"{law}_analyze.json"), *flags], [d / f"{law}_analyze.json"]),
            (["transport", "--mode", "distance", "--mu", str(f1), "--nu", str(f2),
              "--method", "exact", "--normalize", "--output", str(d / f"{law}_transport.json"),
              "--threads", "1"], [d / f"{law}_transport.json"]),
            (["kpz", "--mode", "box", "--t", repr(self.KPZ_T), "--depth", str(self.DEPTH),
              "--seed", str(inp["kpz"]),
              "--scale-exponents", ",".join(str(m) for m in self.KPZ_EXPONENTS),
              "--output", str(d / f"{law}_kpz.json"), *flags], [d / f"{law}_kpz.json"]),
        ]
        return calls

    def setup(self):
        from treecascade import cli, transport, tree

        self.cli, self.transport, self.tree = cli, transport, tree
        d = self.work_dir / "warmup"
        d.mkdir(parents=True, exist_ok=True)
        flags = self._law_flags("dense")
        small = ["--measure", "theta", "--depth", "4", "--t-end", "0.1", "--step", "0.05"]
        for argv in (
            ["simulate", *small, "--replicas", "1", "--output", str(d / "r.csv"),
             "--track-vertex", "4:1", "--vertex-output", str(d / "v.csv"), *flags],
            ["simulate", *small, "--output", str(d / "r.csv"), "--save-flow", str(d / "f.json"), *flags],
            ["analyze", "--measure", str(d / "f.json"), "--t", "0.1", "--output", str(d / "a.json"), *flags],
            ["transport", "--mu", str(d / "f.json"), "--nu", str(d / "f.json"), "--normalize",
             "--output", str(d / "t.json")],
            ["kpz", "--mode", "box", "--t", "0.1", "--depth", "4", "--scale-exponents", "2,4",
             "--output", str(d / "k.json"), *flags],
        ):
            if cli.run(argv) != 0:
                raise RuntimeError(f"warm-up call failed: {argv}")
        flow = tree.normalize(tree.load_flow(d / "f.json"))
        transport.wasserstein_lp_oracle(tree.truncate(flow, 2), tree.truncate(flow, 2))

    def run_round(self, index):
        d = self.work_dir / f"round{min(index, 1)}"
        d.mkdir(parents=True, exist_ok=True)
        times = []
        failed = 0
        written = []
        op = index * 100
        for law in self.LAWS:
            for argv, files in self._pipeline(law, d):
                op += 1
                self._op(op)
                start = clock()
                try:
                    code = self.cli.run(argv)
                except SystemExit as exc:  # argparse rejects the configuration
                    code = exc.code
                except Exception:
                    _report(argv[0])
                    code = None
                times.append(clock() - start)
                if code != 0:
                    failed += 1
                    sys.stderr.write(f"cli.run exited {code}: {argv}\n")
                written += files
        with self._pause():
            sizes = 0
            digest = hashlib.sha256()
            for f in written:
                data = f.read_bytes() if f.exists() else b""
                sizes += len(data)
                digest.update(data)
            self.bytes_written.append(sizes)
            self.digests.append(digest.hexdigest())
        return times, failed

    def output_bytes(self):
        return float(np.mean(self.bytes_written))

    def final_checks(self):
        super().final_checks()
        d = self.work_dir / "round0"
        tree, transport, f = self.tree, self.transport, self.failures
        for law, params in self.LAWS.items():
            inp = self.inputs[law]
            f += checks.check_root_csv(d / f"{law}_roots.csv", self.grid, self.REPLICAS)
            vertices = d / f"{law}_vertices.csv"
            f += checks.check_vertex_csv(vertices, params, checks.derive_seeds(inp["sim"], self.REPLICAS),
                                         self.grid, self.DEPTH, inp["leaf"])
            half = checks.vertex_series_from_csv(vertices, self.REPLICAS, (1, 0))
            f += checks.check_initial_root(float(np.max(half[:, 0])), 0.5)
            f += checks.check_initial_root(float(np.min(half[:, 0])), 0.5)
            flows = []
            for i in range(2):
                flow_path = d / f"{law}_flow{i + 1}.json"
                roots = d / f"{law}_flow{i + 1}_roots.csv"
                f += checks.check_root_csv(roots, self.grid, 1)
                f += checks.check_saved_flow(flow_path, params, checks.derive_seeds(inp["save"][i], 1)[0],
                                             self.grid, self.DEPTH, roots)
                flows.append(tree.load_flow(flow_path))
                f += checks.check_validation(tree.validate_flow(flows[-1]))
            f += checks.check_analyze(d / f"{law}_analyze.json", d / f"{law}_flow1.json", params, self.T_END)
            f += checks.check_transport(d / f"{law}_transport.json", d / f"{law}_flow1.json",
                                        d / f"{law}_flow2.json")
            mu, nu = (tree.normalize(tree.truncate(x, self.LP_DEPTH)) for x in flows)
            f += checks.check_lp(transport.wasserstein_exact(mu, nu).value,
                                 transport.wasserstein_lp_oracle(mu, nu).value)
            f += checks.check_kpz_box(d / f"{law}_kpz.json", params, inp["kpz"], self.KPZ_T,
                                      self.DEPTH, self.KPZ_EXPONENTS)

    def cleanup(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


class ReplicaStats(Workload):
    """verify.run_suite on the four replica-batched entries at depth 12.

    The thresholds are set so that a correct program fails an entry on
    fewer than one seed in 10^5: the KS entries pass above p = 1e-6, and
    the martingale entries use times up to 0.6 (below log 2, where the
    root mass has finite variance) and |z| <= 6.  The controls then still
    fail by a wide margin (p below 1e-15, |z| above 20).
    """

    name = "replica_stats"
    DEPTH = 12
    REPLICAS = 500
    MARKOV = {"depth": DEPTH, "replicas": REPLICAS, "t": 0.3, "s": 1.2, "threshold": 1e-6}
    MARTINGALE = {"depth": DEPTH, "replicas": REPLICAS, "times": (0.2, 0.4, 0.6), "threshold": 6.0}
    ENTRIES = (
        ("markov_marginal", "Pass", MARKOV, True),
        ("markov_marginal_control", "Fail", MARKOV, True),
        ("martingale", "Pass", MARTINGALE, False),
        ("martingale_control", "Fail", MARTINGALE, False),
    )
    ops_per_round = len(ENTRIES)
    # three vertex-steps per replica in every entry: one direct and two
    # composed draws (Markov), or one per time (martingale)
    nominal_vertex_steps = len(ENTRIES) * 3 * REPLICAS * checks.flat_size(DEPTH)

    def setup(self):
        from treecascade import verify

        self.verify = verify
        # one suite per entry, so each entry is one timed operation; entry
        # seeds depend on the suite seed and the entry name only
        self.suites = [
            verify.SuiteConfig(seed=self.seed, entries=(verify.SuiteEntry(name, expected, params),))
            for name, expected, params, _ in self.ENTRIES
        ]
        verify.run_suite(verify.SuiteConfig(seed=1, entries=tuple(
            verify.SuiteEntry(name, expected, {**params, "depth": 3, "replicas": 8})
            for name, expected, params, _ in self.ENTRIES)))
        self.reports = None

    def run_round(self, index):
        reports = []
        times = []
        failed = 0
        for k, suite in enumerate(self.suites):
            self._op(index * 100 + k + 1)
            start = clock()
            try:
                reports += self.verify.run_suite(suite, threads=1)
            except Exception:
                _report(suite.entries[0].name)
                failed += 1
            times.append(clock() - start)
        with self._pause():
            self.digests.append(repr([(r.test_name, r.statistic, r.verdict) for r in reports]))
            if index == 0:
                self.reports = reports
        return times, failed

    def final_checks(self):
        super().final_checks()
        expected = [(name, verdict) for name, verdict, _, _ in self.ENTRIES]
        self.failures += checks.check_reports(self.reports, expected, [e[3] for e in self.ENTRIES])
        unexpected = self.verify.unexpected_reports(self.reports)
        if unexpected:
            self.failures.append(f"unexpected verdicts: {[r.test_name for r in unexpected]}")


WORKLOADS = {w.name: w for w in (GaussPaths, JumpCli, ReplicaStats)}
