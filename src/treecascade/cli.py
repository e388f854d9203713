"""Command-line entry point.

Five subcommands cover the library surface: ``simulate`` (evolve a flow
and emit root and per-vertex mass series), ``analyze`` (pressure curves
and the regularity classification), ``transport`` (Wasserstein distance
between saved flows, or the Hölder slope of simulated paths), ``kpz``
(dimension ODE solutions and box-counting estimates), and ``verify``
(the statistical test suite).

Every numeric input can come from a JSON config file (``--config``);
explicit flags override file values, and ``--dump-config`` prints the
merged effective config without running.  Outputs are CSV (RFC 4180,
CRLF line endings, round-trip float formatting) or JSON with sorted
keys, so identical (argv, seed) runs produce byte-identical files at
any ``--threads`` setting.
"""

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import engine, kpz, observables, regularity, transport, verify
from . import weights as wp
from .parallel import parallel_map, thread_count
from .rng import derive_seeds
from .tree import ROOT, Vertex, load_flow, normalize, save_flow, truncate, uniform_flow

__all__ = ["run", "main"]

_REQUIRED = object()

_WEIGHT_DEFAULTS = {"kind": wp.GAUSSIAN, "rate": None, "jump_mean": None, "jump_sd": None}

_DEFAULTS = {
    "simulate": {
        "measure": "theta",
        "depth": None,
        "t_end": _REQUIRED,
        "step": 0.01,
        "replicas": 1,
        "seed": 0,
        "output": None,
        "track_vertex": None,
        "vertex_output": None,
        "save_flow": None,
        **_WEIGHT_DEFAULTS,
    },
    "analyze": {
        "measure": "theta",
        "t": _REQUIRED,
        "h_min": 0.0,
        "h_max": 4.0,
        "h_count": 17,
        "max_depth": None,
        "output": None,
        "curves": None,
        **_WEIGHT_DEFAULTS,
    },
    "transport": {
        "mode": "distance",
        "mu": None,
        "nu": None,
        "method": "exact",
        "normalize": False,
        "depth": 10,
        "t_end": 0.5,
        "step": 2.0**-7,
        "replicas": 6,
        "pair_budget": 32,
        "seed": 0,
        "output": None,
        **_WEIGHT_DEFAULTS,
    },
    "kpz": {
        "mode": "ode",
        "d0": None,
        "t_end": None,
        "step": 1e-3,
        "t": 0.0,
        "depth": 12,
        "seed": 0,
        "ray_set": "even_free",
        "scale_exponents": "4,6,8,10,12",
        "output": None,
        **_WEIGHT_DEFAULTS,
    },
    "verify": {"suite": "default", "seed": 42, "output": None},
}

_META_KEYS = ("command", "config", "dump_config", "threads")


def _add_weight_flags(p):
    p.add_argument(
        "--kind",
        choices=wp.KINDS,
        default=argparse.SUPPRESS,
        help="weight process kind (default gaussian)",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=argparse.SUPPRESS,
        help="jump rate per unit model time (compound_poisson only)",
    )
    p.add_argument(
        "--jump-mean",
        type=float,
        default=argparse.SUPPRESS,
        help="mean of the normal jump law (compound_poisson only)",
    )
    p.add_argument(
        "--jump-sd",
        type=float,
        default=argparse.SUPPRESS,
        help="standard deviation of the normal jump law (compound_poisson only)",
    )


@functools.cache
def _build_parser():
    # Built once per process: parsing leaves the parser unchanged, and
    # building it costs more than most of what a small run does.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", default=argparse.SUPPRESS, help="JSON config file; flags override its values"
    )
    common.add_argument(
        "--dump-config",
        action="store_true",
        default=argparse.SUPPRESS,
        help="print the merged effective config and exit without running",
    )
    common.add_argument(
        "--threads",
        type=int,
        default=argparse.SUPPRESS,
        help="worker threads for replica loops (default: CASCADE_THREADS or 1); never changes outputs",
    )

    parser = argparse.ArgumentParser(
        prog="treecascade",
        description="Simulate and analyze cascade measures evolving on the binary-tree boundary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate", parents=[common], help="evolve a flow and write mass series as CSV"
    )
    p.add_argument(
        "--measure",
        default=argparse.SUPPRESS,
        help="'theta' for the uniform flow, or a saved flow file (.json/.csv)",
    )
    p.add_argument(
        "--depth",
        type=int,
        default=argparse.SUPPRESS,
        help="truncation depth in tree levels (required for theta; truncates a loaded flow)",
    )
    p.add_argument(
        "--t-end", type=float, default=argparse.SUPPRESS, help="final time (model time units)"
    )
    p.add_argument(
        "--step", type=float, default=argparse.SUPPRESS, help="grid step (model time units)"
    )
    p.add_argument(
        "--replicas", type=int, default=argparse.SUPPRESS, help="independent path count"
    )
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="master seed")
    p.add_argument(
        "--output",
        default=argparse.SUPPRESS,
        help="root-mass CSV path (time,replica,root_mass); stdout when omitted",
    )
    p.add_argument(
        "--track-vertex",
        action="append",
        default=argparse.SUPPRESS,
        metavar="DEPTH:BITS",
        help="also record this vertex's mass series (repeatable)",
    )
    p.add_argument(
        "--vertex-output",
        default=argparse.SUPPRESS,
        help="vertex CSV path (time,replica,vertex_depth,path_bits,mass)",
    )
    p.add_argument(
        "--save-flow",
        default=argparse.SUPPRESS,
        help="write the final flow to this file (.json/.csv); requires --replicas 1",
    )
    _add_weight_flags(p)

    p = sub.add_parser(
        "analyze", parents=[common], help="pressure curves and regularity classification"
    )
    p.add_argument(
        "--measure",
        default=argparse.SUPPRESS,
        help="'theta' (analytic) or a saved flow file (.json/.csv)",
    )
    p.add_argument(
        "--t", type=float, default=argparse.SUPPRESS, help="evolution time (model time units)"
    )
    p.add_argument(
        "--h-min", type=float, default=argparse.SUPPRESS, help="smallest moment exponent sampled"
    )
    p.add_argument(
        "--h-max", type=float, default=argparse.SUPPRESS, help="largest moment exponent sampled"
    )
    p.add_argument(
        "--h-count", type=int, default=argparse.SUPPRESS, help="number of exponent samples"
    )
    p.add_argument(
        "--max-depth",
        type=int,
        default=argparse.SUPPRESS,
        help="cap the fit depth in tree levels (empirical flows only)",
    )
    p.add_argument(
        "--output", default=argparse.SUPPRESS, help="report JSON path; stdout when omitted"
    )
    p.add_argument(
        "--curves", default=argparse.SUPPRESS, help="optional CSV path for (h, pressure, alpha)"
    )
    _add_weight_flags(p)

    p = sub.add_parser(
        "transport", parents=[common], help="Wasserstein distances and Hölder slope fits"
    )
    p.add_argument(
        "--mode",
        choices=("distance", "holder"),
        default=argparse.SUPPRESS,
        help="distance: compare two saved flows; holder: fit the time-continuity slope",
    )
    p.add_argument("--mu", default=argparse.SUPPRESS, help="first flow file (distance mode)")
    p.add_argument("--nu", default=argparse.SUPPRESS, help="second flow file (distance mode)")
    p.add_argument(
        "--method",
        choices=("exact", "lp", "coupling"),
        default=argparse.SUPPRESS,
        help="distance computation route",
    )
    p.add_argument(
        "--normalize",
        action="store_true",
        default=argparse.SUPPRESS,
        help="rescale both flows to unit total mass before comparing",
    )
    p.add_argument(
        "--depth", type=int, default=argparse.SUPPRESS, help="tree depth in levels (holder mode)"
    )
    p.add_argument(
        "--t-end",
        type=float,
        default=argparse.SUPPRESS,
        help="path duration (model time units, holder mode)",
    )
    p.add_argument(
        "--step",
        type=float,
        default=argparse.SUPPRESS,
        help="grid step (model time units, holder mode)",
    )
    p.add_argument(
        "--replicas", type=int, default=argparse.SUPPRESS, help="path count (holder mode)"
    )
    p.add_argument(
        "--pair-budget",
        type=int,
        default=argparse.SUPPRESS,
        help="snapshot pairs per lag per path (holder mode)",
    )
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="master seed (holder mode)")
    p.add_argument(
        "--output", default=argparse.SUPPRESS, help="result JSON path; stdout when omitted"
    )
    _add_weight_flags(p)

    p = sub.add_parser(
        "kpz", parents=[common], help="dimension ODE solutions and box-counting estimates"
    )
    p.add_argument(
        "--mode",
        choices=("ode", "box"),
        default=argparse.SUPPRESS,
        help="ode: solve the dimension flow (default); box: estimate an image dimension",
    )
    p.add_argument(
        "--d0", type=float, default=argparse.SUPPRESS, help="initial dimension in (0, 1) (ode mode)"
    )
    p.add_argument(
        "--t-end",
        type=float,
        default=argparse.SUPPRESS,
        help="final time (model time units, ode mode)",
    )
    p.add_argument(
        "--step", type=float, default=argparse.SUPPRESS, help="solver step (model time units)"
    )
    p.add_argument(
        "--t",
        type=float,
        default=argparse.SUPPRESS,
        help="evolution time of the sampled flow (model time units, box mode)",
    )
    p.add_argument(
        "--depth", type=int, default=argparse.SUPPRESS, help="tree depth in levels (box mode)"
    )
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="master seed (box mode)")
    p.add_argument(
        "--ray-set",
        choices=("even_free", "full"),
        default=argparse.SUPPRESS,
        help="structured ray set whose image is measured (box mode)",
    )
    p.add_argument(
        "--scale-exponents",
        default=argparse.SUPPRESS,
        help="comma-separated m values; boxes have side 2^-m (box mode)",
    )
    p.add_argument(
        "--output", default=argparse.SUPPRESS, help="CSV (ode) / JSON (box) path; stdout when omitted"
    )
    _add_weight_flags(p)

    p = sub.add_parser("verify", parents=[common], help="run the statistical test suite")
    p.add_argument(
        "--suite",
        choices=("default", "quick"),
        default=argparse.SUPPRESS,
        help="which suite configuration to run",
    )
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="suite master seed")
    p.add_argument(
        "--output", default=argparse.SUPPRESS, help="report JSON path; stdout lines either way"
    )

    return parser


def _effective_config(ns, parser):
    cmd = ns.command
    effective = dict(_DEFAULTS[cmd])
    flags = {k: v for k, v in vars(ns).items() if k not in _META_KEYS}
    config_path = getattr(ns, "config", None)
    if config_path is not None:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file {config_path!r}: {exc}")
        if not isinstance(loaded, dict):
            parser.error("config file must hold a JSON object")
        unknown = set(loaded) - set(effective)
        if unknown:
            parser.error(f"unknown config keys for {cmd}: {sorted(unknown)}")
        effective.update(loaded)
    effective.update(flags)
    missing = [k for k, v in effective.items() if v is _REQUIRED]
    if missing:
        parser.error(f"missing required parameters for {cmd}: {sorted(missing)}")
    return effective


def _spec_from_config(cfg, parser):
    kind = cfg["kind"]
    jump_fields = {k: cfg.get(k) for k in ("rate", "jump_mean", "jump_sd")}
    if kind == wp.GAUSSIAN:
        given = [k for k, v in jump_fields.items() if v is not None]
        if given:
            parser.error(f"{sorted(given)} only apply to --kind compound_poisson")
        return wp.gaussian_spec()
    return wp.compound_poisson_spec(
        rate=1.0 if jump_fields["rate"] is None else float(jump_fields["rate"]),
        jump_mean=0.0 if jump_fields["jump_mean"] is None else float(jump_fields["jump_mean"]),
        jump_sd=0.3 if jump_fields["jump_sd"] is None else float(jump_fields["jump_sd"]),
    )


def _flow_from_config(cfg, parser):
    measure = cfg["measure"]
    depth = cfg.get("depth")
    if measure == "theta":
        if depth is None:
            parser.error("--depth is required with --measure theta")
        return uniform_flow(int(depth))
    try:
        f = load_flow(measure)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load flow {measure!r}: {exc}")
    if depth is not None and int(depth) != f.depth:
        if int(depth) > f.depth:
            parser.error(f"--depth {depth} exceeds stored depth {f.depth}")
        f = truncate(f, int(depth))
    return f


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _csv_text(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _json_text(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _parse_vertices(items, parser):
    vertices = []
    for item in items:
        try:
            d_str, b_str = str(item).split(":")
            vertices.append(Vertex(int(d_str), int(b_str)))
        except ValueError as exc:
            parser.error(f"bad --track-vertex {item!r} (want DEPTH:BITS): {exc}")
    return vertices


def _cmd_simulate(cfg, threads, parser):
    base = _flow_from_config(cfg, parser)
    spec = _spec_from_config(cfg, parser)
    try:
        grid = engine.make_grid(float(cfg["t_end"]), float(cfg["step"]))
    except ValueError as exc:
        parser.error(str(exc))
    replicas = int(cfg["replicas"])
    if replicas < 1:
        parser.error("--replicas must be >= 1")
    tracked = cfg.get("track_vertex")
    vertices = _parse_vertices(tracked, parser) if tracked else []
    if vertices and cfg.get("vertex_output") is None:
        parser.error("--track-vertex needs --vertex-output")
    for v in vertices:
        if v.depth > base.depth:
            parser.error(f"tracked vertex depth {v.depth} exceeds flow depth {base.depth}")
    save = cfg.get("save_flow") is not None
    if save and replicas != 1:
        parser.error("--save-flow requires --replicas 1")

    seeds = derive_seeds(int(cfg["seed"]), replicas)

    def one(r):
        path = engine.simulate_path(base, spec, grid, seed=int(seeds[r]))
        # the root is one more vertex: its series is the root masses, bit for bit
        series = path.vertex_mass_series([ROOT, *vertices])
        final = path.snapshot(path.n_snapshots - 1) if save else None
        return series[:, 0], series[:, 1:], final

    results = parallel_map(one, range(replicas), threads=threads)

    rows = []
    for i, t in enumerate(grid):
        for r in range(replicas):
            rows.append([repr(float(t)), r, repr(float(results[r][0][i]))])
    _emit(_csv_text(["time", "replica", "root_mass"], rows), cfg.get("output"))

    if vertices:
        vrows = []
        for i, t in enumerate(grid):
            for r in range(replicas):
                for j, v in enumerate(vertices):
                    vrows.append(
                        [repr(float(t)), r, v.depth, v.bits, repr(float(results[r][1][i, j]))]
                    )
        _emit(
            _csv_text(["time", "replica", "vertex_depth", "path_bits", "mass"], vrows),
            cfg["vertex_output"],
        )

    if save:
        save_flow(results[0][2], cfg["save_flow"])
    return 0


def _cmd_analyze(cfg, threads, parser):
    spec = _spec_from_config(cfg, parser)
    if cfg["measure"] == "theta":
        measure = regularity.THETA
    else:
        measure = _flow_from_config(cfg, parser)
    h_count = int(cfg["h_count"])
    if h_count < 2:
        parser.error("--h-count must be >= 2")
    t = float(cfg["t"])
    if t < 0:
        parser.error("--t must be nonnegative")
    h_grid = np.linspace(float(cfg["h_min"]), float(cfg["h_max"]), h_count)
    max_depth = cfg.get("max_depth")
    report = regularity.regularity_report(
        measure,
        spec,
        t,
        h_grid=h_grid,
        max_depth=None if max_depth is None else int(max_depth),
    )
    _emit(regularity.report_to_json(report) + "\n", cfg.get("output"))
    if cfg.get("curves") is not None:
        _emit(regularity.report_curves_csv(report), cfg["curves"])
    return 0


def _cmd_transport(cfg, threads, parser):
    mode = cfg["mode"]
    if mode == "distance":
        if cfg.get("mu") is None or cfg.get("nu") is None:
            parser.error("distance mode needs --mu and --nu flow files")
        try:
            mu = load_flow(cfg["mu"])
            nu = load_flow(cfg["nu"])
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load flows: {exc}")
        if cfg.get("normalize", False):
            mu = normalize(mu)
            nu = normalize(nu)
        method = cfg["method"]
        if method == "lp" and mu.depth > transport.LP_MAX_DEPTH:
            parser.error(f"lp method is limited to depth {transport.LP_MAX_DEPTH}")
        fn = {
            "exact": transport.wasserstein_exact,
            "lp": transport.wasserstein_lp_oracle,
            "coupling": transport.coupling_upper_bound,
        }[method]
        result = fn(mu, nu)
        doc = {
            "value": result.value,
            "method": result.method,
            "truncation_bound": result.truncation_bound,
        }
        _emit(_json_text(doc), cfg.get("output"))
        return 0

    spec = _spec_from_config(cfg, parser)
    base = uniform_flow(int(cfg["depth"]))
    try:
        grid = engine.make_grid(float(cfg["t_end"]), float(cfg["step"]))
    except ValueError as exc:
        parser.error(str(exc))
    replicas = int(cfg["replicas"])
    if replicas < 1:
        parser.error("--replicas must be >= 1")
    seeds = derive_seeds(int(cfg["seed"]), replicas)
    paths = (
        engine.simulate_path(base, spec, grid, seed=int(seeds[r])) for r in range(replicas)
    )
    fit = transport.holder_exponent(paths, pair_budget=int(cfg["pair_budget"]))
    doc = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "slope_se": fit.slope_se,
        "r_squared": fit.r_squared,
        "n_pairs": fit.n_pairs,
        "degenerate": fit.degenerate,
        "lag_times": list(fit.lag_times),
        "median_log_distance": list(fit.median_log_distance),
    }
    _emit(_json_text(doc), cfg.get("output"))
    return 0


def _cmd_kpz(cfg, threads, parser):
    mode = cfg["mode"]
    if mode == "ode":
        if cfg.get("d0") is None or cfg.get("t_end") is None:
            parser.error("ode mode needs --d0 and --t-end")
        try:
            path = kpz.kpz_ode_solve(float(cfg["d0"]), float(cfg["t_end"]), float(cfg["step"]))
        except ValueError as exc:
            parser.error(str(exc))
        _emit(kpz.dimension_csv(path), cfg.get("output"))
        return 0

    spec = _spec_from_config(cfg, parser)
    ray_set = kpz.EVEN_FREE if cfg["ray_set"] == "even_free" else kpz.FULL
    depth = int(cfg["depth"])
    t = float(cfg["t"])
    if t < 0:
        parser.error("--t must be nonnegative")
    raw = cfg["scale_exponents"]
    exps = [int(x) for x in (raw.split(",") if isinstance(raw, str) else raw)]
    if any(m < 1 for m in exps) or len(exps) < 2:
        parser.error("--scale-exponents needs at least two positive integers")
    if max(exps) > depth:
        parser.error("finest scale exponent exceeds the tree depth")
    scales = [2.0**-m for m in exps]
    if t == 0:
        flow = uniform_flow(depth)
    else:
        grid = engine.make_grid(t, t / 8.0)
        path = engine.simulate_path(
            base=uniform_flow(depth),
            spec=spec,
            grid=grid,
            seed=int(cfg["seed"]),
            snapshot_times=[t],
        )
        flow = path.snapshot(0)
    fit = kpz.box_dimension_estimate(flow, ray_set, scales)
    doc = {
        "ray_set": ray_set.name,
        "base_dimension": ray_set.dimension,
        "t": t,
        "scales": list(fit.scales),
        "counts": [int(c) for c in fit.counts],
        "estimate": fit.dimension,
        "r_squared": fit.r_squared,
        "prediction": kpz.phi_inverse(spec, t, ray_set.dimension),
    }
    _emit(_json_text(doc), cfg.get("output"))
    return 0


def _cmd_verify(cfg, threads, parser):
    seed = int(cfg["seed"])
    suite = verify.default_suite(seed) if cfg["suite"] == "default" else verify.quick_suite(seed)
    reports = verify.run_suite(suite, threads=threads)
    for r in reports:
        sys.stdout.write(
            f"{r.test_name:<26} {r.verdict:<13} expected={r.expected:<6} "
            f"statistic={r.statistic!r} threshold={r.threshold!r} replicas={r.replicas}\n"
        )
    if cfg.get("output") is not None:
        Path(cfg["output"]).write_text(verify.reports_to_json(reports, suite_seed=seed) + "\n")
    bad = verify.unexpected_reports(reports)
    if bad:
        sys.stderr.write(f"unexpected verdicts: {[r.test_name for r in bad]}\n")
        return 3
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "transport": _cmd_transport,
    "kpz": _cmd_kpz,
    "verify": _cmd_verify,
}


def run(argv):
    parser = _build_parser()
    ns = parser.parse_args(argv)
    cfg = _effective_config(ns, parser)
    try:
        threads = thread_count(getattr(ns, "threads", None))
    except ValueError as exc:
        parser.error(str(exc))
    if getattr(ns, "dump_config", False):
        # threads steer scheduling only, never results, so they stay out of
        # the provenance record
        doc = {"command": ns.command, **cfg}
        sys.stdout.write(_json_text(doc))
        return 0
    try:
        return _HANDLERS[ns.command](cfg, threads, parser)
    except Exception as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
