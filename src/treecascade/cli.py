"""Command-line entry point.

Five subcommands cover the library surface: ``simulate`` (evolve a flow
and emit root and per-vertex mass series), ``analyze`` (pressure curves
and the regularity classification), ``transport`` (Wasserstein distance
between saved flows, or the Hölder slope of simulated paths), ``kpz``
(dimension ODE solutions and box-counting estimates), and ``verify``
(the statistical test suite).

Each flag is one row of a table (flag, default, help, lower bound,
argparse extras), one tuple of rows per subcommand; the weight-law rows
are shared.  The parser and each subcommand's config keys and defaults
are built from it, and it is the one check of a key's value, whether
the value came from a flag, a JSON config file (``--config``) or the
defaults: its kind (an integer flag takes a JSON integer, a number flag
a finite JSON number, a switch a boolean, a repeatable flag a list of
strings, any other flag a string, and null where the flag has no
default), its choices and its lower bound.  Explicit flags override
file values; the check runs before any handler and before
``--dump-config``, which prints the merged effective config without
running.  Outputs are CSV (RFC 4180, CRLF line endings, round-trip
float formatting) or JSON with sorted keys, so identical (argv, seed)
runs produce byte-identical files.  Runs are single-threaded;
``--threads`` is still accepted and checked (an integer >= 1) but
changes nothing.
"""

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import engine, kpz, regularity, transport, verify
from . import weights as wp
from .rng import derive_seeds
from .tree import ROOT, Vertex, load_flow, normalize, save_flow, truncate, uniform_flow

__all__ = ["run", "main"]

_REQUIRED = object()


def _flag(flag, default, help, low=None, **argparse_extras):
    """One row of the flag table.  Its config key is argparse's dest: the
    flag without its dashes, ``-`` turned into ``_``; ``low`` is the least
    value the key may take (argparse never sees it)."""
    return flag, default, help, low, argparse_extras


def _key(flag):
    return flag[2:].replace("-", "_")


# Flags of every subcommand that steer the run, not its results, so they
# have no config key.
_COMMON = (
    _flag("--config", None, "JSON config file; flags override its values"),
    _flag(
        "--dump-config",
        None,
        "print the merged effective config and exit without running",
        action="store_true",
    ),
    _flag(
        "--threads",
        None,
        "accepted for compatibility (an integer >= 1); runs are single-threaded",
        type=int,
    ),
)

# The weight law; a jump field left at None takes its default from
# ``weights.compound_poisson_spec``.
_JUMP_LAW = (
    _flag("--kind", wp.GAUSSIAN, "weight process kind (default gaussian)", choices=wp.KINDS),
    _flag("--rate", None, "jump rate per unit model time (compound_poisson only)", type=float),
    _flag("--jump-mean", None, "mean of the normal jump law (compound_poisson only)", type=float),
    _flag(
        "--jump-sd",
        None,
        "standard deviation of the normal jump law (compound_poisson only)",
        type=float,
    ),
)

_SIMULATE = (
    _flag("--measure", "theta", "'theta' for the uniform flow, or a saved flow file (.json/.csv)"),
    _flag(
        "--depth",
        None,
        "truncation depth in tree levels (required for theta; truncates a loaded flow)",
        low=0,
        type=int,
    ),
    _flag("--t-end", _REQUIRED, "final time (model time units)", type=float),
    _flag("--step", 0.01, "grid step (model time units)", type=float),
    _flag("--replicas", 1, "independent path count", low=1, type=int),
    _flag("--seed", 0, "master seed", type=int),
    _flag("--output", None, "root-mass CSV path (time,replica,root_mass); stdout when omitted"),
    _flag(
        "--track-vertex",
        None,
        "also record this vertex's mass series (repeatable)",
        action="append",
        metavar="DEPTH:BITS",
    ),
    _flag("--vertex-output", None, "vertex CSV path (time,replica,vertex_depth,path_bits,mass)"),
    _flag(
        "--save-flow", None, "write the final flow to this file (.json/.csv); requires --replicas 1"
    ),
    *_JUMP_LAW,
)

_ANALYZE = (
    _flag("--measure", "theta", "'theta' (analytic) or a saved flow file (.json/.csv)"),
    _flag("--t", _REQUIRED, "evolution time (model time units)", low=0, type=float),
    _flag("--h-min", 0.0, "smallest moment exponent sampled", type=float),
    _flag("--h-max", 4.0, "largest moment exponent sampled", type=float),
    _flag("--h-count", 17, "number of exponent samples", low=2, type=int),
    _flag(
        "--max-depth",
        None,
        "cap the fit depth in tree levels (empirical flows only)",
        low=0,
        type=int,
    ),
    _flag("--output", None, "report JSON path; stdout when omitted"),
    _flag("--curves", None, "optional CSV path for (h, pressure, alpha)"),
    *_JUMP_LAW,
)

_TRANSPORT = (
    _flag(
        "--mode",
        "distance",
        "distance: compare two saved flows; holder: fit the time-continuity slope",
        choices=("distance", "holder"),
    ),
    _flag("--mu", None, "first flow file (distance mode)"),
    _flag("--nu", None, "second flow file (distance mode)"),
    _flag("--method", "exact", "distance computation route", choices=("exact", "lp", "coupling")),
    _flag(
        "--normalize",
        False,
        "rescale both flows to unit total mass before comparing",
        action="store_true",
    ),
    _flag("--depth", 10, "tree depth in levels (holder mode)", low=0, type=int),
    _flag("--t-end", 0.5, "path duration (model time units, holder mode)", type=float),
    _flag("--step", 2.0**-7, "grid step (model time units, holder mode)", type=float),
    _flag("--replicas", 6, "path count (holder mode)", low=1, type=int),
    _flag("--pair-budget", 32, "snapshot pairs per lag per path (holder mode)", low=1, type=int),
    _flag("--seed", 0, "master seed (holder mode)", type=int),
    _flag("--output", None, "result JSON path; stdout when omitted"),
    *_JUMP_LAW,
)

_KPZ = (
    _flag(
        "--mode",
        "ode",
        "ode: solve the dimension flow (default); box: estimate an image dimension",
        choices=("ode", "box"),
    ),
    _flag("--d0", None, "initial dimension in (0, 1) (ode mode)", type=float),
    _flag("--t-end", None, "final time (model time units, ode mode)", type=float),
    _flag("--step", 1e-3, "solver step (model time units)", type=float),
    _flag(
        "--t",
        0.0,
        "evolution time of the sampled flow (model time units, box mode)",
        low=0,
        type=float,
    ),
    _flag("--depth", 12, "tree depth in levels (box mode)", low=0, type=int),
    _flag("--seed", 0, "master seed (box mode)", type=int),
    _flag(
        "--ray-set",
        "even_free",
        "structured ray set whose image is measured (box mode)",
        choices=("even_free", "full"),
    ),
    _flag(
        "--scale-exponents",
        "4,6,8,10,12",
        "comma-separated m values; boxes have side 2^-m (box mode)",
    ),
    _flag("--output", None, "CSV (ode) / JSON (box) path; stdout when omitted"),
    *_JUMP_LAW,
)

_VERIFY = (
    _flag("--suite", "default", "which suite configuration to run", choices=("default", "quick")),
    _flag("--seed", 42, "suite master seed", type=int),
    _flag("--output", None, "report JSON path; stdout lines either way"),
)

# Per subcommand: its help line and its flags, in --help order.
_COMMANDS = {
    "simulate": ("evolve a flow and write mass series as CSV", _SIMULATE),
    "analyze": ("pressure curves and regularity classification", _ANALYZE),
    "transport": ("Wasserstein distances and Hölder slope fits", _TRANSPORT),
    "kpz": ("dimension ODE solutions and box-counting estimates", _KPZ),
    "verify": ("run the statistical test suite", _VERIFY),
}

# Per subcommand, each config key with its default.
_DEFAULTS = {
    cmd: {_key(flag): default for flag, default, *_ in rows}
    for cmd, (_, rows) in _COMMANDS.items()
}
_META_KEYS = ("command", *(_key(flag) for flag, *_ in _COMMON))
_SPEC_FIELDS = tuple(_key(flag) for flag, *_ in _JUMP_LAW)


def _add_flags(parser, rows):
    # Every default is SUPPRESS, so the namespace holds only the flags given
    # and _effective_config can layer them over the config file.
    for flag, _, help, _, extras in rows:
        parser.add_argument(flag, default=argparse.SUPPRESS, help=help, **extras)


@functools.cache
def _build_parser():
    # Built once per process: parsing leaves the parser unchanged, and
    # building it costs more than most of what a small run does.
    common = argparse.ArgumentParser(add_help=False)
    _add_flags(common, _COMMON)
    parser = argparse.ArgumentParser(
        prog="treecascade",
        description="Simulate and analyze cascade measures evolving on the binary-tree boundary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (help, rows) in _COMMANDS.items():
        _add_flags(sub.add_parser(cmd, parents=[common], help=help), rows)
    return parser


def _config_type_error(value, default, extras):
    """What a config value must be to pass its flag row's kind and choices,
    or None if it passes: argparse checks only a flag's own value, so a
    file's value, or any merged one, gets the same check here."""
    kind, action, choices = extras.get("type"), extras.get("action"), extras.get("choices")
    if choices is not None:
        want, ok = f"one of {list(choices)}", value in choices
    elif action == "append":
        want = "a list of strings"
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    elif action == "store_true":
        want, ok = "a boolean", isinstance(value, bool)
    elif kind in (int, float):
        want = "an integer" if kind is int else "a number"
        ok = isinstance(value, (int, kind)) and not isinstance(value, bool)
        if isinstance(value, float):  # argparse's float() takes nan and inf
            ok = ok and math.isfinite(value)
    else:
        want, ok = "a string", isinstance(value, str)
    if default is None:
        want, ok = f"{want} or null", ok or value is None
    return None if ok else want


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
    # one check per key, whether its value came from a flag, the file or the
    # defaults: kind and choices, then the lower bound
    for flag, default, _, low, extras in _COMMANDS[cmd][1]:
        key = _key(flag)
        value = effective[key]
        want = _config_type_error(value, default, extras)
        if want:
            parser.error(f"config key {key!r} takes {want}, got {value!r}")
        if low is not None and value is not None and value < low:
            parser.error(f"{flag} must be >= {low}")
    return effective


def _spec_from_config(cfg, parser):
    try:
        return wp.spec_from_config({k: cfg[k] for k in _SPEC_FIELDS if cfg[k] is not None})
    except ValueError as exc:
        parser.error(str(exc))


def _uniform_flow(depth, parser):
    try:
        return uniform_flow(depth)
    except ValueError as exc:
        parser.error(str(exc))


def _flow_from_config(cfg, parser):
    measure = cfg["measure"]
    depth = cfg.get("depth")
    if measure == "theta":
        if depth is None:
            parser.error("--depth is required with --measure theta")
        return _uniform_flow(depth, parser)
    try:
        f = load_flow(measure)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load flow {measure!r}: {exc}")
    if depth is not None and depth != f.depth:
        if depth > f.depth:
            parser.error(f"--depth {depth} exceeds stored depth {f.depth}")
        f = truncate(f, depth)
    return f


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_csv(header, rows, path):
    # rows go to the file, or stdout, as the writer takes them: no text is
    # held; newlines are handled as ``Path.write_text`` handles them
    with open(path, "w") if path is not None else contextlib.nullcontext(sys.stdout) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _json_text(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _parse_vertices(items, parser):
    vertices = []
    for item in items:
        try:
            d_str, b_str = item.split(":")
            vertices.append(Vertex(int(d_str), int(b_str)))
        except ValueError as exc:
            parser.error(f"bad --track-vertex {item!r} (want DEPTH:BITS): {exc}")
    return vertices


def _cmd_simulate(cfg, parser):
    base = _flow_from_config(cfg, parser)
    spec = _spec_from_config(cfg, parser)
    try:
        grid = engine.make_grid(float(cfg["t_end"]), float(cfg["step"]))
    except ValueError as exc:
        parser.error(str(exc))
    replicas = cfg["replicas"]
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

    seeds = derive_seeds(cfg["seed"], replicas)
    # the root is one more vertex: its series is the root masses, bit for bit
    tracked = [ROOT, *vertices]
    at_base = [base.mass(v) for v in tracked]  # time 0: the base flow's own masses
    series = np.empty((len(grid), replicas, len(tracked)))  # (time, replica, vertex)
    for block, i, state in engine._evolve_blocks(spec, seeds, np.diff(grid), base.depth):
        series[i, block] = engine._vertex_masses(base, state, tracked) if i else at_base
        if save and i == len(grid) - 1:
            final = engine._snapshot(base, state[0], i)

    rows = (  # made as the CSV writer takes them: no row list is held
        [repr(float(t)), r, repr(float(series[i, r, 0]))]
        for i, t in enumerate(grid)
        for r in range(replicas)
    )
    _write_csv(["time", "replica", "root_mass"], rows, cfg.get("output"))
    if vertices:
        vrows = (
            [repr(float(t)), r, v.depth, v.bits, repr(float(series[i, r, c]))]
            for i, t in enumerate(grid)
            for r in range(replicas)
            for c, v in enumerate(vertices, start=1)
        )
        header = ["time", "replica", "vertex_depth", "path_bits", "mass"]
        _write_csv(header, vrows, cfg["vertex_output"])

    if save:
        save_flow(final, cfg["save_flow"])
    return 0


def _cmd_analyze(cfg, parser):
    spec = _spec_from_config(cfg, parser)
    if cfg["measure"] == "theta":
        measure = regularity.THETA
    else:
        measure = _flow_from_config(cfg, parser)
    t = float(cfg["t"])
    h_grid = np.linspace(float(cfg["h_min"]), float(cfg["h_max"]), cfg["h_count"])
    report = regularity.regularity_report(
        measure, spec, t, h_grid=h_grid, max_depth=cfg.get("max_depth")
    )
    _emit(regularity.report_to_json(report) + "\n", cfg.get("output"))
    if cfg.get("curves") is not None:
        _emit(regularity.report_curves_csv(report), cfg["curves"])
    return 0


def _cmd_transport(cfg, parser):
    mode = cfg["mode"]
    if mode == "distance":
        if cfg.get("mu") is None or cfg.get("nu") is None:
            parser.error("distance mode needs --mu and --nu flow files")
        try:
            mu = load_flow(cfg["mu"])
            nu = load_flow(cfg["nu"])
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load flows: {exc}")
        if cfg["normalize"]:
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
    base = _uniform_flow(cfg["depth"], parser)
    try:
        grid = engine.make_grid(float(cfg["t_end"]), float(cfg["step"]))
    except ValueError as exc:
        parser.error(str(exc))
    seeds = derive_seeds(cfg["seed"], cfg["replicas"])
    fit = transport.streamed_holder_exponent(
        base, spec, grid, seeds, pair_budget=cfg["pair_budget"]
    )
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


def _cmd_kpz(cfg, parser):
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
    depth = cfg["depth"]
    t = float(cfg["t"])
    raw = cfg["scale_exponents"]
    try:
        exps = [int(x) for x in raw.split(",")]
    except ValueError:
        parser.error(f"--scale-exponents needs comma-separated integers, got {raw!r}")
    if any(m < 1 for m in exps) or len(exps) < 2:
        parser.error("--scale-exponents needs at least two positive integers")
    if max(exps) > depth:
        parser.error("finest scale exponent exceeds the tree depth")
    scales = [2.0**-m for m in exps]
    flow = _uniform_flow(depth, parser)
    if t != 0:
        grid = engine.make_grid(t, t / 8.0)
        path = engine.simulate_path(
            base=flow,
            spec=spec,
            grid=grid,
            seed=cfg["seed"],
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


def _cmd_verify(cfg, parser):
    seed = cfg["seed"]
    suite = verify.default_suite(seed) if cfg["suite"] == "default" else verify.quick_suite(seed)
    reports = verify.run_suite(suite)
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
    if getattr(ns, "threads", 1) < 1:
        parser.error("thread count must be >= 1")
    if getattr(ns, "dump_config", False):
        doc = {"command": ns.command, **cfg}
        sys.stdout.write(_json_text(doc))
        return 0
    try:
        return _HANDLERS[ns.command](cfg, parser)
    except Exception as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
