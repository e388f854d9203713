"""Benchmark of treecascade: one workload per run, in this single process.

    python3 perfbench/run.py --workload gauss_paths --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  The run measures set-up in fresh child processes, then repeats
whole rounds of the workload's operations until ``--seconds`` have
passed, checks the outputs, and prints one JSON object as its last line.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it skips the set-up measurement, alternates untraced
and traced rounds, and reports the per-layer metrics, whose spans it
also writes to ``perfbench/out``.
"""

import os

# One thread per process: BLAS worker threads would compete for the
# machine's second core.  Set before numpy loads; set-up probes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up the workload, print 'ready <cpu seconds>' and exit (for setup_s)")
    return p.parse_args(argv)


def setup_seconds(args):
    """Median CPU time a fresh process spends from its start to its
    workload being ready (the CPU clock, as for the operations)."""
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        word, _, seconds = out.strip().partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(float(seconds))
    return statistics.median(samples)


def metric_specs():
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return doc["end_to_end"], doc["per_layer"]


def per_layer_value(name, tracer, workload, rounds, overhead):
    """One per-layer metric, per traced round where it is a sum."""
    counts = tracer.counts
    derived = {
        "rng.words": counts["rng.words"] / rounds,
        "weights.vertex_steps": counts["weights.vertex_steps"] / rounds,
        "weights.draws_per_nominal":
            counts["weights.vertex_steps"] / (rounds * workload.nominal_vertex_steps),
        "engine.materializations_per_snapshot":
            tracer.calls["engine.mass_levels"] / counts["engine.stored_snapshots"]
            if counts["engine.stored_snapshots"] else 0.0,
        "engine.stored_state_mb": tracer.stored_state_mb,
        "cli.output_bytes": workload.output_bytes(),
        "trace.overhead": overhead,
    }
    if name in derived:
        return derived[name]
    for suffix, table in ((".self_s", tracer.self_time), (".calls", tracer.calls),
                          (".s", tracer.inclusive)):
        if name.endswith(suffix):
            return table[name[: -len(suffix)]] / rounds
    raise KeyError(f"no rule for per-layer metric {name!r}")


def round_seconds(rounds):
    """A round's time from per-operation medians: the sum over the round's
    operations of each one's median across rounds."""
    return sum(statistics.median(ts) for ts in zip(*rounds))


def main(argv):
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT / f"work-{args.workload}-{os.getpid()}")
    if args.setup_probe:
        workload.setup()
        print(f"ready {process_time()!r}", flush=True)
        workload.cleanup()
        return 0

    end_to_end, per_layer = metric_specs()
    setup_s = None if args.trace else setup_seconds(args)
    workload.setup()

    plain, traced = [], []
    attempted = failed = 0
    tracer = Tracer() if args.trace else None
    deadline = perf_counter() + args.seconds
    index = 0
    while index < 1 + args.trace or perf_counter() < deadline:
        trace_this = args.trace and index % 2 == 1
        if trace_this:
            workload.tracer = tracer.install()
            tracer.enabled = True
        try:
            times, n_failed = workload.run_round(index)
        finally:
            if trace_this:
                tracer.enabled = False
                tracer.uninstall()
                workload.tracer = None
        (traced if trace_this else plain).append(times)
        attempted += workload.ops_per_round
        failed += n_failed
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    workload.final_checks()
    workload.cleanup()
    for message in workload.failures:
        sys.stderr.write(f"check failed: {message}\n")

    wall_s = round_seconds(plain)
    if args.trace:
        overhead = round_seconds(traced) / wall_s - 1.0
        values = {m["name"]: per_layer_value(m["name"], tracer, workload, len(traced), overhead)
                  for m in per_layer}
        units = {m["name"]: m["unit"] for m in per_layer}
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "vertex_steps_per_s": workload.nominal_vertex_steps / wall_s,
        }
        units = {m["name"]: m["unit"] for m in end_to_end}
    result = {
        "correct": not workload.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "operation_seconds": plain, "traced_operation_seconds": traced, **result}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced rounds", file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
