"""Run the benchmark on two source checkouts in alternating pairs.

Each pair runs ``perfbench/run.py`` once in each checkout on the same
seed, the parent first on even pairs and the change first on odd ones,
one run at a time.  The JSON written holds the machine, the Python,
numpy and scipy versions, both commits and, per workload and end-to-end
metric, the median and quartiles of each side, the number of pairs the
change won, the change's median relative to the parent's, the parent's
quartile spread, and the metric's bound from BENCHMARK.json with whether
the change's median lies within it.  The file is rewritten after every
pair, so a run stopped part way keeps the pairs that finished; each
workload's ``seeds`` and ``pairs`` count those.

    python3 scripts/bench_compare.py --parent ../parent --change . \\
        --parent-commit abc1234 --change-commit def5678 \\
        --workload gauss_paths --seeds 701 702 703 -o BENCH.json
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy


def run_once(checkout, workload, seed, seconds):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "runs": values}


def compare(parent, change, better, bound):
    """Both sides' summaries of one metric over paired runs, and the verdict.

    ``relative`` is the change's median relative to the parent's (signed,
    positive when higher), ``parent_spread`` the parent's (q3 - q1) / median,
    and ``within_bound`` whether the change's median is worse than the
    parent's by no more than ``bound``, a share of the parent's median.
    """
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    relative = c["median"] / p["median"] - 1.0
    return {"better": better, "parent": p, "change": c, "pairs_won": int(won),
            "pairs": len(parent), "relative": relative,
            "parent_spread": (p["q3"] - p["q1"]) / p["median"], "bound": bound,
            "within_bound": bool(sign * relative <= bound)}


def _workload_record(runs, seeds, end_to_end):
    """One workload's entry: its finished pairs' seeds and each metric's comparison."""
    metrics = {}
    for m in end_to_end:
        parent, change = ([r["metrics"][m["name"]]["value"] for r in runs[side]]
                          for side in ("parent", "change"))
        metrics[m["name"]] = compare(parent, change, m["better"], m["bound"])
    return {
        "seeds": seeds,
        "pairs": len(seeds),
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed_ops": sum(r["failed"] for side in runs.values() for r in side),
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="source checkout of the parent commit")
    ap.add_argument("--change", required=True, help="source checkout of the change")
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change-commit", required=True)
    ap.add_argument("--workload", action="append", required=True, help="repeatable")
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    ap.add_argument("--seconds", type=float, default=20.0, help="run length of each run")
    ap.add_argument("-o", "--output", required=True, help="JSON path")
    args = ap.parse_args(argv)

    with open(Path(args.change) / "BENCHMARK.json") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    doc = {
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "parent": args.parent_commit,
        "change": args.change_commit,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(getattr(args, side), workload, seed, args.seconds)
                runs[side].append(result)
                print(f"{workload} seed {seed} {side}: "
                      f"{result['metrics']['wall_s']['value']:.3f} s", file=sys.stderr)
            doc["workloads"][workload] = _workload_record(runs, args.seeds[: k + 1], end_to_end)
            with open(args.output, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
