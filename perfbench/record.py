#!/usr/bin/env python3
"""Record a trajectory point: every workload, untraced over several seeds
and traced once, into ``perfbench/trajectory/BENCH_<label>.json``.

    python3 perfbench/record.py --label <name>

For each end-to-end metric the file holds every run's value, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median. Every point uses
the same ``SEEDS`` and ``BENCHMARK.json``'s ``run_seconds``, so a
performance change records a new point and compares its medians with an
earlier point's against the bounds in ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
# the first is the reference seed; the traced run uses it
SEEDS = (100, 1, 2, 3, 4, 5, 6, 7, 8, 9)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    env = json.loads(lines[-2].split(" ", 1)[1])
    return env, json.loads(lines[-1])


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    seeds, seconds = list(SEEDS), spec["run_seconds"]

    point = {"label": args.label, "seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            env, result = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, **{k: result[k] for k in ("correct", "attempted", "failed")},
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        env, traced = run_once(workload, seeds[0], seconds, 1)
        point["environment"] = {k: v for k, v in env.items()
                                if k not in ("seed", "trace", "workload", "iterations")}
        end_to_end = {}
        for metric in spec["end_to_end"]:
            summary = summarize([r["metrics"][metric["name"]] for r in runs])
            summary.update(unit=metric["unit"], bound=metric["bound"])
            end_to_end[metric["name"]] = summary
        point["workloads"][workload] = {
            "runs": runs,
            "end_to_end": end_to_end,
            "traced": {"seed": seeds[0], "correct": traced["correct"],
                       "failed": traced["failed"],
                       "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
    out = HERE / "trajectory" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    for workload, data in point["workloads"].items():
        for name, s in data["end_to_end"].items():
            print(f"{workload:12s} {name:16s} median {s['median']:.6g} {s['unit']:3s} "
                  f"spread {s['spread']:.3f} (bound {s['bound']})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
