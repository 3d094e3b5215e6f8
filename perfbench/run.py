#!/usr/bin/env python3
"""socrec pipeline benchmark.

    python3 perfbench/run.py --workload planted-200|pipeline-3k|graph-20k
                             --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src`` directory. Set-up (generate the seeded data,
write the TSVs, import and warm up) runs ``SETUP_REPEATS`` times, each in a
fresh process, and ``setup_s`` is their median. The measured run is one
more fresh process, so ``peak_rss_mb`` is that workload's alone. The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``. The line before it records the environment. See
``perfbench/README.md`` for the workloads and metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench-work"
SPANS = ROOT / ".perfbench-out"
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 3
CHILD_TIMEOUT = 170.0
# the layer spans' self times must cover this share of a traced iteration;
# the rest is the workload script's own glue
ATTRIBUTED_MARGIN = 0.99


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMBA_NUM_THREADS"):
        env[var] = cap
    return env


def run_child(args, env):
    # stdout carries CLI tables only; the result comes back in a file
    subprocess.run([sys.executable, str(WORKER), *args], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT)


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def spec() -> dict:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def metric_units(kind) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def is_correct(result, trace, missing) -> bool:
    """Nothing failed, every metric is present, set-up was deterministic and,
    for a traced run, the spans account for the run within the margin."""
    correct = (result["failed"] == 0 and result["complete"] and not missing
               and result["setup_deterministic"])
    if trace:
        correct = correct and result["layers"]["trace.attributed_ratio"] >= ATTRIBUTED_MARGIN
    return correct


def benchmark(args) -> dict:
    env = child_env()
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, digests = [], []
        for rep in range(SETUP_REPEATS):
            data_dir = work / f"data{rep}"
            start = time.perf_counter()
            run_child(["setup", "--workload", args.workload, "--seed", str(args.seed),
                       "--data", str(data_dir)], env)
            setup_times.append(time.perf_counter() - start)
            digests.append(tree_digest(data_dir))
        out = work / "result.json"
        measure = ["measure", "--workload", args.workload, "--seed", str(args.seed),
                   "--data", str(work / "data0"), "--scratch", str(work / "scratch"),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", str(out)]
        if args.trace:
            measure += ["--spans", str(SPANS / f"spans-{args.workload}-seed{args.seed}.tsv")]
        if args.record_references:
            measure.append("--record-references")
        (work / "scratch").mkdir()
        run_child(measure, env)
        result = json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = statistics.median(setup_times)
    result["setup_deterministic"] = len(set(digests)) == 1
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="socrec pipeline benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("planted-200", "pipeline-3k", "graph-20k"))
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="record this workload's outputs at --seed as its references")
    args = parser.parse_args(argv)
    if not (SRC / "socrec" / "__init__.py").is_file():
        print(f"perfbench: no socrec source under {SRC}", file=sys.stderr)
        return 2

    try:
        result = benchmark(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.record_references:
        refs = json.loads(REFERENCES.read_text(encoding="utf-8")) if REFERENCES.exists() else {}
        refs[args.workload] = result["references"]
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
        print(f"perfbench: references for {args.workload} written to {REFERENCES}")
        return 0

    for it, key, problem in result["problems"]:
        print(f"perfbench: iteration {it}: {key}: {problem}", file=sys.stderr)
    if args.trace:
        measured, kind = result.get("layers", {}), "per_layer"
    else:
        measured, kind = dict(result["metrics"], setup_s=result["setup_s"]), "end_to_end"
    metrics = {name: {"value": measured.get(name), "unit": unit}
               for name, unit in metric_units(kind).items()}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    for name in missing:
        metrics[name]["value"] = 0.0
    correct = is_correct(result, args.trace, missing)
    env = dict(result["environment"], iterations=result["iterations"],
               setup_repeats=SETUP_REPEATS, workload=args.workload, seed=args.seed,
               trace=args.trace)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
