"""Child process of the benchmark: one set-up, or one measured run.

    worker.py setup   --workload W --seed N --data DIR
    worker.py measure --workload W --seed N --data DIR --scratch DIR
                      --seconds S --trace 0|1 --out RESULT.json [--spans FILE]
                      [--record-references]

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and the BLAS/OpenMP pools
capped. A measured run is a closed loop with one client: iterations of the
workload script back to back for ``--seconds`` (no iteration is started that
would end after it), and at least two, so every operation is repeated. With ``--trace 1`` untraced and
traced iterations alternate, and the traced ones give the per-layer metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import harness
import tracer as tracing
import workloads

REFERENCES = Path(__file__).with_name("references.json")
MIN_ITERATIONS = 2
# stop starting iterations here, so a run ends well inside its time limit
MAX_LOOP_SECONDS = 120.0


def warm_up():
    """Finish lazy set-up before timing: kernel first calls (a numba backend
    compiles here) and the scipy.stats import the t-tests make."""
    import numpy as np

    from socrec import _kernels, evaluation

    f = np.ones((2, 2))
    one = np.zeros(1, dtype=np.int64)
    src, dst = np.array([0]), np.array([1])
    ptr, rated = np.array([0, 1, 2]), np.zeros(2, dtype=np.int64)
    _kernels.squared_error_sum(f, f, one, one, np.ones(1))
    _kernels.predict_pairs(f, f, one, one)
    _kernels.rating_gradients(f, f, one, one, np.ones(1))
    _kernels.social_penalty(f, src, dst, np.ones(1))
    _kernels.social_gradient(f, src, dst, np.ones(1), 0.5)
    _kernels.vss_edges(ptr, rated, np.ones(2), src, dst)
    _kernels.pcc_edges(ptr, rated, np.ones(2), np.ones(2), src, dst)
    evaluation.paired_t_pvalue([1.0, 2.0, 3.0], [1.5, 2.0, 3.5])


def environment() -> dict:
    import numpy
    import scipy

    from socrec import _kernels

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": _kernels.active_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _median(values):
    return statistics.median(values) if values else None


def measure(args):
    workload = workloads.WORKLOADS[args.workload]
    references = None
    if args.seed == checks.REFERENCE_SEED and not args.record_references:
        references = json.loads(REFERENCES.read_text(encoding="utf-8"))[workload.name]
    warm_up()
    runner = harness.Runner(workload, args.data, args.scratch, references)

    # a traced run drops its first iteration, so that the untraced iterations
    # it compares against are as warm as the traced ones
    first = 1 if args.trace else 0
    iterations = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        iterations.append(runner.iterate(traced=traced))
        elapsed = time.perf_counter() - started
        # start another iteration only if it should end within the time
        next_end = elapsed + statistics.median(s["run_s"] for s in iterations)
        if (len(iterations) >= MIN_ITERATIONS + first
                and next_end > min(args.seconds, MAX_LOOP_SECONDS)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [s for s in iterations[first:] if not s["traced"] and s["complete"]]
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "iterations": len(iterations),
        "complete": all(s["complete"] for s in iterations),
        "environment": environment(),
        "metrics": {
            "run_s": _median([s["run_s"] for s in plain]),
            "prepare_s": _median([s[workloads.PREPARE] for s in plain]),
            "sim_study_s": _median([s[workloads.STUDY] for s in plain]),
            "social_epoch_ms": _median([x for s in plain for x in s[workloads.SOCIAL]]),
            "basic_epoch_ms": _median([x for s in plain for x in s[workloads.BASIC]]),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    traced = [s for s in iterations if s["traced"] and s["complete"]]
    if traced:
        per_iteration = [tracing.iteration_metrics(runner.tracer, *s["spans"]) for s in traced]
        layers = tracing.median_metrics(per_iteration)
        layers["trace.overhead_ratio"] = layers.pop("trace.run_s") / result["metrics"]["run_s"] - 1.0
        result["layers"] = layers
        if args.spans:
            tracing.write_spans(runner.tracer, args.spans)
    if args.record_references:
        result["references"] = {key: values for key, (values, _) in runner.first.items()}
    Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--scratch")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "setup":
        workloads.generate(workloads.WORKLOADS[args.workload], args.seed, Path(args.data))
        warm_up()
    else:
        measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
