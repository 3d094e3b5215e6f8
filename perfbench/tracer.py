"""In-memory span tracer for the traced benchmark run.

The tracer wraps each layer's public entry points from outside the
package. Every module keeps its own binding of an imported name
(``socrec.evaluation.train`` and ``socrec.cli.train`` are separate names of
``factorization.train``), so a function is replaced in every ``socrec``
module that binds it. Kernels are looked up as ``_kernels.<name>`` at call
time, so replacing the module attribute catches every call made inside
``train`` and the similarity builders.

A span is ``[name, start, end, parent index, operation id]``. Self time is
a span's duration minus the durations of its direct children. Kernel
operation and byte counts are *computed* from the argument shapes after the
run (see ``kernel_counts``); they model each operand element as touched once
per use and ignore caches, and for the similarity kernels they model the
scan of both users' rows, not the co-rated overlap. No peak rate or
bandwidth is measured, so they are reported as operations per byte without
a roofline ratio.
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

KERNELS = ("rating_gradients", "squared_error_sum", "social_gradient", "social_penalty",
           "predict_pairs", "pcc_edges", "vss_edges")
ROOT = "workload"


def _args(args, result):
    return args


def _entry_points():
    """(module, attribute, span name, what to keep for the counts) of every
    wrapped entry point. A callable span name is applied to the arguments."""
    from socrec import _kernels, baselines, cli, data, evaluation, factorization, similarity

    points = [
        (data, "load_dataset", "data.load_dataset", _args),
        (data, "load_trust", "data.load_trust", None),
        (data, "split_ratings", "data.split_ratings", None),
        (data, "cold_start_split", "data.cold_start_split", None),
        (similarity, "build_similarity_table",
         lambda args: f"similarity.build.{args[2].tag}", lambda args, table: table.values),
        (factorization, "train", "factorization.train", lambda args, result: result[1]),
        (factorization, "predict", "factorization.predict", None),
        (factorization, "gradients_social", "factorization.gradients_social", None),
        (factorization, "objective_basic", "factorization.objective_basic", None),
        (factorization, "objective_social", "factorization.objective_social", None),
        (factorization, "save_model", "factorization.save_model", None),
        (factorization, "load_model", "factorization.load_model", None),
        (baselines, "build_means", "baselines.build_means", None),
        (evaluation, "evaluate", "evaluation.evaluate", None),
        (evaluation, "run_similarity_study", "evaluation.run_similarity_study", None),
        (evaluation, "run_comparison", "evaluation.run_comparison", None),
        (evaluation, "write_rows_csv", "evaluation.write_csv", None),
        (evaluation, "write_summary_csv", "evaluation.write_csv", None),
        (cli, "main", "cli.main", None),
    ]
    points += [(_kernels, k, f"kernels.{k}", _args) for k in KERNELS]
    return points


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the
    wrappers in and out so traced and untraced iterations share a process."""

    def __init__(self):
        self.spans = []
        self.kept = {}  # span index -> arguments or result needed for the counts
        self.op_id = 0
        self._stack = []
        self._patches = []

    def begin(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.op_id])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, keep):
        begin, end, kept = self.begin, self.end, self.kept
        name_of = name if callable(name) else (lambda args: name)

        def wrapper(*args, **kwargs):
            index = begin(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if keep is not None:
                kept[index] = keep(args, result)
            return result
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "socrec" or n.startswith("socrec."))]
        for module, attr, name, keep in _entry_points():
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, keep)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, binding, original))
                        setattr(mod, binding, wrapper)

    def uninstall(self):
        for mod, binding, original in reversed(self._patches):
            setattr(mod, binding, original)
        self._patches.clear()


def _self_times(spans, lo, hi):
    """Per span in [lo, hi): (name, duration, self time)."""
    child = {}
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return [(s[0], s[2] - s[1], s[2] - s[1] - child.get(lo + i, 0.0))
            for i, s in enumerate(spans[lo:hi])]


def kernel_counts(name, args):
    """Computed (operations, bytes) of one kernel call from its arguments."""
    if name in ("pcc_edges", "vss_edges"):
        # a merge scan of the two users' sorted item rows: one comparison per
        # scanned entry, reading its item index and rating, then 4 operations
        # per edge to normalize; per edge it reads src, dst, 4 row pointers and
        # writes one value (plus reads the two user means for PCC)
        lens = np.diff(args[0])
        src, dst = args[-2], args[-1]
        scanned = int(lens[src].sum() + lens[dst].sum())
        edge_bytes = (2 + 4 + 1 + (2 if name == "pcc_edges" else 0)) * 8
        return scanned + 4 * src.size, scanned * 16 + src.size * edge_bytes
    user_f = args[0]
    k, width = user_f.shape[1], 8
    if name in ("social_gradient", "social_penalty"):
        edges = args[1].shape[0]
        if name == "social_penalty":
            # diff, square-add, weight: read src/dst/sim and two factor rows
            return edges * (3 * k + 2), edges * (3 + 2 * k) * width
        # weighted pull added to both endpoint rows (read-modify-write), plus
        # the zeroed output
        return (edges * (4 * k + 1),
                edges * (3 + 2 * k + 4 * k) * width + user_f.size * width)
    item_f, nnz = args[1], args[2].shape[0]
    if name == "predict_pairs":
        return nnz * 2 * k, nnz * (3 + 2 * k) * width
    if name == "squared_error_sum":
        return nnz * (2 * k + 3), nnz * (3 + 2 * k) * width
    # rating_gradients: prediction, error, two scaled row updates
    return (nnz * (6 * k + 1),
            nnz * (3 + 2 * k + 4 * k) * width + (user_f.size + item_f.size) * width)


def _count_lines(path, cache):
    if path not in cache:
        with open(path, "r", encoding="utf-8") as fh:
            cache[path] = sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))
    return cache[path]


def iteration_metrics(tracer, root_index, next_index):
    """Per-layer metrics of one traced iteration: spans [root_index, next_index)."""
    spans, kept = tracer.spans, tracer.kept
    rows = _self_times(spans, root_index, next_index)
    incl, self_t, calls = {}, {}, {}
    for name, dur, self_time in rows:
        incl[name] = incl.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1
    run_s = rows[0][1]

    def ms(name):
        return incl.get(name, 0.0) * 1e3

    def self_ms(*names):
        return sum(self_t.get(n, 0.0) for n in names) * 1e3

    m = {
        "data.load_dataset.ms": ms("data.load_dataset"),
        "data.split_ratings.ms": ms("data.split_ratings"),
        "data.cold_start_split.ms": ms("data.cold_start_split"),
        "similarity.build.pcc.ms": ms("similarity.build.pcc"),
        "similarity.build.vss.ms": ms("similarity.build.vss"),
        "factorization.train.calls": calls.get("factorization.train", 0),
        "factorization.train.self_ms": self_ms("factorization.train"),
        "factorization.gradients_social.self_ms": self_ms("factorization.gradients_social"),
        "factorization.objective.self_ms": self_ms("factorization.objective_basic",
                                                   "factorization.objective_social"),
        "factorization.save_model.ms": ms("factorization.save_model"),
        "factorization.load_model.ms": ms("factorization.load_model"),
        "baselines.build_means.ms": ms("baselines.build_means"),
        "evaluation.evaluate.ms": ms("evaluation.evaluate"),
        "evaluation.run_similarity_study.self_ms": self_ms("evaluation.run_similarity_study"),
        "evaluation.run_comparison.ms": ms("evaluation.run_comparison"),
        "evaluation.write_csv.ms": ms("evaluation.write_csv"),
        "cli.main.ms": ms("cli.main"),
    }

    line_cache, reports = {}, []
    lines = edges = informative = 0
    kernel_ops = {k: 0 for k in KERNELS}
    kernel_bytes = {k: 0 for k in KERNELS}
    for index in range(root_index, next_index):
        name, value = spans[index][0], kept.get(index)
        if value is None:  # nothing kept, or the call raised
            continue
        if name == "data.load_dataset":
            lines += sum(_count_lines(str(p), line_cache) for p in value if p is not None)
        elif name == "factorization.train":
            reports.append(value)
        elif name in ("similarity.build.pcc", "similarity.build.vss"):
            # 0.5 is what PCC gives an overlap under 2 items; VSS gives 0
            empty = 0.5 if name.endswith("pcc") else 0.0
            edges += value.size
            informative += int(np.count_nonzero(value != empty))
        elif name.startswith("kernels."):
            kernel = name[len("kernels."):]
            ops, nbytes = kernel_counts(kernel, value)
            kernel_ops[kernel] += ops
            kernel_bytes[kernel] += nbytes

    m["data.load_dataset.lines"] = lines
    m["similarity.edges"] = edges
    m["similarity.informative_ratio"] = informative / edges if edges else 0.0
    m["factorization.train.epochs"] = sum(r.epochs_run for r in reports)
    m["factorization.train.converged_ratio"] = (
        sum(r.converged for r in reports) / len(reports) if reports else 0.0)
    for k in KERNELS:
        name = f"kernels.{k}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.ms"] = ms(name)
        m[f"{name}.ops_computed"] = kernel_ops[k]
        m[f"{name}.bytes_computed"] = kernel_bytes[k]
        m[f"{name}.ops_per_byte"] = kernel_ops[k] / kernel_bytes[k] if kernel_bytes[k] else 0.0
    attributed = sum(s for name, _, s in rows[1:])
    m["trace.attributed_ratio"] = attributed / run_s
    m["trace.run_s"] = run_s
    return m


def median_metrics(per_iteration):
    """Median of each metric over the traced iterations."""
    return {name: statistics.median(m[name] for m in per_iteration)
            for name in per_iteration[0]}


def write_spans(tracer, path):
    """Write every recorded span as one tab-separated line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# name\tstart_s\tend_s\tparent\top_id\n")
        for name, start, end, parent, op in tracer.spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
