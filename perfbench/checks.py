"""Output checks for benchmark operations.

Each operation's result is reduced to a description: a dict of numbers (and
CSV lines), a digest of the exact bytes, and the problems found by checks
that hold for any seed (finite values, MAE <= RMSE, similarities in [0, 1],
exit code 0, a fixed epoch budget actually run). Repeated operations must
give identical descriptions, digest included. For ``REFERENCE_SEED`` the
numbers are also compared with ``references.json``, recorded from the
seed commit, within ``REL_TOL``/``ABS_TOL``: a refactor that changes the
floating-point summation order moves the metrics by ~1e-12, which exact
equality would wrongly count as a failure. CSV fields in the
``MEASURED_COLUMNS`` are compared within one unit in their last printed
digit plus the same tolerance; every other field must be equal.
"""

import hashlib
import math
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

REFERENCE_SEED = 100
REL_TOL = 1e-9
ABS_TOL = 1e-12
# CSV columns that hold computed metrics rather than keys or settings
MEASURED_COLUMNS = frozenset({"mae", "rmse", "p_mae", "p_rmse"})


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:20]


def _finite(values: dict) -> list:
    return [f"{k} is not finite" for k, v in values.items()
            if isinstance(v, float) and not math.isfinite(v)]


def describe(result, same_as=None, csv_dir=None, fixed_epochs=None):
    """(values, digest, problems) of one operation's result.

    ``same_as`` is a model the result must equal bit for bit (a save/load
    round trip); ``csv_dir`` holds the CSVs a CLI run wrote; ``fixed_epochs``
    is the epoch budget a training run must use up.
    """
    from socrec.baselines import MeanTable
    from socrec.data import DatasetSplit, SparseRatings, TrustGraph
    from socrec.evaluation import MetricPair, SimilarityStudyResult
    from socrec.factorization import FactorModel, TrainReport
    from socrec.similarity import SimilarityTable

    problems = []
    if isinstance(result, tuple) and len(result) == 3 and isinstance(result[0], SparseRatings):
        ratings, graph, ids = result
        values = {"entries": ratings.num_entries, "users": ratings.num_users,
                  "items": ratings.num_items, "edges": graph.num_edges,
                  "rating_sum": float(ratings.values.sum())}
        dig = digest(ratings.users, ratings.items, ratings.values,
                     graph.edge_src, graph.edge_dst)
    elif isinstance(result, DatasetSplit):
        values = {"train": result.train.num_entries, "test": result.num_test,
                  "test_sum": float(result.test_values.sum())}
        dig = digest(result.train.users, result.train.items, result.test_users,
                     result.test_items, result.test_values)
    elif isinstance(result, SimilarityTable):
        v = result.values
        values = {"edges": int(v.size), "sum": float(v.sum())}
        dig = digest(v)
        if v.size and not (np.isfinite(v).all() and v.min() >= 0.0 and v.max() <= 1.0):
            problems.append("similarity outside [0, 1]")
    elif isinstance(result, MeanTable):
        values = {"global_mean": result.global_mean,
                  "user_mean_sum": float(result.user_means.sum()),
                  "item_mean_sum": float(result.item_means.sum())}
        dig = digest(result.user_means, result.item_means)
    elif isinstance(result, MetricPair):
        values = {"mae": result.mae, "rmse": result.rmse}
        dig = digest(np.array([result.mae, result.rmse]))
        if not result.mae <= result.rmse * (1.0 + 1e-12):
            problems.append(f"MAE {result.mae!r} exceeds RMSE {result.rmse!r}")
    elif isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], TrainReport):
        model, report = result
        objective = report.objective_per_epoch[-1] if report.objective_per_epoch else float("nan")
        values = {"epochs_run": report.epochs_run, "converged": int(report.converged),
                  "objective": float(objective)}
        dig = digest(model.user_factors, model.item_factors)
        if not (np.isfinite(model.user_factors).all() and np.isfinite(model.item_factors).all()):
            problems.append("non-finite factors")
        if fixed_epochs is not None and report.epochs_run != fixed_epochs:
            problems.append(f"ran {report.epochs_run} of a fixed {fixed_epochs} epochs")
    elif isinstance(result, FactorModel):
        values = {"k": result.k, "global_mean": result.global_mean}
        dig = digest(result.user_factors, result.item_factors,
                     np.array([result.global_mean]))
        if same_as is not None and dig != digest(same_as.user_factors, same_as.item_factors,
                                                 np.array([same_as.global_mean])):
            problems.append("model changed in a save/load round trip")
    elif isinstance(result, SimilarityStudyResult):
        values = {"users": int(result.user_indices.size),
                  "friend_mean": float(np.mean(result.friend_sim_means)),
                  "random_mean": float(np.mean(result.random_sim_means)),
                  "fraction_positive": result.fraction_positive}
        dig = digest(result.user_indices, result.friend_sim_means, result.random_sim_means)
    elif isinstance(result, np.ndarray):
        # raw predictions: the position weights catch reordered pairs
        values = {"count": int(result.size), "sum": float(result.sum()),
                  "sum_sq": float(result @ result),
                  "weighted_sum": float(result @ np.arange(1.0, result.size + 1.0))}
        dig = digest(result)
    elif isinstance(result, TrustGraph):
        values = {"edges": result.num_edges}
        dig = digest(result.edge_src, result.edge_dst)
    elif isinstance(result, int) and csv_dir is not None:
        values = {"exit": result}
        if result != 0:
            problems.append(f"exit code {result}")
        for path in sorted(Path(csv_dir).glob("*.csv")):
            lines = path.read_text(encoding="utf-8").splitlines()
            values[path.name] = [line for line in lines if not line.startswith("#")]
        dig = hashlib.sha256(repr(values).encode()).hexdigest()[:20]
    elif result is None:
        values, dig = {}, ""
    else:
        raise TypeError(f"no output check for {type(result).__name__}")
    problems.extend(_finite(values))
    return values, dig, problems


def close(value, ref) -> bool:
    if isinstance(ref, int) and isinstance(value, int):
        return value == ref
    return math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _last_digit(text: str) -> float:
    return float(Decimal(1).scaleb(Decimal(text).as_tuple().exponent))


def csv_close(lines, ref_lines) -> bool:
    """Same CSV body (header line first); the measured columns within one
    unit in their last printed digit, every other field (keys, seeds, train
    fractions) exactly."""
    if len(lines) != len(ref_lines) or not ref_lines or lines[0] != ref_lines[0]:
        return False
    columns = ref_lines[0].split(",")
    for line, ref in zip(lines[1:], ref_lines[1:]):
        fields, ref_fields = line.split(","), ref.split(",")
        if len(fields) != len(ref_fields) or len(fields) != len(columns):
            return False
        for column, field, ref_field in zip(columns, fields, ref_fields):
            if field == ref_field:
                continue
            if column not in MEASURED_COLUMNS:
                return False
            try:
                a, b, unit = float(field), float(ref_field), _last_digit(ref_field)
            except (ValueError, InvalidOperation):
                return False
            if abs(a - b) > unit + REL_TOL * abs(b):
                return False
    return True


def compare_to_reference(values: dict, ref: dict) -> list:
    """Problems found comparing an operation's values with its reference."""
    problems = []
    for name, expected in ref.items():
        if name not in values:
            problems.append(f"{name} missing")
        elif isinstance(expected, list):
            if not csv_close(values[name], expected):
                problems.append(f"{name} differs from the reference")
        elif not close(values[name], expected):
            problems.append(f"{name} = {values[name]!r}, reference {expected!r}")
    return problems
