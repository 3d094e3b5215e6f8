"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from socrec import factorization, similarity  # noqa: E402
from socrec.evaluation import MetricPair  # noqa: E402
from socrec.synthetic import clustered_dataset  # noqa: E402


def make_runner(references=None):
    return harness.Runner(workloads.WORKLOADS["planted-200"], ".", ".", references)


def test_perturbed_metric_counts_as_failed():
    ref = {"evaluate.basic": {"mae": 0.8, "rmse": 1.0}}
    runner = make_runner(ref)
    runner.check("evaluate.basic", MetricPair(mae=0.8 * (1 + 1e-6), rmse=1.0))
    assert runner.failed == 1
    assert "reference" in runner.problems[0][2]


def test_drift_within_tolerance_passes():
    ref = {"evaluate.basic": {"mae": 0.8, "rmse": 1.0}}
    runner = make_runner(ref)
    runner.check("evaluate.basic", MetricPair(mae=0.8 * (1 + 1e-13), rmse=1.0 - 1e-13))
    assert runner.failed == 0


def test_metric_checks_hold_for_any_seed():
    runner = make_runner()
    runner.check("evaluate.basic", MetricPair(mae=1.1, rmse=1.0))
    runner.check("evaluate.social", MetricPair(mae=float("nan"), rmse=1.0))
    assert runner.failed == 2


def test_repeated_operation_must_match_first_run():
    runner = make_runner()
    runner.check("evaluate.basic", MetricPair(mae=0.8, rmse=1.0))
    runner.check("evaluate.basic", MetricPair(mae=0.8, rmse=1.0))
    assert runner.failed == 0
    runner.check("evaluate.basic", MetricPair(mae=np.nextafter(0.8, 1.0), rmse=1.0))
    assert runner.failed == 1


def test_round_trip_must_be_bit_exact():
    rng = np.random.default_rng(0)
    model = factorization.FactorModel(rng.random((3, 2)), rng.random((4, 2)), 2, 3.5)
    copy = factorization.FactorModel(model.user_factors.copy(), model.item_factors.copy(),
                                     2, 3.5)
    assert checks.describe(copy, same_as=model)[2] == []
    copy.item_factors[1, 1] = np.nextafter(copy.item_factors[1, 1], 2.0)
    assert checks.describe(copy, same_as=model)[2] == ["model changed in a save/load round trip"]


CSV_HEADER = "experiment,variant,seed,train_fraction,mae,rmse"


def test_csv_numbers_compare_within_last_printed_digit():
    ref = [CSV_HEADER, "compare,basic_mf,1,0.8,0.1234567891,0.9",
           "compare,user_mean,1,0.8,1.5e-05,1.2"]
    assert checks.csv_close([ref[0], "compare,basic_mf,1,0.8,0.1234567892,0.9", ref[2]], ref)
    assert checks.csv_close([ref[0], ref[1], "compare,user_mean,1,0.8,1.6e-05,1.2"], ref)
    assert not checks.csv_close([ref[0], "compare,basic_mf,1,0.8,0.1234567894,0.9", ref[2]],
                                ref)
    assert not checks.csv_close([ref[0], "compare,item_mean,1,0.8,0.1234567891,0.9", ref[2]],
                                ref)


def test_csv_key_and_setting_fields_match_exactly():
    ref = [CSV_HEADER, "compare,basic_mf,1,0.8,0.1234567891,0.9"]
    assert not checks.csv_close([ref[0], "compare,basic_mf,2,0.8,0.1234567891,0.9"], ref)
    assert not checks.csv_close([ref[0], "compare,basic_mf,1,0.9,0.1234567891,0.9"], ref)
    assert not checks.csv_close(["experiment,variant,seed,train_fraction,rmse,mae", ref[1]],
                                ref)


def test_perturbed_prediction_counts_as_failed():
    preds = np.linspace(0.01, 0.05, 50)
    values = checks.describe(preds)[0]
    runner = make_runner({"predict.basic": values})
    runner.check("predict.basic", preds.copy())
    assert runner.failed == 0
    wrong = preds.copy()
    wrong[[3, 7]] = wrong[[7, 3]]  # same values, two pairs swapped
    runner.check("predict.basic", wrong)
    assert runner.failed == 1
    assert "weighted_sum" in runner.problems[0][2]


def test_traced_run_below_attributed_margin_is_incorrect():
    result = {"failed": 0, "complete": True, "setup_deterministic": True,
              "layers": {"trace.attributed_ratio": 0.995}}
    assert run.is_correct(result, 1, [])
    result["layers"]["trace.attributed_ratio"] = 0.5
    assert not run.is_correct(result, 1, [])
    assert run.is_correct(result, 0, [])


def test_raising_operation_is_failed_and_ends_iteration():
    runner = make_runner()
    runner._samples = {}

    def broken():
        raise factorization.DivergenceError(3)

    with pytest.raises(harness.IterationAborted):
        runner.op("train.social", broken)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_tracer_catches_calls_inside_train_and_restores_bindings():
    from socrec import _kernels, cli, evaluation

    ratings, graph, _ = clustered_dataset(num_users=40, num_items=6, num_clusters=4, seed=2)
    hp = factorization.Hyperparams(k=3, alpha=0.1, max_epochs=4, tolerance=1e-300)
    originals = (factorization.train, evaluation.train, cli.train, _kernels.social_gradient)

    tracer = tracing.Tracer()
    tracer.install()
    assert evaluation.train is factorization.train is cli.train
    root = tracer.begin(tracing.ROOT)
    sim = similarity.build_similarity_table(ratings, graph, similarity.SimilarityKind.pcc())
    factorization.train(ratings, hp, graph, sim)
    tracer.end(root)
    tracer.uninstall()
    assert (factorization.train, evaluation.train, cli.train,
            _kernels.social_gradient) == originals

    m = tracing.iteration_metrics(tracer, root, len(tracer.spans))
    assert m["factorization.train.calls"] == 1
    assert m["factorization.train.epochs"] == 4
    assert m["kernels.social_gradient.calls"] == 4
    assert m["kernels.rating_gradients.calls"] == 4
    assert m["kernels.squared_error_sum.calls"] == 5  # initial objective + 4 epochs
    nnz, k = ratings.num_entries, hp.k
    assert m["kernels.squared_error_sum.ops_computed"] == 5 * nnz * (2 * k + 3)
    lens = np.diff(ratings.user_ptr)
    scanned = lens[graph.edge_src].sum() + lens[graph.edge_dst].sum()
    assert m["kernels.pcc_edges.calls"] == 1
    assert m["kernels.pcc_edges.ops_computed"] == scanned + 4 * graph.num_edges
    assert 0.0 < m["trace.attributed_ratio"] <= 1.0
    self_sum = sum(s for _, _, s in tracing._self_times(tracer.spans, root, len(tracer.spans)))
    assert self_sum == pytest.approx(m["trace.run_s"], rel=1e-9)
