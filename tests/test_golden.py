"""Stored outputs of the CLI on the planted clustered data.

Every ``experiment --which`` value, and ``train --method social`` followed by
``predict``, run through ``cli.main`` on the planted-200 files (the
acceptance suite's ``PLANTED`` parameters) and are compared with the files
under ``tests/golden/``:

- CSV labels, seeds, train fractions and integer fields exactly; the
  measured columns within one unit in their last printed digit;
- ``predict`` output within one unit in its last printed digit;
- the model and its training report by digests, each within rel 1e-9:
  the factor sum, sum of squares and position-weighted sum, the objective
  trace and ``epochs_run``. Raw bytes are not compared, because summation
  order can move a last bit from one machine to another.

Planted data, not the toy files, because on the toy files every PCC value
is 1 and every similarity kind writes the same rows.

To record the goldens again, run ``PYTHONPATH=src python tests/test_golden.py``
from the repository root; a change that does so says why.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from socrec import load_model, save_ratings
from socrec.cli import main
from socrec.synthetic import clustered_dataset

from test_acceptance import PLANTED

GOLDEN = Path(__file__).with_name("golden")
# every run that trains reads these; alpha-sweep reads --alphas in place of --alpha
TRAIN_FLAGS = ["--k", "8", "--lambda", "0.1", "--learning-rate", "0.01", "--max-epochs", "200"]
ALPHA = ["--alpha", "0.5"]
EXPERIMENTS = {
    # not the default similarity, so a run that ignores --similarity differs
    "compare": ["--fractions", "0.9,0.8", "--seeds", "1,2,3", "--similarity", "vss",
                *TRAIN_FLAGS, *ALPHA],
    "alpha-sweep": ["--fractions", "0.8", "--seeds", "2", "--alphas", "0,0.1,0.5,1",
                    *TRAIN_FLAGS],
    "ablation": ["--fractions", "0.8", "--seeds", "2",
                 "--kinds", "constant,random:42,vss,pcc", *TRAIN_FLAGS, *ALPHA],
    # every planted user has 5 ratings, so threshold 6 makes every user cold
    "cold-start": ["--seeds", "1,2,3", "--cold-start-threshold", "6", *TRAIN_FLAGS, *ALPHA],
    "sim-study": ["--seeds", "3", "--min-out-degree", "5"],
}
# CSV columns that hold a measured value; every other field is a label,
# seed, train fraction or count
MEASURED = frozenset({"mae", "rmse", "p_mae", "p_rmse", "friend_sim_mean",
                      "random_sim_mean", "fraction_positive"})
# (user, item) pairs to predict: known pairs, and an unknown user and item
PREDICT = [("0", "0"), ("17", "5"), ("199", "7"), ("nobody", "3"), ("4", "nothing")]
REL = 1e-9


def write_planted(directory: Path):
    """The planted-200 ratings and trust TSVs, with dense indices as ids."""
    ratings, graph, _ = clustered_dataset(**PLANTED)
    save_ratings(ratings, directory / "ratings.tsv")
    (directory / "trust.tsv").write_text(
        "".join(f"{s}\t{t}\n" for s, t in zip(graph.edge_src.tolist(),
                                              graph.edge_dst.tolist())),
        encoding="utf-8")
    return ["--ratings", str(directory / "ratings.tsv"),
            "--trust", str(directory / "trust.tsv")]


def run_experiment(which, data_flags, out_dir: Path) -> dict:
    """The experiment's CSVs, each as its lines."""
    assert main(["experiment", "--which", which, *data_flags, "--out-dir", str(out_dir),
                 *EXPERIMENTS[which]]) == 0
    return {path.name: path.read_text(encoding="utf-8").splitlines()
            for path in sorted(out_dir.glob("*.csv"))}


def _digest(values) -> dict:
    flat = np.ravel(values)
    return {"sum": float(flat.sum()), "sum_sq": float(flat @ flat),
            "weighted_sum": float(flat @ np.arange(1.0, flat.size + 1.0))}


def run_train_predict(data_flags, work: Path) -> dict:
    """Digests of a social model and its report, and ``predict``'s output
    for each pair of ``PREDICT``."""
    out = work / "model.bin"
    assert main(["train", "--method", "social", *data_flags, *TRAIN_FLAGS, *ALPHA,
                 "--seed", "3", "--out", str(out)]) == 0
    model = load_model(out)
    report = json.loads(Path(f"{out}.report.json").read_text(encoding="utf-8"))
    predictions = []
    for user, item in PREDICT:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(["predict", "--model", str(out), "--user", user, "--item", item]) == 0
        predictions.append(stdout.getvalue().strip())
    return {
        "model": {"k": model.k, "num_users": model.num_users, "num_items": model.num_items,
                  "global_mean": model.global_mean,
                  **_digest(np.concatenate((model.user_factors, model.item_factors)))},
        "report": report,
        "predict": predictions,
    }


def _within_last_digit(text, ref) -> bool:
    unit = float(Decimal(1).scaleb(Decimal(ref).as_tuple().exponent))
    return abs(float(text) - float(ref)) <= unit * (1 + REL)


def _close(value, ref) -> bool:
    if isinstance(ref, float):
        return math.isclose(value, ref, rel_tol=REL)
    return value == ref


def assert_csv_matches(name, lines, golden):
    assert lines[:1] == golden[:1] and len(lines) == len(golden), name
    columns = golden[0].split(",")
    for lineno, (line, ref) in enumerate(zip(lines, golden), start=1):
        fields, ref_fields = line.split(","), ref.split(",")
        assert len(fields) == len(ref_fields) == len(columns), f"{name}:{lineno}"
        for column, field, ref_field in zip(columns, fields, ref_fields):
            if column in MEASURED and field != ref_field:
                assert _within_last_digit(field, ref_field), (
                    f"{name}:{lineno}: {column} {field}, golden {ref_field}")
            else:
                assert field == ref_field, f"{name}:{lineno}: {column} {field}, golden {ref_field}"


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    return write_planted(tmp_path_factory.mktemp("planted"))


@pytest.mark.parametrize("which", EXPERIMENTS)
def test_experiment_csvs_match_golden(planted, tmp_path, which):
    outputs = run_experiment(which, planted, tmp_path / "res")
    golden_dir = GOLDEN / which
    assert sorted(outputs) == sorted(p.name for p in golden_dir.glob("*.csv"))
    for name, lines in outputs.items():
        golden = (golden_dir / name).read_text(encoding="utf-8").splitlines()
        assert_csv_matches(f"{which}/{name}", lines, golden)


def test_train_then_predict_matches_golden(planted, tmp_path):
    outputs = run_train_predict(planted, tmp_path)
    golden = json.loads((GOLDEN / "train-social.json").read_text(encoding="utf-8"))
    for key, ref in golden["model"].items():
        assert _close(outputs["model"][key], ref), f"model {key}"
    report, ref_report = outputs["report"], golden["report"]
    assert report.keys() == ref_report.keys()
    assert report["epochs_run"] == ref_report["epochs_run"]
    assert len(report["objective_per_epoch"]) == len(ref_report["objective_per_epoch"])
    for epoch, (value, ref) in enumerate(zip(report["objective_per_epoch"],
                                             ref_report["objective_per_epoch"]), start=1):
        assert _close(value, ref), f"objective at epoch {epoch}"
    for key in ref_report.keys() - {"objective_per_epoch"}:
        assert report[key] == ref_report[key], key
    assert len(outputs["predict"]) == len(golden["predict"])
    for (user, item), value, ref in zip(PREDICT, outputs["predict"], golden["predict"]):
        assert _within_last_digit(value, ref), f"predict {user} {item}: {value}, golden {ref}"


def record():
    """Write every golden file again from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data_flags = write_planted(work)
        for which in EXPERIMENTS:
            outputs = run_experiment(which, data_flags, work / which)
            shutil.rmtree(GOLDEN / which, ignore_errors=True)
            (GOLDEN / which).mkdir(parents=True)
            for name, lines in outputs.items():
                (GOLDEN / which / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs = run_train_predict(data_flags, work)
        (GOLDEN / "train-social.json").write_text(json.dumps(outputs, indent=1) + "\n",
                                                  encoding="utf-8")


if __name__ == "__main__":
    record()
