import logging
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import socrec
from socrec import (
    Hyperparams,
    SimilarityKind,
    load_dataset,
    load_model,
    run_alpha_sweep,
    run_cold_start,
    run_comparison,
    run_similarity_ablation,
    toydata,
)
from socrec import evaluation
from socrec.cli import (
    _HYPERPARAMS,
    _OPTIONS,
    _RUNS,
    _flag,
    build_parser,
    main,
    read_config_file,
    resolve_config,
)

from oracles import struct_save_model


TOY_RATINGS = str(toydata.ratings_path())
TOY_TRUST = str(toydata.trust_path())
GOLDEN = Path(__file__).with_name("golden")
# --k values whose factor block numpy refuses without touching memory: a
# 14.6 TiB allocation, a byte size past the largest array and a k past int64
HUGE_K = ["100000000000", "4611686018427387904", "100000000000000000000"]


def run_cli(*argv):
    return main(list(argv))


def run_installed(*argv):
    """``python -m socrec.cli`` in a child process, which imports the package
    these tests import, installed or not."""
    src = str(Path(socrec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "socrec.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def make_unreadable(path, fault):
    """Turn ``path`` into a file that is not UTF-8, or into a directory."""
    if fault == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"u01 m01 \xff\xfe\n")


def csv_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestTrainCommand:
    def test_basic_mf_writes_model(self, tmp_path, capsys):
        """train writes the model, its ids inside, and the report; no other file."""
        out = tmp_path / "model.txt"
        code = run_cli("train", "--method", "mf", "--ratings", TOY_RATINGS,
                       "--k", "4", "--max-epochs", "30", "--out", str(out))
        assert code == 0
        assert sorted(tmp_path.iterdir()) == [out, tmp_path / "model.txt.report.json"]
        model = load_model(out)
        assert model.k == 4 and model.num_users == 20
        _, _, ids = load_dataset(TOY_RATINGS)
        for count, model_id, data_id in ((ids.num_users, model.ids.user_id, ids.user_id),
                                         (ids.num_items, model.ids.item_id, ids.item_id)):
            assert [model_id(x) for x in range(count)] == [data_id(x) for x in range(count)]

    def test_mf_reads_no_trust_file(self, tmp_path, capsys):
        """A config file's trust key is left unread by mf: a user known only
        to the trust file gets no untrained factor row, so predict falls
        back to the global mean for it."""
        trust = tmp_path / "trust.tsv"
        trust.write_text("u01 stranger\n", encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"trust = {trust}\n", encoding="utf-8")
        out = tmp_path / "m.bin"
        assert run_cli("train", "--method", "mf", "--config", str(cfg), "--ratings", TOY_RATINGS,
                       "--max-epochs", "30", "--out", str(out)) == 0
        model = load_model(out)
        assert model.num_users == 20
        capsys.readouterr()
        assert run_cli("predict", "--model", str(out), "--user", "stranger", "--item", "m01") == 0
        captured = capsys.readouterr()
        assert "unknown user" in captured.err
        assert float(captured.out) == pytest.approx(np.clip(model.global_mean, 1, 5), abs=5e-5)

    def test_social_without_trust_is_usage_error(self, tmp_path, capsys):
        code = run_cli("train", "--method", "social", "--ratings", TOY_RATINGS,
                       "--out", str(tmp_path / "m.txt"))
        assert code == 1
        assert "trust" in capsys.readouterr().err

    def test_same_seed_same_model_file(self, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            code = run_cli("train", "--method", "social", "--ratings", TOY_RATINGS,
                           "--trust", TOY_TRUST, "--max-epochs", "30",
                           "--seed", "3", "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_train_without_ratings_is_usage_error(self, tmp_path, capsys):
        code = run_cli("train", "--method", "mf", "--out", str(tmp_path / "m.bin"))
        assert code == 1
        assert capsys.readouterr().err == "socrec: error: --ratings is required\n"

    def test_missing_ratings_file_is_data_error(self, tmp_path, capsys):
        code = run_cli("train", "--method", "mf",
                       "--ratings", str(tmp_path / "nope.tsv"))
        assert code == 2

    def test_ratings_file_without_ratings_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# user item rating\n\n", encoding="utf-8")
        code = run_cli("train", "--method", "mf", "--ratings", str(empty),
                       "--out", str(tmp_path / "m.txt"))
        assert code == 2
        assert "no ratings" in capsys.readouterr().err

    def test_divergent_learning_rate_exit_code(self, tmp_path, capsys):
        code = run_cli("train", "--method", "mf", "--ratings", TOY_RATINGS,
                       "--learning-rate", "50", "--max-epochs", "50",
                       "--out", str(tmp_path / "m.txt"))
        assert code == 3

    def test_divergence_at_the_initial_factors_names_the_initial_scale(self, tmp_path):
        """Factors of scale 1e300 overflow the objective before any step: the
        run exits 3 with one line naming the initial scale, and numpy's
        overflow warning is not printed."""
        out = run_installed("train", "--method", "mf", "--ratings", TOY_RATINGS,
                            "--init-scale", "1e300", "--max-epochs", "3",
                            "--out", str(tmp_path / "m.bin"))
        assert out.returncode == 3
        assert out.stderr.splitlines() == [
            "socrec: divergence: non-finite objective at epoch 0, from initial factors "
            "on [0, 1e+300]; lower the initial scale"]

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_out_outside_a_directory_is_usage_error(self, tmp_path, capsys, where):
        out = tmp_path / "missing" / "m.txt" if where == "missing-dir" else tmp_path
        code = run_cli("train", "--method", "mf", "--ratings", TOY_RATINGS,
                       "--max-epochs", "5", "--out", str(out))
        assert code == 1
        assert f"socrec: error: --out {out}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("train", "--method", "social", "--similarity", "random:x"),
        ("experiment", "--which", "cold-start", "--similarity", "cosine"),
        ("experiment", "--which", "sim-study", "--similarity", "constant"),
        ("experiment", "--which", "sim-study", "--similarity", "random:1"),
        ("train", "--method", "social", "--similarity", "pcc:5"),
        ("experiment", "--which", "sim-study", "--similarity", "vss:3"),
        ("experiment", "--which", "compare", "--similarity", "constant:0"),
        ("train", "--method", "social", "--similarity", "random:-1"),
        ("train", "--method", "social", "--similarity", ""),
    ])
    def test_bad_similarity_is_config_error_before_any_file(self, tmp_path, capsys, argv):
        missing = tmp_path / "missing.tsv"
        out_dir = tmp_path / "res"
        code = run_cli(*argv, "--ratings", str(missing), "--trust", str(missing),
                       *(("--out-dir", str(out_dir)) if argv[0] == "experiment" else ()))
        assert code == 1
        assert capsys.readouterr().err.startswith("socrec: error: --similarity ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [("train", "--method", "mf"),
                                      ("experiment", "--which", "compare")])
    def test_negative_seed_is_config_error_before_any_file(self, tmp_path, capsys, argv):
        """train refuses a negative --seed; experiment takes no --seed at all,
        because each experiment trains with its split's seed."""
        missing = str(tmp_path / "missing.tsv")
        where = (("--out",) if argv[0] == "train" else ("--trust", missing, "--out-dir"))
        code = run_cli(*argv, "--seed", "-1", "--ratings", missing, *where, str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            "socrec: error: --seed '-1': seed must be >= 0, got -1\n" if argv[0] == "train"
            else "socrec: error: unrecognized arguments: --seed -1\n")

    def test_bad_flag_value_is_config_error(self, tmp_path, capsys):
        code = run_cli("train", "--method", "mf", "--ratings", TOY_RATINGS,
                       "--k", "0", "--out", str(tmp_path / "m.txt"))
        assert code == 1
        assert "k must be" in capsys.readouterr().err

    @pytest.mark.parametrize("k", HUGE_K)
    def test_huge_k_is_usage_error(self, tmp_path, capsys, k):
        code = run_cli("train", "--method", "mf", "--ratings", TOY_RATINGS,
                       "--k", k, "--out", str(tmp_path / "m.txt"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("socrec: error: not enough memory: ")
        assert err.rstrip().endswith("; lower --k")


class TestPredictCommand:
    @pytest.fixture()
    def model_path(self, tmp_path):
        out = tmp_path / "model.txt"
        assert run_cli("train", "--method", "mf", "--ratings", TOY_RATINGS,
                       "--k", "4", "--lambda", "0.05", "--learning-rate", "0.01",
                       "--max-epochs", "400", "--out", str(out)) == 0
        return out

    def test_known_pair_prints_one_line(self, model_path, capsys):
        code = run_cli("predict", "--model", str(model_path),
                       "--user", "u01", "--item", "m01")
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        value = float(out[0])
        assert 1.0 <= value <= 5.0
        # u01 rated m01 with 5; the fitted toy model should be close
        assert value == pytest.approx(5.0, abs=0.5)

    def test_unknown_user_warns_and_prints_global_mean(self, model_path, capsys):
        code = run_cli("predict", "--model", str(model_path),
                       "--user", "nobody", "--item", "m01")
        assert code == 0
        captured = capsys.readouterr()
        assert "unknown user" in captured.err
        model = load_model(model_path)
        expected = float(np.clip(model.global_mean, 1.0, 5.0))
        assert float(captured.out.strip()) == pytest.approx(expected, abs=5e-5)

    def test_model_with_byte_order_mark(self, model_path, capsys):
        argv = ("predict", "--model", str(model_path), "--user", "u01", "--item", "m01")
        assert run_cli(*argv) == 0
        expected = capsys.readouterr().out
        model_path.write_bytes(b"\xef\xbb\xbf" + model_path.read_bytes())
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == expected

    def test_ids_travel_inside_the_model(self, model_path, tmp_path, capsys):
        """A model copied on its own predicts as it did where it was written."""
        argv = ("predict", "--user", "u07", "--item", "m03")
        assert run_cli(*argv, "--model", str(model_path)) == 0
        expected = capsys.readouterr().out
        copy = tmp_path / "elsewhere" / "copy.bin"
        copy.parent.mkdir()
        copy.write_bytes(model_path.read_bytes())
        assert run_cli(*argv, "--model", str(copy)) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("target,value", [("factor", "nan"), ("mean", "inf")])
    def test_non_finite_model_is_data_error(self, model_path, capsys, target, value):
        """One non-finite value in a model is a data error naming where it
        sits, whether or not the prediction uses it."""
        data = bytearray(model_path.read_bytes())
        head = data.index(b"\n") + 1
        offset = (head + int(data[:head].split()[-1]) if target == "factor"
                  else len(data) - 8)
        data[offset:offset + 8] = struct.pack("<d", float(value))
        model_path.write_bytes(bytes(data))
        where = "user row 0" if target == "factor" else "global mean"
        for user in ("u01", "nobody"):
            code = run_cli("predict", "--model", str(model_path), "--user", user,
                           "--item", "m01")
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{model_path}: non-finite value in {where}" in captured.err

    @pytest.mark.parametrize("head,needs", [
        (b"SOCREC-MODEL v3 10 100000000000 5 0\n", "needs 8000000000408"),
        (b"SOCREC-MODEL v3 2 2 3 100000000000000\n", "needs 100000000000088"),
    ], ids=["rows", "id-block"])
    def test_header_claiming_huge_model_is_data_error(self, model_path, capsys, head, needs):
        model_path.write_bytes(head.ljust(100, b"\0"))
        code = run_cli("predict", "--model", str(model_path), "--user", "u01", "--item", "m01")
        assert code == 2
        assert needs in capsys.readouterr().err

    def test_corrupt_model_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a model\n", encoding="utf-8")
        code = run_cli("predict", "--model", str(bad), "--user", "a", "--item", "b")
        assert code == 2

    @pytest.mark.parametrize("head", [b"SOCREC-MODEL v2 4 20 15\n", b"SOCREC-MODEL v1 4 20 15\n"],
                             ids=["v2", "v1"])
    def test_model_of_an_earlier_version_must_be_trained_again(self, model_path, capsys, head):
        """A v2 model (binary body) or v1 model (text) exits 2 naming the format."""
        model_path.write_bytes(head + b"\0" * (8 * (35 * 4 + 1)))
        code = run_cli("predict", "--model", str(model_path), "--user", "u01", "--item", "m01")
        assert code == 2
        assert capsys.readouterr().err == (
            f"socrec: data error: {model_path}:1: not a SOCREC-MODEL v3 file; models "
            "written by earlier versions must be trained again\n")

    @pytest.mark.parametrize("kind", ["user", "item"])
    def test_repeated_id_is_data_error(self, model_path, capsys, kind):
        model = load_model(model_path)
        users = [model.ids.user_id(u) for u in range(model.num_users)]
        items = [model.ids.item_id(i) for i in range(model.num_items)]
        ids = users if kind == "user" else items
        ids[-1] = ids[0]
        struct_save_model(model_path, model.user_factors.tolist(),
                          model.item_factors.tolist(), model.global_mean, users, items)
        code = run_cli("predict", "--model", str(model_path), "--user", "u01", "--item", "m01")
        assert code == 2
        assert f"{model_path}: {kind} id {ids[0]!r} listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["not-utf8", "directory"])
class TestUnreadableInputs:
    """An input data file that cannot be opened or decoded is a data error
    (exit 2) naming the file, whichever kind of file it is."""

    def check(self, capsys, path, *argv):
        assert run_cli(*argv) == 2
        assert f"socrec: data error: cannot read {path}: " in capsys.readouterr().err

    def test_ratings(self, tmp_path, capsys, fault):
        path = tmp_path / "ratings.tsv"
        make_unreadable(path, fault)
        self.check(capsys, path, "train", "--method", "mf", "--ratings", str(path),
                   "--out", str(tmp_path / "m.txt"))

    def test_trust(self, tmp_path, capsys, fault):
        path = tmp_path / "trust.tsv"
        make_unreadable(path, fault)
        self.check(capsys, path, "train", "--method", "social", "--ratings", TOY_RATINGS,
                   "--trust", str(path), "--out", str(tmp_path / "m.txt"))

    def test_model(self, tmp_path, capsys, fault):
        """The model's text part is its id block: one that is not UTF-8 makes
        the model unreadable."""
        path = tmp_path / "model.txt"
        if fault == "directory":
            make_unreadable(path, fault)
        else:
            assert run_cli("train", "--method", "mf", "--ratings", TOY_RATINGS,
                           "--max-epochs", "5", "--out", str(path)) == 0
            data = path.read_bytes()
            at = data.index(b"\nu01\n") + 1
            path.write_bytes(data[:at] + b"\xff\xfe\x00" + data[at + 3:])
        self.check(capsys, path, "predict", "--model", str(path), "--user", "u01",
                   "--item", "m01")


class TestExperimentCommand:
    def test_compare_writes_expected_rows(self, tmp_path):
        out_dir = tmp_path / "res"
        code = run_cli("experiment", "--which", "compare",
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       "--fractions", "0.9", "--seeds", "1,2",
                       "--max-epochs", "40", "--out-dir", str(out_dir))
        assert code == 0
        body = csv_lines(out_dir / "compare.csv")
        assert body[0] == "experiment,variant,seed,train_fraction,mae,rmse"
        assert len(body) == 1 + 4 * 2  # 4 methods x 2 seeds
        assert (out_dir / "compare-summary.csv").exists()

    def test_alpha_sweep_row_count_matches_grid(self, tmp_path):
        out_dir = tmp_path / "res"
        code = run_cli("experiment", "--which", "alpha-sweep",
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       "--fractions", "0.9", "--seeds", "1",
                       "--alphas", "0,0.01,0.1", "--max-epochs", "40",
                       "--out-dir", str(out_dir))
        assert code == 0
        body = csv_lines(out_dir / "alpha-sweep.csv")
        assert len(body) == 1 + 3
        mae_body = csv_lines(out_dir / "alpha-sweep-mae.csv")
        assert mae_body[0] == "alpha,mae"
        assert len(mae_body) == 1 + 3

    # --kinds splits on commas and whitespace, like every list flag
    @pytest.mark.parametrize("kinds,variants", [
        ("constant,random:7,vss,pcc", ["constant", "random:7", "vss", "pcc"]),
        ("pcc vss", ["pcc", "vss"]),
    ])
    def test_ablation_covers_all_kinds(self, tmp_path, kinds, variants):
        out_dir = tmp_path / "res"
        code = run_cli("experiment", "--which", "ablation",
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       "--fractions", "0.9", "--seeds", "1", "--kinds", kinds,
                       "--max-epochs", "40", "--out-dir", str(out_dir))
        assert code == 0
        body = csv_lines(out_dir / "ablation.csv")
        assert [line.split(",")[1] for line in body[1:]] == variants

    def test_cold_start_runs_on_toy_data(self, tmp_path):
        out_dir = tmp_path / "res"
        code = run_cli("experiment", "--which", "cold-start",
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       "--seeds", "1,2", "--cold-start-threshold", "5",
                       "--max-epochs", "40", "--out-dir", str(out_dir))
        assert code == 0
        body = csv_lines(out_dir / "cold-start.csv")
        assert len(body) == 1 + 4 * 2

    def test_no_cold_users_writes_headers_and_reports_once(self, tmp_path, capsys, caplog):
        """Every toy user has four ratings, so threshold 2 finds no cold-start
        user: both CSVs hold only their header, and the notice shows once
        across stdout, stderr and the log records."""
        out_dir = tmp_path / "res"
        with caplog.at_level(logging.WARNING):
            code = run_cli("experiment", "--which", "cold-start",
                           "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                           "--cold-start-threshold", "2", "--out-dir", str(out_dir))
        assert code == 0
        assert csv_lines(out_dir / "cold-start.csv") == [
            "experiment,variant,seed,train_fraction,mae,rmse"]
        assert csv_lines(out_dir / "cold-start-summary.csv") == [
            "experiment,variant,train_fraction,mae,rmse,p_mae,p_rmse"]
        out, err = capsys.readouterr()
        shown = out + err + "".join(r.getMessage() for r in caplog.records)
        assert shown.count("no cold-start users") == 1

    @pytest.mark.parametrize("which,flags,run,rows", [
        ("compare", ["--fractions", "0.9", "--seeds", "1,2"],
         lambda r, g, hp: run_comparison(r, g, (0.9,), (1, 2), hp), 8),
        ("alpha-sweep", ["--fractions", "0.8", "--seeds", "3", "--alphas", "0.1,0.1"],
         lambda r, g, hp: run_alpha_sweep(r, g, (0.1, 0.1), hp, train_fraction=0.8,
                                          seed=3), 2),
        ("ablation", ["--fractions", "0.8", "--seeds", "3", "--kinds", "pcc,pcc"],
         lambda r, g, hp: run_similarity_ablation(r, g, (SimilarityKind.pcc(),) * 2, hp,
                                                  train_fraction=0.8, seed=3), 2),
        ("cold-start", ["--seeds", "1,2", "--cold-start-threshold", "5"],
         lambda r, g, hp: run_cold_start(r, g, 5, hp, seeds=(1, 2)), 8),
    ], ids=["compare", "alpha-sweep", "ablation", "cold-start"])
    def test_csv_rows_are_the_runners_results(self, tmp_path, which, flags, run, rows):
        """Each experiment writes its runner's results, one row per variant
        and seed and one summary row per variant, in the runner's order; a
        repeated alpha or kind gives repeated rows."""
        out_dir = tmp_path / "res"
        assert run_cli("experiment", "--which", which, "--ratings", TOY_RATINGS,
                       "--trust", TOY_TRUST, "--k", "3", "--max-epochs", "30",
                       "--out-dir", str(out_dir), *flags) == 0
        ratings, graph, _ = load_dataset(TOY_RATINGS, TOY_TRUST)
        results = run(ratings, graph, Hyperparams(k=3, max_epochs=30))
        body = csv_lines(out_dir / f"{which}.csv")[1:]
        assert body == [
            f"{which},{r.method},{seed},{r.train_fraction:.10g},{pair.mae:.10g},{pair.rmse:.10g}"
            for r in results for seed, pair in zip(r.seeds, r.per_seed)
        ]
        assert len(body) == rows
        summary = csv_lines(out_dir / f"{which}-summary.csv")[1:]
        assert len(summary) == len(results) == rows // len(results[0].seeds)
        for line, r in zip(summary, results):
            assert line.startswith(f"{which},{r.method},{r.train_fraction:.10g},"
                                   f"{r.mean.mae:.10g},{r.mean.rmse:.10g},")

    @pytest.mark.parametrize("which,flags", [
        ("compare", ["--fractions", "0.9", "--seeds", "1"]),
        ("alpha-sweep", ["--fractions", "0.9", "--seeds", "1", "--alphas", "0.1"]),
        ("cold-start", ["--seeds", "1"]),
    ])
    def test_similarity_reaches_the_experiment(self, tmp_path, monkeypatch, which, flags):
        """Every similarity table the experiment builds is of the --similarity
        kind. The toy CSVs cannot show this: every kind gives the same rows."""
        asked = []
        build = evaluation.build_similarity_table

        def record(ratings, graph, kind):
            asked.append(kind)
            return build(ratings, graph, kind)

        monkeypatch.setattr(evaluation, "build_similarity_table", record)
        assert run_cli("experiment", "--which", which, "--ratings", TOY_RATINGS,
                       "--trust", TOY_TRUST, "--similarity", "constant", *flags,
                       "--max-epochs", "5", "--out-dir", str(tmp_path / "res")) == 0
        assert asked and set(asked) == {SimilarityKind.constant()}

    def test_sim_study_on_toy_data_is_perfect(self, tmp_path, capsys):
        """The bundled triangles share all ratings; strangers share none."""
        out_dir = tmp_path / "res"
        code = run_cli("experiment", "--which", "sim-study",
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       "--min-out-degree", "1", "--seeds", "1",
                       "--out-dir", str(out_dir))
        assert code == 0
        assert "fraction_positive = 1.0000" in capsys.readouterr().out
        summary = (out_dir / "sim-study-summary.csv").read_text().splitlines()
        assert summary[1].startswith("1,")

    @pytest.mark.parametrize("which", _RUNS["experiment"])
    def test_every_csv_opens_with_its_column_header(self, tmp_path, which):
        """Result CSVs carry no comment line, so reruns are byte-identical:
        each file's first line is the column header its golden file holds."""
        out_dir = tmp_path / "res"
        epochs = [] if which == "sim-study" else ["--max-epochs", "5"]
        assert run_cli("experiment", "--which", which, "--ratings", TOY_RATINGS,
                       "--trust", TOY_TRUST, "--seeds", "1", *epochs,
                       "--out-dir", str(out_dir)) == 0
        golden = GOLDEN / which
        names = sorted(path.name for path in golden.glob("*.csv"))
        assert sorted(path.name for path in out_dir.iterdir()) == names
        for name in names:
            assert csv_lines(out_dir / name)[0] == csv_lines(golden / name)[0], name

    @pytest.mark.parametrize("k", HUGE_K)
    def test_huge_k_is_usage_error(self, tmp_path, capsys, k):
        code = run_cli("experiment", "--which", "compare",
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       "--k", k, "--out-dir", str(tmp_path / "res"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("socrec: error: not enough memory: ")
        assert err.rstrip().endswith("; lower --k")

    @pytest.mark.parametrize("which", ["sim-study", "compare"])
    def test_negative_seed_names_seeds(self, tmp_path, capsys, which):
        out_dir = tmp_path / "res"
        code = run_cli("experiment", "--which", which,
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       "--seeds", "1,-1", "--out-dir", str(out_dir))
        assert code == 1
        assert capsys.readouterr().err == (
            "socrec: error: --seeds '1,-1': must be one or more values >= 0\n")
        assert not out_dir.exists()

    def test_cold_start_on_one_rating_per_user_is_data_error_naming_the_file(
            self, tmp_path, capsys):
        """Every threshold holds out each user's only rating, so the file,
        not --cold-start-threshold, is at fault."""
        ratings = tmp_path / "one-each.tsv"
        ratings.write_text("u1 m1 4\nu2 m2 3\nu3 m1 5\n", encoding="utf-8")
        trust = tmp_path / "trust.tsv"
        trust.write_text("u1 u2\nu2 u3\n", encoding="utf-8")
        out_dir = tmp_path / "res"
        code = run_cli("experiment", "--which", "cold-start",
                       "--ratings", str(ratings), "--trust", str(trust),
                       "--cold-start-threshold", "2", "--out-dir", str(out_dir))
        assert code == 2
        assert capsys.readouterr().err == (
            f"socrec: data error: {ratings}: every user has one rating; the cold-start "
            "split holds each one out and leaves no train set\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("fraction", ["0.9", "0.1"])
    @pytest.mark.parametrize("which", ["compare", "alpha-sweep", "ablation"])
    def test_one_rating_is_data_error_naming_the_file(self, tmp_path, capsys,
                                                      which, fraction):
        """No train fraction splits a single rating into a train and a test
        side, so the file, not an option, is at fault."""
        ratings = tmp_path / "one.tsv"
        ratings.write_text("u1 m1 4\n", encoding="utf-8")
        trust = tmp_path / "trust.tsv"
        trust.write_text("u1 u2\n", encoding="utf-8")
        out_dir = tmp_path / "res"
        code = run_cli("experiment", "--which", which, "--fractions", fraction,
                       "--ratings", str(ratings), "--trust", str(trust),
                       "--max-epochs", "5", "--out-dir", str(out_dir))
        assert code == 2
        assert capsys.readouterr().err == (
            f"socrec: data error: {ratings}: holds 1 rating; "
            "a train/test split needs at least 2 ratings\n")
        assert not out_dir.exists()

    def test_unknown_experiment_is_usage_error(self, tmp_path, capsys):
        code = run_cli("experiment", "--which", "nonsense",
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST)
        assert code == 1


class TestConfigFile:
    def test_precedence_flags_over_config_over_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 6\nlambda = 0.5\nmax-epochs = 25\n", encoding="utf-8")
        values = read_config_file(cfg)
        assert values == {"k": 6, "lambda": 0.5, "max_epochs": 25}
        out = tmp_path / "m.txt"
        code = run_cli("train", "--method", "mf", "--ratings", TOY_RATINGS,
                       "--config", str(cfg), "--k", "3", "--out", str(out))
        assert code == 0
        model = load_model(out)
        assert model.k == 3  # flag beat the config file

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n", encoding="utf-8")
        code = run_cli("train", "--method", "mf", "--ratings", TOY_RATINGS,
                       "--config", str(cfg), "--out", str(tmp_path / "m.txt"))
        assert code == 1
        assert "mystery" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k = \xff\n")
        code = run_cli("train", "--method", "mf", "--ratings", TOY_RATINGS,
                       "--config", str(cfg), "--out", str(tmp_path / "m.txt"))
        assert code == 1
        assert f"socrec: error: cannot read config file {cfg}: " in capsys.readouterr().err

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\ufeffk = 6\n", encoding="utf-8")
        assert read_config_file(cfg) == {"k": 6}

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nseed = 4\n", encoding="utf-8")
        assert read_config_file(cfg) == {"seed": 4}

    def test_experiment_accepts_a_shared_config_s_seed(self, tmp_path):
        """A config file shared with train may set seed; experiment, which
        takes no --seed, accepts it and leaves it unread."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 4\n", encoding="utf-8")
        argv = ["experiment", "--which", "compare"]
        shared = resolve_config(build_parser().parse_args([*argv, "--config", str(cfg)]))
        assert shared == resolve_config(build_parser().parse_args(argv))

    def test_paths_can_come_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"ratings = {TOY_RATINGS}\nmax-epochs = 20\n", encoding="utf-8"
        )
        out = tmp_path / "m.txt"
        code = run_cli("train", "--method", "mf", "--config", str(cfg),
                       "--out", str(out))
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("which,flag,value,named", [
        ("alpha-sweep", "--fractions", "1.5",
         "--fractions '1.5': must be one or more values in (0, 1)\n"),
        ("alpha-sweep", "--alphas", "0,-1",
         "--alphas '0,-1': must be one or more finite values >= 0\n"),
        ("alpha-sweep", "--alphas", "0,nan",
         "--alphas '0,nan': must be one or more finite values >= 0\n"),
        ("alpha-sweep", "--alphas", "-1,0", "--alphas '-1,0': must be one or more finite"),
        ("alpha-sweep", "--fractions", "-0.5,0.5",
         "--fractions '-0.5,0.5': must be one or more values in (0, 1)\n"),
        ("alpha-sweep", "--alphas", "inf", "--alphas 'inf': must be one or more finite"),
        ("alpha-sweep", "--alphas", "1e999", "--alphas '1e999': must be one or more finite"),
        ("alpha-sweep", "--seeds", ",", "--seeds ',': must be one or more values >= 0\n"),
        ("cold-start", "--cold-start-threshold", "1",
         "--cold-start-threshold '1': must be >= 2\n"),
        ("sim-study", "--min-out-degree", "0", "--min-out-degree '0': must be >= 1\n"),
        ("compare", "--alpha", "-0.5", "--alpha '-0.5': alpha must be >= 0, got -0.5\n"),
        ("alpha-sweep", "--lambda", "nan", "--lambda 'nan': lambda must be finite, got nan\n"),
        ("ablation", "--kinds", "random:-1", "--kinds 'random:-1': seed must be >= 0, got -1\n"),
        ("alpha-sweep", "--seeds", "1,x",
         "--seeds '1,x': invalid literal for int() with base 10: 'x'\n"),
        ("alpha-sweep", "--fractions", "0.5,abc",
         "--fractions '0.5,abc': could not convert string to float: 'abc'\n"),
        ("alpha-sweep", "--k", "x", "--k 'x': invalid literal for int() with base 10: 'x'\n"),
        ("alpha-sweep", "--max-epochs", "1.5",
         "--max-epochs '1.5': invalid literal for int() with base 10: '1.5'\n"),
        ("cold-start", "--cold-start-threshold", "x",
         "--cold-start-threshold 'x': invalid literal for int() with base 10: 'x'\n"),
    ])
    def test_out_of_range_values_name_the_field(self, tmp_path, capsys,
                                                which, flag, value, named):
        """Each case runs under an experiment that reads the flag, so a value
        the converter let through would reach that experiment's runner."""
        code = run_cli("experiment", "--which", which,
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       flag, value, "--out-dir", str(tmp_path / "res"))
        assert code == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,reason", [
        ("kinds", "pcc,random:-1", "seed must be >= 0, got -1"),
        ("similarity", "pcc:5", "only the random kind takes a seed, got 'pcc:5'"),
        ("k", "0", "k must be >= 1, got 0"),
        ("fractions", "1.5", "must be one or more values in (0, 1)"),
        ("cold-start-threshold", "1", "must be >= 2"),
        ("min-out-degree", "0", "must be >= 1"),
    ])
    def test_bad_config_value_gives_the_reason(self, tmp_path, capsys, key, value, reason):
        """A config value is checked as a flag is, and its fault names the
        file and line, whether or not the run reads the key."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        code = run_cli("experiment", "--which", "ablation", "--config", str(cfg),
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       "--out-dir", str(tmp_path / "res"))
        assert code == 1
        assert capsys.readouterr().err == (f"socrec: error: {cfg}:1: bad value for "
                                           f"{key.replace('-', '_')}: {value!r}: {reason}\n")


# a value other than the default for each option in cli._OPTIONS
OPTION_SAMPLES = {
    "ratings": "r.tsv", "trust": "t.tsv", "out": "m.bin", "out_dir": "res",
    "k": "4", "lambda": "0.5", "alpha": "0.2", "learning_rate": "0.02",
    "max_epochs": "7", "tolerance": "1e-3", "init_scale": "0.3", "seed": "9",
    "fractions": "0.7,0.6", "seeds": "3,4", "alphas": "0,0.5", "kinds": "vss,random:2",
    "cold_start_threshold": "3", "min_out_degree": "2", "similarity": "vss",
}
# the flags each command declares outside the option table
HAND_WRITTEN = {
    "train": {"--help", "--config", "--method"},
    "predict": {"--help", "--model", "--user", "--item"},
    "experiment": {"--help", "--config", "--which"},
}
RUN_ARGV = {run: [command, "--method" if command == "train" else "--which", run]
            for command, runs in _RUNS.items() for run in runs}
READ = [(name, run) for name, (_, _, runs, _) in _OPTIONS.items() for run in runs]
UNREAD = [(name, run) for name in _OPTIONS for run in RUN_ARGV if (name, run) not in READ]


def _option_value(cfg, name):
    if name in _HYPERPARAMS:
        return getattr(cfg.hyperparams, _HYPERPARAMS[name])
    return getattr(cfg, name)


class TestOptionTable:
    """cli._OPTIONS is the one declaration of every option's flag, config
    key, converter, default and the runs that read it."""

    @pytest.mark.parametrize("name,run", READ)
    def test_flag_and_config_key_give_the_same_value(self, tmp_path, name, run):
        # vss is the study's default similarity, so the study gets pcc
        text = "pcc" if (name, run) == ("similarity", "sim-study") else OPTION_SAMPLES[name]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name.replace('_', '-')} = {text}\n", encoding="utf-8")
        by_flag, by_config, by_default = (
            _option_value(resolve_config(build_parser().parse_args([*RUN_ARGV[run], *extra])),
                          name)
            for extra in ([_flag(name), text], ["--config", str(cfg)], []))
        assert by_flag == by_config != by_default

    def test_training_defaults_are_the_hyperparams_defaults(self):
        """--seed alone keeps its own default, 1."""
        for name, field in _HYPERPARAMS.items():
            default = 1 if name == "seed" else getattr(Hyperparams(), field)
            assert _OPTIONS[name][1] == default, name

    def test_a_value_may_open_with_a_negative_number(self):
        args = build_parser().parse_args([*RUN_ARGV["alpha-sweep"], "--alphas", "-0,0.5"])
        assert _option_value(resolve_config(args), "alphas") == (0.0, 0.5)

    @pytest.mark.parametrize("name,run", UNREAD)
    def test_a_flag_the_run_does_not_read_is_refused_before_any_file(
            self, tmp_path, capsys, name, run):
        """The run's command may take the flag for another run: then the run
        refuses it by name; else the command's parser does not know it."""
        argv = RUN_ARGV[run]
        out_dir = tmp_path / "res"
        text = OPTION_SAMPLES[name]
        code = run_cli(*argv, _flag(name), text, "--ratings", str(tmp_path / "missing.tsv"),
                       *(("--out-dir", str(out_dir)) if argv[0] == "experiment" else
                         ("--out", str(tmp_path / "m.bin"))))
        assert code == 1
        known = any(r in _RUNS[argv[0]] for r in _OPTIONS[name][2])
        assert capsys.readouterr().err == (
            f"socrec: error: {_flag(name)} {text!r}: {run} does not read it\n" if known else
            f"socrec: error: unrecognized arguments: {_flag(name)} {text}\n")
        assert not out_dir.exists()

    def test_a_config_key_the_run_does_not_read_is_left_unread(self, tmp_path):
        """One config file can serve every run: each run resolves what it
        would resolve without the keys it does not read."""
        def resolved(run, names):
            cfg = tmp_path / f"{run}-{len(names)}.cfg"
            cfg.write_text("".join(f"{name} = {OPTION_SAMPLES[name]}\n" for name in names),
                           encoding="utf-8")
            return resolve_config(build_parser().parse_args([*RUN_ARGV[run], "--config",
                                                             str(cfg)]))

        for run in RUN_ARGV:
            own = [name for name in _OPTIONS if (name, run) in READ]
            assert resolved(run, list(_OPTIONS)) == resolved(run, own)

    @pytest.mark.parametrize("command", ["train", "predict", "experiment"])
    def test_help_lists_the_table_s_flags(self, capsys, command):
        """Each flag's help ends with the runs of the command that read it."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))
        readers = {name: [r for r in runs if r in _RUNS.get(command, ())]
                   for name, (_, _, runs, _) in _OPTIONS.items()}
        assert listed == {_flag(name) for name in _OPTIONS if readers[name]} | HAND_WRITTEN[command]
        packed = "".join(out.split())
        for name, runs in readers.items():
            if runs:
                assert "".join(f"{_OPTIONS[name][3]} ({', '.join(runs)})".split()) in packed


def test_unexpected_error_propagates(tmp_path, monkeypatch):
    """An exception the CLI does not map to an exit code is a bug: it
    escapes main with its traceback instead of passing for a usage error."""
    def broken(*args, **kwargs):
        raise ValueError("library bug")

    monkeypatch.setattr(socrec.cli, "run_comparison", broken)
    with pytest.raises(ValueError, match="library bug"):
        main(["experiment", "--which", "compare", "--ratings", TOY_RATINGS,
              "--trust", TOY_TRUST, "--out-dir", str(tmp_path / "res")])


class TestInstalledEntryPoint:
    def test_console_script_help(self):
        out = run_installed("--help")
        assert out.returncode == 0
        assert "train" in out.stdout and "experiment" in out.stdout
