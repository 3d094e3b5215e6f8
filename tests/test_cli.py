import logging
import os
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
    save_model,
    toydata,
)
from socrec.cli import _ids_sidecar_path, main, read_config_file

from oracles import line_save_model


TOY_RATINGS = str(toydata.ratings_path())
TOY_TRUST = str(toydata.trust_path())
# --k values whose factor block numpy refuses without touching memory: a
# 14.6 TiB allocation, a byte size past the largest array and a k past int64
HUGE_K = ["100000000000", "4611686018427387904", "100000000000000000000"]


def run_cli(*argv):
    return main(list(argv))


def make_unreadable(path, fault):
    """Turn ``path`` into a file that is not UTF-8, or into a directory."""
    if fault == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"u01 m01 \xff\xfe\n")


def csv_body(path):
    """CSV content with the timestamp comment line stripped."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return "\n".join(line for line in lines if not line.startswith("#"))


class TestTrainCommand:
    def test_basic_mf_writes_model(self, tmp_path, capsys):
        out = tmp_path / "model.txt"
        code = run_cli("train", "--method", "mf", "--ratings", TOY_RATINGS,
                       "--k", "4", "--max-epochs", "30", "--out", str(out))
        assert code == 0
        assert out.exists()
        assert (tmp_path / "model.txt.ids").exists()
        assert (tmp_path / "model.txt.report.json").exists()
        model = load_model(out)
        assert model.k == 4 and model.num_users == 20

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

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_out_outside_a_directory_is_usage_error(self, tmp_path, capsys, where):
        out = tmp_path / "missing" / "m.txt" if where == "missing-dir" else tmp_path
        code = run_cli("train", "--method", "mf", "--ratings", TOY_RATINGS,
                       "--max-epochs", "5", "--out", str(out))
        assert code == 1
        assert f"socrec: error: --out {out}: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("train", "--method", "social", "--similarity", "random:x"),
        ("train", "--method", "mf", "--similarity", "cosine"),
        ("experiment", "--which", "sim-study", "--similarity", "constant"),
        ("experiment", "--which", "sim-study", "--similarity", "random:1"),
        ("train", "--method", "social", "--similarity", "pcc:5"),
        ("experiment", "--which", "sim-study", "--similarity", "vss:3"),
        ("experiment", "--which", "ablation", "--similarity", "constant:0"),
        ("train", "--method", "social", "--similarity", "random:-1"),
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
        missing = str(tmp_path / "missing.tsv")
        code = run_cli(*argv, "--seed", "-1", "--ratings", missing, "--trust", missing,
                       "--out" if argv[0] == "train" else "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == "socrec: error: --seed must be >= 0, got -1\n"

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

    def test_model_and_sidecar_with_byte_order_marks(self, model_path, capsys):
        argv = ("predict", "--model", str(model_path), "--user", "u01", "--item", "m01")
        assert run_cli(*argv) == 0
        expected = capsys.readouterr().out
        for path in (model_path, _ids_sidecar_path(model_path)):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("index,fault", [
        ("-1", "outside"),
        ("99999", "outside"),
        ("zz", "non-integer"),
    ])
    def test_bad_sidecar_index_is_data_error(self, model_path, capsys, index, fault):
        sidecar = _ids_sidecar_path(model_path)
        lines = sidecar.read_text(encoding="utf-8").splitlines()
        kind, uid, _ = lines[0].split("\t")
        lines[0] = f"{kind}\t{uid}\t{index}"
        sidecar.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli("predict", "--model", str(model_path), "--user", uid, "--item", "m01")
        assert code == 2
        err = capsys.readouterr().err
        assert f"{sidecar}:1:" in err and fault in err

    @pytest.mark.parametrize("target,value", [("factor", "nan"), ("mean", "inf")])
    def test_non_finite_model_is_data_error(self, model_path, capsys, target, value):
        """One non-finite value in a v1 text model or in a v2 model is a data
        error naming where it sits, whether or not the prediction uses it."""
        def check(message):
            for user in ("u01", "nobody"):
                code = run_cli("predict", "--model", str(model_path), "--user", user,
                               "--item", "m01")
                assert code == 2
                captured = capsys.readouterr()
                assert captured.out == "" and message in captured.err

        model = load_model(model_path)
        line_save_model(model_path, "SOCREC-MODEL v1", model.user_factors.tolist(),
                        model.item_factors.tolist(), model.global_mean)
        lines = model_path.read_text(encoding="utf-8").splitlines()
        lineno = 2 if target == "factor" else len(lines)
        fields = lines[lineno - 1].split()
        fields[0] = value
        lines[lineno - 1] = " ".join(fields)
        model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        check(f"{model_path}:{lineno}: non-finite")

        save_model(model, model_path)
        data = bytearray(model_path.read_bytes())
        offset = data.index(b"\n") + 1 if target == "factor" else len(data) - 8
        data[offset:offset + 8] = struct.pack("<d", float(value))
        model_path.write_bytes(bytes(data))
        where = "user row 0" if target == "factor" else "global mean"
        check(f"{model_path}: non-finite value in {where}")

    def test_header_claiming_huge_model_is_data_error(self, model_path, capsys):
        model_path.write_bytes(b"SOCREC-MODEL v2 10 100000000000 5\n".ljust(100, b"\0"))
        code = run_cli("predict", "--model", str(model_path), "--user", "u01", "--item", "m01")
        assert code == 2
        assert "needs 8000000000408" in capsys.readouterr().err

    def test_corrupt_model_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a model\n", encoding="utf-8")
        code = run_cli("predict", "--model", str(bad), "--user", "a", "--item", "b")
        assert code == 2

    def test_repeated_sidecar_id_is_data_error(self, model_path, capsys):
        sidecar = _ids_sidecar_path(model_path)
        lines = sidecar.read_text(encoding="utf-8").splitlines()
        kind, uid, _ = lines[0].split("\t")
        lines.append(f"{kind}\t{uid}\t1")
        sidecar.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli("predict", "--model", str(model_path), "--user", uid, "--item", "m01")
        assert code == 2
        assert f"{sidecar}:{len(lines)}: user id {uid!r} listed twice" in capsys.readouterr().err


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
        path = tmp_path / "model.txt"
        make_unreadable(path, fault)
        self.check(capsys, path, "predict", "--model", str(path), "--user", "u01",
                   "--item", "m01")

    def test_id_sidecar(self, tmp_path, capsys, fault):
        model = tmp_path / "model.txt"
        assert run_cli("train", "--method", "mf", "--ratings", TOY_RATINGS,
                       "--max-epochs", "5", "--out", str(model)) == 0
        sidecar = _ids_sidecar_path(model)
        sidecar.unlink()
        make_unreadable(sidecar, fault)
        self.check(capsys, sidecar, "predict", "--model", str(model), "--user", "u01",
                   "--item", "m01")


class TestExperimentCommand:
    def test_compare_writes_expected_rows(self, tmp_path):
        out_dir = tmp_path / "res"
        code = run_cli("experiment", "--which", "compare",
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       "--fractions", "0.9", "--seeds", "1,2",
                       "--max-epochs", "40", "--out-dir", str(out_dir))
        assert code == 0
        body = csv_body(out_dir / "compare.csv").splitlines()
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
        body = csv_body(out_dir / "alpha-sweep.csv").splitlines()
        assert len(body) == 1 + 3
        mae_body = csv_body(out_dir / "alpha-sweep-mae.csv").splitlines()
        assert mae_body[0] == "alpha,mae"
        assert len(mae_body) == 1 + 3

    def test_ablation_covers_all_kinds(self, tmp_path):
        out_dir = tmp_path / "res"
        code = run_cli("experiment", "--which", "ablation",
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       "--fractions", "0.9", "--seeds", "1",
                       "--kinds", "constant,random:7,vss,pcc",
                       "--max-epochs", "40", "--out-dir", str(out_dir))
        assert code == 0
        body = csv_body(out_dir / "ablation.csv").splitlines()
        variants = [line.split(",")[1] for line in body[1:]]
        assert variants == ["constant", "random:7", "vss", "pcc"]

    def test_cold_start_runs_on_toy_data(self, tmp_path):
        out_dir = tmp_path / "res"
        code = run_cli("experiment", "--which", "cold-start",
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       "--seeds", "1,2", "--cold-start-threshold", "5",
                       "--max-epochs", "40", "--out-dir", str(out_dir))
        assert code == 0
        body = csv_body(out_dir / "cold-start.csv").splitlines()
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
        assert csv_body(out_dir / "cold-start.csv") == (
            "experiment,variant,seed,train_fraction,mae,rmse")
        assert csv_body(out_dir / "cold-start-summary.csv") == (
            "experiment,variant,train_fraction,mae,rmse,p_mae,p_rmse")
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
        body = csv_body(out_dir / f"{which}.csv").splitlines()[1:]
        assert body == [
            f"{which},{r.method},{seed},{r.train_fraction:.10g},{pair.mae:.10g},{pair.rmse:.10g}"
            for r in results for seed, pair in zip(r.seeds, r.per_seed)
        ]
        assert len(body) == rows
        summary = csv_body(out_dir / f"{which}-summary.csv").splitlines()[1:]
        assert len(summary) == len(results) == rows // len(results[0].seeds)
        for line, r in zip(summary, results):
            assert line.startswith(f"{which},{r.method},{r.train_fraction:.10g},"
                                   f"{r.mean.mae:.10g},{r.mean.rmse:.10g},")

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
        assert capsys.readouterr().err == "socrec: error: --seeds must be >= 0, got (1, -1)\n"
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

    def test_paths_can_come_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"ratings = {TOY_RATINGS}\nmax-epochs = 20\n", encoding="utf-8"
        )
        out = tmp_path / "m.txt"
        code = run_cli("train", "--method", "mf", "--config", str(cfg),
                       "--out", str(out))
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("flag,value,named", [
        ("--fractions", "1.5", "--fractions must lie in (0, 1)"),
        ("--alphas", "0,-1", "--alphas must be >= 0"),
        ("--seeds", ",", "--seeds must not be empty"),
        ("--cold-start-threshold", "1", "--cold-start-threshold must be >= 2"),
        ("--min-out-degree", "0", "--min-out-degree must be >= 1"),
        ("--alpha", "-0.5", "--alpha"),
        ("--lambda", "nan", "--lambda"),
        ("--kinds", "random:-1", "--kinds 'random:-1': seed must be >= 0, got -1\n"),
        ("--seeds", "1,x", "--seeds '1,x': invalid literal for int() with base 10: 'x'\n"),
        ("--fractions", "0.5,abc",
         "--fractions '0.5,abc': could not convert string to float: 'abc'\n"),
    ])
    def test_out_of_range_values_name_the_field(self, tmp_path, capsys,
                                                flag, value, named):
        code = run_cli("experiment", "--which", "compare",
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       flag, value, "--out-dir", str(tmp_path / "res"))
        assert code == 1
        assert named in capsys.readouterr().err

    def test_bad_config_value_gives_the_reason(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kinds = pcc,random:-1\n", encoding="utf-8")
        code = run_cli("experiment", "--which", "ablation", "--config", str(cfg),
                       "--ratings", TOY_RATINGS, "--trust", TOY_TRUST,
                       "--out-dir", str(tmp_path / "res"))
        assert code == 1
        assert capsys.readouterr().err == (
            f"socrec: error: {cfg}:1: bad value for kinds: 'pcc,random:-1': "
            "seed must be >= 0, got -1\n")


class TestInstalledEntryPoint:
    def test_console_script_help(self):
        # the child imports the package these tests import, installed or not
        src = str(Path(socrec.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-m", "socrec.cli", "--help"],
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path))
        assert out.returncode == 0
        assert "train" in out.stdout and "experiment" in out.stdout
