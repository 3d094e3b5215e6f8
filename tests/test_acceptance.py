"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The planted-cluster generator provides the ground truth for the behavioral
criteria: 200 users in 10 taste clusters, 90% intra-cluster trust edges,
5 ratings per user drawn from cluster prototypes with noise sd 0.5.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from socrec import (
    DatasetSplit,
    Hyperparams,
    SimilarityKind,
    SparseRatings,
    build_similarity_table,
    evaluate,
    mae_rmse,
    objective_basic,
    objective_social,
    gradients_social,
    predict,
    split_ratings,
    train,
)
from socrec import toydata
from socrec.cli import main as cli_main
from socrec.evaluation import run_similarity_study
from socrec.synthetic import clustered_dataset, low_rank_ratings, shuffled_graph

from helpers import (
    entry_triples,
    random_graph,
    random_model,
    random_ratings,
    random_sim,
    sim_edge_triples,
)
from oracles import brute_objective_basic, brute_objective_social, central_differences


def report(number, name, passed, detail=""):
    print(f"\n[criterion {number}] {name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


PLANTED = dict(num_users=200, num_items=8, num_clusters=10, ratings_per_user=5,
               out_degree=8, intra_fraction=0.9, noise_sd=0.5, seed=100)
PLANTED_HP = Hyperparams(k=8, lam=0.1, alpha=0.0, learning_rate=0.01,
                         max_epochs=800, tolerance=1e-9, init_scale=0.1, seed=0)
ALPHA_GRID = (0.01, 0.1, 0.5, 1.0)
SEEDS = (1, 2, 3, 4, 5)


def trim_to_two_train_ratings(ratings, seed):
    """Cold-start variant: keep 2 seeded-random train ratings per user and
    hold the rest out for testing, as a DatasetSplit."""
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for u in range(ratings.num_users):
        lo, hi = ratings.user_ptr[u], ratings.user_ptr[u + 1]
        idx = np.arange(lo, hi)
        rng.shuffle(idx)
        train_idx.extend(idx[:2])
        test_idx.extend(idx[2:])
    train_idx, test_idx = np.sort(train_idx), np.sort(test_idx)
    train_set = SparseRatings(
        ratings.num_users, ratings.num_items,
        ratings.users[train_idx], ratings.items[train_idx],
        ratings.values[train_idx],
    )
    return DatasetSplit(train_set, ratings.users[test_idx], ratings.items[test_idx],
                        ratings.values[test_idx])


def test_criterion_1_gradient_oracle():
    """Analytic gradients match central finite differences coordinate-wise."""
    rng = np.random.default_rng(1000)
    settings = [(lam, alpha) for lam in (0.0, 0.5, 3.0) for alpha in (0.0, 0.5, 3.0)]
    started = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        lam, alpha = settings[trial % len(settings)]
        m = int(rng.integers(3, 9))
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 5))
        ratings = random_ratings(rng, m, n)
        graph = random_graph(rng, m, edge_prob=0.4)
        sim = random_sim(rng, graph)
        model = random_model(rng, m, n, k)
        hp = Hyperparams(k=k, lam=lam, alpha=alpha, seed=0)
        d_user, d_item = gradients_social(model, ratings, graph, sim, hp)

        def objective():
            return objective_social(model, ratings, graph, sim, hp)

        num_user, num_item = central_differences(
            objective, [model.user_factors, model.item_factors], step=1e-6
        )
        for analytic, numeric in ((d_user, num_user), (d_item, num_item)):
            numeric = np.asarray(numeric)
            err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
            worst = max(worst, float(err.max()))
    elapsed = time.perf_counter() - started
    report(1, "gradient oracle", worst <= 1e-5 and elapsed < 10.0,
           f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_objective_oracle():
    """Library objectives match naive brute-force summation."""
    rng = np.random.default_rng(2000)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(3, 9))
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 5))
        ratings = random_ratings(rng, m, n)
        graph = random_graph(rng, m, edge_prob=0.4)
        sim = random_sim(rng, graph)
        model = random_model(rng, m, n, k)
        hp = Hyperparams(k=k, lam=float(rng.uniform(0, 3)),
                         alpha=float(rng.uniform(0, 3)), seed=0)
        basic = objective_basic(model, ratings, hp)
        social = objective_social(model, ratings, graph, sim, hp)
        expect_basic = brute_objective_basic(
            model.user_factors.tolist(), model.item_factors.tolist(),
            entry_triples(ratings), hp.lam,
        )
        expect_social = brute_objective_social(
            model.user_factors.tolist(), model.item_factors.tolist(),
            entry_triples(ratings), sim_edge_triples(graph, sim),
            hp.lam, hp.alpha,
        )
        worst = max(
            worst,
            abs(basic - expect_basic) / max(1.0, abs(expect_basic)),
            abs(social - expect_social) / max(1.0, abs(expect_social)),
        )
    elapsed = time.perf_counter() - started
    report(2, "objective oracle", worst <= 1e-12 and elapsed < 1.0,
           f"(worst rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_low_rank_recovery():
    """Gradient descent reconstructs a noiseless rank-2 matrix."""
    started = time.perf_counter()
    ratings, _, _ = low_rank_ratings(30, 30, rank=2, seed=11)
    hp = Hyperparams(k=2, lam=1e-4, alpha=0.0, learning_rate=0.005,
                     max_epochs=5000, tolerance=1e-12, init_scale=0.1, seed=5)
    model, rep = train(ratings, hp)
    pred = predict(model, ratings.users, ratings.items)
    rmse = float(np.sqrt(np.mean((ratings.values - pred) ** 2)))
    elapsed = time.perf_counter() - started
    report(3, "rank-2 recovery",
           rmse < 0.05 and rep.epochs_run <= 5000 and elapsed < 30.0,
           f"(train RMSE {rmse:.4f} in {rep.epochs_run} epochs, {elapsed:.1f}s)")


def test_criterion_4_alpha_zero_equivalence():
    """Zero social weight reproduces the basic trainer bit for bit."""
    rng = np.random.default_rng(4000)
    ratings = random_ratings(rng, 12, 9)
    graph = random_graph(rng, 12, edge_prob=0.25)
    sim = random_sim(rng, graph)
    hp = Hyperparams(k=4, lam=0.4, alpha=0.0, learning_rate=0.002,
                     max_epochs=50, tolerance=1e-300, init_scale=0.1, seed=17)
    social_model, social_rep = train(ratings, hp, graph, sim)
    basic_model, basic_rep = train(ratings, hp)
    identical = (
        social_rep.objective_per_epoch == basic_rep.objective_per_epoch
        and social_rep.epochs_run == basic_rep.epochs_run == 50
        and np.array_equal(social_model.user_factors, basic_model.user_factors)
        and np.array_equal(social_model.item_factors, basic_model.item_factors)
    )
    report(4, "alpha=0 equivalence", identical,
           f"({basic_rep.epochs_run} epochs, bitwise factor equality)")


def _planted_best_of_grid(split_fn):
    """Mean social-vs-basic MAE over the seed set; the social side takes the
    best alpha of the grid on the mean."""
    basic_maes = []
    social_maes = {a: [] for a in ALPHA_GRID}
    for seed in SEEDS:
        ratings, graph, _ = clustered_dataset(**PLANTED)
        split = split_fn(ratings, seed)
        train_set = split.train
        sim = build_similarity_table(train_set, graph, SimilarityKind.pcc())
        model, _ = train(train_set, replace(PLANTED_HP, seed=seed))
        basic_maes.append(evaluate(model, split, train_set).mae)
        for alpha in ALPHA_GRID:
            hp = replace(PLANTED_HP, alpha=alpha, seed=seed)
            model, _ = train(train_set, hp, graph, sim)
            social_maes[alpha].append(evaluate(model, split, train_set).mae)
    basic = float(np.mean(basic_maes))
    per_alpha = {a: float(np.mean(v)) for a, v in social_maes.items()}
    best_alpha = min(per_alpha, key=per_alpha.get)
    return basic, per_alpha[best_alpha], best_alpha


def test_criterion_5_social_benefit_on_planted_data():
    """Social regularization beats the basic model on clustered data, and
    by at least 5% relative MAE on the cold-start variant."""
    started = time.perf_counter()

    def full_split(ratings, seed):
        return split_ratings(ratings, 0.8, seed)

    basic_full, social_full, alpha_full = _planted_best_of_grid(full_split)
    basic_cold, social_cold, alpha_cold = _planted_best_of_grid(trim_to_two_train_ratings)
    cold_improvement = (basic_cold - social_cold) / basic_cold
    elapsed = time.perf_counter() - started
    passed = (
        social_full < basic_full
        and cold_improvement >= 0.05
        and elapsed < 300.0
    )
    report(5, "planted social benefit", passed,
           f"(full: {basic_full:.4f} -> {social_full:.4f} at alpha={alpha_full}; "
           f"cold: {basic_cold:.4f} -> {social_cold:.4f}, "
           f"{cold_improvement * 100:.1f}% relative; {elapsed:.0f}s)")


def test_criterion_6_similarity_ablation_ordering():
    """Informative similarities beat random weights on the planted data."""
    kinds = {
        "pcc": SimilarityKind.pcc(),
        "vss": SimilarityKind.vss(),
        "random": SimilarityKind.random(seed=42),
    }
    hp = replace(PLANTED_HP, alpha=0.5)
    maes = {name: [] for name in kinds}
    for seed in SEEDS:
        ratings, graph, _ = clustered_dataset(**PLANTED)
        split = split_ratings(ratings, 0.8, seed)
        for name, kind in kinds.items():
            sim = build_similarity_table(split.train, graph, kind)
            model, _ = train(split.train, replace(hp, seed=seed), graph, sim)
            maes[name].append(evaluate(model, split, split.train).mae)
    mean = {name: float(np.mean(v)) for name, v in maes.items()}
    passed = mean["pcc"] < mean["random"] and mean["vss"] < mean["random"]
    report(6, "similarity ablation ordering", passed,
           f"(pcc {mean['pcc']:.4f}, vss {mean['vss']:.4f}, random {mean['random']:.4f})")


def test_criterion_7_similarity_study_regimes():
    """Friend similarity dominates on planted data and washes out on a
    rewired control graph."""
    ratings, graph, _ = clustered_dataset(**PLANTED)
    planted = run_similarity_study(ratings, graph, min_out_degree=5, seed=3)
    control_graph = shuffled_graph(graph, seed=9)
    control = run_similarity_study(ratings, control_graph, min_out_degree=5, seed=3)
    passed = (
        planted.fraction_positive >= 0.9
        and 0.4 <= control.fraction_positive <= 0.6
    )
    report(7, "similarity study regimes", passed,
           f"(planted {planted.fraction_positive:.3f}, "
           f"control {control.fraction_positive:.3f})")


def test_criterion_8_metric_identities():
    """RMSE dominates MAE, and both match hand-computed 3-element cases."""
    rng = np.random.default_rng(8000)
    dominance = True
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        truths = rng.uniform(1, 5, n)
        preds = rng.uniform(1, 5, n)
        pair = mae_rmse(list(zip(truths, preds)))
        if pair.rmse < pair.mae - 1e-15:
            dominance = False
            break
    hand = mae_rmse([(1.0, 2.0), (5.0, 3.0), (3.0, 3.0)])
    hand_ok = (
        abs(hand.mae - 1.0) <= 1e-12
        and abs(hand.rmse - np.sqrt(5.0 / 3.0)) <= 1e-12
    )
    zeros = mae_rmse([(2.0, 2.0), (4.0, 4.0), (1.0, 1.0)])
    hand_ok = hand_ok and zeros.mae == 0.0 and zeros.rmse == 0.0
    report(8, "metric identities", dominance and hand_ok,
           "(1000 random vectors + hand cases)")


def test_criterion_9_cli_determinism(tmp_path):
    """Each CLI experiment, run twice with one config, writes byte-identical
    CSV files."""
    ratings = str(toydata.ratings_path())
    trust = str(toydata.trust_path())
    runs = {
        "compare": ["--fractions", "0.9", "--seeds", "1,2", "--max-epochs", "40"],
        "alpha-sweep": ["--fractions", "0.9", "--seeds", "1",
                        "--alphas", "0,0.01,0.1", "--max-epochs", "40"],
        "ablation": ["--fractions", "0.9", "--seeds", "1",
                     "--kinds", "constant,random:3,vss,pcc", "--max-epochs", "40"],
        "cold-start": ["--seeds", "1,2", "--cold-start-threshold", "5",
                       "--max-epochs", "40"],
        "sim-study": ["--min-out-degree", "1", "--seeds", "1"],
    }
    all_same = True
    detail = []
    for which, extra in runs.items():
        bodies = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / f"{which}-{attempt}"
            code = cli_main([
                "experiment", "--which", which,
                "--ratings", ratings, "--trust", trust,
                "--out-dir", str(out_dir), *extra,
            ])
            assert code == 0
            bodies.append({csv_file.name: csv_file.read_bytes()
                           for csv_file in sorted(out_dir.glob("*.csv"))})
        same = bodies[0] == bodies[1]
        all_same = all_same and same
        detail.append(f"{which}:{'ok' if same else 'DIFF'}")
    report(9, "CLI determinism", all_same, "(" + ", ".join(detail) + ")")
