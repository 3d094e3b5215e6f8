import logging
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from socrec import (
    Hyperparams,
    SimilarityKind,
    SparseRatings,
    TrustGraph,
    evaluate,
    mae_rmse,
    run_alpha_sweep,
    run_cold_start,
    run_comparison,
    run_similarity_ablation,
    run_similarity_study,
    split_ratings,
)
from socrec._choice import choices
from socrec.evaluation import comparison_summary, paired_t_pvalue
from socrec.similarity import pair_similarities
from socrec.synthetic import clustered_dataset, shuffled_graph

from helpers import random_graph, random_ratings, split_of
from oracles import loop_similarity_study


def planted_hp(**kw):
    base = dict(k=8, lam=0.1, alpha=0.5, learning_rate=0.01, max_epochs=800,
                tolerance=1e-9, init_scale=0.1, seed=1)
    base.update(kw)
    return Hyperparams(**base)


class TestMaeRmse:
    def test_zero_residuals(self):
        pair = mae_rmse([(3.0, 3.0), (4.0, 4.0)])
        assert pair.mae == 0.0 and pair.rmse == 0.0

    def test_hand_case(self):
        pair = mae_rmse([(1.0, 2.0), (5.0, 3.0)])
        assert pair.mae == pytest.approx(1.5, abs=1e-12)
        assert pair.rmse == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_single_residual(self):
        pair = mae_rmse([(4.0, 2.5)])
        assert pair.mae == pair.rmse == pytest.approx(1.5, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae_rmse([])

    @pytest.mark.parametrize("pairs", [[(1.0, 2.0, 9.0)], [1.0, 2.0], [[(1.0, 2.0)]]],
                             ids=["triple", "flat", "nested"])
    def test_anything_but_pairs_rejected(self, pairs):
        with pytest.raises(ValueError, match=r"^need \(truth, prediction\) pairs"):
            mae_rmse(pairs)

    def test_rmse_dominates_mae_on_random_vectors(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            truths = rng.uniform(1, 5, n)
            preds = rng.uniform(1, 5, n)
            pair = mae_rmse(list(zip(truths, preds)))
            assert pair.rmse >= pair.mae - 1e-15


class TestEvaluate:
    def test_perfect_model(self):
        train = SparseRatings(2, 2, [0, 1], [0, 1], [4.0, 2.0])
        pair = evaluate(lambda u, i: np.where(u == 0, 4.0, 2.0),
                        split_of(train, [(0, 0, 4.0), (1, 1, 2.0)]), train)
        assert pair.mae == 0.0 and pair.rmse == 0.0

    def test_high_prediction_clamped(self):
        train = SparseRatings(1, 1, [0], [0], [5.0])
        pair = evaluate(lambda u, i: np.full(u.shape, 7.2), split_of(train, [(0, 0, 5.0)]),
                        train)
        assert pair.mae == 0.0

    def test_low_prediction_clamped(self):
        train = SparseRatings(1, 1, [0], [0], [1.0])
        pair = evaluate(lambda u, i: np.full(u.shape, -3.0), split_of(train, [(0, 0, 1.0)]),
                        train)
        assert pair.mae == 0.0

    def test_unseen_user_falls_back_to_global_mean(self):
        train = SparseRatings(2, 1, [0], [0], [4.0])
        pair = evaluate(lambda u, i: np.full(u.shape, 1.0), split_of(train, [(1, 0, 4.0)]),
                        train)
        assert pair.mae == 0.0  # global mean 4.0 despite predictor saying 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(41)
        train = random_ratings(rng, 10, 6)
        test = [(int(rng.integers(0, 10)), int(rng.integers(0, 6)),
                 float(rng.uniform(1, 5))) for _ in range(40)]
        predictor = lambda u, i: 3.0 + 0.1 * u - 0.05 * i
        direct = evaluate(predictor, split_of(train, test), train)
        shuffled = evaluate(predictor, split_of(train, test[::-1]), train)
        assert direct.mae == pytest.approx(shuffled.mae, rel=1e-12)
        assert direct.rmse == pytest.approx(shuffled.rmse, rel=1e-12)

    def test_empty_test_rejected(self):
        train = SparseRatings(1, 1, [0], [0], [3.0])
        with pytest.raises(ValueError):
            evaluate(lambda u, i: np.full(u.shape, 3.0), split_of(train, []), train)

    @pytest.mark.parametrize("predictor", [
        lambda u, i: np.full((u.size, 1), 3.0),
        lambda u, i: 3.0,
        lambda u, i: np.full(u.size + 1, 3.0),
    ], ids=["column", "scalar", "one-too-many"])
    def test_wrong_prediction_shape_rejected(self, predictor):
        train = SparseRatings(2, 2, [0, 1], [0, 1], [4.0, 2.0])
        with pytest.raises(ValueError, match="shape"):
            evaluate(predictor, split_of(train, [(0, 0, 4.0), (1, 1, 2.0)]), train)

    def test_metrics_match_mae_rmse_of_clamped_predictions(self):
        rng = np.random.default_rng(42)
        train = random_ratings(rng, 10, 6, per_user=6)  # every user and item seen
        test = [(int(rng.integers(0, 10)), int(rng.integers(0, 6)),
                 float(rng.uniform(1, 5))) for _ in range(40)]
        preds = rng.uniform(-1.0, 7.0, len(test))
        pair = evaluate(lambda u, i: preds, split_of(train, test), train)
        clamped = np.clip(preds, 1.0, 5.0)
        assert pair == mae_rmse([(r, p) for (_, _, r), p in zip(test, clamped)])


class TestPairedT:
    def test_known_value(self):
        # classic paired case; cross-checked against scipy directly
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [1.2, 2.1, 3.4, 4.2, 5.3]
        from scipy.stats import ttest_rel
        assert paired_t_pvalue(a, b) == pytest.approx(float(ttest_rel(a, b).pvalue))

    def test_degenerate_cases(self):
        assert paired_t_pvalue([1.0], [2.0]) is None
        assert paired_t_pvalue([1.0, 1.0], [1.0, 1.0]) is None


@pytest.fixture(scope="module")
def outcome():
    ratings, graph, _ = clustered_dataset(num_users=60, num_clusters=6, seed=50)
    hp = planted_hp(max_epochs=300)
    return run_comparison(ratings, graph, fractions=(0.8,), seeds=(1, 2), hp=hp)


class TestRunComparison:
    def test_all_methods_reported(self, outcome):
        assert {r.method for r in outcome} == {
            "user_mean", "item_mean", "basic_mf", "social_mf"
        }
        assert all(len(r.per_seed) == 2 for r in outcome)

    def test_means_recompute_exactly(self, outcome):
        for r in outcome:
            assert r.mean.mae == pytest.approx(
                np.mean([m.mae for m in r.per_seed]), abs=1e-12
            )
            assert r.mean.rmse == pytest.approx(
                np.mean([m.rmse for m in r.per_seed]), abs=1e-12
            )

    def test_social_beats_basic_on_planted_data(self, outcome):
        by_method = {r.method: r.mean for r in outcome}
        assert by_method["social_mf"].mae < by_method["basic_mf"].mae

    def test_summary_has_pvalues_against_social(self, outcome):
        rows = comparison_summary(outcome)
        by_variant = {row[0]: row for row in rows}
        assert by_variant["social_mf"][4] is None
        assert by_variant["basic_mf"][4] is not None

    def test_alpha_zero_reproduces_basic_rows_exactly(self):
        ratings, graph, _ = clustered_dataset(num_users=40, num_clusters=4, seed=57)
        hp = planted_hp(alpha=0.0, max_epochs=120)
        results = run_comparison(ratings, graph, fractions=(0.8,), seeds=(1, 2), hp=hp)
        by_method = {r.method: r.per_seed for r in results}
        assert by_method["social_mf"] == by_method["basic_mf"]


@pytest.mark.parametrize("run, message", [
    (lambda r, g: run_comparison(r, None, (0.8,), (1,), planted_hp()),
     "social_mf requires a trust graph"),
    (lambda r, g: run_comparison(r, g, (), (1,), planted_hp()), "need at least one fraction"),
    (lambda r, g: run_comparison(r, g, (0.8,), (), planted_hp()), "need at least one seed"),
    (lambda r, g: run_alpha_sweep(r, g, (), planted_hp()), "need at least one alpha"),
    (lambda r, g: run_similarity_ablation(r, g, (), planted_hp()),
     "need at least one similarity kind"),
    (lambda r, g: run_similarity_study(r, g, min_out_degree=0),
     "min_out_degree must be >= 1, got 0"),
    (lambda r, g: run_similarity_study(r, g, kind=SimilarityKind.constant()),
     "similarity study supports the vss and pcc kinds, got "
     "SimilarityKind(tag='constant', seed=0)"),
    (lambda r, g: run_similarity_study(r, g, kind=SimilarityKind.random(3)),
     "similarity study supports the vss and pcc kinds, got "
     "SimilarityKind(tag='random', seed=3)"),
    (lambda r, g: run_similarity_study(r, g, kind="vss"),
     "similarity study supports the vss and pcc kinds, got 'vss'"),
], ids=["no-graph", "no-fractions", "no-seeds", "no-alphas", "no-kinds", "min-out-degree-0",
        "study-kind", "study-kind-random", "study-kind-string"])
def test_runners_refuse_what_they_cannot_run(run, message):
    ratings = SparseRatings(3, 2, [0, 1, 2], [0, 1, 0], [3.0, 4.0, 5.0])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(ratings, TrustGraph.from_edges(3, [(0, 1), (1, 2)]))


@pytest.mark.parametrize("run, message", [
    (lambda r, g, hp: run_comparison(r, g, (0.8,), (1, -1), hp), "seed must be >= 0, got -1"),
    (lambda r, g, hp: run_comparison(r, g, (0.8, 1.5), (1,), hp),
     "train_fraction must be in (0, 1), got 1.5"),
    (lambda r, g, hp: run_alpha_sweep(r, g, (0.1, math.nan), hp), "alpha must be finite, got nan"),
    (lambda r, g, hp: run_cold_start(r, g, 100, hp, seeds=(1, -1)), "seed must be >= 0, got -1"),
    (lambda r, g, hp: run_cold_start(r, g, 100, hp, seeds=()), "need at least one seed"),
], ids=["seeds", "fractions", "alphas", "cold-start-seeds", "cold-start-no-seeds"])
def test_runners_check_every_value_before_any_training(monkeypatch, run, message):
    """A bad value late in a list is refused before the first model trains."""
    trainings = []

    def counting_train(*args):
        trainings.append(args)
        return train_model(*args)

    from socrec import evaluation, train as train_model
    monkeypatch.setattr(evaluation, "train", counting_train)
    ratings, graph, _ = clustered_dataset(num_users=40, num_clusters=4, seed=5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(ratings, graph, planted_hp(max_epochs=5))
    assert trainings == []


class TestRunAlphaSweep:
    def test_zero_point_equals_basic(self):
        ratings, graph, _ = clustered_dataset(num_users=60, num_clusters=6, seed=51)
        hp = planted_hp(max_epochs=200)
        sweep = run_alpha_sweep(ratings, graph, (0.0, 0.1), hp,
                                train_fraction=0.8, seed=3)
        split = split_ratings(ratings, 0.8, 3)
        from socrec import train as train_model
        model, _ = train_model(split.train, replace(hp, seed=3))
        basic = evaluate(model, split, split.train)
        assert [(r.method, r.train_fraction, r.seeds) for r in sweep] == [
            ("alpha=0", 0.8, (3,)), ("alpha=0.1", 0.8, (3,))]
        assert sweep[0].per_seed == [basic]

    def test_interior_optimum_and_endpoint_degradation(self):
        """Sweep the social weight and locate the error minimum."""
        ratings, graph, _ = clustered_dataset(seed=100)
        hp = planted_hp(learning_rate=0.002, max_epochs=2500, tolerance=1e-10)
        alphas = (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
        sweep = run_alpha_sweep(ratings, graph, alphas, hp, train_fraction=0.8, seed=1)
        rmses = [r.mean.rmse for r in sweep]
        best = int(np.argmin(rmses))
        assert 0 < best < len(alphas) - 1
        assert rmses[-1] > rmses[best]
        assert rmses[0] > rmses[best]


class TestRunSimilarityAblation:
    def test_kinds_differ_only_by_table(self):
        ratings, graph, _ = clustered_dataset(num_users=60, num_clusters=6, seed=52)
        hp = planted_hp(max_epochs=200)
        kinds = (SimilarityKind.constant(), SimilarityKind.random(seed=4))
        out = run_similarity_ablation(ratings, graph, kinds, hp,
                                      train_fraction=0.8, seed=2)
        assert [(r.method, r.train_fraction, r.seeds) for r in out] == [
            ("constant", 0.8, (2,)), ("random:4", 0.8, (2,))]
        assert out[0].per_seed != out[1].per_seed


class TestRunColdStart:
    def test_no_cold_users_returns_empty(self, caplog):
        ratings = SparseRatings(2, 8, [0] * 8 + [1] * 8,
                                list(range(8)) * 2, [3.0] * 16)
        graph = TrustGraph.from_edges(2, [(0, 1)])
        with caplog.at_level(logging.WARNING):
            out = run_cold_start(ratings, graph, threshold=5, hp=planted_hp())
        assert out == []
        assert any("no cold-start users" in r.message for r in caplog.records)

    def test_trusted_friend_helps_cold_user(self):
        """Constructed 3-user case: cold user, heavy-rater friend, one noise
        user; the social model predicts the held-out taste, the basic one
        cannot."""
        users = [0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]
        items = [0, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]
        values = [3.0, 3, 5, 1, 5, 2, 4, 3, 1, 5, 1, 4, 2]
        train_set = SparseRatings(3, 6, users, items, values)
        graph = TrustGraph.from_edges(3, [(0, 1)])
        from socrec import SimilarityTable, train as train_model
        sim = SimilarityTable(graph, np.ones(1))
        truth = 5.0  # the friend's rating of the held-out item
        errors = {}
        for alpha in (0.0, 1.0):
            hp = Hyperparams(k=3, lam=0.05, alpha=alpha, learning_rate=0.005,
                             max_epochs=800, tolerance=1e-12, init_scale=0.1, seed=7)
            model, _ = train_model(train_set, hp, graph, sim)
            pred = float(np.clip(model(0, 1), 1.0, 5.0))
            errors[alpha] = abs(truth - pred)
        assert errors[1.0] < errors[0.0]

    def test_four_methods_on_cold_split(self):
        rng = np.random.default_rng(55)
        ratings = random_ratings(rng, 30, 10)
        graph = random_graph(rng, 30, edge_prob=0.1)
        hp = planted_hp(max_epochs=100)
        out = run_cold_start(ratings, graph, threshold=5, hp=hp, seeds=(1, 2))
        assert {r.method for r in out} == {
            "user_mean", "item_mean", "basic_mf", "social_mf"
        }

    def test_threshold_below_two_rejected(self):
        rng = np.random.default_rng(56)
        ratings = random_ratings(rng, 5, 5)
        graph = random_graph(rng, 5)
        with pytest.raises(ValueError):
            run_cold_start(ratings, graph, threshold=1, hp=planted_hp())


def wide_dataset(seed):
    """10,300 users: user 0 trusts 250 others, more than 1/50 of its 10,049
    eligible peers, so its draw takes rng.choice's tail-shuffle branch;
    users 1..300 trust about 7 random users each. Everyone rates 2 of 30
    items."""
    rng = np.random.default_rng(seed)
    num_users = 10_300
    first = rng.integers(0, 30, num_users)
    items = np.stack([first, (first + rng.integers(1, 30, num_users)) % 30], axis=1)
    ratings = SparseRatings(num_users, 30, np.repeat(np.arange(num_users), 2),
                            items.ravel(), rng.uniform(1.0, 5.0, 2 * num_users))
    hub = np.stack([np.zeros(250, dtype=np.int64),
                    rng.choice(np.arange(1, num_users), 250, replace=False)], axis=1)
    rest = np.stack([np.repeat(np.arange(1, 301), 7),
                     rng.integers(0, num_users, 300 * 7)], axis=1)
    return ratings, TrustGraph.from_edges(num_users, np.concatenate([hub, rest]))


def choice_loop(rng, deg, num_eligible):
    """One ``rng.choice(n, d, replace=False)`` per (d, n) pair, concatenated."""
    draws = [rng.choice(n, size=d, replace=False) for d, n in zip(deg, num_eligible)]
    return np.concatenate(draws) if draws else np.empty(0, dtype=np.int64)


class TestPeerRanks:
    """``_choice.choices`` gives the ranks of a per-user ``rng.choice`` loop on
    the installed numpy, bit for bit, and leaves the generator where the
    loop leaves it, on each of choice's branches."""

    def assert_matches_loop(self, deg, num_eligible, seed=0):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = choices(got_rng, np.asarray(deg), np.asarray(num_eligible))
        np.testing.assert_array_equal(got, choice_loop(want_rng, deg, num_eligible))
        assert got.dtype == np.int64
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_no_users(self):
        self.assert_matches_loop([], [])

    def test_draw_of_every_eligible_user(self):
        # Floyd's first draw has bound 1 and consumes nothing
        self.assert_matches_loop([1, 2, 7, 40, 3], [1, 2, 7, 40, 9])

    def test_floyd_repeat(self):
        deg, num_eligible = [6, 50, 8], [900, 60, 5000]
        # the second user's raw draws from [0, n-d+t] repeat, so Floyd
        # replaces at least one of them by n-d+t
        rng = np.random.default_rng(4)
        choice_loop(rng, deg[:1], num_eligible[:1])
        raw = rng.integers(0, np.arange(num_eligible[1] - deg[1] + 1, num_eligible[1] + 1))
        assert np.unique(raw).size < deg[1]
        self.assert_matches_loop(deg, num_eligible, seed=4)

    @pytest.mark.parametrize("deg,num_eligible", [
        ([401, 500, 9], [20_000, 20_000, 30]),  # n > 10000 and d > n // 50
        ([6, 201, 7], [50, 10_001, 10_001]),  # tail, then Floyd at d <= n // 50
        ([3, 12_000], [10, 12_000]),  # the tail branch at n == d
        ([200, 201], [10_000, 10_000]),  # n == 10000 stays with Floyd
        ([200, 4], [10_001, 10]),  # d == n // 50 stays with Floyd
    ])
    def test_tail_shuffle_branch(self, deg, num_eligible):
        self.assert_matches_loop(deg, num_eligible, seed=7)

    def test_heavy_tailed_degrees(self):
        """Zipf degrees: most pairs have one draw, and the deepest shuffle
        levels each swap a handful of pairs."""
        deg = np.minimum(np.random.default_rng(5).zipf(1.8, 1500), 600)
        deg = deg[deg < 1400]
        num_eligible = 1500 - deg - 1
        assert np.median(deg) == 1 and deg.max() == 600
        assert np.count_nonzero(deg > deg.max() // 3) < 0.02 * deg.size
        self.assert_matches_loop(deg, num_eligible, seed=3)

    def test_random_small_cases(self):
        gen = np.random.default_rng(11)
        for seed in range(40):
            num_eligible = gen.integers(1, 80 if seed % 2 else 9000, gen.integers(0, 50))
            deg = np.minimum(gen.integers(0, 60, num_eligible.size), num_eligible)
            self.assert_matches_loop(deg, num_eligible, seed)


class TestRunSimilarityStudy:
    def test_disjoint_and_deterministic(self):
        ratings, graph, _ = clustered_dataset(num_users=80, num_clusters=8, seed=53)
        a = run_similarity_study(ratings, graph, min_out_degree=5, seed=9)
        b = run_similarity_study(ratings, graph, min_out_degree=5, seed=9)
        np.testing.assert_array_equal(a.friend_sim_means, b.friend_sim_means)
        np.testing.assert_array_equal(a.random_sim_means, b.random_sim_means)

    @pytest.mark.parametrize("kind", [SimilarityKind.vss(), SimilarityKind.pcc()],
                             ids=["vss", "pcc"])
    def test_friend_means_match_a_per_user_loop(self, kind):
        ratings, graph, _ = clustered_dataset(num_users=80, num_clusters=8, seed=53)
        study = run_similarity_study(ratings, graph, min_out_degree=5, seed=9, kind=kind)
        assert study.user_indices.size > 0
        for u, got in zip(study.user_indices, study.friend_sim_means):
            friends = graph.out_neighbors(u)
            sims = pair_similarities(ratings, kind, np.full(friends.size, u), friends)
            assert got == pytest.approx(np.mean(sims), abs=1e-15)

    @pytest.mark.parametrize("kind", [SimilarityKind.vss(), SimilarityKind.pcc()],
                             ids=["vss", "pcc"])
    @pytest.mark.parametrize("seed", [0, 9, 31])
    @pytest.mark.parametrize("min_out_degree", [1, 3, 5])
    def test_matches_the_per_user_loop(self, kind, seed, min_out_degree):
        """Bitwise equal to the per-user loop, on a clustered graph where
        every qualifying user is kept, on a dense 14-user graph where some
        have too few eligible peers and are skipped, and on a 10,300-user
        graph whose hub user's draw takes rng.choice's tail-shuffle branch."""
        clustered = clustered_dataset(num_users=80, num_clusters=8, seed=53)[:2]
        rng = np.random.default_rng(seed)
        dense = (random_ratings(rng, 14, 10), random_graph(rng, 14, edge_prob=0.55))
        for ratings, graph in (clustered, dense, wide_dataset(seed)):
            study = run_similarity_study(ratings, graph, min_out_degree, seed, kind)
            kept, friend, peer, skipped = loop_similarity_study(
                graph.num_users, graph.out_ptr, graph.edge_dst, min_out_degree, seed,
                partial(pair_similarities, ratings, kind))
            np.testing.assert_array_equal(study.user_indices, kept)
            np.testing.assert_array_equal(study.friend_sim_means, friend)
            np.testing.assert_array_equal(study.random_sim_means, peer)
            assert study.skipped_users == skipped

    def test_every_user_skipped(self, caplog):
        """On a complete 5-user graph nobody has enough eligible peers."""
        rng = np.random.default_rng(57)
        ratings = random_ratings(rng, 5, 5)
        graph = TrustGraph.from_edges(5, [(a, b) for a in range(5) for b in range(5)])
        with caplog.at_level(logging.WARNING):
            study = run_similarity_study(ratings, graph, min_out_degree=1, seed=0)
        assert study.skipped_users == [0, 1, 2, 3, 4]
        assert study.user_indices.size == study.friend_sim_means.size == 0
        assert study.fraction_positive == 0.0
        assert "skipped 5 users" in caplog.text

    def test_constructed_perfect_homophily(self):
        """Friends share every rating, strangers none: fraction is 1."""
        # two triangles rating disjoint item blocks identically
        users, items, values = [], [], []
        for block, members in enumerate(((0, 1, 2), (3, 4, 5))):
            for u in members:
                for j in range(3):
                    users.append(u)
                    items.append(block * 3 + j)
                    values.append(float(2 + block + j))
        ratings = SparseRatings(6, 6, users, items, values)
        edges = [(a, b) for members in ((0, 1, 2), (3, 4, 5))
                 for a in members for b in members if a != b]
        graph = TrustGraph.from_edges(6, edges)
        study = run_similarity_study(ratings, graph, min_out_degree=1, seed=0)
        assert study.user_indices.size == 6
        assert study.fraction_positive == 1.0

    def test_no_homophily_control_near_half(self):
        """A randomly rewired graph has no friend-taste signal."""
        ratings, graph, _ = clustered_dataset(num_users=500, seed=100)
        control = shuffled_graph(graph, seed=5)
        study = run_similarity_study(ratings, control, min_out_degree=5, seed=3)
        assert 0.4 <= study.fraction_positive <= 0.6

    def test_min_out_degree_is_strict(self):
        ratings, graph, _ = clustered_dataset(num_users=40, num_clusters=4,
                                              out_degree=4, seed=54)
        study = run_similarity_study(ratings, graph, min_out_degree=4, seed=1)
        assert study.user_indices.size == 0
        assert study.fraction_positive == 0.0
