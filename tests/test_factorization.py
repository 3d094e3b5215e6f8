import os
import re
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from socrec import (
    DataFileError,
    DivergenceError,
    FactorModel,
    Hyperparams,
    IdMap,
    SimilarityTable,
    SparseRatings,
    TrainReport,
    TrustGraph,
    gradients_social,
    init_model,
    load_model,
    objective_basic,
    objective_social,
    predict,
    save_model,
    train,
)
from socrec.synthetic import low_rank_ratings

from helpers import (
    entry_triples,
    random_graph,
    random_model,
    random_ratings,
    random_sim,
    sim_edge_triples,
)
from oracles import (
    brute_objective_basic,
    brute_objective_social,
    central_differences,
    struct_save_model,
)


def tiny_hp(**kw):
    base = dict(k=2, lam=0.0, alpha=0.0, learning_rate=0.001, max_epochs=10,
                tolerance=1e-9, init_scale=0.1, seed=0)
    base.update(kw)
    return Hyperparams(**base)


class TestHyperparams:
    @pytest.mark.parametrize("field,value", [
        ("k", 0),
        ("lam", -1.0),
        ("alpha", -0.5),
        ("learning_rate", 0.0),
        ("max_epochs", 0),
        ("tolerance", 0.0),
        ("init_scale", -0.1),
        ("seed", -1),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            tiny_hp(**{field: value})

    @pytest.mark.parametrize("field", ["lam", "alpha", "learning_rate", "tolerance",
                                       "init_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            tiny_hp(**{field: value})


class TestInitModel:
    def test_same_seed_identical(self):
        hp = tiny_hp(seed=9)
        a = init_model(5, 4, hp)
        b = init_model(5, 4, hp)
        np.testing.assert_array_equal(a.user_factors, b.user_factors)
        np.testing.assert_array_equal(a.item_factors, b.item_factors)

    @pytest.mark.parametrize("scale", [0.0, -0.0])
    def test_zero_scale_gives_zero_predictions(self, scale):
        model = init_model(3, 3, tiny_hp(init_scale=scale))
        assert np.all(model.user_factors == 0.0)
        assert predict(model, 1, 2) == 0.0

    def test_factor_entry_count_at_reference_scale(self):
        model = init_model(49289, 3, tiny_hp(k=10))
        assert model.user_factors.size == 10 * 49289

    def test_entries_within_scale(self):
        model = init_model(50, 40, tiny_hp(init_scale=0.25, seed=3))
        for arr in (model.user_factors, model.item_factors):
            assert arr.min() >= 0.0 and arr.max() <= 0.25

    @pytest.mark.parametrize("users,items", [(0, 3), (3, 0), (-1, 3), (3, -2)])
    def test_no_users_or_no_items_rejected(self, users, items):
        with pytest.raises(ValueError, match="need at least one user and one item"):
            init_model(users, items, tiny_hp())


class TestDerivedFields:
    def test_factors_of_different_widths_rejected(self):
        with pytest.raises(ValueError, match="width"):
            FactorModel(np.zeros((1, 2)), np.ones((1, 3)))

    def test_k_is_the_factor_width(self, tmp_path):
        model = FactorModel(np.zeros((1, 3)), np.ones((2, 3)))
        save_model(model, tmp_path / "m.bin")
        assert model.k == load_model(tmp_path / "m.bin").k == 3

    def test_epochs_run_counts_the_objective_trace(self):
        assert TrainReport().epochs_run == 0
        assert TrainReport([3.0, 2.0, 1.5]).epochs_run == 3


class TestPredict:
    def test_zero_vectors(self):
        model = FactorModel(np.zeros((1, 2)), np.zeros((1, 2)))
        assert predict(model, 0, 0) == 0.0

    def test_hand_inner_product(self):
        model = FactorModel(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
        assert predict(model, 0, 0) == 11.0

    def test_orthogonal_vectors(self):
        model = FactorModel(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert predict(model, 0, 0) == 0.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 6, 5, 3)
        users = np.array([0, 2, 5, 1])
        items = np.array([4, 0, 3, 3])
        batch = predict(model, users, items)
        for e, (u, i) in enumerate(zip(users, items)):
            assert batch[e] == pytest.approx(predict(model, int(u), int(i)), rel=1e-15)


class TestObjectiveBasic:
    def test_single_entry_zero_factors(self):
        train_set = SparseRatings(1, 1, [0], [0], [3.0])
        model = FactorModel(np.zeros((1, 2)), np.zeros((1, 2)))
        assert objective_basic(model, train_set, tiny_hp()) == 4.5

    def test_regularizer_only(self):
        # no ratings; lam=1 with squared Frobenius norms 2 and 4 gives 3
        empty = SparseRatings(2, 2, [], [], [])
        model = FactorModel(np.array([[1.0, 1.0], [0.0, 0.0]]),
                            np.array([[2.0, 0.0], [0.0, 0.0]]))
        assert objective_basic(model, empty, tiny_hp(lam=1.0)) == 3.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            train_set = random_ratings(rng, 4, 4)
            model = random_model(rng, 4, 4, 3)
            hp = tiny_hp(k=3, lam=float(rng.uniform(0, 2)))
            expected = brute_objective_basic(
                model.user_factors.tolist(), model.item_factors.tolist(),
                entry_triples(train_set), hp.lam,
            )
            got = objective_basic(model, train_set, hp)
            assert got == pytest.approx(expected, rel=1e-12)


class TestObjectiveSocial:
    def test_alpha_zero_equals_basic(self):
        rng = np.random.default_rng(2)
        train_set = random_ratings(rng, 5, 4)
        graph = random_graph(rng, 5)
        sim = random_sim(rng, graph)
        model = random_model(rng, 5, 4, 2)
        hp = tiny_hp(lam=0.7, alpha=0.0)
        assert objective_social(model, train_set, graph, sim, hp) == \
            objective_basic(model, train_set, hp)

    def test_two_user_hand_case(self):
        # p0=(1,0), p1=(0,1), one edge with sim 1, alpha=2, no ratings:
        # (2/2) * ||(1,-1)||^2 = 2
        empty = SparseRatings(2, 1, [], [], [])
        model = FactorModel(np.array([[1.0, 0.0], [0.0, 1.0]]),
                            np.zeros((1, 2)))
        graph = TrustGraph.from_edges(2, [(0, 1)])
        sim = SimilarityTable(graph, np.ones(1))
        hp = tiny_hp(alpha=2.0)
        assert objective_social(model, empty, graph, sim, hp) == 2.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            train_set = random_ratings(rng, 5, 4)
            graph = random_graph(rng, 5)
            sim = random_sim(rng, graph)
            model = random_model(rng, 5, 4, 3)
            hp = tiny_hp(k=3, lam=float(rng.uniform(0, 2)), alpha=float(rng.uniform(0, 2)))
            expected = brute_objective_social(
                model.user_factors.tolist(), model.item_factors.tolist(),
                entry_triples(train_set), sim_edge_triples(graph, sim),
                hp.lam, hp.alpha,
            )
            got = objective_social(model, train_set, graph, sim, hp)
            assert got == pytest.approx(expected, rel=1e-12)


class TestGradients:
    def test_zero_factors_zero_gradients(self):
        train_set = SparseRatings(2, 2, [0, 1], [0, 1], [3.0, 4.0])
        model = FactorModel(np.zeros((2, 2)), np.zeros((2, 2)))
        graph = TrustGraph.from_edges(2, [(0, 1)])
        sim = SimilarityTable(graph, np.ones(1))
        d_user, d_item = gradients_social(model, train_set, graph, sim, tiny_hp())
        assert np.all(d_user == 0.0) and np.all(d_item == 0.0)

    def test_single_rating_hand_case(self):
        train_set = SparseRatings(1, 1, [0], [0], [2.0])
        model = FactorModel(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        graph = TrustGraph.from_edges(1, [])
        sim = SimilarityTable(graph, np.empty(0))
        d_user, d_item = gradients_social(model, train_set, graph, sim, tiny_hp())
        np.testing.assert_allclose(d_user, [[-1.0, 0.0]])
        np.testing.assert_allclose(d_item, [[-1.0, 0.0]])

    def test_finite_differences_on_random_instances(self):
        """Analytic gradients against central differences, 5 instances."""
        rng = np.random.default_rng(4)
        for _ in range(5):
            train_set = random_ratings(rng, 5, 6)
            graph = random_graph(rng, 5)
            sim = random_sim(rng, graph)
            model = random_model(rng, 5, 6, 3)
            hp = tiny_hp(k=3, lam=float(rng.uniform(0, 2)), alpha=float(rng.uniform(0, 2)))
            d_user, d_item = gradients_social(model, train_set, graph, sim, hp)

            def objective():
                return objective_social(model, train_set, graph, sim, hp)

            num_user, num_item = central_differences(
                objective, [model.user_factors, model.item_factors], step=1e-6
            )
            for analytic, numeric in ((d_user, num_user), (d_item, num_item)):
                numeric = np.asarray(numeric)
                err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
                assert err.max() <= 1e-5


class TestTrain:
    def test_requires_graph_and_sim_together(self):
        rng = np.random.default_rng(5)
        train_set = random_ratings(rng, 4, 4)
        graph = random_graph(rng, 4)
        with pytest.raises(ValueError):
            train(train_set, tiny_hp(), graph=graph, sim=None)

    def test_sim_of_another_graph_rejected(self):
        rng = np.random.default_rng(5)
        train_set = random_ratings(rng, 4, 4)
        graph = TrustGraph.from_edges(4, [(0, 1), (1, 2)])
        other = TrustGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="edge"):
            train(train_set, tiny_hp(alpha=0.5), graph, SimilarityTable(other, np.ones(2)))
        twin = TrustGraph.from_edges(4, [(0, 1), (1, 2)])
        train(train_set, tiny_hp(alpha=0.5), graph, SimilarityTable(twin, np.ones(2)))

    def test_graph_over_other_users_rejected(self):
        train_set = random_ratings(np.random.default_rng(5), 4, 4)
        graph = TrustGraph.from_edges(5, [(0, 1), (3, 4)])
        with pytest.raises(ValueError, match="graph and ratings must share the user index space"):
            train(train_set, tiny_hp(alpha=0.5), graph, SimilarityTable(graph, np.ones(2)))

    def test_empty_ratings_rejected_before_the_factors_are_drawn(self):
        """An empty store over 10**12 items would have init_model draw
        terabytes of factors; the check comes first."""
        with pytest.raises(ValueError, match="cannot train on an empty ratings set"):
            train(SparseRatings(3, 10 ** 12, [], [], []), tiny_hp())

    def test_rank_one_recovery(self):
        """Reconstructs a noiseless rank-1 matrix to train RMSE below 0.01."""
        ratings, _, _ = low_rank_ratings(10, 10, rank=1, seed=3)
        hp = Hyperparams(k=2, lam=0.0, alpha=0.0, learning_rate=0.005,
                         max_epochs=5000, tolerance=1e-12, init_scale=0.1, seed=0)
        model, report = train(ratings, hp)
        pred = predict(model, ratings.users, ratings.items)
        rmse = float(np.sqrt(np.mean((ratings.values - pred) ** 2)))
        assert rmse < 0.01
        assert report.epochs_run <= 5000

    def test_objective_non_increasing_at_small_step(self):
        rng = np.random.default_rng(6)
        train_set = random_ratings(rng, 5, 6)
        graph = random_graph(rng, 5)
        sim = random_sim(rng, graph)
        hp = tiny_hp(k=3, lam=0.5, alpha=0.5, learning_rate=1e-4,
                     max_epochs=100, tolerance=1e-15)
        _, report = train(train_set, hp, graph, sim)
        diffs = np.diff(report.objective_per_epoch)
        assert np.all(diffs <= 0.0)

    def test_alpha_zero_bitwise_equals_basic(self):
        rng = np.random.default_rng(7)
        train_set = random_ratings(rng, 6, 5)
        graph = random_graph(rng, 6)
        sim = random_sim(rng, graph)
        hp = tiny_hp(k=3, lam=0.3, alpha=0.0, max_epochs=50, tolerance=1e-15, seed=2)
        social_model, social_rep = train(train_set, hp, graph, sim)
        basic_model, basic_rep = train(train_set, hp)
        assert social_rep.objective_per_epoch == basic_rep.objective_per_epoch
        np.testing.assert_array_equal(social_model.user_factors, basic_model.user_factors)
        np.testing.assert_array_equal(social_model.item_factors, basic_model.item_factors)

    def test_clique_distance_shrinks_with_alpha(self):
        """Stronger social pull draws a trusting pair's factors together."""
        train_set = SparseRatings(2, 6, [0, 0, 0, 1, 1, 1], [0, 1, 2, 3, 4, 5],
                                  [5.0, 1.0, 4.0, 2.0, 5.0, 3.0])
        graph = TrustGraph.from_edges(2, [(0, 1), (1, 0)])
        sim = SimilarityTable(graph, np.ones(2))
        distances = []
        for alpha in (0.0, 0.1, 1.0, 10.0):
            hp = Hyperparams(k=3, lam=0.05, alpha=alpha, learning_rate=0.005,
                             max_epochs=600, tolerance=1e-12, init_scale=0.1, seed=7)
            model, _ = train(train_set, hp, graph, sim)
            distances.append(float(np.linalg.norm(
                model.user_factors[0] - model.user_factors[1]
            )))
        assert all(b < a for a, b in zip(distances, distances[1:]))

    def test_chain_pull_reaches_unrated_user(self):
        """Regularizing along u->v->g draws u and g together without an edge."""
        train_set = SparseRatings(3, 3, [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2],
                                  [5.0, 1.0, 4.0, 5.0, 1.0, 4.0])
        graph = TrustGraph.from_edges(3, [(0, 1), (1, 2)])
        sim = SimilarityTable(graph, np.ones(2))
        dist = {}
        for alpha in (0.0, 1.0):
            hp = Hyperparams(k=3, lam=0.05, alpha=alpha, learning_rate=0.005,
                             max_epochs=600, tolerance=1e-12, init_scale=0.1, seed=7)
            model, _ = train(train_set, hp, graph, sim)
            dist[alpha] = float(np.linalg.norm(
                model.user_factors[0] - model.user_factors[2]
            ))
        assert dist[1.0] < dist[0.0]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        train_set = random_ratings(rng, 6, 5)
        hp = tiny_hp(k=3, lam=0.2, max_epochs=30, seed=11)
        a, _ = train(train_set, hp)
        b, _ = train(train_set, hp)
        np.testing.assert_array_equal(a.user_factors, b.user_factors)
        np.testing.assert_array_equal(a.item_factors, b.item_factors)

    def test_divergence_raises_with_epoch(self):
        ratings, _, _ = low_rank_ratings(8, 8, rank=2, seed=1)
        hp = Hyperparams(k=2, lam=0.0, alpha=0.0, learning_rate=5.0,
                         max_epochs=200, tolerance=1e-12, init_scale=0.1, seed=0)
        with pytest.raises(DivergenceError, match="epoch"):
            train(ratings, hp)

    def test_divergence_of_the_initial_factors_names_the_initial_scale(self):
        ratings, _, _ = low_rank_ratings(4, 3, rank=1, seed=1)
        with pytest.raises(DivergenceError, match=re.escape(
                "non-finite objective at epoch 0, from initial factors on [0, 1e+300]; "
                "lower the initial scale")) as info:
            train(ratings, tiny_hp(init_scale=1e300))
        assert info.value.epoch == 0

    def test_factors_finite_after_training(self):
        rng = np.random.default_rng(9)
        train_set = random_ratings(rng, 8, 6)
        hp = tiny_hp(k=4, lam=0.5, max_epochs=50)
        model, _ = train(train_set, hp)
        assert np.isfinite(model.user_factors).all()
        assert np.isfinite(model.item_factors).all()


def per_half_train(ratings, hp, graph=None, sim=None):
    """The trainer over separate user and item arrays, as it ran before it
    kept both in one block, in plain numpy/scipy: per half, the gradient
    ``E @ Q + lam * P (+ pull)``, scaled by eta and subtracted, a
    finiteness check of each half, and the objective terms at the new
    factors. ``L`` is the table's own Laplacian. Returns (user factors,
    item factors, objective trace, converged), or the epoch at which the
    run diverged."""
    from scipy.sparse import csr_matrix

    rng = np.random.default_rng(hp.seed)
    user_f = rng.uniform(0.0, hp.init_scale, (ratings.num_users, hp.k))
    item_f = rng.uniform(0.0, hp.init_scale, (ratings.num_items, hp.k))
    resid = csr_matrix((np.empty(ratings.num_entries), ratings.items, ratings.user_ptr),
                       shape=(ratings.num_users, ratings.num_items))
    resid_t = resid.T
    social = graph is not None and hp.alpha != 0.0 and graph.num_edges > 0
    lap = sim.laplacian() if social else None
    state = {}

    def objective(keep_pull):
        err = np.einsum("ej,ej->e", user_f[ratings.users], item_f[ratings.items])
        err -= ratings.values
        resid.data[:] = err
        total = 0.5 * float(np.einsum("e,e->", err, err))
        if hp.lam != 0.0:
            total += 0.5 * hp.lam * (float(np.sum(user_f * user_f))
                                     + float(np.sum(item_f * item_f)))
        if not social:
            return total
        if not keep_pull:
            return total + 0.5 * hp.alpha * float(np.sum(user_f * (lap @ user_f)))
        state["pull"] = lap @ user_f
        state["pull"] *= hp.alpha
        return total + 0.5 * float(np.sum(user_f * state["pull"]))

    trace = []
    previous = objective(True)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, hp.max_epochs + 1):
            d_user, d_item = resid @ item_f, resid_t @ user_f
            if hp.lam != 0.0:
                d_user += hp.lam * user_f
                d_item += hp.lam * item_f
            if social:
                d_user += state["pull"]
            d_user *= hp.learning_rate
            d_item *= hp.learning_rate
            user_f -= d_user
            item_f -= d_item
            if not (np.isfinite(user_f).all() and np.isfinite(item_f).all()):
                return n
            current = objective(n < hp.max_epochs)
            if not np.isfinite(current):
                return n
            trace.append(current)
            if abs(current - previous) / max(1.0, previous) < hp.tolerance:
                return user_f, item_f, trace, True
            previous = current
    return user_f, item_f, trace, False


def block_instance(seed=12, num_users=9, num_items=7):
    """Random ratings over all but the last item, which no rating touches,
    with a random trust graph and similarities."""
    rng = np.random.default_rng(seed)
    rated = random_ratings(rng, num_users, num_items - 1)
    ratings = SparseRatings(num_users, num_items, rated.users, rated.items, rated.values)
    graph = random_graph(rng, num_users)
    return ratings, graph, random_sim(rng, graph)


class TestFactorBlock:
    """Training keeps the factors in one (M + N, k) block; its results are
    those of the per-half trainer bit for bit."""

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("k", [1, 8])
    @pytest.mark.parametrize("social", [False, True])
    def test_training_bitwise_equals_the_per_half_trainer(self, lam, alpha, k, social):
        ratings, graph, sim = block_instance()
        for tolerance in (3e-3, 1e-15):  # mostly tolerance stops, and the full budget
            hp = tiny_hp(k=k, lam=lam, alpha=alpha, learning_rate=0.05, max_epochs=60,
                         tolerance=tolerance, seed=4)
            model, report = train(ratings, hp, *((graph, sim) if social else ()))
            user_f, item_f, trace, converged = per_half_train(
                ratings, hp, *((graph, sim) if social else ()))
            assert model.user_factors.tobytes() == user_f.tobytes()
            assert model.item_factors.tobytes() == item_f.tobytes()
            assert report.objective_per_epoch == trace
            assert report.epochs_run == len(trace)
            assert report.converged == converged

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("social", [False, True])
    def test_divergence_at_the_per_half_trainer_epoch(self, lam, social):
        ratings, graph, sim = block_instance()
        hp = tiny_hp(k=3, lam=lam, alpha=0.5, learning_rate=0.8, max_epochs=500,
                     tolerance=1e-15, seed=4)
        expected = per_half_train(ratings, hp, *((graph, sim) if social else ()))
        assert isinstance(expected, int) and expected > 1
        with pytest.raises(DivergenceError) as info:
            train(ratings, hp, *((graph, sim) if social else ()))
        assert info.value.epoch == expected

    def test_init_model_is_two_adjacent_views_of_one_block(self):
        hp = tiny_hp(k=3, seed=21)
        model = init_model(5, 4, hp)
        block = model.user_factors.base
        assert block is model.item_factors.base
        assert block.shape == (9, 3) and block.flags.c_contiguous
        assert model.user_factors.ctypes.data == block.ctypes.data
        assert model.item_factors.ctypes.data == block.ctypes.data + model.user_factors.nbytes
        rng = np.random.default_rng(21)
        user_f = rng.uniform(0.0, hp.init_scale, (5, 3))
        item_f = rng.uniform(0.0, hp.init_scale, (4, 3))
        assert model.user_factors.tobytes() == user_f.tobytes()
        assert model.item_factors.tobytes() == item_f.tobytes()

    def test_wrappers_leave_the_callers_arrays_alone(self):
        ratings, graph, sim = block_instance()
        hp = tiny_hp(k=3, lam=0.4, alpha=0.5)
        model = random_model(np.random.default_rng(13), ratings.num_users,
                             ratings.num_items, 3)
        user_f, item_f = model.user_factors, model.item_factors
        before = (user_f.copy(), item_f.copy())
        objective_basic(model, ratings, hp)
        objective_social(model, ratings, graph, sim, hp)
        grads = gradients_social(model, ratings, graph, sim, hp)
        assert model.user_factors is user_f and model.item_factors is item_f
        assert user_f.tobytes() == before[0].tobytes()
        assert item_f.tobytes() == before[1].tobytes()
        assert not any(np.shares_memory(g, f) for g in grads for f in (user_f, item_f))

    def test_saved_trained_model_has_the_per_value_bytes(self, tmp_path):
        ratings, graph, sim = block_instance()
        model, _ = train(ratings, tiny_hp(k=3, lam=0.1, alpha=0.5), graph, sim)
        save_model(model, tmp_path / "block.bin")
        struct_save_model(tmp_path / "packed.bin", model.user_factors.tolist(),
                          model.item_factors.tolist(), model.global_mean)
        assert (tmp_path / "block.bin").read_bytes() == (tmp_path / "packed.bin").read_bytes()


def untouched_instance():
    """A 9 x 7 store whose last user and last item no rating touches, and a
    trust graph with edges (8, 0) and (2, 8), every third similarity 0."""
    rng = np.random.default_rng(12)
    rated = random_ratings(rng, 8, 6)
    ratings = SparseRatings(9, 7, rated.users, rated.items, rated.values)
    edges = [(u, v) for u in range(9) for v in range(9) if u != v and rng.random() < 0.3]
    graph = TrustGraph.from_edges(9, edges + [(8, 0), (2, 8)])
    values = rng.uniform(0.0, 1.0, graph.num_edges)
    values[::3] = 0.0
    return ratings, graph, SimilarityTable(graph, values)


class TestDivergenceEpochs:
    """When a run diverges, and how long a run that does not takes, as
    recorded from the trainer that also checked the factors after each
    step: the objective check alone finds every divergence at that epoch."""

    @pytest.mark.parametrize("social,lam,learning_rate,outcome,epochs", [
        (False, 0.0, 0.02, "converges", 2209), (False, 0.0, 0.1, "diverges", 259),
        (False, 0.0, 0.2, "diverges", 9), (False, 0.1, 0.02, "converges", 1050),
        (False, 0.1, 0.1, "diverges", 179), (False, 0.1, 0.2, "diverges", 10),
        (False, 5.0, 0.02, "converges", 35), (False, 5.0, 0.1, "diverges", 25),
        (False, 5.0, 0.2, "diverges", 9),
        (True, 0.0, 0.02, "converges", 2718), (True, 0.0, 0.1, "diverges", 28),
        (True, 0.0, 0.2, "diverges", 10), (True, 0.1, 0.02, "converges", 1133),
        (True, 0.1, 0.1, "diverges", 24), (True, 0.1, 0.2, "diverges", 10),
        (True, 5.0, 0.02, "converges", 33), (True, 5.0, 0.1, "diverges", 18),
        (True, 5.0, 0.2, "diverges", 9),
    ])
    def test_epoch_of_divergence_or_convergence(self, social, lam, learning_rate, outcome,
                                                epochs):
        ratings, graph, sim = untouched_instance()
        operands = (graph, sim) if social else ()
        hp = Hyperparams(k=3, lam=lam, alpha=2.0, learning_rate=learning_rate,
                         max_epochs=3000, tolerance=1e-5, seed=4)
        if outcome == "converges":
            _, report = train(ratings, hp, *operands)
            assert (report.epochs_run, report.converged) == (epochs, True)
            return
        message = f"non-finite factors at epoch {epochs}; lower the learning rate"
        # the second budget ends on the diverging epoch, whose terms keep no pull
        for budget in (hp.max_epochs, epochs):
            with pytest.raises(DivergenceError, match=re.escape(message)) as info:
                train(ratings, replace(hp, max_epochs=budget), *operands)
            assert info.value.epoch == epochs


def _id_map(users, items):
    ids = IdMap()
    ids.add_users(users)
    ids.add_items(items)
    return ids


def _ids_of(ids):
    return ([ids.user_id(u) for u in range(ids.num_users)],
            [ids.item_id(i) for i in range(ids.num_items)])


class TestModelFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        model = random_model(rng, 7, 5, 3)
        model.global_mean = 3.2502
        model.ids = _id_map([f"u{u}" for u in range(7)], ["m1", "\ufeffb", "ü", "#x", "0"])
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.k == 3
        assert loaded.global_mean == model.global_mean
        np.testing.assert_array_equal(loaded.user_factors, model.user_factors)
        np.testing.assert_array_equal(loaded.item_factors, model.item_factors)
        assert _ids_of(loaded.ids) == _ids_of(model.ids)

    def test_model_without_ids_is_saved_with_dense_indices(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(random_model(np.random.default_rng(12), 3, 2, 2), path)
        assert _ids_of(load_model(path).ids) == (["0", "1", "2"], ["0", "1"])

    def test_bytes_match_value_writer(self, tmp_path):
        """save_model writes the bytes of a value-by-value v3 writer."""
        rng = np.random.default_rng(11)
        model = random_model(rng, 6, 4, 3)
        model.user_factors *= 10.0 ** rng.integers(-30, 30, model.user_factors.shape)
        model.user_factors[0, :2] = [-0.0, 5e-324]
        model.global_mean = 3.2502
        users, items = ["a", "b", "ü1", "\ufeffd", "e", "f"], ["i1", "i2", "u3000", "a"]
        model.ids = _id_map(users, items)
        save_model(model, tmp_path / "fast.bin")
        struct_save_model(tmp_path / "packed.bin", model.user_factors.tolist(),
                          model.item_factors.tolist(), model.global_mean, users, items)
        assert (tmp_path / "fast.bin").read_bytes() == (tmp_path / "packed.bin").read_bytes()

    def test_header_format(self, tmp_path):
        model = FactorModel(np.zeros((2, 2)), np.zeros((3, 2)))
        path = tmp_path / "model.bin"
        save_model(model, path)
        head, _, rest = path.read_bytes().partition(b"\n")
        assert head == b"SOCREC-MODEL v3 2 2 3 10"
        assert rest[:10] == b"0\n1\n0\n1\n2\n"
        assert len(rest) == 10 + 8 * ((2 + 3) * 2 + 1)

    @pytest.mark.parametrize("users,items,fault", [
        (["a"], ["x", "y", "z"], "holds 1 user and 3 item ids for 2 user and 3 item rows"),
        (["a", "b"], ["x", "y"], "holds 2 user and 2 item ids for 2 user and 3 item rows"),
        (["a", "b c"], ["x", "y", "z"], "non-empty and hold no whitespace"),
        (["a", "b"], ["x", "", "z"], "non-empty and hold no whitespace"),
        (["a", "b"], ["x", "y\u3000", "z"], "non-empty and hold no whitespace"),
    ])
    def test_ids_the_file_cannot_hold_are_refused(self, tmp_path, users, items, fault):
        model = FactorModel(np.zeros((2, 2)), np.zeros((3, 2)), ids=_id_map(users, items))
        with pytest.raises(ValueError, match=re.escape(fault)):
            save_model(model, tmp_path / "model.bin")
        assert not (tmp_path / "model.bin").exists()

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("SOCREC-MODEL v1 2 2\n", encoding="utf-8")
        with pytest.raises(DataFileError):
            load_model(path)


# the header, id block and body size of _v3_file's model
_HEAD = b"SOCREC-MODEL v3 2 2 3 10\n"
_IDS = b"0\n1\n0\n1\n2\n"
_BODY = 88


def _v3_file(path, m=2, n=3, k=2, **ids):
    """A v3 model of ones with train mean 3, written by the value writer;
    ``user_ids`` and ``item_ids`` may replace the dense indices."""
    struct_save_model(path, [[1.0] * k] * m, [[1.0] * k] * n, 3.0, **ids)
    return path


class TestModelFileV3:
    """Format v3: header, id block, exact file size, and which value is
    non-finite."""

    @pytest.mark.parametrize("cut,fault", [(-1, "truncated"), (1, "one extra byte")])
    def test_file_size_must_match_header(self, tmp_path, cut, fault):
        path = _v3_file(tmp_path / "model.bin")
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut < 0 else data + b"\0" * cut)
        with pytest.raises(DataFileError, match=re.escape(
                f"{path}: model has {98 + cut} bytes after its header, "
                "header 2 2 3 10 needs 98")):
            load_model(path)

    @pytest.mark.parametrize("dims", ["0 2 3 10", "2 0 3 10", "2 2 -1 10", "2 2 3 -1"])
    def test_dimension_below_one(self, tmp_path, dims):
        path = tmp_path / "model.bin"
        path.write_bytes(f"SOCREC-MODEL v3 {dims}\n".encode() + _IDS + b"\0" * _BODY)
        with pytest.raises(DataFileError, match=re.escape(
                f"{path}:1: model dimensions must be >= 1 and its id block size >= 0")):
            load_model(path)

    @pytest.mark.parametrize("dims", ["2.0 2 3 10", "2 x 3 10", "2 2 3e0 10", "2 2 3 1e1"])
    def test_non_integer_dimension(self, tmp_path, dims):
        path = tmp_path / "model.bin"
        path.write_bytes(f"SOCREC-MODEL v3 {dims}\n".encode() + _IDS + b"\0" * _BODY)
        with pytest.raises(DataFileError, match=re.escape(f"{path}:1: bad model dimensions")):
            load_model(path)

    @pytest.mark.parametrize("head", [b"SOCREC-MODEL v3 2 2 3\n", b"SOCREC-MODEL v3 2 2 3 10 4\n",
                                      b"SOCREC-MODEL v3 2 2 3 10" + b" " * 300 + b"\n"],
                             ids=["five-fields", "seven-fields", "overlong"])
    def test_bad_header(self, tmp_path, head):
        path = tmp_path / "model.bin"
        path.write_bytes(head + _IDS + b"\0" * _BODY)
        with pytest.raises(DataFileError, match=re.escape(f"{path}:1: bad model header")):
            load_model(path)

    @pytest.mark.parametrize("content", [
        b"SOCREC-MODEL v2 2 2 3\n" + b"\0" * _BODY,
        b"SOCREC-MODEL v1 1 1 1\n1\n1\n3\n",
        b"SOCREC-MODEL v4 2 2 3 10\n" + _IDS + b"\0" * _BODY,
        b"not a model\n",
        b"",
    ], ids=["v2", "v1", "v4", "text", "empty"])
    def test_other_formats_must_be_trained_again(self, tmp_path, content):
        path = tmp_path / "model.bin"
        path.write_bytes(content)
        with pytest.raises(DataFileError, match=re.escape(
                f"{path}:1: not a SOCREC-MODEL v3 file; models written by earlier "
                "versions must be trained again")):
            load_model(path)

    @pytest.mark.parametrize("head,needs", [
        (b"SOCREC-MODEL v3 10 100000000000 5 0\n", "header 10 100000000000 5 0 needs 8000000000408"),
        (b"SOCREC-MODEL v3 2 2 3 100000000000000\n", "header 2 2 3 100000000000000 needs "
                                                       "100000000000088"),
    ], ids=["rows", "id-block"])
    def test_huge_header_fails_before_allocating(self, tmp_path, head, needs):
        path = tmp_path / "model.bin"
        path.write_bytes(head.ljust(100, b"\0"))
        with pytest.raises(DataFileError, match=needs):
            load_model(path)

    @pytest.mark.parametrize("ids,count", [
        (dict(user_ids=["a"]), 4), (dict(user_ids=["a", "b c"]), 6),
        (dict(item_ids=["x", "y", "z", "w"]), 6), (dict(item_ids=["x", "y", "\u3000"]), 4),
    ])
    def test_id_count_must_match_header(self, tmp_path, ids, count):
        path = _v3_file(tmp_path / "model.bin", **ids)
        with pytest.raises(DataFileError, match=re.escape(
                f"{path}: id block holds {count} ids, header 2 2 3 ")):
            load_model(path)

    @pytest.mark.parametrize("ids,fault", [
        (dict(user_ids=["a", "a"]), "user id 'a' listed twice"),
        (dict(item_ids=["x", "y", "x"]), "item id 'x' listed twice"),
        (dict(user_ids=["x", "y"], item_ids=["x", "y", "z"]), None),
    ])
    def test_repeated_id_is_named(self, tmp_path, ids, fault):
        """An id may name a user and an item, but only one of each."""
        path = _v3_file(tmp_path / "model.bin", **ids)
        if fault is None:
            assert _ids_of(load_model(path).ids) == (["x", "y"], ["x", "y", "z"])
            return
        with pytest.raises(DataFileError, match=re.escape(f"{path}: {fault}")):
            load_model(path)

    def test_id_block_that_is_not_utf8_is_a_data_error(self, tmp_path):
        path = _v3_file(tmp_path / "model.bin", user_ids=["a", "\xff"])
        data = path.read_bytes()
        path.write_bytes(data.replace("\xff".encode("utf-8"), b"\xff\xfe"))
        with pytest.raises(DataFileError, match=re.escape(f"cannot read {path}: 'utf-8' codec")):
            load_model(path)

    @pytest.mark.parametrize("index,where", [
        (0, "user row 0"), (3, "user row 1"), (4, "item row 0"), (9, "item row 2"),
        (10, "global mean"),
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_named(self, tmp_path, index, where, value):
        path = _v3_file(tmp_path / "model.bin")
        data = bytearray(path.read_bytes())
        offset = len(_HEAD) + len(_IDS) + 8 * index
        data[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(DataFileError, match=re.escape(f"{path}: non-finite value in {where}")):
            load_model(path)

    def test_file_that_shrinks_while_read(self, tmp_path, monkeypatch):
        """The size check reads the size once; a body that then comes up
        short is a data error, not a model of stale memory."""
        path = _v3_file(tmp_path / "model.bin")
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=size))
        with pytest.raises(DataFileError, match=re.escape(
                f"{path}: model file shrank while being read")):
            load_model(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = _v3_file(tmp_path / "model.bin")
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded = load_model(path)
        assert (loaded.num_users, loaded.num_items, loaded.global_mean) == (2, 3, 3.0)
        assert _ids_of(loaded.ids) == (["0", "1"], ["0", "1", "2"])

    def test_loaded_factors_are_writable_native_arrays(self, tmp_path):
        loaded = load_model(_v3_file(tmp_path / "model.bin"))
        for factors in (loaded.user_factors, loaded.item_factors):
            assert factors.dtype == np.float64 and factors.dtype.isnative
            assert factors.flags.writeable and factors.flags.c_contiguous
