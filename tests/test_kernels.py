"""Each numeric operator in ``socrec._kernels`` against the independent
oracles in ``tests/oracles.py``, and the kernel names the benchmark binds."""

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from socrec import (
    SimilarityKind,
    SimilarityTable,
    SparseRatings,
    TrustGraph,
    _kernels,
    factorization,
    objective_social,
    train,
)
from socrec.similarity import pair_similarities

from helpers import (
    entry_triples,
    random_graph,
    random_ratings,
    random_sim,
    ratings_from_dicts,
    sim_edge_triples,
)
from oracles import (
    brute_objective_basic,
    brute_objective_social,
    brute_pcc,
    brute_rating_gradients,
    brute_social_gradient,
    brute_vss,
)


_RATING = st.one_of(st.integers(1, 5).map(float), st.floats(1.0, 5.0))


@st.composite
def similarity_instances(draw):
    """(number of items, rating rows, edges, edge block size, marker cells)
    for the edge similarity kernels. User 0 rates nothing, user 1 only the
    two lowest items and user 2 only the two highest, so edge (1, 2) has a
    destination row entirely above the source's last item. The first block
    of edges starts at user 0 and the second ends at it, so one side of each
    gathers no entries; the drawn users may rate nothing too. The marker
    cells range from fewer than one row's span, one source per block, to
    several rows."""
    num_items = draw(st.integers(4, 8))
    rows = [{}, {0: draw(_RATING), 1: draw(_RATING)},
            {num_items - 2: draw(_RATING), num_items - 1: draw(_RATING)}]
    rows += draw(st.lists(st.dictionaries(st.integers(0, num_items - 1), _RATING), max_size=8))
    block = draw(st.integers(1, 5))
    user = st.integers(0, len(rows) - 1)
    edges = ([(0, draw(user)) for _ in range(block)] + [(draw(user), 0) for _ in range(block)]
             + [(1, 2), (2, 1)] + draw(st.lists(st.tuples(user, user), max_size=30)))
    return num_items, rows, edges, block, draw(st.integers(1, 4 * num_items))


@st.composite
def blocking_instances(draw):
    """(number of items, rating rows, pairs, edge block size, marker cells):
    user 0 rates nothing, the pairs come in any order with repeats and
    ``(u, u)`` pairs, and one source holds more pairs than a block."""
    num_items = draw(st.integers(1, 6))
    rows = [{}] + draw(st.lists(st.dictionaries(st.integers(0, num_items - 1), _RATING),
                                min_size=1, max_size=6))
    user = st.integers(0, len(rows) - 1)
    block = draw(st.integers(1, 4))
    heavy, same = draw(user), draw(user)
    pairs = ([(heavy, draw(user)) for _ in range(block + 1)] + [(same, same)] * 2
             + draw(st.lists(st.tuples(user, user), max_size=20)))
    pairs = draw(st.permutations(pairs))
    return num_items, rows, pairs, block, draw(st.integers(1, 3 * num_items))


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(60)
    ratings = random_ratings(rng, 40, 20)
    graph = random_graph(rng, 40, edge_prob=0.1)
    sim = random_sim(rng, graph)
    user_f = rng.uniform(0, 1, (40, 6))
    item_f = rng.uniform(0, 1, (20, 6))
    return ratings, graph, sim, user_f, item_f


class TestDataOperators:
    def test_predict_pairs(self, instance):
        ratings, _, _, user_f, item_f = instance
        got = _kernels.predict_pairs(user_f, item_f, ratings.users, ratings.items)
        expected = [sum(a * b for a, b in zip(user_f[u], item_f[i]))
                    for u, i in zip(ratings.users, ratings.items)]
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_gather_blocks_give_the_unblocked_result(self, instance, monkeypatch):
        ratings, _, _, user_f, item_f = instance
        assert user_f.shape[1] == 6 and ratings.num_entries % 7 != 0
        args = (user_f, item_f, ratings.users, ratings.items)
        whole = _kernels.predict_pairs(*args)
        sse = _kernels.squared_error_sum(*args, ratings.values)
        # seven rows per block, the last one partial; then a budget below k,
        # which gathers one row per block
        for floats in (6 * 7, 5):
            monkeypatch.setattr(_kernels, "GATHER_FLOATS", floats)
            np.testing.assert_array_equal(_kernels.predict_pairs(*args), whole)
            assert _kernels.squared_error_sum(*args, ratings.values) == sse

    @pytest.mark.parametrize("side", ["user", "item"])
    def test_out_of_range_index_raises(self, instance, side):
        """Gathers check their indices: a row past the factors is an error,
        never a clipped or wrapped row."""
        ratings, _, _, user_f, item_f = instance
        users, items = ratings.users.copy(), ratings.items.copy()
        if side == "user":
            users[-1] = user_f.shape[0]
        else:
            items[-1] = item_f.shape[0]
        with pytest.raises(IndexError):
            _kernels.predict_pairs(user_f, item_f, users, items)
        with pytest.raises(IndexError):
            _kernels.squared_error_sum(user_f, item_f, users, items, ratings.values)

    def test_squared_error_sum(self, instance):
        ratings, _, _, user_f, item_f = instance
        expected = 2.0 * brute_objective_basic(
            user_f.tolist(), item_f.tolist(), entry_triples(ratings), 0.0)
        got = _kernels.squared_error_sum(
            user_f, item_f, ratings.users, ratings.items, ratings.values)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_rating_gradients_with_repeated_users_and_items(self):
        rng = np.random.default_rng(61)
        # 60 entries over 5 users and 4 items: users, items and whole
        # (user, item) pairs repeat, in no particular order
        users = rng.integers(0, 5, 60)
        items = rng.integers(0, 4, 60)
        values = rng.uniform(1.0, 5.0, 60)
        user_f = rng.uniform(0, 1, (6, 3))
        item_f = rng.uniform(0, 1, (4, 3))
        d_user, d_item = _kernels.rating_gradients(user_f, item_f, users, items, values)
        exp_user, exp_item = brute_rating_gradients(
            user_f.tolist(), item_f.tolist(),
            [(int(u), int(i), float(r)) for u, i, r in zip(users, items, values)])
        np.testing.assert_allclose(d_user, exp_user, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(d_item, exp_item, rtol=1e-12, atol=1e-12)
        assert np.all(d_user[5] == 0.0)  # a user without entries gets no pull

    def test_residual_matrix_carries_the_residuals_written_into_it(self, instance):
        ratings, _, _, user_f, item_f = instance
        args = (user_f, item_f, ratings.users, ratings.items, ratings.values)
        resid = _kernels.residual_matrix(ratings.user_ptr, ratings.items, ratings.num_items)
        sse = _kernels.squared_error_sum(*args, out=resid.data)
        assert sse == _kernels.squared_error_sum(*args)
        fused = _kernels.rating_gradients(*args, resid=resid)
        for got, expected in zip(fused, _kernels.rating_gradients(*args)):
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)


class TestSocialOperators:
    def test_penalty_and_gradient_on_random_graph(self, instance):
        _, graph, sim, user_f, item_f = instance
        edges = sim_edge_triples(graph, sim)
        penalty = _kernels.social_penalty(user_f, graph.edge_src, graph.edge_dst, sim.values)
        # with lam = 0 and alpha = 2 the oracle objective is the bare penalty
        expected = brute_objective_social(user_f.tolist(), item_f.tolist(), [], edges, 0.0, 2.0)
        assert penalty == pytest.approx(expected, rel=1e-12)
        grad = _kernels.social_gradient(user_f, graph.edge_src, graph.edge_dst, sim.values, 0.7)
        np.testing.assert_allclose(
            grad, brute_social_gradient(user_f.tolist(), edges, 0.7), rtol=1e-12, atol=1e-14)

    def test_reciprocal_edges_with_different_similarities(self):
        """(0, 1) and (1, 0) carry their own similarities; W + Wᵀ sums them."""
        graph = TrustGraph.from_edges(4, [(0, 1), (1, 0), (1, 2), (3, 1)])
        sim = SimilarityTable(graph, np.array([0.2, 0.9, 0.5, 0.4]))
        edges = sim_edge_triples(graph, sim)
        user_f = np.random.default_rng(62).uniform(0, 1, (4, 3))
        src, dst = graph.edge_src, graph.edge_dst

        lap = _kernels.social_laplacian(4, src, dst, sim.values).toarray()
        assert lap[0, 1] == lap[1, 0] == pytest.approx(-(0.2 + 0.9), rel=1e-15)
        np.testing.assert_array_equal(lap, lap.T)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-15)

        penalty = _kernels.social_penalty(user_f, src, dst, sim.values)
        expected = brute_objective_social(user_f.tolist(), [[0.0]], [], edges, 0.0, 2.0)
        assert penalty == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(
            _kernels.social_gradient(user_f, src, dst, sim.values, 1.5),
            brute_social_gradient(user_f.tolist(), edges, 1.5), rtol=1e-12, atol=1e-14)

    def test_prebuilt_laplacian_gives_the_same_values(self, instance):
        _, graph, sim, user_f, _ = instance
        args = (user_f, graph.edge_src, graph.edge_dst, sim.values)
        lap = _kernels.social_laplacian(user_f.shape[0], *args[1:])
        assert _kernels.social_penalty(*args, laplacian=lap) == _kernels.social_penalty(*args)
        np.testing.assert_array_equal(_kernels.social_gradient(*args, 0.7, laplacian=lap),
                                      _kernels.social_gradient(*args, 0.7))


class TestEdgeSimilarities:
    # user 0 overlaps user 1 on no item, user 2 on one, user 3 on two and
    # user 4 on three; user 4 rates every item the same (zero variance)
    USERS = (
        {0: 4.0, 1: 5.0, 2: 3.0, 3: 1.0},
        {4: 2.0, 5: 5.0},
        {0: 2.0, 5: 4.0},
        {0: 5.0, 1: 1.0, 6: 3.0},
        {0: 3.0, 1: 3.0, 2: 3.0},
    )

    def edge_values(self, ratings, src, dst):
        src, dst = np.asarray(src), np.asarray(dst)
        args = (ratings.user_ptr, ratings.items, ratings.values)
        pcc = _kernels.pcc_edges(*args, ratings.user_means(), src, dst)
        vss = _kernels.vss_edges(*args, src, dst)
        return pcc, vss

    def test_overlap_sizes_and_zero_variance(self):
        ratings = ratings_from_dicts(7, *self.USERS)
        src, dst = [0, 0, 0, 0, 4, 3], [1, 2, 3, 4, 0, 2]
        pcc, vss = self.edge_values(ratings, src, dst)
        for e, (u, f) in enumerate(zip(src, dst)):
            assert pcc[e] == pytest.approx(brute_pcc(self.USERS[u], self.USERS[f]), abs=1e-12)
            assert vss[e] == pytest.approx(brute_vss(self.USERS[u], self.USERS[f]), abs=1e-12)
        assert pcc[0] == vss[0] == 0.0  # no co-rated item
        assert pcc[1] == 0.0 and vss[1] == 1.0  # one co-rated item
        assert pcc[2] != 0.0  # two co-rated items are enough for PCC
        assert pcc[3] == pcc[4] == 0.0  # zero-variance user, either direction
        assert vss[3] > 0.0

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(similarity_instances())
    def test_random_instance_over_several_edge_blocks(self, monkeypatch, instance):
        num_items, rows, edges, block, cells = instance
        monkeypatch.setattr(_kernels, "EDGE_BLOCK", block)
        monkeypatch.setattr(_kernels, "MARK_CELLS", cells)
        ratings = ratings_from_dicts(num_items, *rows)
        src, dst = zip(*edges)
        pcc, vss = self.edge_values(ratings, src, dst)
        for e, (u, f) in enumerate(edges):
            assert pcc[e] == pytest.approx(brute_pcc(rows[u], rows[f]), abs=1e-12)
            assert vss[e] == pytest.approx(brute_vss(rows[u], rows[f]), abs=1e-12)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blocking_instances())
    def test_values_do_not_depend_on_the_blocking(self, monkeypatch, instance):
        """Each pair's value, scored among all the pairs with blocks cut
        small (one source per block when the cells hold less than two rows;
        the heavy source's run split across blocks), equals its value scored
        alone, bit for bit."""
        num_items, rows, pairs, block, cells = instance
        monkeypatch.setattr(_kernels, "EDGE_BLOCK", block)
        monkeypatch.setattr(_kernels, "MARK_CELLS", cells)
        ratings = ratings_from_dicts(num_items, *rows)
        src, dst = (np.array(side, dtype=np.int64) for side in zip(*pairs))
        for kind in (SimilarityKind.pcc(), SimilarityKind.vss()):
            alone = [pair_similarities(ratings, kind, src[e:e + 1], dst[e:e + 1])[0]
                     for e in range(src.size)]
            assert pair_similarities(ratings, kind, src, dst).tolist() == alone

    def test_marker_table_memory_is_bounded(self):
        """On a wide item span, where a table of every source's row would
        take 60 MB, the peak allocation of a PCC build stays within the
        marker table's cap plus 2 MiB of block temporaries. Each user rates
        ten of the first 50 items, so pairs overlap, and ten of the rest."""
        rng = np.random.default_rng(7)
        num_users, num_items = 300, 200_000
        users = np.repeat(np.arange(num_users), 20)
        items = np.concatenate([np.sort(np.concatenate((
            rng.choice(50, 10, replace=False),
            rng.choice(np.arange(50, num_items), 10, replace=False))))
            for _ in range(num_users)])
        items[-1] = num_items - 1
        ratings = SparseRatings(num_users, num_items, users, items,
                                rng.integers(1, 6, users.size).astype(float))
        src = np.repeat(np.arange(num_users), 8)
        dst = (src + rng.integers(1, num_users, src.size)) % num_users
        ratings.user_means()
        assert num_users * num_items > 10 * _kernels.MARK_CELLS
        tracemalloc.start()
        try:
            sims = pair_similarities(ratings, SimilarityKind.pcc(), src, dst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _kernels.MARK_CELLS + 2 * 2**20
        assert np.count_nonzero(sims != 0.5) > src.size // 2


class TestFusedEpoch:
    HP = factorization.Hyperparams(k=4, lam=0.3, alpha=0.8, learning_rate=0.01,
                                   max_epochs=25, tolerance=1e-15, seed=3)

    def test_last_objective_is_objective_at_returned_factors(self, instance):
        ratings, graph, sim, _, _ = instance
        model, report = train(ratings, self.HP, graph, sim)
        assert report.epochs_run == 25
        assert report.objective_per_epoch[-1] == pytest.approx(
            objective_social(model, ratings, graph, sim, self.HP), rel=1e-12)

    def test_training_steps_match_freshly_computed_gradients(self, instance, monkeypatch):
        """Each epoch's reused residuals, cached ``Eᵀ`` and pull give the
        gradients that the kernels compute from scratch at the same factors,
        and each epoch's terms the objective that objective_social gives."""
        ratings, graph, sim, _, _ = instance
        hp, entries = self.HP, (ratings.users, ratings.items, ratings.values)
        edges = (graph.edge_src, graph.edge_dst, sim.values)
        seen = {"gradients": 0, "terms": 0}
        nested = []

        def fresh_gradients(model):
            user_f, item_f = model.user_factors, model.item_factors
            d_user, d_item = _kernels.rating_gradients(user_f, item_f, *entries)
            return (d_user + hp.lam * user_f + _kernels.social_gradient(user_f, *edges, hp.alpha),
                    d_item + hp.lam * item_f)

        def same_gradients(got, model):
            for g, e in zip(got, fresh_gradients(model)):
                np.testing.assert_allclose(g, e, rtol=1e-12, atol=1e-14)

        def same_objective(got, model):
            data, l2, social = got
            assert data + l2 + social == pytest.approx(
                objective_social(model, ratings, graph, sim, hp), rel=1e-13)

        def checked(name, compare):
            original = getattr(factorization._Epoch, name)

            def wrapper(epoch, *args, **kwargs):
                got = original(epoch, *args, **kwargs)
                if not nested:  # objective_social runs an epoch object of its own
                    nested.append(name)
                    compare(got, factorization.FactorModel(epoch.user_f, epoch.item_f))
                    nested.pop()
                    seen[name] += 1
                return got
            monkeypatch.setattr(factorization._Epoch, name, wrapper)

        checked("gradients", same_gradients)
        checked("terms", same_objective)
        train(ratings, hp, graph, sim)
        assert seen == {"gradients": 25, "terms": 26}

    @pytest.mark.parametrize("lam,alpha", [(0.3, 0.8), (0.0, 0.8), (0.3, 0.0)])
    def test_terms_match_the_oracles_and_sum_to_the_objective(self, instance, lam, alpha):
        """The data, L2 and social terms each match the brute-force oracles,
        and the last reported objective is their sum, bit for bit."""
        ratings, graph, sim, _, _ = instance
        hp = dataclasses.replace(self.HP, lam=lam, alpha=alpha)
        model, report = train(ratings, hp, graph, sim)
        user_f, item_f = model.user_factors.tolist(), model.item_factors.tolist()
        edges = sim_edge_triples(graph, sim)
        expected = (brute_objective_basic(user_f, item_f, entry_triples(ratings), 0.0),
                    brute_objective_basic(user_f, item_f, [], lam),
                    brute_objective_social(user_f, item_f, [], edges, 0.0, alpha))
        factors = factorization._factor_block(model)
        terms = {keep_pull: factorization._Epoch(factors, ratings, hp, graph, sim).terms(keep_pull)
                 for keep_pull in (True, False)}
        for got in terms.values():
            assert got == pytest.approx(expected, rel=1e-12)
        # training keeps no pull after its last epoch, unless it converged early
        data, l2, social = terms[report.epochs_run < hp.max_epochs]
        assert data + l2 + social == report.objective_per_epoch[-1]

    @pytest.mark.parametrize("social", [True, False])
    def test_epoch_calls_the_kernel_names(self, instance, monkeypatch, social):
        """Training goes through the public kernel names, one residual pass per
        objective: a run of n epochs makes n + 1 residual passes, n data
        gradients and, with the social term, n pulls and one closing
        penalty. The per-layer benchmark traces exactly these calls."""
        ratings, graph, sim, _, _ = instance
        calls = dict.fromkeys(TestBenchmarkContract.KERNELS, 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(_kernels, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(_kernels, name, counted)
        for n in (1, 4, 9):
            calls.update(dict.fromkeys(calls, 0))
            hp = factorization.Hyperparams(k=3, alpha=0.1, max_epochs=n, tolerance=1e-300)
            _, report = train(ratings, hp, *((graph, sim) if social else ()))
            assert report.epochs_run == n
            assert calls == {"squared_error_sum": n + 1, "rating_gradients": n,
                             "social_gradient": n if social else 0,
                             "social_penalty": 1 if social else 0,
                             "predict_pairs": 0, "pcc_edges": 0, "vss_edges": 0}


class TestCachedLaplacian:
    HP = factorization.Hyperparams(k=4, lam=0.3, alpha=0.8, learning_rate=0.01,
                                   max_epochs=8, tolerance=1e-15, seed=3)

    @staticmethod
    def fresh(sim):
        return SimilarityTable(sim.graph, sim.values.copy())

    def test_one_read_only_matrix_equal_to_a_fresh_build(self, instance):
        _, graph, sim, _, _ = instance
        sim = self.fresh(sim)
        lap = sim.laplacian()
        assert sim.laplacian() is lap
        built = _kernels.social_laplacian(graph.num_users, graph.edge_src, graph.edge_dst,
                                          sim.values)
        for got, expected in ((lap.data, built.data), (lap.indices, built.indices),
                              (lap.indptr, built.indptr)):
            np.testing.assert_array_equal(got, expected)
            assert not got.flags.writeable

    def test_trainings_sharing_a_table_match_fresh_tables(self, instance, monkeypatch):
        ratings, graph, sim, _, _ = instance
        shared = self.fresh(sim)
        before = shared.laplacian().data.copy()
        builds = []
        build = _kernels.social_laplacian
        monkeypatch.setattr(_kernels, "social_laplacian",
                            lambda *args: builds.append(1) or build(*args))
        for seed in (3, 4):
            hp = dataclasses.replace(self.HP, seed=seed)
            got, got_report = train(ratings, hp, graph, shared)
            expected, expected_report = train(ratings, hp, graph, self.fresh(sim))
            assert got_report.objective_per_epoch == expected_report.objective_per_epoch
            np.testing.assert_array_equal(got.user_factors, expected.user_factors)
            np.testing.assert_array_equal(got.item_factors, expected.item_factors)
        np.testing.assert_array_equal(shared.laplacian().data, before)
        assert len(builds) == 2  # one per fresh table; the shared one built before

    def test_alpha_zero_on_a_table_with_a_laplacian_is_basic(self, instance):
        ratings, graph, sim, _, _ = instance
        sim.laplacian()
        hp = dataclasses.replace(self.HP, alpha=0.0)
        social, social_report = train(ratings, hp, graph, sim)
        basic, basic_report = train(ratings, hp)
        assert social_report.objective_per_epoch == basic_report.objective_per_epoch
        np.testing.assert_array_equal(social.user_factors, basic.user_factors)
        np.testing.assert_array_equal(social.item_factors, basic.item_factors)


class TestBenchmarkContract:
    """perfbench binds these names; they keep their positional parameters,
    and any added parameter is keyword-only with a default."""

    KERNELS = {
        "squared_error_sum": ["user_f", "item_f", "users", "items", "values"],
        "predict_pairs": ["user_f", "item_f", "users", "items"],
        "rating_gradients": ["user_f", "item_f", "users", "items", "values"],
        "social_penalty": ["user_f", "edge_src", "edge_dst", "edge_sim"],
        "social_gradient": ["user_f", "edge_src", "edge_dst", "edge_sim", "alpha"],
        "pcc_edges": ["user_ptr", "user_items", "user_values", "user_means",
                      "edge_src", "edge_dst"],
        "vss_edges": ["user_ptr", "user_items", "user_values", "edge_src", "edge_dst"],
    }
    OBJECTIVES = {
        "objective_basic": ["model", "train", "hp"],
        "objective_social": ["model", "train", "graph", "sim", "hp"],
        "gradients_social": ["model", "train", "graph", "sim", "hp"],
    }

    @staticmethod
    def params(fn):
        params = inspect.signature(fn).parameters.values()
        extra = [p for p in params if p.kind is not p.POSITIONAL_OR_KEYWORD]
        assert all(p.kind is p.KEYWORD_ONLY and p.default is not p.empty for p in extra)
        return [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]

    def test_kernel_names(self):
        for name, params in self.KERNELS.items():
            assert self.params(getattr(_kernels, name)) == params, name
        assert _kernels.active_backend() == "numpy"

    def test_objective_names(self):
        for name, params in self.OBJECTIVES.items():
            assert self.params(getattr(factorization, name)) == params, name
