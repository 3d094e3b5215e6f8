import numpy as np
import pytest

from socrec import (
    SimilarityKind,
    SimilarityTable,
    TrustGraph,
    build_similarity_table,
    map_to_unit,
    pcc,
    vss,
)

from helpers import random_graph, random_ratings, ratings_from_dicts
from oracles import brute_pcc, brute_vss


class TestMapToUnit:
    def test_endpoints_and_midpoint(self):
        assert map_to_unit(-1.0) == 0.0
        assert map_to_unit(1.0) == 1.0
        assert map_to_unit(0.0) == 0.5


class TestPcc:
    def test_identical_raters_give_one(self):
        ratings = ratings_from_dicts(3, {0: 4, 1: 5, 2: 3}, {0: 4, 1: 5, 2: 3})
        assert pcc(ratings, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_overlap(self):
        # overlap ratings (4,5,3) vs (2,1,3); users rate nothing else, so
        # global means equal overlap means and the correlation is exactly -1
        ratings = ratings_from_dicts(3, {0: 4, 1: 5, 2: 3}, {0: 2, 1: 1, 2: 3})
        expected = brute_pcc({0: 4, 1: 5, 2: 3}, {0: 2, 1: 1, 2: 3})
        assert expected == pytest.approx(-1.0, abs=1e-12)
        assert pcc(ratings, 0, 1) == pytest.approx(expected, abs=1e-12)

    def test_empty_overlap_gives_zero(self):
        ratings = ratings_from_dicts(4, {0: 4, 1: 5}, {2: 2, 3: 3})
        assert pcc(ratings, 0, 1) == 0.0

    def test_single_item_overlap_gives_zero(self):
        ratings = ratings_from_dicts(3, {0: 4, 1: 5}, {0: 2, 2: 3})
        assert pcc(ratings, 0, 1) == 0.0

    def test_zero_denominator_gives_zero(self):
        # user 1 rates the overlap at their global mean -> zero deviations
        ratings = ratings_from_dicts(4, {0: 4, 1: 5, 2: 3}, {0: 3, 1: 3, 2: 3})
        assert pcc(ratings, 0, 1) == 0.0

    def test_mean_uses_all_rated_items(self):
        """The deviation mean covers a user's full history, not the overlap."""
        u = {0: 4.0, 1: 5.0, 2: 3.0, 3: 1.0}
        f = {0: 2.0, 1: 1.0, 2: 3.0}
        ratings = ratings_from_dicts(4, u, f)
        assert pcc(ratings, 0, 1) == pytest.approx(brute_pcc(u, f), abs=1e-12)

    def test_shift_invariance_when_overlap_is_whole_history(self):
        # adding a constant to user 0's ratings shifts their global mean by
        # the same constant, leaving deviations (and the pcc) unchanged
        base = {0: 1.0, 1: 2.0, 2: 1.5}
        other = {0: 2.0, 1: 4.0, 2: 2.5, 3: 5.0}
        shifted = {i: r + 1.0 for i, r in base.items()}
        r1 = ratings_from_dicts(4, base, other)
        r2 = ratings_from_dicts(4, shifted, other)
        assert pcc(r1, 0, 1) == pytest.approx(pcc(r2, 0, 1), abs=1e-12)


class TestVss:
    def test_identical_vectors_give_one(self):
        ratings = ratings_from_dicts(3, {0: 4, 1: 5, 2: 3}, {0: 4, 1: 5, 2: 3})
        assert vss(ratings, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_single_shared_item(self):
        ratings = ratings_from_dicts(3, {0: 4.0, 1: 2.0}, {0: 4.0, 2: 5.0})
        assert vss(ratings, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_three_four_cross(self):
        # overlap vectors (3,4) vs (4,3): cosine 24/25
        ratings = ratings_from_dicts(2, {0: 3.0, 1: 4.0}, {0: 4.0, 1: 3.0})
        expected = brute_vss({0: 3.0, 1: 4.0}, {0: 4.0, 1: 3.0})
        assert expected == pytest.approx(0.96, abs=1e-12)
        assert vss(ratings, 0, 1) == pytest.approx(expected, abs=1e-12)

    def test_empty_overlap_gives_zero(self):
        ratings = ratings_from_dicts(4, {0: 4}, {1: 2})
        assert vss(ratings, 0, 1) == 0.0

    def test_scale_invariance_on_overlap(self):
        # doubling both users' overlap vectors leaves the cosine unchanged
        r1 = ratings_from_dicts(2, {0: 1.0, 1: 2.0}, {0: 1.5, 1: 2.5})
        r2 = ratings_from_dicts(2, {0: 2.0, 1: 4.0}, {0: 3.0, 1: 5.0})
        assert vss(r1, 0, 1) == pytest.approx(vss(r2, 0, 1), abs=1e-12)


class TestSymmetryAndBounds:
    def test_symmetry_on_random_instances(self):
        rng = np.random.default_rng(11)
        ratings = random_ratings(rng, 12, 10)
        for _ in range(100):
            u, f = rng.integers(0, 12, 2)
            assert pcc(ratings, int(u), int(f)) == pytest.approx(
                pcc(ratings, int(f), int(u)), abs=1e-12
            )
            assert vss(ratings, int(u), int(f)) == pytest.approx(
                vss(ratings, int(f), int(u)), abs=1e-12
            )

    def test_bounds_on_1000_random_pairs(self):
        rng = np.random.default_rng(12)
        ratings = random_ratings(rng, 40, 15)
        for _ in range(1000):
            u, f = rng.integers(0, 40, 2)
            v = vss(ratings, int(u), int(f))
            p = map_to_unit(pcc(ratings, int(u), int(f)))
            assert 0.0 <= v <= 1.0
            assert 0.0 <= p <= 1.0

    def test_dense_instances_match_brute_force(self):
        """Dense 5x6 instances: library vs independent formula evaluation."""
        rng = np.random.default_rng(13)
        for _ in range(5):
            dicts = [
                {i: float(rng.uniform(1, 5)) for i in range(6)} for _ in range(5)
            ]
            ratings = ratings_from_dicts(6, *dicts)
            for u in range(5):
                for f in range(5):
                    if u == f:
                        continue
                    assert pcc(ratings, u, f) == pytest.approx(
                        brute_pcc(dicts[u], dicts[f]), abs=1e-12
                    )
                    assert vss(ratings, u, f) == pytest.approx(
                        brute_vss(dicts[u], dicts[f]), abs=1e-12
                    )


class TestSimilarityKind:
    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            SimilarityKind("cosine")

    def test_parse_random_with_seed(self):
        kind = SimilarityKind.parse("random:42")
        assert kind.tag == "random" and kind.seed == 42
        assert kind.label() == "random:42"

    @pytest.mark.parametrize("text", ["pcc:5", "vss:3", "constant:0", "PCC:1"])
    def test_seed_on_a_kind_that_ignores_it_rejected(self, text):
        with pytest.raises(ValueError, match="only the random kind takes a seed"):
            SimilarityKind.parse(text)

    def test_negative_seed_rejected(self):
        """A random table's seed feeds numpy's generator, which takes no
        negative seed; the kind refuses it when built."""
        for make in (lambda: SimilarityKind.random(-1), lambda: SimilarityKind.parse("random:-1")):
            with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
                make()


class TestBuildSimilarityTable:
    def test_constant_kind_all_ones(self):
        rng = np.random.default_rng(20)
        ratings = random_ratings(rng, 10, 6)
        graph = random_graph(rng, 10)
        table = build_similarity_table(ratings, graph, SimilarityKind.constant())
        assert np.all(table.values == 1.0)

    def test_pcc_kind_in_unit_interval(self):
        rng = np.random.default_rng(21)
        ratings = random_ratings(rng, 15, 8)
        graph = random_graph(rng, 15)
        table = build_similarity_table(ratings, graph, SimilarityKind.pcc())
        assert np.all((table.values >= 0.0) & (table.values <= 1.0))

    def test_random_kind_deterministic(self):
        rng = np.random.default_rng(22)
        ratings = random_ratings(rng, 10, 6)
        graph = random_graph(rng, 10)
        a = build_similarity_table(ratings, graph, SimilarityKind.random(seed=5))
        b = build_similarity_table(ratings, graph, SimilarityKind.random(seed=5))
        np.testing.assert_array_equal(a.values, b.values)

    def test_table_matches_pairwise_ops(self):
        rng = np.random.default_rng(23)
        ratings = random_ratings(rng, 12, 8)
        graph = random_graph(rng, 12)
        table = build_similarity_table(ratings, graph, SimilarityKind.pcc())
        expected = [map_to_unit(pcc(ratings, int(s), int(t)))
                    for s, t in zip(graph.edge_src, graph.edge_dst)]
        np.testing.assert_allclose(table.values, expected, rtol=0, atol=1e-12)

    def test_nan_value_rejected(self):
        graph = TrustGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SimilarityTable(graph, np.array([0.5, np.nan]))

    def test_vss_table_matches_pairwise_ops(self):
        rng = np.random.default_rng(25)
        ratings = random_ratings(rng, 12, 8)
        graph = random_graph(rng, 12)
        table = build_similarity_table(ratings, graph, SimilarityKind.vss())
        expected = [vss(ratings, int(s), int(t))
                    for s, t in zip(graph.edge_src, graph.edge_dst)]
        np.testing.assert_allclose(table.values, expected, rtol=0, atol=1e-12)

    def test_user_count_mismatch_rejected(self):
        rng = np.random.default_rng(26)
        ratings = random_ratings(rng, 4, 5)
        graph = TrustGraph.from_edges(5, [(0, 1), (3, 4)])
        with pytest.raises(ValueError, match="ratings cover 4 users, graph 5"):
            build_similarity_table(ratings, graph, SimilarityKind.pcc())

    @pytest.mark.parametrize("tag", ["pcc", "vss", "constant", "random"])
    def test_edgeless_graph_gives_empty_table(self, tag):
        rng = np.random.default_rng(27)
        ratings = random_ratings(rng, 4, 5)
        graph = TrustGraph.from_edges(4, [])
        table = build_similarity_table(ratings, graph, SimilarityKind(tag))
        assert table.graph is graph
        assert table.values.shape == (0,)


class TestSimilarityTable:
    """The table's constructor is the one check on similarity values: every
    table, built or supplied, holds one value in [0, 1] per edge."""

    @pytest.mark.parametrize("value", [-0.1, 1.5, np.inf, -np.inf, -5e-324])
    def test_value_outside_unit_interval_rejected(self, value):
        graph = TrustGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SimilarityTable(graph, np.array([0.5, value]))

    def test_unit_interval_endpoints_accepted(self):
        graph = TrustGraph.from_edges(3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0)])
        values = [0.0, -0.0, 5e-324, 1.0 - 2 ** -53, 1.0]
        table = SimilarityTable(graph, values)
        assert table.values.dtype == np.float64
        assert table.values.tolist() == values

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_one_value_per_edge_required(self, count):
        graph = TrustGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="one similarity value per edge required"):
            SimilarityTable(graph, np.full(count, 0.5))

    @pytest.mark.parametrize("other,keyed", [
        (None, True),
        (TrustGraph.from_edges(3, [(1, 2), (0, 1)]), True),
        (TrustGraph.from_edges(3, [(0, 1), (2, 1)]), False),
        (TrustGraph.from_edges(4, [(0, 1), (1, 2)]), False),
    ], ids=["own-graph", "same-edges", "other-edges", "more-users"])
    def test_keyed_by(self, other, keyed):
        """A table belongs to its own graph and to any graph with the same
        users and edges, whatever order the edges were given in."""
        graph = TrustGraph.from_edges(3, [(0, 1), (1, 2)])
        table = SimilarityTable(graph, np.array([0.5, 0.25]))
        assert table.keyed_by(graph if other is None else other) is keyed
