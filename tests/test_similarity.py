import re

import numpy as np
import pytest

from socrec import (
    DataFileError,
    SimilarityKind,
    SimilarityTable,
    TrustGraph,
    build_similarity_table,
    load_similarity_table,
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
        for s, t in zip(graph.edge_src, graph.edge_dst):
            expected = map_to_unit(pcc(ratings, int(s), int(t)))
            assert table.value(int(s), int(t)) == pytest.approx(expected, abs=1e-12)

    def test_lookup_missing_edge_raises(self):
        graph = TrustGraph.from_edges(3, [(0, 1)])
        table = SimilarityTable(graph, np.array([0.5]))
        with pytest.raises(KeyError):
            table.value(1, 0)

    def test_cache_round_trip(self, tmp_path):
        rng = np.random.default_rng(24)
        ratings = random_ratings(rng, 10, 6)
        graph = random_graph(rng, 10)
        table = build_similarity_table(ratings, graph, SimilarityKind.pcc())
        path = tmp_path / "sim.txt"
        table.save(path)
        loaded = load_similarity_table(path, graph)
        np.testing.assert_array_equal(loaded.values, table.values)

    def test_cache_edge_mismatch_rejected(self, tmp_path):
        graph = TrustGraph.from_edges(3, [(0, 1), (1, 2)])
        table = SimilarityTable(graph, np.array([0.5, 0.25]))
        path = tmp_path / "sim.txt"
        table.save(path)
        other = TrustGraph.from_edges(3, [(0, 1), (2, 0)])
        with pytest.raises(ValueError):
            load_similarity_table(path, other)

    def test_nan_value_rejected(self):
        graph = TrustGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SimilarityTable(graph, np.array([0.5, np.nan]))

    @pytest.mark.parametrize("fault", ["not-utf8", "directory"])
    def test_unreadable_cache_is_data_error(self, tmp_path, fault):
        graph = TrustGraph.from_edges(3, [(0, 1)])
        path = tmp_path / "sim.txt"
        if fault == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"0 1 \xff\n")
        with pytest.raises(DataFileError, match=re.escape(f"cannot read {path}: ")):
            load_similarity_table(path, graph)

    @pytest.mark.parametrize("line", ["1 2", "1 x 0.5", "1 2 nan", "1 2 1.5"])
    def test_bad_cache_line_is_data_error_with_line_number(self, tmp_path, line):
        graph = TrustGraph.from_edges(3, [(0, 1), (1, 2)])
        path = tmp_path / "sim.txt"
        path.write_text(f"# cache\n0 1 0.5\n{line}\n", encoding="utf-8")
        with pytest.raises(DataFileError, match=re.escape(f"{path}:3:")):
            load_similarity_table(path, graph)

    def test_cache_with_byte_order_mark(self, tmp_path):
        graph = TrustGraph.from_edges(3, [(0, 1), (1, 2)])
        path = tmp_path / "sim.txt"
        path.write_text("\ufeff0 1 0.5\n1 2 0.25\n", encoding="utf-8")
        assert load_similarity_table(path, graph).values.tolist() == [0.5, 0.25]

    def test_repeated_cache_edge_keeps_last(self, tmp_path):
        graph = TrustGraph.from_edges(3, [(0, 1), (1, 2)])
        path = tmp_path / "sim.txt"
        path.write_text("1 2 0.1\n0 1 0.5\n1 2 0.25\n", encoding="utf-8")
        assert load_similarity_table(path, graph).values.tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("lines,message", [
        ("0 1 0.5\n", "cache holds 1 edges, graph has 2"),
        ("0 1 0.5\n1 2 0.5\n2 0 0.5\n", "cache holds 3 edges, graph has 2"),
        ("0 1 0.5\n2 1 0.5\n", "cache is missing edge (1, 2)"),
        ("0 1 0.5\n1 3 0.5\n", "cache is missing edge (1, 2)"),
        ("0 1 0.5\n-1 2 0.5\n", "cache is missing edge (1, 2)"),
        ("0 4 0.5\n", "cache holds 1 edges, graph has 2"),
        ("0 99999999999999999999 0.5\n1 2 0.5\n", "cache is missing edge (0, 1)"),
        ("0 99999999999999999999 0.5\n0 99999999999999999999 0.5\n",
         "cache holds 1 edges, graph has 2"),
    ])
    def test_cache_edge_set_must_equal_graph(self, tmp_path, lines, message):
        """Endpoints that are no user index (negative, past the last user,
        beyond int64) count as edges the graph lacks."""
        graph = TrustGraph.from_edges(3, [(0, 1), (1, 2)])
        path = tmp_path / "sim.txt"
        path.write_text(lines, encoding="utf-8")
        with pytest.raises(DataFileError, match=re.escape(f"{path}: {message}")):
            load_similarity_table(path, graph)
