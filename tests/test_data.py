import tracemalloc

import numpy as np
import pytest

import socrec.data as data_module
from socrec import (
    DataFileError,
    FactorModel,
    SparseRatings,
    TrustGraph,
    cold_start_split,
    load_dataset,
    load_ratings,
    load_trust,
    predict,
    save_ratings,
    split_ratings,
)

from helpers import random_ratings
from oracles import (
    line_save_ratings,
    scalar_cold_start_positions,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadRatings:
    def test_basic_counts(self, tmp_path):
        path = write(tmp_path, "r.tsv", "a x 4\nb x 2\na y 5\n")
        ratings, ids = load_ratings(path)
        assert ratings.num_users == 2
        assert ratings.num_items == 2
        assert ratings.num_entries == 3
        assert ids.users.index("a") == 0 and ids.users.index("b") == 1

    def test_duplicate_keeps_last(self, tmp_path):
        path = write(tmp_path, "r.tsv", "a x 4\na x 2\n")
        ratings, _ = load_ratings(path)
        assert ratings.num_entries == 1
        assert ratings.values[0] == 2.0

    def test_comments_and_tabs(self, tmp_path):
        path = write(tmp_path, "r.tsv", "# header\na\tx\t4\n\nb x 3\n")
        ratings, _ = load_ratings(path)
        assert ratings.num_entries == 2

    def test_wrong_field_count(self, tmp_path):
        path = write(tmp_path, "r.tsv", "a x 4\na x\n")
        with pytest.raises(DataFileError, match=":2"):
            load_ratings(path)

    def test_non_numeric_rating(self, tmp_path):
        path = write(tmp_path, "r.tsv", "a x four\n")
        with pytest.raises(DataFileError, match=":1"):
            load_ratings(path)

    def test_rating_out_of_domain(self, tmp_path):
        path = write(tmp_path, "r.tsv", "a x 6\n")
        with pytest.raises(DataFileError, match="outside"):
            load_ratings(path)

    @pytest.mark.parametrize("text", ["", "# user item rating\n\n  # x\n", " \n\t\n"])
    def test_no_ratings_is_data_error(self, tmp_path, text):
        path = write(tmp_path, "r.tsv", text)
        with pytest.raises(DataFileError, match="no ratings"):
            load_ratings(path)

    def test_save_load_round_trip(self, tmp_path):
        """Entries survive save/load exactly, keyed by external ids."""
        rng = np.random.default_rng(3)
        ratings = random_ratings(rng, 12, 9)
        path = tmp_path / "saved.tsv"
        save_ratings(ratings, path)
        loaded, ids = load_ratings(path)
        reloaded = {
            (ids.users[u], ids.items[i], r) for u, i, r in loaded.triples()
        }
        original = {(str(u), str(i), r) for u, i, r in ratings.triples()}
        assert reloaded == original


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a data file is not part of
    its first id."""

    def test_ratings_and_trust(self, tmp_path):
        rpath = write(tmp_path, "r.tsv", "\ufeffu1 i1 4\nu2 i1 3\n")
        tpath = write(tmp_path, "t.tsv", "\ufeffu1 u2\n")
        ratings, graph, ids = load_dataset(rpath, tpath)
        assert [*ids.users] == ["u1", "u2"]
        assert list(zip(graph.edge_src.tolist(), graph.edge_dst.tolist())) == [(0, 1)]
        assert ratings.num_users == 2 and ratings.user_counts().tolist() == [1, 1]

    def test_only_a_leading_mark_is_dropped(self, tmp_path):
        path = write(tmp_path, "r.tsv", "\ufeffa x 4\n\ufeffb x 3\n")
        _, ids = load_ratings(path)
        assert [*ids.users] == ["a", "\ufeffb"]


class TestSparseRatings:
    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseRatings(2, 2, [0, 0], [1, 1], [3.0, 4.0])

    def test_index_bounds_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseRatings(2, 2, [0, 2], [0, 1], [3.0, 4.0])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                       np.nextafter(1.0, 0.0), np.nextafter(5.0, 6.0)])
    def test_rating_outside_range_rejected(self, value):
        with pytest.raises(ValueError, match="outside"):
            SparseRatings(2, 2, [0, 1], [0, 1], [value, 3.0])

    def test_row_and_column_indexes_agree(self):
        rng = np.random.default_rng(8)
        ratings = random_ratings(rng, 10, 7)
        from_rows = {
            (u, int(i), float(r))
            for u in range(10)
            for i, r in zip(*ratings.items_of(u))
        }
        assert from_rows == set(ratings.triples())
        per_item = [sum(1 for _, i, _ in from_rows if i == item) for item in range(7)]
        assert ratings.item_counts().tolist() == per_item

    def test_empty_store_has_no_global_mean(self):
        with pytest.raises(ValueError, match="empty ratings have no global mean"):
            SparseRatings(2, 2, [], [], []).global_mean()

    def test_user_means(self):
        ratings = SparseRatings(2, 2, [0, 0, 1], [0, 1, 0], [2.0, 4.0, 5.0])
        np.testing.assert_allclose(ratings.user_means(), [3.0, 5.0])

    def test_derived_statistics_are_cached_read_only(self):
        ratings = SparseRatings(2, 3, [0, 0, 1], [0, 1, 0], [2.0, 4.0, 5.0])
        for stat in (ratings.user_means, ratings.item_counts):
            assert stat() is stat()
            assert not stat().flags.writeable
        assert ratings.item_counts().tolist() == [2, 1, 0]
        assert ratings.global_mean() == ratings.global_mean() == 11.0 / 3.0


@pytest.mark.parametrize("build", [
    lambda **kw: SparseRatings(2, 2, [0, 0], [1, 1], [3.0, 4.0], **kw),
    lambda **kw: SparseRatings(2, 2, [0, 1], [0, 5], [3.0, 4.0], **kw),
    lambda **kw: SparseRatings(2, 2, [-1, 1], [0, 1], [3.0, 4.0], **kw),
    lambda **kw: TrustGraph(3, [0, 0], [1, 1], **kw),
    lambda **kw: TrustGraph(3, [0, 1], [1, 3], **kw),
    lambda **kw: TrustGraph(3, [0, 2], [1, 2], **kw),
], ids=["repeated-rating", "item-too-large", "negative-user", "repeated-edge",
        "endpoint-too-large", "self-loop"])
def test_no_store_skips_its_checks(build):
    """Repeated pairs, out-of-range indices and self-loops raise on every
    construction: no keyword turns the checks off."""
    with pytest.raises(ValueError):
        build()
    with pytest.raises(TypeError):
        build(validate=False)


@pytest.mark.parametrize("build, name", [
    (lambda: SparseRatings(2, 2, [0.7], [1], [3.0]), "users"),
    (lambda: SparseRatings(2, 2, [0], [1.9], [3.0]), "items"),
    (lambda: SparseRatings(2, 2, [0], [float("nan")], [3.0]), "items"),
    (lambda: SparseRatings(2, 2, [True], [1], [3.0]), "users"),
    (lambda: SparseRatings(2, 2, [1], np.array([False]), [3.0]), "items"),
    (lambda: TrustGraph(3, [0.5], [1]), "edge_src"),
    (lambda: TrustGraph(3, [0], [2.25]), "edge_dst"),
    (lambda: TrustGraph(3, [True], [2]), "edge_src"),
    (lambda: TrustGraph(3, [0], [True]), "edge_dst"),
    (lambda: SparseRatings(-3, 2, [], [], []), "num_users"),
    (lambda: SparseRatings(2.5, 2, [], [], []), "num_users"),
    (lambda: SparseRatings(2, -3, [], [], []), "num_items"),
    (lambda: SparseRatings(2, 2.5, [], [], []), "num_items"),
    (lambda: TrustGraph(-1, [], []), "num_users"),
    (lambda: TrustGraph(2.5, [], []), "num_users"),
    (lambda: SparseRatings(None, 2, [], [], []), "num_users"),
    (lambda: SparseRatings(2, float("nan"), [], [], []), "num_items"),
    (lambda: TrustGraph(float("inf"), [], []), "num_users"),
    (lambda: SparseRatings(2, 2, [True, 1], [0, 1], [3.0, 4.0]), "users"),
    (lambda: TrustGraph(3, ["0"], ["1"]), "edge_src"),
    (lambda: TrustGraph(3, [0], np.array([b"1"])), "edge_dst"),
    (lambda: SparseRatings(2, 2, [0, 1], [0, 1], ["3", "4"]), "values"),
    (lambda: SparseRatings(2, 2, [0, 1], [0, 1], [True, 4.0]), "values"),
    (lambda: SparseRatings(2, 2, [0, 1], [0, 1], np.array([True, True])), "values"),
    (lambda: SparseRatings(2, 2, [2**70], [0], [3.0]), "users"),
    (lambda: SparseRatings(2, 2, [-2**70], [0], [3.0]), "users"),
    (lambda: TrustGraph.from_edges(3, [(0, 2**64)]), "edges"),
    (lambda: SparseRatings(2, 2, [0], [0], [10**400]), "values"),
    (lambda: predict(FactorModel(np.ones((2, 1)), np.ones((2, 1))), 2**70, 0), "users"),
], ids=["fractional-user", "fractional-item", "nan-item", "bool-user", "bool-item",
        "fractional-source", "fractional-destination", "bool-source", "bool-destination",
        "negative-users", "fractional-users", "negative-items", "fractional-items",
        "graph-negative-users", "graph-fractional-users", "none-users", "nan-items",
        "graph-infinite-users", "bool-among-users", "string-source", "bytes-destination",
        "string-ratings", "bool-among-ratings", "bool-ratings", "int64-overflow-user",
        "int64-underflow-user", "int64-overflow-edge", "float64-overflow-rating",
        "int64-overflow-predict"])
def test_stores_refuse_indices_a_cast_would_change(build, name):
    """An index or size that int64 would truncate, a number past int64 or
    float64, or a bool or string among indices or ratings, raises ValueError
    naming its parameter instead of becoming another number or an
    OverflowError; ``predict`` takes its indices by the same rule."""
    with pytest.raises(ValueError, match=f"^{name} must"):
        build()


def test_stores_take_whole_floats_and_keep_integer_arrays():
    ratings = SparseRatings(2.0, 3, [0.0, 1.0], [2.0, 0.0], [3.0, 4.0])
    assert ratings.users.tolist() == [0, 1] and ratings.items.tolist() == [2, 0]
    assert ratings.num_users == 2 and SparseRatings(1, 1, [], [], []).num_entries == 0
    users, items = np.array([0, 1]), np.array([2, 0])
    ratings = SparseRatings(2, 3, users, items, [3.0, 4.0])
    assert ratings.users is users and ratings.items is items
    src, dst = np.array([0, 1]), np.array([1, 2])
    graph = TrustGraph(3, src, dst)
    assert graph.edge_src is src and graph.edge_dst is dst


@pytest.mark.parametrize("build, message", [
    (lambda: SparseRatings(4, 2**62, [3], [2**62 - 1], [3.0]),
     "4 users by 4611686018427387904 items"),
    (lambda: SparseRatings(2**62, 2, [], [], []), "4611686018427387904 users by 2 items"),
    (lambda: TrustGraph(2**32, [0], [1]), "4294967296 sources by 4294967296 destinations"),
    (lambda: TrustGraph.from_edges(2**32, [(2**32 - 1, 0)]), "4294967296 sources"),
], ids=["ratings", "empty-ratings", "graph", "from-edges"])
def test_stores_refuse_more_pairs_than_an_int64_key_holds(build, message):
    """A store sorts by the key ``major * span_minor + minor``, so index
    spaces with more than 2**63 - 1 pairs raise ValueError naming both
    sizes instead of overflowing the key."""
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: SparseRatings(2, 2, [0], [0, 1], [3.0]),
     "users, items and values must have equal length"),
    (lambda: SparseRatings(2, 2, [0, 1], [0, 1], [3.0]),
     "users, items and values must have equal length"),
    (lambda: TrustGraph(3, [0], [1, 2]), "edge_src and edge_dst must have equal length"),
], ids=["items", "values", "edges"])
def test_stores_refuse_arrays_of_unequal_length(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_stores_take_the_largest_key_space():
    ratings = SparseRatings(1, 2**63 - 1, [0, 0], [2**63 - 2, 5], [3.0, 4.0])
    assert ratings.items.tolist() == [5, 2**63 - 2] and ratings.values.tolist() == [4.0, 3.0]


@pytest.mark.parametrize("edges, message", [
    ([(0.7, 1.9)], "edges must be whole-number indices, got 0.7"),
    ([(1, 2.5)], "edges must be whole-number indices, got 2.5"),
    ([(True, False)], "edges must be integer indices, not bools"),
    ([(True, 2)], "edges must be integer indices, not bools"),
    ([("0", "1")], "edges must be integer indices, not strings"),
    (np.array([[False, True]]), "edges must be integer indices, not bools"),
    ([(0, 1, 2, 3)], r"edges must be \(truster, trustee\) pairs, got shape \(1, 4\)"),
    ([0, 1], r"edges must be \(truster, trustee\) pairs, got shape \(2,\)"),
    (np.arange(6).reshape(2, 3), r"edges must be .* got shape \(2, 3\)"),
], ids=["fractional", "fractional-trustee", "bools", "bool-among-ints", "strings",
        "bool-array", "four-wide", "flat", "three-columns"])
def test_from_edges_refuses_what_is_not_index_pairs(edges, message):
    """Input that a cast or a reshape would turn into other edges raises
    ValueError naming the fault."""
    with pytest.raises(ValueError, match=f"^{message}"):
        TrustGraph.from_edges(5, edges)


@pytest.mark.parametrize("edges, name", [
    ([(0, 5)], "destination"), ([(1, -1)], "destination"), ([(3, 0)], "source"),
    ([(-1, 2)], "source"), (np.array([[0, 1], [2, 3]]), "destination"),
])
def test_from_edges_refuses_indices_out_of_range(edges, name):
    """An index outside the users raises, and never becomes another pair of
    the same combined key: (0, 5) is not (1, 2) among 3 users."""
    with pytest.raises(ValueError, match=f"^{name} index out of range"):
        TrustGraph.from_edges(3, edges)


@pytest.mark.parametrize("edges", [[], (), np.empty((0, 2), dtype=np.int64),
                                   np.empty((0, 2)), iter([])])
def test_from_edges_takes_no_edges(edges):
    graph = TrustGraph.from_edges(1, edges)
    assert graph.num_edges == 0 and graph.out_ptr.tolist() == [0, 0]
    assert graph.edge_src.dtype == graph.edge_dst.dtype == np.int64


class TestIdMap:
    def test_bijective_both_directions(self, tmp_path):
        path = write(tmp_path, "r.tsv", "a x 4\nb y 2\nc x 1\n")
        _, ids = load_ratings(path)
        for table in (ids.users, ids.items):
            for idx in range(len(table)):
                assert table.index(table[idx]) == idx


class TestLoadTrust:
    def test_mutual_edges(self, tmp_path):
        rpath = write(tmp_path, "r.tsv", "a x 4\nb y 3\n")
        tpath = write(tmp_path, "t.tsv", "a b\nb a\n")
        ratings, ids = load_ratings(rpath)
        graph = load_trust(tpath, ids)
        assert list(graph.out_neighbors(0)) == [1]
        assert list(graph.out_neighbors(1)) == [0]
        assert list(zip(graph.edge_src.tolist(), graph.edge_dst.tolist())) == [(0, 1), (1, 0)]

    def test_self_loop_dropped(self, tmp_path):
        rpath = write(tmp_path, "r.tsv", "a x 4\n")
        tpath = write(tmp_path, "t.tsv", "a a\n")
        _, ids = load_ratings(rpath)
        graph = load_trust(tpath, ids)
        assert graph.num_edges == 0

    def test_duplicate_edge_collapsed(self, tmp_path):
        rpath = write(tmp_path, "r.tsv", "a x 4\nb y 3\n")
        tpath = write(tmp_path, "t.tsv", "a b\na b\n")
        _, ids = load_ratings(rpath)
        graph = load_trust(tpath, ids)
        assert graph.num_edges == 1

    def test_trust_only_users_extend_index_space(self, tmp_path):
        """Users appearing only in the trust file get empty rating rows."""
        rpath = write(tmp_path, "r.tsv", "a x 4\n")
        tpath = write(tmp_path, "t.tsv", "a c\n")
        ratings, graph, ids = load_dataset(rpath, tpath)
        assert len(ids.users) == 2
        assert ratings.num_users == 2
        assert ratings.items_of(1)[0].size == 0
        assert graph.num_edges == 1

    @pytest.mark.parametrize("text", ["", "# truster trustee\n\n"])
    def test_file_without_edges_gives_empty_graph(self, tmp_path, text):
        rpath = write(tmp_path, "r.tsv", "a x 4\nb y 3\n")
        tpath = write(tmp_path, "t.tsv", text)
        ratings, graph, ids = load_dataset(rpath, tpath)
        assert graph.num_edges == 0
        assert graph.num_users == ratings.num_users == len(ids.users) == 2

    def test_malformed_line(self, tmp_path):
        rpath = write(tmp_path, "r.tsv", "a x 4\n")
        tpath = write(tmp_path, "t.tsv", "a b c\n")
        _, ids = load_ratings(rpath)
        with pytest.raises(DataFileError, match=":1"):
            load_trust(tpath, ids)

    def test_equals_from_edges_on_the_same_pairs(self, tmp_path):
        """The loader and ``from_edges`` share one path from raw edges:
        self-loops dropped, repeats collapsed, then the store."""
        rng = np.random.default_rng(11)
        pairs = rng.integers(0, 12, (200, 2))
        tpath = write(tmp_path, "t.tsv", "".join(f"{a} {b}\n" for a, b in pairs))
        ids = data_module.IdMap()
        ids.users.add([str(u) for u in range(12)])
        loaded = load_trust(tpath, ids)
        for edges in (pairs, pairs.tolist()):
            built = TrustGraph.from_edges(12, edges)
            for got, want in ((built.edge_src, loaded.edge_src), (built.edge_dst, loaded.edge_dst),
                              (built.out_ptr, loaded.out_ptr)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert 0 < loaded.num_edges < len(pairs)

    def test_degree_sums_match_edge_count(self):
        rng = np.random.default_rng(5)
        edges = {(int(a), int(b)) for a, b in rng.integers(0, 20, (60, 2)) if a != b}
        graph = TrustGraph.from_edges(20, edges)
        assert graph.out_degrees().sum() == graph.num_edges
        assert list(zip(graph.edge_src.tolist(), graph.edge_dst.tolist())) == sorted(edges)


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_block_of_wide_ids_takes_a_byte_per_code_point(tmp_path):
    """The line accounting of one block of CJK ids holds a byte per code
    point in each of its block-long arrays. Beyond the peak of decoding and
    splitting the text, the reader's peak stays under four bytes per code
    point, which one UTF-32 copy of the block, or UTF-8 codes with their
    masks, would exceed."""
    rng = np.random.default_rng(3)
    ids = ["".join(map(chr, 0x4E00 + rng.integers(0, 20_000, 16))) for _ in range(40)]
    text = "".join(f"{ids[a]}\t{ids[b]}\n" for a, b in rng.integers(0, 40, (1880, 2)))
    assert 60_000 < len(text) <= data_module.TEXT_BLOCK
    path = write(tmp_path, "t.tsv", text)
    split = _traced_peak(lambda: path.read_text(encoding="utf-8").split())

    def read():
        for _ in data_module._data_blocks(path, 2):
            pass

    assert _traced_peak(read) - split < 4 * len(text)


class TestSplitRatings:
    def test_ninety_percent_of_ten(self):
        rng = np.random.default_rng(0)
        ratings = random_ratings(rng, 5, 4, per_user=2)
        assert ratings.num_entries == 10
        split = split_ratings(ratings, 0.9, seed=1)
        assert split.train.num_entries == 9
        assert split.num_test == 1

    def test_same_seed_identical(self):
        rng = np.random.default_rng(1)
        ratings = random_ratings(rng, 20, 10)
        a = split_ratings(ratings, 0.8, seed=7)
        b = split_ratings(ratings, 0.8, seed=7)
        np.testing.assert_array_equal(a.train.users, b.train.users)
        np.testing.assert_array_equal(a.train.items, b.train.items)
        np.testing.assert_array_equal(a.test_users, b.test_users)
        np.testing.assert_array_equal(a.test_items, b.test_items)

    def test_different_seeds_differ(self):
        """Oracle: direct set comparison of the two runs' test sets."""
        rng = np.random.default_rng(2)
        ratings = random_ratings(rng, 100, 50, per_user=20)
        a = split_ratings(ratings, 0.9, seed=1)
        b = split_ratings(ratings, 0.9, seed=2)
        set_a = set(zip(a.test_users.tolist(), a.test_items.tolist()))
        set_b = set(zip(b.test_users.tolist(), b.test_items.tolist()))
        assert set_a != set_b

    def test_partition_is_exact(self):
        rng = np.random.default_rng(3)
        ratings = random_ratings(rng, 15, 8)
        split = split_ratings(ratings, 0.7, seed=4)
        train = set(split.train.triples())
        test = set(zip(split.test_users.tolist(), split.test_items.tolist(),
                       split.test_values.tolist()))
        assert train | test == set(ratings.triples())
        assert train & test == set()

    def test_fraction_out_of_range(self):
        rng = np.random.default_rng(4)
        ratings = random_ratings(rng, 4, 4)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                split_ratings(ratings, bad, seed=1)


class TestColdStartSplit:
    def test_cold_user_holds_out_one(self):
        ratings = SparseRatings(2, 7, [0, 0, 0, 1, 1, 1, 1], np.arange(7), np.full(7, 3.0))
        split = cold_start_split(ratings, threshold=5, seed=1)
        # user 0 has 3 ratings -> 2 train + 1 test; user 1 has 4 -> 3 + 1
        assert split.train.items_of(0)[0].size == 2
        assert split.train.items_of(1)[0].size == 3
        assert split.num_test == 2

    def test_heavy_user_untouched(self):
        ratings = SparseRatings(1, 7, [0] * 7, np.arange(7), np.full(7, 3.0))
        split = cold_start_split(ratings, threshold=5, seed=1)
        assert split.train.num_entries == 7
        assert split.num_test == 0

    def test_single_rating_user_goes_to_test(self):
        ratings = SparseRatings(1, 1, [0], [0], [4.0])
        split = cold_start_split(ratings, threshold=5, seed=1)
        assert split.train.num_entries == 0
        assert split.num_test == 1

    def test_every_cold_user_has_exactly_one_test_entry(self):
        rng = np.random.default_rng(9)
        ratings = random_ratings(rng, 30, 12)
        threshold = 5
        split = cold_start_split(ratings, threshold, seed=2)
        counts = ratings.user_counts()
        test_per_user = np.bincount(split.test_users, minlength=30)
        for u in range(30):
            expected = 1 if 1 <= counts[u] < threshold else 0
            assert test_per_user[u] == expected

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_held_out_positions_match_scalar_draws(self, seed):
        """Users with 1 to 30 ratings, so every threshold splits some users
        off, single-rating users included."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 31, size=60)
        counts[:3] = 1
        users = np.repeat(np.arange(60), counts)
        items = np.concatenate([np.sort(rng.choice(40, c, replace=False)) for c in counts])
        ratings = SparseRatings(60, 40, users, items, rng.uniform(1, 5, users.size))
        for threshold in range(2, 26):
            split = cold_start_split(ratings, threshold, seed=seed)
            held = scalar_cold_start_positions(ratings.user_ptr, threshold, seed)
            np.testing.assert_array_equal(split.test_users, ratings.users[held])
            np.testing.assert_array_equal(split.test_items, ratings.items[held])
            assert split.train.num_entries == ratings.num_entries - len(held)

    def test_threshold_validation(self):
        ratings = SparseRatings(1, 1, [0], [0], [4.0])
        with pytest.raises(ValueError):
            cold_start_split(ratings, threshold=1)


class TestSaveRatingsMatchesLineWriter:
    @pytest.mark.parametrize("block", [1, 4, data_module.LINE_BLOCK])
    def test_dense_indices(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(data_module, "LINE_BLOCK", block)
        ratings = random_ratings(np.random.default_rng(4), 9, 6)
        save_ratings(ratings, tmp_path / "fast.tsv")
        line_save_ratings(tmp_path / "lines.tsv", ratings.triples())
        assert (tmp_path / "fast.tsv").read_bytes() == (tmp_path / "lines.tsv").read_bytes()

    @pytest.mark.parametrize("block", [1, 4, data_module.LINE_BLOCK])
    def test_external_ids(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(data_module, "LINE_BLOCK", block)
        path = write(tmp_path, "r.tsv",
                     "ü x 4.25\nb %s 1\nü y 0.3e1\nc x 5\nb x 2.0000000000000004\n")
        ratings, ids = load_ratings(path)
        save_ratings(ratings, tmp_path / "fast.tsv", ids)
        line_save_ratings(tmp_path / "lines.tsv", ratings.triples(),
                          [*ids.users], [*ids.items])
        assert (tmp_path / "fast.tsv").read_bytes() == (tmp_path / "lines.tsv").read_bytes()
