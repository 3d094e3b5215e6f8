"""The seeded generators against loop oracles that draw the same streams."""

import numpy as np
import pytest

from socrec import SparseRatings, TrustGraph, data, run_similarity_study, synthetic
from socrec.synthetic import _RawStream, clustered_dataset, shuffled_graph

from oracles import loop_clustered_dataset, loop_shuffled_graph

DEFAULTS = dict(num_users=200, num_items=8, num_clusters=10, ratings_per_user=5,
                out_degree=8, intra_fraction=0.9, noise_sd=0.5)


def assert_matches_loop_oracle(params):
    full = dict(DEFAULTS, **params)
    ratings, graph, labels = clustered_dataset(**full)
    users, items, values, edges, expected_labels = loop_clustered_dataset(**full)
    expected = SparseRatings(full["num_users"], full["num_items"], users, items, values)
    for got, want in ((ratings.user_ptr, expected.user_ptr), (ratings.items, expected.items),
                      (ratings.values, expected.values), (labels, expected_labels)):
        np.testing.assert_array_equal(got, want)
    expected_graph = TrustGraph.from_edges(full["num_users"], edges)
    np.testing.assert_array_equal(graph.edge_src, expected_graph.edge_src)
    np.testing.assert_array_equal(graph.edge_dst, expected_graph.edge_dst)
    np.testing.assert_array_equal(graph.out_ptr, expected_graph.out_ptr)


def assert_shuffle_matches_loop_oracle(graph, seed):
    got = shuffled_graph(graph, seed=seed)
    want = TrustGraph.from_edges(graph.num_users,
                                 loop_shuffled_graph(graph.num_users, graph.out_ptr, seed))
    np.testing.assert_array_equal(got.edge_src, want.edge_src)
    np.testing.assert_array_equal(got.edge_dst, want.edge_dst)
    np.testing.assert_array_equal(got.out_degrees(), graph.out_degrees())


@pytest.mark.parametrize("seed", [0, 7, 100])
@pytest.mark.parametrize("params", [
    dict(num_users=40, num_clusters=4),
    # five cluster mates cannot fill twelve targets, so most targets come
    # from the rare draws out of the other clusters
    dict(num_users=60, num_clusters=10, out_degree=12),
    # 25 targets among 19 other users: every user stops on the draw guard
    dict(num_users=20, num_clusters=10, out_degree=25),
    # clusters of two: the own pool holds one user, and integers(1) draws
    # nothing
    dict(num_users=20, num_clusters=10, out_degree=3),
    dict(num_users=200, num_items=8),
    dict(num_users=3000, num_items=1200, ratings_per_user=20),
    # Floyd's first bound is 1 and draws nothing
    dict(num_users=40, num_clusters=4, num_items=6, ratings_per_user=6),
    dict(num_users=40, num_clusters=4, ratings_per_user=1),
    dict(num_users=40, num_clusters=4, ratings_per_user=0),
    dict(num_users=50, num_clusters=5, intra_fraction=0.0),
    dict(num_users=50, num_clusters=5, intra_fraction=1.0),
    # every other user is a cluster mate
    dict(num_users=30, num_clusters=1, intra_fraction=1.0),
    # choice shuffles the tail of arange(n) when n > 10000 and d > n // 50
    dict(num_users=20, num_items=10_001, ratings_per_user=201),
], ids=["40", "60", "20-guard", "20-pairs", "200", "3k", "rated-all", "rated-one",
        "rated-none", "intra-0", "intra-1", "one-cluster", "choice-tail"])
def test_clustered_dataset_matches_the_loop_oracle(params, seed):
    assert_matches_loop_oracle(dict(params, seed=seed))


@pytest.mark.parametrize("params,name", [
    (dict(num_items=8, ratings_per_user=9), "ratings_per_user"),
    (dict(ratings_per_user=-1), "ratings_per_user"),
    (dict(out_degree=-1), "out_degree"),
    (dict(intra_fraction=-0.1), "intra_fraction"),
    (dict(intra_fraction=1.5), "intra_fraction"),
    (dict(intra_fraction=float("nan")), "intra_fraction"),
    (dict(noise_sd=-0.5), "noise_sd"),
    (dict(noise_sd=float("nan")), "noise_sd"),
    (dict(num_clusters=0), "num_clusters"),
    (dict(num_clusters=-1), "num_clusters"),
    # a single cluster leaves no other-cluster user to draw
    (dict(num_clusters=1, intra_fraction=0.9), "intra_fraction"),
])
def test_bad_argument_named_before_any_draw(monkeypatch, params, name):
    def no_generator(*args, **kwargs):
        raise AssertionError("generator made before the argument checks")

    monkeypatch.setattr(synthetic.np.random, "default_rng", no_generator)
    with pytest.raises(ValueError, match=name):
        clustered_dataset(**dict(DEFAULTS, **params))


_RATINGS = SparseRatings(3, 3, [0, 0, 1, 2], [0, 1, 2, 0], [1.0, 4.0, 2.5, 5.0])
_GRAPH = TrustGraph(3, [0, 1, 2], [1, 2, 0])


@pytest.mark.parametrize("call,name", [
    (lambda: data.split_ratings(_RATINGS, 0.5, seed=-1), "seed"),
    (lambda: data.cold_start_split(_RATINGS, 3, seed=-1), "seed"),
    (lambda: clustered_dataset(**DEFAULTS, seed=-1), "seed"),
    (lambda: shuffled_graph(_GRAPH, seed=-1), "seed"),
    (lambda: synthetic.low_rank_ratings(3, 3, 2, seed=-1), "seed"),
    (lambda: run_similarity_study(_RATINGS, _GRAPH, min_out_degree=1, seed=-1), "seed"),
    (lambda: synthetic.low_rank_ratings(3, 3, rank=0), "rank"),
], ids=["split", "cold-start", "clustered", "shuffled", "low-rank", "study", "rank-0"])
def test_seed_and_rank_named_before_any_draw(monkeypatch, call, name):
    def no_generator(*args, **kwargs):
        raise AssertionError("generator made before the argument checks")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ValueError, match=name):
        call()


def test_raw_stream_replays_random_and_integers(monkeypatch):
    """``_RawStream`` against the generator's own scalar calls, from a
    buffered half-word on, across bulk draws of 7 words. At n = 3 * 2**30
    Lemire's method rejects a quarter of the 32-bit draws."""
    monkeypatch.setattr(synthetic, "_RAW_WORDS", 7)
    want, got = np.random.default_rng(21), np.random.default_rng(21)
    want.integers(5)
    got.integers(5)
    assert got.bit_generator.state["has_uint32"]
    stream = _RawStream(got)
    calls = np.random.default_rng(8).choice([0, 1, 2, 3, 3 * 2**30], size=3000)
    for n in calls.tolist():
        if n == 0:
            assert stream.random() == want.random()
        else:
            assert stream.integers(n) == want.integers(n)
    assert stream.random() == want.random()


def test_raw_stream_empty_pool_is_numpy_error():
    with pytest.raises(ValueError, match="high <= 0"):
        _RawStream(np.random.default_rng(0)).integers(0)
    with pytest.raises(ValueError, match="high <= 0"):
        np.random.default_rng(0).integers(0)


@pytest.mark.parametrize("seed", [0, 9])
def test_shuffled_graph_matches_the_loop_oracle(seed):
    _, graph, _ = clustered_dataset(num_users=200, seed=100)
    # users without out-links draw nothing
    keep = graph.edge_src % 7 != 3
    assert_shuffle_matches_loop_oracle(
        TrustGraph(200, graph.edge_src[keep], graph.edge_dst[keep]), seed)


def test_shuffled_graph_on_the_tail_branch():
    """10,050 users: the few with more than 10049 // 50 = 200 out-links take
    choice's tail shuffle, the rest Floyd's algorithm or no draw at all."""
    num_users = 10_050
    rng = np.random.default_rng(17)
    degrees = np.zeros(num_users, dtype=np.int64)
    degrees[rng.choice(num_users, 300, replace=False)] = rng.integers(1, 12, 300)
    degrees[[5, 4000, 10_049]] = [201, 350, 240]
    src = np.repeat(np.arange(num_users), degrees)
    ends = np.concatenate([rng.choice(np.delete(np.arange(num_users), u), d, replace=False)
                           for u, d in enumerate(degrees.tolist()) if d])
    graph = TrustGraph(num_users, src, ends)
    assert_shuffle_matches_loop_oracle(graph, seed=3)
