"""The seeded generators against loop oracles that draw the same streams."""

import numpy as np
import pytest

from socrec import SparseRatings, TrustGraph
from socrec.synthetic import clustered_dataset

from oracles import loop_clustered_dataset


@pytest.mark.parametrize("seed", [0, 7, 100])
@pytest.mark.parametrize("params", [
    dict(num_users=40, num_clusters=4),
    # five cluster mates cannot fill twelve targets, so most targets come
    # from the rare draws out of the other clusters
    dict(num_users=60, num_clusters=10, out_degree=12),
    # 25 targets among 19 other users: every user stops on the draw guard
    dict(num_users=20, num_clusters=10, out_degree=25),
    dict(num_users=200, num_items=8),
    dict(num_users=3000, num_items=1200, ratings_per_user=20),
], ids=["40", "60", "20-guard", "200", "3k"])
def test_clustered_dataset_matches_the_loop_oracle(params, seed):
    full = dict(num_users=200, num_items=8, num_clusters=10, ratings_per_user=5,
                out_degree=8, intra_fraction=0.9, noise_sd=0.5, seed=seed)
    full.update(params)
    ratings, graph, labels = clustered_dataset(**full)
    users, items, values, edges, expected_labels = loop_clustered_dataset(**full)
    expected = SparseRatings(full["num_users"], full["num_items"], users, items, values)
    for got, want in ((ratings.user_ptr, expected.user_ptr), (ratings.items, expected.items),
                      (ratings.values, expected.values), (labels, expected_labels)):
        np.testing.assert_array_equal(got, want)
    expected_graph = TrustGraph.from_edges(full["num_users"], edges)
    np.testing.assert_array_equal(graph.edge_src, expected_graph.edge_src)
    np.testing.assert_array_equal(graph.edge_dst, expected_graph.edge_dst)
