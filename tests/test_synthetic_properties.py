"""Property test: the generators equal their loop oracles on small inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from socrec import TrustGraph  # noqa: E402

from test_synthetic import (  # noqa: E402
    assert_matches_loop_oracle,
    assert_shuffle_matches_loop_oracle,
)


@st.composite
def clustered_params(draw):
    num_clusters = draw(st.integers(1, 6))
    num_users = draw(st.integers(2 * num_clusters, 60))
    num_items = draw(st.integers(0, 30))
    return dict(
        num_users=num_users, num_items=num_items, num_clusters=num_clusters,
        ratings_per_user=draw(st.integers(0, num_items)),
        out_degree=draw(st.integers(0, 12)),
        # one cluster leaves no other-cluster pool to draw from
        intra_fraction=1.0 if num_clusters == 1 else draw(
            st.sampled_from([0.0, 0.3, 0.9, 1.0])),
        noise_sd=draw(st.sampled_from([0.0, 0.5, 3.0])),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=60, deadline=None)
@given(clustered_params())
def test_clustered_dataset_equals_its_loop_oracle(params):
    assert_matches_loop_oracle(params)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                        max_size=4 * n))), st.integers(0, 2**32))
def test_shuffled_graph_equals_its_loop_oracle(graph_edges, seed):
    num_users, edges = graph_edges
    graph = TrustGraph.from_edges(num_users, edges)
    assert_shuffle_matches_loop_oracle(graph, seed)
