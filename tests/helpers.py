"""Shared builders for random test instances."""

import numpy as np

from socrec import DatasetSplit, FactorModel, SimilarityTable, SparseRatings, TrustGraph
from socrec import _kernels


def random_ratings(rng, num_users, num_items, per_user=None):
    """Every user rates a random nonempty item subset with ratings in [1, 5]."""
    users, items, values = [], [], []
    for u in range(num_users):
        count = per_user or int(rng.integers(1, num_items + 1))
        rated = rng.choice(num_items, size=min(count, num_items), replace=False)
        for i in rated:
            users.append(u)
            items.append(int(i))
            values.append(float(rng.uniform(1.0, 5.0)))
    return SparseRatings(num_users, num_items, users, items, values)


def random_graph(rng, num_users, edge_prob=0.3):
    edges = [
        (u, v)
        for u in range(num_users)
        for v in range(num_users)
        if u != v and rng.random() < edge_prob
    ]
    return TrustGraph.from_edges(num_users, edges)


def random_sim(rng, graph):
    return SimilarityTable(graph, rng.uniform(0.0, 1.0, graph.num_edges))


def random_model(rng, num_users, num_items, k, scale=1.0):
    return FactorModel(
        user_factors=rng.uniform(0.0, scale, (num_users, k)),
        item_factors=rng.uniform(0.0, scale, (num_items, k)),
    )


def sim_edge_triples(graph, sim):
    """(source, target, sim) triples for feeding the brute-force oracles."""
    return [
        (int(s), int(t), float(v))
        for s, t, v in zip(graph.edge_src, graph.edge_dst, sim.values)
    ]


def entry_triples(ratings):
    return list(ratings.triples())


def ratings_from_dicts(num_items, *user_dicts):
    users, items, values = [], [], []
    for u, d in enumerate(user_dicts):
        for i, r in d.items():
            users.append(u)
            items.append(i)
            values.append(float(r))
    return SparseRatings(len(user_dicts), num_items, users, items, values)


def split_of(train, triples):
    """DatasetSplit over ``train`` whose test side holds the given
    (user, item, rating) triples, in order."""
    test = np.asarray(triples, dtype=np.float64).reshape(-1, 3)
    return DatasetSplit(train, test[:, 0].astype(np.int64), test[:, 1].astype(np.int64),
                        test[:, 2])


def raw_pcc(ratings, u, f):
    """Pearson correlation of users u and f on [-1, 1], before
    ``pair_similarities`` maps it onto [0, 1]."""
    return float(_kernels.pcc_edges(ratings.user_ptr, ratings.items, ratings.values,
                                    ratings.user_means(), np.array([u]), np.array([f]))[0])
