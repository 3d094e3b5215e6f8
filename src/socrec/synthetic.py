"""Seeded synthetic dataset generators for tests, demos and benchmarks."""

import numpy as np

from .data import RATING_MAX, RATING_MIN, SparseRatings, TrustGraph


def low_rank_ratings(num_users, num_items, rank, seed=0, keep_fraction=1.0):
    """Noiseless ratings matrix with an exact low-rank structure.

    Planted factors are drawn so every inner product lands inside the
    rating range. Returns (ratings, user_factors, item_factors); set
    ``keep_fraction`` below 1 to observe only a random subset of cells.
    """
    rng = np.random.default_rng(seed)
    low, high = np.sqrt(RATING_MIN / rank), np.sqrt(RATING_MAX / rank)
    user_f = rng.uniform(low, high, size=(num_users, rank))
    item_f = rng.uniform(low, high, size=(num_items, rank))
    full = user_f @ item_f.T
    users, items = np.meshgrid(
        np.arange(num_users, dtype=np.int64),
        np.arange(num_items, dtype=np.int64),
        indexing="ij",
    )
    users, items, values = users.ravel(), items.ravel(), full.ravel()
    if keep_fraction < 1.0:
        keep = rng.random(values.size) < keep_fraction
        users, items, values = users[keep], items[keep], values[keep]
    ratings = SparseRatings(num_users, num_items, users, items, values)
    return ratings, user_f, item_f


def clustered_dataset(
    num_users=200,
    num_items=8,
    num_clusters=10,
    ratings_per_user=5,
    out_degree=8,
    intra_fraction=0.9,
    noise_sd=0.5,
    seed=0,
):
    """Taste clusters with mostly intra-cluster trust edges.

    Each cluster gets a prototype rating vector; users rate a random item
    subset at the prototype value plus Gaussian noise (clipped to the
    rating range). Trust targets are drawn per edge from the user's own
    cluster with probability ``intra_fraction``, else from the rest.
    Returns (ratings, graph, cluster_labels).
    """
    if num_users < num_clusters * 2:
        raise ValueError("need at least two users per cluster")
    rng = np.random.default_rng(seed)
    labels = np.arange(num_users) % num_clusters
    prototypes = rng.uniform(RATING_MIN, RATING_MAX, size=(num_clusters, num_items))

    users, items, values = [], [], []
    for u in range(num_users):
        rated = rng.choice(num_items, size=ratings_per_user, replace=False)
        noisy = prototypes[labels[u], rated] + rng.normal(0.0, noise_sd, rated.size)
        users.extend([u] * rated.size)
        items.extend(rated.tolist())
        values.extend(np.clip(noisy, RATING_MIN, RATING_MAX).tolist())
    ratings = SparseRatings(num_users, num_items, users, items, values)

    edges = set()
    member_lists = [np.nonzero(labels == c)[0] for c in range(num_clusters)]
    other_lists = [np.nonzero(labels != c)[0] for c in range(num_clusters)]
    for u in range(num_users):
        own = member_lists[labels[u]]
        own = own[own != u]
        others = other_lists[labels[u]]
        targets = set()
        guard = 0
        while len(targets) < out_degree and guard < 50 * out_degree:
            guard += 1
            pool = own if rng.random() < intra_fraction else others
            # draws what rng.choice(pool) draws, without its per-call checks
            targets.add(int(pool[rng.integers(pool.size)]))
        edges.update((u, t) for t in targets)
    graph = TrustGraph.from_edges(num_users, edges)
    return ratings, graph, labels


def shuffled_graph(graph: TrustGraph, seed=0) -> TrustGraph:
    """Rewire every user's out-links to uniform random targets.

    Out-degrees are preserved; any planted edge structure is destroyed.
    Used as the no-homophily control in the similarity study.
    """
    rng = np.random.default_rng(seed)
    edges = set()
    degrees = graph.out_degrees()
    candidates = np.arange(graph.num_users, dtype=np.int64)
    for u in range(graph.num_users):
        d = int(degrees[u])
        if d == 0:
            continue
        eligible = candidates[candidates != u]
        targets = rng.choice(eligible, size=d, replace=False)
        for t in targets:
            edges.add((u, int(t)))
    return TrustGraph.from_edges(graph.num_users, edges)
