"""Seeded synthetic dataset generators for tests, demos and benchmarks."""

import numpy as np

from ._choice import choices, draw_bounds, picks_from_draws
from .data import RATING_MAX, RATING_MIN, SparseRatings, TrustGraph, seeded_generator


def low_rank_ratings(num_users, num_items, rank, seed=0):
    """Noiseless ratings matrix with an exact low-rank structure, every
    cell observed.

    Planted factors are drawn so every inner product lands inside the
    rating range. Returns (ratings, user_factors, item_factors).
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    rng = seeded_generator(seed)
    low, high = np.sqrt(RATING_MIN / rank), np.sqrt(RATING_MAX / rank)
    user_f = rng.uniform(low, high, size=(num_users, rank))
    item_f = rng.uniform(low, high, size=(num_items, rank))
    users, items = np.divmod(np.arange(num_users * num_items), num_items)
    values = (user_f @ item_f.T).ravel()
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

    The stream is that of a per-user loop (``tests/oracles.py``): per user,
    ``rng.choice(num_items, ratings_per_user, replace=False)`` and
    ``rng.normal``, then per edge attempt ``rng.random()`` and
    ``rng.integers`` over the chosen pool, until the user has
    ``out_degree`` distinct targets or has made ``50 * out_degree``
    attempts.
    """
    if num_clusters < 1 or (num_clusters == 1 and intra_fraction < 1.0):
        raise ValueError(f"num_clusters must be >= 1, and 1 only with intra_fraction 1 "
                         f"(no other cluster to trust), got {num_clusters}, {intra_fraction}")
    if num_users < num_clusters * 2:
        raise ValueError("need at least two users per cluster")
    if not 0 <= ratings_per_user <= num_items:
        raise ValueError(f"ratings_per_user must be in [0, num_items], got {ratings_per_user}")
    if out_degree < 0:
        raise ValueError(f"out_degree must be >= 0, got {out_degree}")
    if not 0.0 <= intra_fraction <= 1.0:
        raise ValueError(f"intra_fraction must be in [0, 1], got {intra_fraction}")
    if not noise_sd >= 0.0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    rng = seeded_generator(seed)
    labels = np.arange(num_users) % num_clusters
    prototypes = rng.uniform(RATING_MIN, RATING_MAX, size=(num_clusters, num_items))

    # choice's bounded draws, one integers call per user, interleaved with
    # the user's normal draws; the picks follow from all the draws at once
    bounds = draw_bounds([ratings_per_user], [num_items])
    draws = np.empty((num_users, bounds.size), dtype=np.int64)
    noise = np.empty((num_users, ratings_per_user))
    for u in range(num_users):
        draws[u] = rng.integers(0, bounds)
        noise[u] = rng.normal(0.0, noise_sd, ratings_per_user)
    picks = picks_from_draws(draws.ravel(), np.full(num_users, ratings_per_user),
                             np.full(num_users, num_items)).reshape(num_users, ratings_per_user)
    values = np.clip(prototypes[labels[:, None], picks] + noise, RATING_MIN, RATING_MAX)
    ratings = SparseRatings(num_users, num_items,
                            np.repeat(np.arange(num_users), ratings_per_user),
                            picks.ravel(), values.ravel())
    return ratings, _clustered_graph(rng, labels, num_clusters, out_degree, intra_fraction), labels


def _clustered_graph(rng, labels, num_clusters, out_degree, intra_fraction):
    """The trust edges of ``clustered_dataset``, drawn last from ``rng``.

    A user's pools are its cluster mates (``own`` of them) and the users of
    other clusters, so a draw r from the second pool is kept as own + r: the
    keys of distinct targets are distinct, and map to users at the end.
    """
    num_users = labels.size
    sizes = np.bincount(labels, minlength=num_clusters).tolist()
    stream = _RawStream(rng)
    random, integers = stream.random, stream.integers
    keys, counts = [], []
    limit = 50 * out_degree
    for c in labels.tolist():
        own, rest = sizes[c] - 1, num_users - sizes[c]
        targets = set()
        guard = 0
        while len(targets) < out_degree and guard < limit:
            guard += 1
            if random() < intra_fraction:
                targets.add(integers(own))
            else:
                targets.add(own + integers(rest))
        keys.extend(targets)
        counts.append(len(targets))

    src = np.repeat(np.arange(num_users), counts)
    key = np.array(keys, dtype=np.int64)
    c = labels[src]
    own = np.take(sizes, c) - 1
    # user v of cluster c is member v // num_clusters of c; a user's own
    # pool skips the user itself
    member = key + (key >= src // num_clusters)
    # the other clusters' users: each block of num_clusters users holds one
    # user of cluster c, at offset c (a single cluster has no such users)
    block, offset = np.divmod(key - own, max(num_clusters - 1, 1))
    dst = np.where(key < own, c + member * num_clusters,
                   block * num_clusters + offset + (offset >= c))
    return TrustGraph(num_users, src, dst)


_RAW_WORDS = 1 << 14  # words per bulk draw


class _RawStream:
    """``rng.random()`` and ``rng.integers(n)`` calls replayed from the raw
    64-bit words of ``rng``'s bit generator, drawn in bulk. It draws words
    ahead of its calls, so nothing may draw from ``rng`` after it.

    ``random()`` is ``(w >> 11) * 2**-53``. ``integers(n)`` for 1 < n < 2**32
    is Lemire's bounded 32-bit draw; a 32-bit draw takes the low half of a
    fresh word and keeps the high half for the next one, and the generator
    may hold such a half when the stream starts. ``integers(1)`` draws
    nothing.
    """

    def __init__(self, rng):
        state = rng.bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._words = _raw_words(rng.bit_generator)

    def random(self):
        return (next(self._words) >> 11) * 2.0 ** -53

    def _next_uint32(self):
        if self._half is not None:
            x, self._half = self._half, None
            return x
        w = next(self._words)
        self._half = w >> 32
        return w & 0xFFFFFFFF

    def integers(self, n):
        if n <= 1:
            if n == 1:
                return 0
            raise ValueError("high <= 0")
        m = self._next_uint32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (0x100000000 - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next_uint32() * n
        return m >> 32


def _raw_words(bit_generator):
    while True:
        yield from bit_generator.random_raw(_RAW_WORDS).tolist()


def shuffled_graph(graph: TrustGraph, seed=0) -> TrustGraph:
    """Rewire every user's out-links to uniform random targets.

    Out-degrees are preserved; any planted edge structure is destroyed.
    Used as the no-homophily control in the similarity study. User u's
    targets are ``rng.choice(eligible, d, replace=False)`` in user order,
    where ``eligible`` is every user but u, so rank r is user r + (r >= u).
    """
    rng = seeded_generator(seed)
    num_users = graph.num_users
    degrees = graph.out_degrees()
    src = np.repeat(np.arange(num_users), degrees)
    rank = choices(rng, degrees, np.full(num_users, num_users - 1))
    return TrustGraph(num_users, src, rank + (rank >= src))
