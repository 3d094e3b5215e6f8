"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written with plain Python loops and the
math module so it shares no code path with the package internals; numpy
serves only as the seeded generator the cold-start split draws from.
"""

import math
import struct

import numpy as np


def brute_objective_basic(user_f, item_f, entries, lam):
    """Naive double loop over entries plus explicit Frobenius sums."""
    total = 0.0
    for u, i, r in entries:
        pred = sum(pu * qi for pu, qi in zip(user_f[u], item_f[i]))
        total += 0.5 * (r - pred) ** 2
    reg = sum(v * v for row in user_f for v in row)
    reg += sum(v * v for row in item_f for v in row)
    return total + 0.5 * lam * reg


def brute_objective_social(user_f, item_f, entries, sim_edges, lam, alpha):
    """Basic objective plus a naive loop over (source, target, sim) edges."""
    total = brute_objective_basic(user_f, item_f, entries, lam)
    for u, f, s in sim_edges:
        dist = sum((a - b) ** 2 for a, b in zip(user_f[u], user_f[f]))
        total += 0.5 * alpha * s * dist
    return total


def brute_pcc(ratings_u, ratings_f):
    """Pearson correlation from item->rating dicts.

    Means are each user's mean over all their rated items; overlaps below
    two items or zero denominators give 0.
    """
    overlap = sorted(set(ratings_u) & set(ratings_f))
    if len(overlap) < 2:
        return 0.0
    mean_u = sum(ratings_u.values()) / len(ratings_u)
    mean_f = sum(ratings_f.values()) / len(ratings_f)
    num = sum((ratings_u[j] - mean_u) * (ratings_f[j] - mean_f) for j in overlap)
    den_u = math.sqrt(sum((ratings_u[j] - mean_u) ** 2 for j in overlap))
    den_f = math.sqrt(sum((ratings_f[j] - mean_f) ** 2 for j in overlap))
    if den_u == 0.0 or den_f == 0.0:
        return 0.0
    return num / (den_u * den_f)


def brute_vss(ratings_u, ratings_f):
    """Cosine over co-rated items from item->rating dicts."""
    overlap = sorted(set(ratings_u) & set(ratings_f))
    if not overlap:
        return 0.0
    num = sum(ratings_u[j] * ratings_f[j] for j in overlap)
    den_u = math.sqrt(sum(ratings_u[j] ** 2 for j in overlap))
    den_f = math.sqrt(sum(ratings_f[j] ** 2 for j in overlap))
    if den_u == 0.0 or den_f == 0.0:
        return 0.0
    return num / (den_u * den_f)


def central_differences(objective, arrays, step=1e-6):
    """Coordinate-wise central finite differences of a scalar function.

    ``arrays`` are mutated in place during probing and restored afterwards;
    one gradient array (a list of lists matching the shape) per input.
    """
    grads = []
    for arr in arrays:
        rows, cols = arr.shape
        grad = [[0.0] * cols for _ in range(rows)]
        for r in range(rows):
            for c in range(cols):
                orig = arr[r, c]
                arr[r, c] = orig + step
                f_plus = objective()
                arr[r, c] = orig - step
                f_minus = objective()
                arr[r, c] = orig
                grad[r][c] = (f_plus - f_minus) / (2.0 * step)
        grads.append(grad)
    return grads


def brute_rating_gradients(user_f, item_f, entries):
    """Data-term gradients from a loop over (u, i, r) entries; each entry,
    repeated or not, adds err * q_i to row u and err * p_u to row i."""
    d_user = [[0.0] * len(row) for row in user_f]
    d_item = [[0.0] * len(row) for row in item_f]
    for u, i, r in entries:
        err = sum(pu * qi for pu, qi in zip(user_f[u], item_f[i])) - r
        for d in range(len(user_f[u])):
            d_user[u][d] += err * item_f[i][d]
            d_item[i][d] += err * user_f[u][d]
    return d_user, d_item


def brute_social_gradient(user_f, sim_edges, alpha):
    """Gradient of (alpha/2) sum s ||p_u - p_f||^2 over (u, f, s) edges."""
    grad = [[0.0] * len(row) for row in user_f]
    for u, f, s in sim_edges:
        for d in range(len(user_f[u])):
            pull = alpha * s * (user_f[u][d] - user_f[f][d])
            grad[u][d] += pull
            grad[f][d] -= pull
    return grad


class OracleDataError(Exception):
    """A fault the reference loaders below find in a data file; its message
    is the one the package's DataFileError must carry."""


def _data_lines(path):
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def line_load_ratings(path):
    """The ratings loader one line at a time: (user ids, item ids, sorted
    (user, item, rating) triples); the last of repeated pairs wins."""
    users, items, ratings = {}, {}, {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise OracleDataError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        try:
            value = float(parts[2])
        except ValueError:
            raise OracleDataError(f"{path}:{lineno}: non-numeric rating {parts[2]!r}") from None
        if not (1.0 <= value <= 5.0):
            raise OracleDataError(f"{path}:{lineno}: rating {value:g} outside [1, 5]")
        u = users.setdefault(parts[0], len(users))
        i = items.setdefault(parts[1], len(items))
        ratings[(u, i)] = value
    if not ratings:
        raise OracleDataError(f"{path}: no ratings")
    return list(users), list(items), sorted((u, i, r) for (u, i), r in ratings.items())


def line_load_trust(path, users):
    """The trust loader one line at a time: sorted distinct (truster,
    trustee) pairs without self-loops. ``users`` (id -> index) gains the
    ids it has not seen, in first-seen order."""
    edges = set()
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise OracleDataError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        s = users.setdefault(parts[0], len(users))
        t = users.setdefault(parts[1], len(users))
        if s != t:
            edges.add((s, t))
    return sorted(edges)


def line_save_ratings(path, triples, user_ids=None, item_ids=None):
    """A ratings file written one (user, item, rating) line at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, i, r in triples:
            uid = user_ids[u] if user_ids is not None else str(u)
            iid = item_ids[i] if item_ids is not None else str(i)
            fh.write(f"{uid}\t{iid}\t{r:.17g}\n")


def struct_save_model(path, user_rows, item_rows, mean, user_ids=None, item_ids=None):
    """A v3 model file: the header line, the id block written one id per
    line (dense indices unless ids are given), then every value packed one
    at a time as a little-endian IEEE double."""
    if user_ids is None:
        user_ids = [str(u) for u in range(len(user_rows))]
    if item_ids is None:
        item_ids = [str(i) for i in range(len(item_rows))]
    block = b"".join(f"{name}\n".encode("utf-8") for name in list(user_ids) + list(item_ids))
    with open(path, "wb") as fh:
        fh.write(f"SOCREC-MODEL v3 {len(user_rows[0])} {len(user_rows)} {len(item_rows)} "
                 f"{len(block)}\n".encode("ascii"))
        fh.write(block)
        for row in user_rows + item_rows:
            for v in row:
                fh.write(struct.pack("<d", v))
        fh.write(struct.pack("<d", mean))


def scalar_cold_start_positions(user_ptr, threshold, seed):
    """Held-out entry positions of the cold-start split, drawn with one
    scalar ``integers(lo, hi)`` call per user with 1 <= count < threshold."""
    rng = np.random.default_rng(seed)
    picks = []
    for u in range(len(user_ptr) - 1):
        lo, hi = user_ptr[u], user_ptr[u + 1]
        if 1 <= hi - lo < threshold:
            picks.append(int(rng.integers(lo, hi)))
    return picks


def loop_clustered_dataset(num_users, num_items, num_clusters, ratings_per_user,
                           out_degree, intra_fraction, noise_sd, seed):
    """The clustered generator with its per-user pool of other-cluster users
    rebuilt for every user and one ``rng.choice`` per drawn target: (rating
    users, items and values as lists, the set of edges, the cluster labels).
    Ratings are clipped to the rating range [1, 5]."""
    rng = np.random.default_rng(seed)
    labels = np.arange(num_users) % num_clusters
    prototypes = rng.uniform(1.0, 5.0, size=(num_clusters, num_items))
    users, items, values = [], [], []
    for u in range(num_users):
        rated = rng.choice(num_items, size=ratings_per_user, replace=False)
        noisy = prototypes[labels[u], rated] + rng.normal(0.0, noise_sd, rated.size)
        users.extend([u] * rated.size)
        items.extend(rated.tolist())
        values.extend(np.clip(noisy, 1.0, 5.0).tolist())
    edges = set()
    for u in range(num_users):
        own = np.nonzero(labels == labels[u])[0]
        own = own[own != u]
        others = np.nonzero(labels != labels[u])[0]
        targets = set()
        guard = 0
        while len(targets) < out_degree and guard < 50 * out_degree:
            guard += 1
            pool = own if rng.random() < intra_fraction else others
            targets.add(int(rng.choice(pool)))
        edges.update((u, t) for t in targets)
    return users, items, values, edges, labels


def loop_shuffled_graph(num_users, out_ptr, seed):
    """The rewired control graph with one ``rng.choice`` per user over an
    ``eligible`` array of every other user, in user order: the set of
    edges. Users without out-links draw nothing."""
    rng = np.random.default_rng(seed)
    users = np.arange(num_users)
    edges = set()
    for u in range(num_users):
        d = int(out_ptr[u + 1] - out_ptr[u])
        if d == 0:
            continue
        eligible = users[users != u]
        edges.update((u, int(t)) for t in rng.choice(eligible, size=d, replace=False))
    return edges


def loop_similarity_study(num_users, out_ptr, edge_dst, min_out_degree, seed,
                          similarity):
    """The similarity study's peer draws as one loop iteration per user
    with out-degree above ``min_out_degree``: the excluded set from
    ``np.unique``, one ``rng.choice`` over the eligible ranks and a
    ``searchsorted`` per user. ``out_ptr``/``edge_dst`` are the graph's
    out-link CSR and ``similarity(src, dst)`` scores user pairs. Returns
    (kept users, friend means, random means, skipped users)."""
    rng = np.random.default_rng(seed)
    kept, skipped, others = [], [], []
    for u in range(num_users):
        friends = edge_dst[out_ptr[u]:out_ptr[u + 1]]
        if friends.size <= min_out_degree:
            continue
        excluded = np.unique(np.append(friends, u))
        num_eligible = num_users - excluded.size
        if num_eligible < friends.size:
            skipped.append(u)
            continue
        ranks = rng.choice(num_eligible, size=friends.size, replace=False)
        shift = np.searchsorted(excluded - np.arange(excluded.size), ranks, side="right")
        kept.append(u)
        others += [friends, ranks + shift]
    sizes = np.array([o.size for o in others], dtype=np.int64)
    src = np.repeat(np.repeat(np.asarray(kept, dtype=np.int64), 2), sizes)
    dst = np.concatenate(others) if others else np.empty(0, dtype=np.int64)
    sims = similarity(src, dst)
    starts = np.cumsum(sizes) - sizes
    means = np.add.reduceat(sims, starts) / sizes if sizes.size else np.empty(0)
    return np.asarray(kept, dtype=np.int64), means[0::2], means[1::2], skipped
