"""Sparse ratings storage, trust-graph storage, file ingestion and splitting.

File formats: UTF-8 text (a leading byte-order mark is ignored), LF, CRLF
or CR line ends, fields separated by any Unicode whitespace. Blank lines
and lines whose first field starts with ``#`` are skipped. Ratings:
``<user_id> <item_id> <rating>`` per line. Trust: ``<truster_id>
<trustee_id>`` per line.

The loaders read blocks of whole lines, about ``TEXT_BLOCK`` code points
each (``_data_blocks``). numpy finds each line's field count and comment
flag from the block's code points, so a fault names its line, and one
``str.split`` of the block gives its tokens. ``dict.setdefault``, mapped
in C over a token column, gives ids first-seen indices; only the ids a
column adds are renumbered in Python (``_add_ids``). Ratings are converted
with ``float``. One ``np.unique`` over ``user * num_items + item`` (``src *
num_users + dst``) drops repeats and self-loops and yields canonical order.
``SparseRatings`` keeps (user, item) order with a per-user index
(``user_ptr``), ``TrustGraph`` (source, destination) order with an
out-link index (``out_ptr``); neither has a per-item or in-link index, nor
sorts input that is already in order.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, count, islice

import numpy as np

# code points a loader reads at once, topped up to the next line end: an
# ASCII block's arrays (1 byte per code point, 8 per field) then stay under
# glibc's 128 KiB mmap threshold while fields with their separators average
# over 4 code points (5.5 and 9 in the benchmark's trust and ratings files)
TEXT_BLOCK = 1 << 16
# rows save_ratings and SimilarityTable.save format per write
LINE_BLOCK = 8192
# str.isspace of every code point up to the last whitespace one (U+3000)
# and one past it, which stands for all higher code points
_SPACE = np.array([chr(c).isspace() for c in range(0x3002)])
_NEWLINE, _HASH = ord("\n"), ord("#")
_NO_INDICES = np.empty(0, dtype=np.int64)


class DataFileError(ValueError):
    """Malformed or out-of-domain content in a data file, or a data file
    that cannot be read."""


@contextmanager
def reading(path):
    """Context for reading the data file ``path``: failing to open or decode
    it (missing, a directory, not UTF-8) raises DataFileError naming it."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DataFileError(f"cannot read {path}: {reason}") from None


class IdMap:
    """Bijective mapping between external user/item ids and dense indices.

    Indices are assigned in first-seen order. Users may be appended after
    construction (trust files can mention users that never rated anything).
    """

    def __init__(self):
        self._user_index: dict[str, int] = {}
        self._item_index: dict[str, int] = {}
        self._user_ids: list[str] = []
        self._item_ids: list[str] = []

    @property
    def num_users(self) -> int:
        return len(self._user_ids)

    @property
    def num_items(self) -> int:
        return len(self._item_ids)

    def add_users(self, user_ids) -> np.ndarray:
        """Indices of a sequence of user ids, adding the unseen ones."""
        return _add_ids(self._user_index, self._user_ids, user_ids)

    def add_items(self, item_ids) -> np.ndarray:
        """Indices of a sequence of item ids, adding the unseen ones."""
        return _add_ids(self._item_index, self._item_ids, item_ids)

    def user_index(self, user_id: str) -> int:
        return self._user_index[user_id]

    def item_index(self, item_id: str) -> int:
        return self._item_index[item_id]

    def user_id(self, index: int) -> str:
        return self._user_ids[index]

    def item_id(self, index: int) -> str:
        return self._item_ids[index]


def _add_ids(index, names, ids):
    known = len(index)
    # an unseen id first gets its token's position past ``known``, so one
    # C-level map does the lookups; only the ids it added are renumbered
    out = np.fromiter(map(index.setdefault, ids, count(known)), np.int64, len(ids))
    added = list(islice(reversed(index), len(index) - known))[::-1]
    if added:
        first_seen = np.fromiter(map(index.__getitem__, added), np.int64, len(added))
        new = out >= known
        out[new] = known + np.searchsorted(first_seen, out[new])
        index.update(zip(added, count(known)))
        names.extend(added)
    return out


def _read_only(array):
    array.flags.writeable = False
    return array


RATING_MIN = 1.0
RATING_MAX = 5.0


class SparseRatings:
    """User-item rating matrix stored as triples in canonical (user, item)
    order. ``user_ptr`` is the row pointer of the CSR matrix whose column
    indices and data are ``items`` and ``values``. Immutable after
    construction, so the per-user means, the per-item counts and the global
    mean are computed on first use and kept, the arrays read-only.
    """

    def __init__(self, num_users, num_items, users, items, values, validate=True):
        users = np.ascontiguousarray(users, dtype=np.int64)
        items = np.ascontiguousarray(items, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if not (users.shape == items.shape == values.shape):
            raise ValueError("users, items and values must have equal length")

        self.users, self.items, self.values = _canonical(users, items, values)
        self.num_users = int(num_users)
        self.num_items = int(num_items)

        if validate:
            self._check_invariants()

        self.user_ptr = np.zeros(self.num_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.users, minlength=self.num_users), out=self.user_ptr[1:])

        self._user_means = None
        self._item_counts = None
        self._global_mean = None

    def _check_invariants(self):
        if self.users.size:
            if self.users.min() < 0 or self.users.max() >= self.num_users:
                raise ValueError("user index out of range")
            if self.items.min() < 0 or self.items.max() >= self.num_items:
                raise ValueError("item index out of range")
            if self.values.min() < RATING_MIN or self.values.max() > RATING_MAX:
                raise ValueError(
                    f"rating outside [{RATING_MIN:g}, {RATING_MAX:g}]"
                )
            same_user = self.users[1:] == self.users[:-1]
            same_item = self.items[1:] == self.items[:-1]
            if np.any(same_user & same_item):
                raise ValueError("duplicate (user, item) entry")

    def __len__(self) -> int:
        return self.users.size

    @property
    def num_entries(self) -> int:
        return self.users.size

    def items_of(self, u):
        """(item indices, ratings) of user u, sorted by item index."""
        lo, hi = self.user_ptr[u], self.user_ptr[u + 1]
        return self.items[lo:hi], self.values[lo:hi]

    def user_counts(self):
        return np.diff(self.user_ptr)

    def item_counts(self):
        """Ratings per item (read-only)."""
        if self._item_counts is None:
            self._item_counts = _read_only(np.bincount(self.items, minlength=self.num_items))
        return self._item_counts

    def user_means(self):
        """Per-user mean rating over all rated items (0.0 for empty users;
        read-only)."""
        if self._user_means is None:
            counts = self.user_counts()
            sums = np.bincount(self.users, weights=self.values, minlength=self.num_users)
            self._user_means = _read_only(
                np.where(counts > 0, sums / np.maximum(counts, 1), 0.0))
        return self._user_means

    def global_mean(self) -> float:
        if self._global_mean is None:
            if self.values.size == 0:
                raise ValueError("empty ratings have no global mean")
            self._global_mean = float(self.values.mean())
        return self._global_mean

    def with_num_users(self, num_users: int) -> "SparseRatings":
        """Same entries over a wider user index space (extra users rate nothing)."""
        if num_users < self.num_users:
            raise ValueError("cannot shrink the user index space")
        return SparseRatings(
            num_users, self.num_items, self.users, self.items, self.values,
            validate=False,
        )

    def triples(self):
        """Iterate entries as (user, item, rating) in canonical order."""
        for u, i, r in zip(self.users, self.items, self.values):
            yield int(u), int(i), float(r)


class TrustGraph:
    """Directed user-user trust graph with out-link adjacency.

    Edges are unweighted, deduplicated, free of self-loops, and stored in
    lexicographic (source, destination) order; ``edge_src``/``edge_dst`` is
    simultaneously the flattened out-link CSR. Immutable after construction.
    """

    def __init__(self, num_users, edge_src, edge_dst, validate=True):
        edge_src = np.ascontiguousarray(edge_src, dtype=np.int64)
        edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int64)
        self.edge_src, self.edge_dst = _canonical(edge_src, edge_dst)
        self.num_users = int(num_users)

        if validate:
            self._check_invariants()

        self.out_ptr = np.zeros(self.num_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edge_src, minlength=self.num_users), out=self.out_ptr[1:])

    def _check_invariants(self):
        _check_endpoints(self.num_users, self.edge_src, self.edge_dst)
        if np.any(self.edge_src == self.edge_dst):
            raise ValueError("self-loop edge")
        same = (self.edge_src[1:] == self.edge_src[:-1]) & (
            self.edge_dst[1:] == self.edge_dst[:-1]
        )
        if np.any(same):
            raise ValueError("duplicate edge")

    @classmethod
    def from_edges(cls, num_users, edges) -> "TrustGraph":
        """Build from an iterable of (truster, trustee) index pairs.

        Self-loops are dropped and duplicate edges collapsed.
        """
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        _check_endpoints(num_users, pairs[:, 0], pairs[:, 1])
        return cls(num_users, *_unique_edges(num_users, pairs[:, 0], pairs[:, 1]),
                   validate=False)

    @property
    def num_edges(self) -> int:
        return self.edge_src.size

    def out_neighbors(self, u):
        """Users trusted by u, sorted ascending."""
        return self.edge_dst[self.out_ptr[u]:self.out_ptr[u + 1]]

    def out_degrees(self):
        return np.diff(self.out_ptr)

    def edge_position(self, u, f) -> int:
        """Position of edge (u, f) in edge order, or -1 if absent."""
        lo, hi = self.out_ptr[u], self.out_ptr[u + 1]
        pos = lo + np.searchsorted(self.edge_dst[lo:hi], f)
        if pos < hi and self.edge_dst[pos] == f:
            return int(pos)
        return -1


def _canonical(major, minor, *rest):
    """The arrays in lexicographic (major, minor) order, sorted only if not yet."""
    step = np.diff(major)
    if np.all((step > 0) | ((step == 0) & (np.diff(minor) >= 0))):
        return (major, minor, *rest)
    order = np.lexsort((minor, major))
    return tuple(a[order] for a in (major, minor, *rest))


def _check_endpoints(num_users, *ends):
    if any(end.size and (end.min() < 0 or end.max() >= num_users) for end in ends):
        raise ValueError("edge endpoint out of range")


def _last_of_each_pair(major, minor, span):
    """Distinct (major, minor) pairs in lexicographic order, and the position
    of each one's last occurrence; every ``minor`` is below ``span``."""
    keys = major * span + minor
    if np.all(keys[1:] > keys[:-1]):
        return major, minor, np.arange(keys.size)
    unique, first_from_end = np.unique(keys[::-1], return_index=True)
    return unique // span, unique % span, keys.size - 1 - first_from_end


def _unique_edges(num_users, src, dst):
    """Edges without self-loops or repeats, in (source, destination) order."""
    keep = src != dst
    src, dst, _ = _last_of_each_pair(src[keep], dst[keep], num_users)
    return src, dst


@dataclass
class DatasetSplit:
    """Disjoint train/test partition of a ratings set.

    The train side keeps the full (num_users, num_items) index space; the
    test side is stored as parallel index/value arrays.
    """

    train: SparseRatings
    test_users: np.ndarray
    test_items: np.ndarray
    test_values: np.ndarray
    seed: int
    train_fraction: float

    @property
    def num_test(self) -> int:
        return self.test_users.size

    def test_triples(self):
        for u, i, r in zip(self.test_users, self.test_items, self.test_values):
            yield int(u), int(i), float(r)


def _data_blocks(path, width):
    """Yield (line numbers, tokens in line order) of the data lines of a
    text file, a block of whole lines at a time (``TEXT_BLOCK`` code points
    topped up to the next line end).

    numpy does the line accounting over the block's code points (bytes when
    the block is ASCII, else UTF-32): ``_SPACE`` marks whitespace, a field
    starts at a non-space after a space or at the block's start, a line's
    fields are the field starts from its first code point on (found with
    ``searchsorted``), and a line is a comment when its first field starts
    with ``#``. One ``str.split`` gives the block's tokens, and those of
    blank, comment and faulty lines are dropped. A data line without
    ``width`` fields raises DataFileError naming it, after the lines before
    it were yielded, so that a fault the caller finds on an earlier line
    wins."""
    with reading(path), open(path, "r", encoding="utf-8-sig") as fh:
        start = 1
        while text := fh.read(TEXT_BLOCK):
            if text[-1] != "\n":
                text += fh.readline()
            if text.isascii():
                codes = np.frombuffer(text.encode("ascii"), np.uint8)
            else:  # higher code points clip to the table's last, non-space entry
                codes = np.minimum(np.frombuffer(text.encode("utf-32-le"), "<u4"),
                                   _SPACE.size - 1)
            space = _SPACE[codes]
            begins = ~space
            begins[1:] &= space[:-1]
            field_starts = np.flatnonzero(begins)
            # each line's first field: the first one at or after its start
            first = np.searchsorted(field_starts, np.flatnonzero(codes[:-1] == _NEWLINE) + 1)
            first = np.concatenate(([0], first))
            fields = np.diff(first, append=field_starts.size)
            data = fields > 0
            data[data] = codes[field_starts[first[data]]] != _HASH
            bad = np.flatnonzero(data & (fields != width))
            if bad.size:
                data[bad[0]:] = False
            tokens = text.split()
            if not data.all():
                tokens = list(compress(tokens, np.repeat(data, fields)))
            yield start + np.flatnonzero(data), tokens
            if bad.size:
                raise DataFileError(f"{path}:{start + bad[0]}: expected {width} fields, "
                                    f"got {fields[bad[0]]}")
            start += fields.size


def _parse_ratings(path, linenos, tokens):
    """A block's ratings; raises DataFileError naming the first bad one."""
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        bad = _first_unparsed(tokens, float)
        _parse_ratings(path, linenos[:bad], tokens[:bad])
        raise DataFileError(
            f"{path}:{linenos[bad]}: non-numeric rating {tokens[bad]!r}") from None
    outside = np.flatnonzero(~((values >= RATING_MIN) & (values <= RATING_MAX)))
    if outside.size:
        n = outside[0]
        raise DataFileError(f"{path}:{linenos[n]}: rating {values[n]:g} outside [1, 5]")
    return values


def _first_unparsed(rows, parse):
    """Index of the first row on which ``parse`` raises ValueError, so that
    a caller can check the rows before it first."""
    for n, row in enumerate(rows):
        try:
            parse(row)
        except ValueError:
            return n


def load_ratings(path) -> tuple[SparseRatings, IdMap]:
    """Load a ratings file into a dense-indexed sparse matrix.

    Duplicate (user, item) lines keep the last occurrence. Raises
    DataFileError with the offending line number on malformed lines and on
    ratings outside [1, 5], and for a file with no ratings.
    """
    ids = IdMap()
    users, items, values = [_NO_INDICES], [_NO_INDICES], [np.empty(0)]
    for linenos, tokens in _data_blocks(path, 3):
        values.append(_parse_ratings(path, linenos, tokens[2::3]))
        users.append(ids.add_users(tokens[0::3]))
        items.append(ids.add_items(tokens[1::3]))
    values = np.concatenate(values)
    if values.size == 0:
        raise DataFileError(f"{path}: no ratings")
    users, items, last = _last_of_each_pair(
        np.concatenate(users), np.concatenate(items), ids.num_items)
    matrix = SparseRatings(ids.num_users, ids.num_items, users, items, values[last],
                           validate=False)
    return matrix, ids


def save_ratings(ratings: SparseRatings, path, ids: IdMap | None = None):
    """Write a ratings file that round-trips through load_ratings.

    Without an IdMap, dense indices are written as the external ids.
    Ratings use 17 significant digits, enough for exact float64 round-trip.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, ratings.num_entries, LINE_BLOCK):
            block = slice(lo, lo + LINE_BLOCK)
            users = ratings.users[block].tolist()
            items = ratings.items[block].tolist()
            if ids is not None:
                users = [ids.user_id(u) for u in users]
                items = [ids.item_id(i) for i in items]
            rows = zip(users, items, ratings.values[block].tolist())
            fh.write(("%s\t%s\t%.17g\n" * len(users)) % tuple(chain.from_iterable(rows)))


def load_trust(path, ids: IdMap) -> TrustGraph:
    """Load a trust file as a directed graph over the shared user index space.

    Self-loops are dropped, duplicate edges collapsed. Users that appear only
    in the trust file are appended to the IdMap; align any previously loaded
    ratings with ``ratings.with_num_users(ids.num_users)`` afterwards.
    """
    ends = [_NO_INDICES]
    for _, tokens in _data_blocks(path, 2):
        ends.append(ids.add_users(tokens))
    pairs = np.concatenate(ends).reshape(-1, 2)
    return TrustGraph(ids.num_users, *_unique_edges(ids.num_users, pairs[:, 0], pairs[:, 1]),
                      validate=False)


def load_dataset(ratings_path, trust_path=None):
    """Load ratings plus optional trust data with aligned user index spaces.

    Returns (ratings, graph, ids); graph is None when no trust path is given.
    """
    ratings, ids = load_ratings(ratings_path)
    graph = None
    if trust_path is not None:
        graph = load_trust(trust_path, ids)
        if ids.num_users > ratings.num_users:
            ratings = ratings.with_num_users(ids.num_users)
    return ratings, graph, ids


def split_ratings(ratings: SparseRatings, train_fraction: float, seed: int) -> DatasetSplit:
    """Uniform entry-level train/test partition, driven solely by the seed."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = ratings.num_entries
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(train_fraction * n))
    if n >= 2:
        n_train = min(max(n_train, 1), n - 1)
    return _partition(ratings, perm[n_train:], seed, train_fraction)


def _partition(ratings: SparseRatings, held_out, seed, train_fraction) -> DatasetSplit:
    test_mask = np.zeros(ratings.num_entries, dtype=bool)
    test_mask[held_out] = True
    train, test = np.flatnonzero(~test_mask), np.flatnonzero(test_mask)
    train_set = SparseRatings(ratings.num_users, ratings.num_items, ratings.users[train],
                              ratings.items[train], ratings.values[train], validate=False)
    return DatasetSplit(train_set, ratings.users[test], ratings.items[test],
                        ratings.values[test], seed, train_fraction)


def cold_start_split(ratings: SparseRatings, threshold: int, seed: int = 0) -> DatasetSplit:
    """Hold out one rating per cold-start user (rating count below threshold).

    Every user with 1 <= count < threshold sends exactly one seeded-random
    rating to the test side and the rest to train; all ratings of other
    users go to train. Users with a single rating contribute it to test.
    """
    if threshold < 2:
        raise ValueError(f"threshold must be >= 2, got {threshold}")
    rng = np.random.default_rng(seed)
    counts = ratings.user_counts()
    cold = np.flatnonzero((counts >= 1) & (counts < threshold))
    # one draw per cold user, in user order: the stream of a scalar
    # rng.integers(lo, hi) call per user
    held_out = rng.integers(ratings.user_ptr[cold], ratings.user_ptr[cold + 1])
    return _partition(ratings, held_out, seed,
                      (ratings.num_entries - cold.size) / max(ratings.num_entries, 1))
