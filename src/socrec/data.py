"""Sparse ratings storage, trust-graph storage, file ingestion and splitting.

File formats: UTF-8 text (a leading byte-order mark is ignored), LF, CRLF
or CR line ends, fields separated by any Unicode whitespace. Blank lines
and lines whose first field starts with ``#`` are skipped. Ratings:
``<user_id> <item_id> <rating>`` per line. Trust: ``<truster_id>
<trustee_id>`` per line.

The loaders read blocks of whole lines, about ``TEXT_BLOCK`` code points
each (``_data_blocks``). numpy finds each line's field count and comment
flag from a byte per code point, so a fault names its line, and one
``str.split`` of the block gives its tokens. A column's unseen ids, in
first-seen order from ``dict.fromkeys``, get the next indices, and a lookup
mapped in C indexes the column (``IdTable.add``). Ratings are converted with
``float``. ``_last_of_each_pair`` collapses repeats (a rating's last line
wins); trust pairs go through ``TrustGraph.from_edges``, which drops
self-loops first. A store's constructor refuses input that breaks its
invariants with ValueError, including sizes, indices and ratings that the
cast to a number would change (``whole_number``, ``_index_array``,
``_numbers``), and alone orders pairs: by one argsort of the int64 key
``major * span_minor + minor``, when not yet in order (``_canonical``).
Neither store has a per-item or in-link index.
"""

import math
import numbers
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, filterfalse

import numpy as np

# code points a loader reads at once, topped up to the next line end: an
# ASCII block's arrays (1 byte per code point, 8 per field) then stay under
# glibc's 128 KiB mmap threshold while fields with their separators average
# over 4 code points (5.5 and 9 in the benchmark's trust and ratings files)
TEXT_BLOCK = 1 << 16
# rows save_ratings formats per write
LINE_BLOCK = 8192
# str.isspace of each code point below 256, the codes of a block
_SPACE = np.array([chr(c).isspace() for c in range(256)])
# the whitespace code points above them
_WIDE_SPACE = re.compile(r"[^\S\x00-\xff]")
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


class IdTable:
    """External ids and their dense indices, in first-seen order: ``add`` ids,
    ``index`` finds one's index, and ``[i]``, slices and iteration read ids."""

    def __init__(self):
        self._index: dict[str, int] = {}
        self._ids: list[str] = []

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index) -> str:
        return self._ids[index]

    def index(self, external_id: str) -> int | None:
        """The id's index, or None for an unknown id."""
        return self._index.get(external_id)

    def add(self, ids) -> np.ndarray:
        """Indices of a sequence of ids, adding the unseen ones."""
        try:
            # a column of known ids, the common case once a file's first blocks
            # are read, is one C-level map
            return np.fromiter(map(self._index.__getitem__, ids), np.int64, len(ids))
        except KeyError:
            pass
        # the unseen ids, in first-seen order, get the next indices
        added = list(filterfalse(self._index.__contains__, dict.fromkeys(ids)))
        self._index.update(zip(added, count(len(self._ids))))
        self._ids.extend(added)
        return np.fromiter(map(self._index.__getitem__, ids), np.int64, len(ids))


class IdMap:
    """The ``users`` and ``items`` id tables; a trust file may add users without ratings."""

    def __init__(self):
        self.users, self.items = IdTable(), IdTable()


def _read_only(array):
    array.flags.writeable = False
    return array


RATING_MIN = 1.0
RATING_MAX = 5.0


class SparseRatings:
    """User-item rating matrix stored as triples: distinct (user, item) pairs
    in strictly increasing order, indices in range, ratings in [1, 5] (so
    finite). ``user_ptr`` is the row pointer of the CSR matrix whose column
    indices and data are ``items`` and ``values``. Immutable after
    construction, so the per-user means, the per-item counts and the global
    mean are computed on first use and kept, the arrays read-only.
    """

    def __init__(self, num_users, num_items, users, items, values):
        users, items = _index_array("users", users), _index_array("items", items)
        values = np.ascontiguousarray(_numbers("values", values, "ratings"), dtype=np.float64)
        if not (users.shape == items.shape == values.shape):
            raise ValueError("users, items and values must have equal length")
        bad = _first_outside_rating_range(values)
        if bad is not None:
            raise ValueError(f"rating {values[bad]:g} outside [{RATING_MIN:g}, {RATING_MAX:g}]")
        self.num_users = whole_number("num_users", num_users)
        self.num_items = whole_number("num_items", num_items)
        self.users, self.items, self.values, self.user_ptr = _canonical(
            ("user", "item"), (self.num_users, self.num_items), users, items, values)

        self._user_means = None
        self._item_counts = None
        self._global_mean = None

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

    def triples(self):
        """Iterate entries as (user, item, rating) in canonical order."""
        for u, i, r in zip(self.users, self.items, self.values):
            yield int(u), int(i), float(r)


class TrustGraph:
    """Directed user-user trust graph with out-link adjacency: unweighted,
    distinct edges with endpoints in range and without self-loops, in
    strictly increasing (source, destination) order, so ``edge_src``/
    ``edge_dst`` is also the flattened out-link CSR. Immutable after
    construction.
    """

    def __init__(self, num_users, edge_src, edge_dst):
        edge_src, edge_dst = _index_array("edge_src", edge_src), _index_array("edge_dst", edge_dst)
        if edge_src.shape != edge_dst.shape:
            raise ValueError("edge_src and edge_dst must have equal length")
        if np.any(edge_src == edge_dst):
            raise ValueError("self-loop edge")
        self.num_users = whole_number("num_users", num_users)
        self.edge_src, self.edge_dst, self.out_ptr = _canonical(
            ("source", "destination"), (self.num_users, self.num_users), edge_src, edge_dst)

    @classmethod
    def from_edges(cls, num_users, edges) -> "TrustGraph":
        """Build from (truster, trustee) index pairs in any order, an
        iterable of pairs or an ``(n, 2)`` array: self-loops are dropped,
        repeats collapsed, and anything but index pairs in range raises
        ValueError."""
        num_users = whole_number("num_users", num_users)
        pairs = _index_array("edges", edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size and pairs.shape[1:] != (2,):
            raise ValueError(f"edges must be (truster, trustee) pairs, got shape {pairs.shape}")
        src, dst = pairs.reshape(-1, 2).T
        _check_keys(("source", "destination"), (num_users, num_users), src, dst)
        loop_free = src != dst
        src, dst, _ = _last_of_each_pair(src[loop_free], dst[loop_free], num_users)
        return cls(num_users, src, dst)

    @property
    def num_edges(self) -> int:
        return self.edge_src.size

    def out_neighbors(self, u):
        """Users trusted by u, sorted ascending."""
        return self.edge_dst[self.out_ptr[u]:self.out_ptr[u + 1]]

    def out_degrees(self):
        return np.diff(self.out_ptr)


def _numbers(name, values, kind):
    """``values`` as an array. Bools and strings, which a cast would turn
    into numbers without a word, raise ValueError naming ``name`` and what
    it must hold, ``kind``: found by the dtype and, for input that is not
    an ndarray yet, by the type of each element, since ``np.asarray`` makes
    ints of the bools in a list that also holds ints."""
    array = np.asarray(values)
    found = {array.dtype.type}
    if not isinstance(values, np.ndarray):
        found.update(map(type, np.asarray(values, dtype=object).flat))
    for types, what in (((bool, np.bool_), "bools"), ((str, bytes), "strings")):
        if any(issubclass(t, types) for t in found):
            raise ValueError(f"{name} must be {kind}, not {what}")
    return array


def _index_array(name, indices):
    """``indices`` as a contiguous int64 array, not copied when it is one.
    Bools, strings (``_numbers``), and floats that are not whole numbers,
    which the cast would turn into other indices without a word, raise
    ValueError naming ``name``."""
    indices = _numbers(name, indices, "integer indices")
    if indices.dtype.kind == "f":
        whole = np.isfinite(indices) & (np.trunc(indices) == indices)
        if not whole.all():
            raise ValueError(f"{name} must be whole-number indices, got {indices[~whole][0]:g}")
    return np.ascontiguousarray(indices, dtype=np.int64)


def whole_number(name, value, low=0, high=math.inf) -> int:
    """``value`` as an int: the library's rule for counts, sizes, thresholds
    and seeds. An int (numpy's too) or a whole float in [``low``, ``high``];
    anything else, a bool or a string too, raises ValueError naming ``name``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(_within(name, value, low, high, closed=True))


def real_number(name, value, low, high=math.inf, closed=True) -> float:
    """``value`` as a float: the library's rule for real-valued settings. A
    finite number in [``low``, ``high``] (open if not ``closed``); anything
    else, a bool or a string too, raises ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    # an int past the largest float is no float; math.isfinite would overflow on it
    if not (abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value}")
    return float(_within(name, value, low, high, closed))


def _within(name, value, low, high, closed):
    """``value`` if it lies in its interval, else ValueError naming ``name``."""
    if low <= value <= high if closed else low < value < high:
        return value
    left, right = "[]" if closed else "()"
    where = (f"{'>=' if closed else '>'} {low:g}" if high == math.inf else
             f"in {left}{low:g}, {high:g}{right}")
    raise ValueError(f"{name} must be {where}, got {value}")


# the rules of a train fraction and of a cold-start threshold
check_train_fraction = partial(real_number, "train_fraction", low=0, high=1, closed=False)
check_threshold = partial(whole_number, "threshold", low=2)


def _canonical(names, spans, major, minor, *rest):
    """The arrays in strictly increasing lexicographic (major, minor) order,
    sorted only if not yet in order, and the row pointer of ``major``.
    Raises ValueError as ``_check_keys`` does and for a repeated pair;
    ``names`` name the two indices."""
    in_order = _strictly_increasing(major, minor)
    # in order, major's ends bound it
    _check_keys(names, spans, major[[0, -1]] if in_order and major.size else major, minor)
    if not in_order:
        order = np.argsort(major * spans[1] + minor)
        major, minor, *rest = (a[order] for a in (major, minor, *rest))
        if not _strictly_increasing(major, minor):
            raise ValueError("duplicate ({}, {}) pair".format(*names))
    ptr = np.zeros(spans[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(major, minlength=spans[0]), out=ptr[1:])
    return (major, minor, *rest, ptr)


def _check_keys(names, spans, major, minor):
    """ValueError unless every pair has its own int64 key ``major * spans[1] + minor``."""
    if spans[0] * spans[1] > np.iinfo(np.int64).max:
        raise ValueError(f"{spans[0]} {names[0]}s by {spans[1]} {names[1]}s overflow an int64 key")
    for name, span, index in zip(names, spans, (major, minor)):
        if index.size and (index.min() < 0 or index.max() >= span):
            raise ValueError(f"{name} index out of range")


def _strictly_increasing(major, minor):
    later, earlier = major[1:], major[:-1]
    return bool(((later > earlier) | ((later == earlier) & (minor[1:] > minor[:-1]))).all())


def _first_outside_rating_range(values):
    """Index of the first value that is not a rating in [1, 5], NaN
    included, or None; sought only when one of two reductions fails."""
    if values.size == 0 or (values.min() >= RATING_MIN and values.max() <= RATING_MAX):
        return None
    return int(np.argmin((values >= RATING_MIN) & (values <= RATING_MAX)))


def _last_of_each_pair(major, minor, span):
    """Distinct (major, minor) pairs in lexicographic order, and the position
    of each one's last occurrence; every ``minor`` is below ``span``."""
    keys = major * span + minor
    if np.all(keys[1:] > keys[:-1]):
        return major, minor, np.arange(keys.size)
    unique, first_from_end = np.unique(keys[::-1], return_index=True)
    return unique // span, unique % span, keys.size - 1 - first_from_end


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

    @property
    def num_test(self) -> int:
        return self.test_users.size


def _data_blocks(path, width):
    """Yield (line numbers, tokens in line order) of the data lines of a
    text file, a block of whole lines at a time (``TEXT_BLOCK`` code points
    topped up to the next line end).

    numpy does the line accounting over the block's Latin-1 bytes, each higher
    code point a space if it is whitespace (``_WIDE_SPACE``), else a ``?``:
    ``_SPACE`` marks whitespace, a field starts at a non-space after a space or
    at the block's start, a line's fields are the field starts from its first
    code point on (found with ``searchsorted``), and a line is a comment when
    its first field starts with ``#``. One ``str.split`` gives the block's
    tokens, and those of blank, comment and faulty lines are dropped. A data
    line without ``width`` fields raises DataFileError naming it, after the
    lines before it were yielded, so that a fault the caller finds on an
    earlier line wins."""
    with reading(path), open(path, "r", encoding="utf-8-sig") as fh:
        start = 1
        while text := fh.read(TEXT_BLOCK):
            if text[-1] != "\n":
                text += fh.readline()
            if not text.isascii():
                text = _WIDE_SPACE.sub(" ", text)
            codes = np.frombuffer(text.encode("latin-1", "replace"), np.uint8)
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
    bad = _first_outside_rating_range(values)
    if bad is not None:
        raise DataFileError(f"{path}:{linenos[bad]}: rating {values[bad]:g} outside [1, 5]")
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
        users.append(ids.users.add(tokens[0::3]))
        items.append(ids.items.add(tokens[1::3]))
    values = np.concatenate(values)
    if values.size == 0:
        raise DataFileError(f"{path}: no ratings")
    users, items, last = _last_of_each_pair(
        np.concatenate(users), np.concatenate(items), len(ids.items))
    matrix = SparseRatings(len(ids.users), len(ids.items), users, items, values[last])
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
                users = [ids.users[u] for u in users]
                items = [ids.items[i] for i in items]
            rows = zip(users, items, ratings.values[block].tolist())
            fh.write(("%s\t%s\t%.17g\n" * len(users)) % tuple(chain.from_iterable(rows)))


def load_trust(path, ids: IdMap) -> TrustGraph:
    """Load a trust file as a directed graph over the shared user index space.

    Self-loops are dropped, duplicate edges collapsed. Users that appear only
    in the trust file are appended to the IdMap; ratings loaded before then
    cover fewer users, and ``load_dataset`` builds them again over all of
    ``ids``.
    """
    ends = [_NO_INDICES]
    for _, tokens in _data_blocks(path, 2):
        ends.append(ids.users.add(tokens))
    return TrustGraph.from_edges(len(ids.users), np.concatenate(ends).reshape(-1, 2))


def load_dataset(ratings_path, trust_path=None):
    """Load ratings plus optional trust data with aligned user index spaces.

    Returns (ratings, graph, ids); graph is None when no trust path is given.
    """
    ratings, ids = load_ratings(ratings_path)
    graph = None
    if trust_path is not None:
        graph = load_trust(trust_path, ids)
        if len(ids.users) > ratings.num_users:
            ratings = SparseRatings(len(ids.users), ratings.num_items,
                                    ratings.users, ratings.items, ratings.values)
    return ratings, graph, ids


def split_ratings(ratings: SparseRatings, train_fraction: float, seed: int) -> DatasetSplit:
    """Uniform entry-level train/test partition, driven solely by the seed."""
    train_fraction = check_train_fraction(train_fraction)
    n = ratings.num_entries
    perm = np.random.default_rng(whole_number("seed", seed)).permutation(n)
    n_train = int(round(train_fraction * n))
    if n >= 2:
        n_train = min(max(n_train, 1), n - 1)
    return _partition(ratings, perm[n_train:])


def _partition(ratings: SparseRatings, held_out) -> DatasetSplit:
    test_mask = np.zeros(ratings.num_entries, dtype=bool)
    test_mask[held_out] = True
    train, test = np.flatnonzero(~test_mask), np.flatnonzero(test_mask)
    train_set = SparseRatings(ratings.num_users, ratings.num_items, ratings.users[train],
                              ratings.items[train], ratings.values[train])
    return DatasetSplit(train_set, ratings.users[test], ratings.items[test],
                        ratings.values[test])


def cold_start_split(ratings: SparseRatings, threshold: int, seed: int = 0) -> DatasetSplit:
    """Hold out one rating per cold-start user (rating count below threshold).

    Every user with 1 <= count < threshold sends exactly one seeded-random
    rating to the test side and the rest to train; all ratings of other
    users go to train. Users with a single rating contribute it to test.
    """
    threshold = check_threshold(threshold)
    rng = np.random.default_rng(whole_number("seed", seed))
    counts = ratings.user_counts()
    cold = np.flatnonzero((counts >= 1) & (counts < threshold))
    # one draw per cold user, in user order: the stream of a scalar
    # rng.integers(lo, hi) call per user
    return _partition(ratings, rng.integers(ratings.user_ptr[cold], ratings.user_ptr[cold + 1]))
