"""User-user similarity measures evaluated on training ratings and
materialized once per trust edge.

Four kinds are supported: Pearson correlation (mapped from [-1, 1] into
[0, 1]), cosine similarity over co-rated items, a constant 1 per edge, and
a seeded uniform random value per edge.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import _kernels
from .data import (
    _NO_INDICES,
    LINE_BLOCK,
    DataFileError,
    SparseRatings,
    TrustGraph,
    _data_blocks,
    _first_unparsed,
    _last_of_each_pair,
)

KINDS = ("pcc", "vss", "constant", "random")


@dataclass(frozen=True)
class SimilarityKind:
    """Similarity selector; ``seed`` only matters for the random kind."""

    tag: str
    seed: int = 0

    def __post_init__(self):
        if self.tag not in KINDS:
            raise ValueError(f"unknown similarity kind {self.tag!r}; choose from {KINDS}")

    @classmethod
    def pcc(cls) -> "SimilarityKind":
        return cls("pcc")

    @classmethod
    def vss(cls) -> "SimilarityKind":
        return cls("vss")

    @classmethod
    def constant(cls) -> "SimilarityKind":
        return cls("constant")

    @classmethod
    def random(cls, seed: int = 0) -> "SimilarityKind":
        return cls("random", seed)

    @classmethod
    def parse(cls, text: str) -> "SimilarityKind":
        """Parse 'pcc' | 'vss' | 'constant' | 'random[:seed]'."""
        tag, _, seed = text.strip().lower().partition(":")
        if seed:
            return cls(tag, int(seed))
        return cls(tag)

    def label(self) -> str:
        return f"{self.tag}:{self.seed}" if self.tag == "random" else self.tag


class SimilarityTable:
    """One similarity value in [0, 1] per directed trust edge.

    Values are stored in the graph's canonical edge order, so the table is
    keyed exactly by the graph's edge set. Immutable after construction,
    which lets it build its social Laplacian once (``laplacian``).
    """

    def __init__(self, graph: TrustGraph, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != graph.edge_src.shape:
            raise ValueError("one similarity value per edge required")
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError("similarity values must lie in [0, 1]")
        self.graph = graph
        self.values = values
        self._laplacian = None

    def __len__(self) -> int:
        return self.values.size

    def keyed_by(self, graph: TrustGraph) -> bool:
        """Whether the table's values belong to the edges of ``graph``: its
        own graph, or one with the same users and edges."""
        own = self.graph
        return own is graph or (own.num_users == graph.num_users
                                and np.array_equal(own.edge_src, graph.edge_src)
                                and np.array_equal(own.edge_dst, graph.edge_dst))

    def laplacian(self):
        """The social Laplacian ``D - (W + Wᵀ)`` of the similarity-weighted
        edges (``_kernels.social_laplacian``), as a CSR matrix built on the
        first call and returned by every later one; its arrays are
        read-only."""
        if self._laplacian is None:
            g = self.graph
            lap = _kernels.social_laplacian(g.num_users, g.edge_src, g.edge_dst, self.values)
            for a in (lap.data, lap.indices, lap.indptr):
                a.flags.writeable = False
            self._laplacian = lap
        return self._laplacian

    def value(self, u: int, f: int) -> float:
        """Similarity stored on edge (u, f); KeyError if the edge is absent."""
        pos = self.graph.edge_position(u, f)
        if pos < 0:
            raise KeyError(f"no trust edge {u} -> {f}")
        return float(self.values[pos])

    def save(self, path):
        """Write '<u> <f> <sim>' lines, 17 significant digits per value,
        ``LINE_BLOCK`` lines per write."""
        g = self.graph
        with open(path, "w", encoding="utf-8") as fh:
            for lo in range(0, g.num_edges, LINE_BLOCK):
                block = slice(lo, lo + LINE_BLOCK)
                cells = tuple(chain.from_iterable(zip(
                    g.edge_src[block].tolist(), g.edge_dst[block].tolist(),
                    self.values[block].tolist())))
                fh.write(("%d %d %.17g\n" * (len(cells) // 3)) % cells)


def load_similarity_table(path, graph: TrustGraph) -> SimilarityTable:
    """Read a cached table and check it is keyed by exactly the graph's edges.

    The last line of a repeated edge wins. Raises DataFileError, with the
    line number where one applies, on a malformed line, a value outside
    [0, 1] (NaN included) or an edge set that differs from the graph's, and
    when the file cannot be read.
    """
    n = graph.num_users
    src, dst, values = [_NO_INDICES], [_NO_INDICES], [np.empty(0)]
    strays = set()  # distinct edges with an endpoint that is no user index
    for linenos, tokens in _data_blocks(path, 3):
        s, t, v = _cache_columns(path, linenos, tokens)
        outside = (s < 0) | (s >= n) | (t < 0) | (t >= n)
        if outside.any():
            strays.update(zip(s[outside].tolist(), t[outside].tolist()))
            s, t, v = s[~outside], t[~outside], v[~outside]
        src.append(s.astype(np.int64, copy=False))
        dst.append(t.astype(np.int64, copy=False))
        values.append(v)
    src, dst, last = _last_of_each_pair(np.concatenate(src), np.concatenate(dst), n)
    if src.size + len(strays) != graph.num_edges:
        raise DataFileError(f"{path}: cache holds {src.size + len(strays)} edges, "
                            f"graph has {graph.num_edges}")
    keys, edge_keys = src * n + dst, graph.edge_src * n + graph.edge_dst
    pos = np.searchsorted(keys, edge_keys)
    found = pos < keys.size
    found[found] = keys[pos[found]] == edge_keys[found]
    if not found.all():
        e = np.argmin(found)
        raise DataFileError(f"{path}: cache is missing edge "
                            f"{(int(graph.edge_src[e]), int(graph.edge_dst[e]))}")
    return SimilarityTable(graph, np.concatenate(values)[last[pos]])


def _cache_columns(path, linenos, tokens):
    """A cache block's (sources, destinations, values); raises DataFileError
    naming the first line with a non-numeric field or a value outside
    [0, 1]."""
    try:
        src, dst = _int_column(tokens[0::3]), _int_column(tokens[1::3])
        values = np.fromiter(map(float, tokens[2::3]), np.float64, len(linenos))
    except ValueError:
        bad = _first_unparsed(zip(tokens[0::3], tokens[1::3], tokens[2::3]), _parse_line)
        _cache_columns(path, linenos[:bad], tokens[:3 * bad])
        raise DataFileError(f"{path}:{linenos[bad]}: non-numeric field") from None
    outside = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
    if outside.size:
        n = outside[0]
        raise DataFileError(
            f"{path}:{linenos[n]}: similarity {tokens[3 * n + 2]} outside [0, 1]")
    return src, dst, values


def _int_column(tokens):
    try:
        return np.fromiter(map(int, tokens), np.int64, len(tokens))
    except OverflowError:  # an integer beyond int64, which is no user index
        return np.array(list(map(int, tokens)), dtype=object)


def _parse_line(fields):
    src, dst, value = fields
    return int(src), int(dst), float(value)


def map_to_unit(x):
    """Affine map from [-1, 1] onto [0, 1], elementwise on arrays."""
    return (x + 1.0) / 2.0


def _single_edge(u, f):
    return (np.array([u], dtype=np.int64), np.array([f], dtype=np.int64))


def pcc(ratings: SparseRatings, u: int, f: int) -> float:
    """Pearson correlation between two users over their co-rated items.

    Deviations use each user's mean over all their rated items. Returns 0
    when the overlap has fewer than two items or a denominator vanishes.
    """
    src, dst = _single_edge(u, f)
    out = _kernels.pcc_edges(
        ratings.user_ptr, ratings.items, ratings.values, ratings.user_means(),
        src, dst,
    )
    return float(out[0])


def vss(ratings: SparseRatings, u: int, f: int) -> float:
    """Cosine similarity between two users over their co-rated items.

    Returns 0 on empty overlap or a zero denominator.
    """
    return float(pair_similarities(ratings, "vss", *_single_edge(u, f))[0])


def pair_similarities(ratings: SparseRatings, tag: str, src, dst) -> np.ndarray:
    """Similarity in [0, 1] of each user pair (src[e], dst[e]): VSS for
    ``tag == "vss"``, else PCC mapped onto [0, 1]."""
    if tag == "vss":
        return _kernels.vss_edges(ratings.user_ptr, ratings.items, ratings.values, src, dst)
    return map_to_unit(_kernels.pcc_edges(
        ratings.user_ptr, ratings.items, ratings.values, ratings.user_means(), src, dst,
    ))


def build_similarity_table(
    ratings: SparseRatings, graph: TrustGraph, kind: SimilarityKind
) -> SimilarityTable:
    """Materialize one similarity value per directed trust edge.

    Build the table from the *training* ratings only; computing it on the
    full matrix would leak test information into the regularizer.
    """
    if ratings.num_users != graph.num_users:
        raise ValueError(
            f"ratings cover {ratings.num_users} users, graph {graph.num_users}"
        )
    if kind.tag == "constant":
        values = np.ones(graph.num_edges)
    elif kind.tag == "random":
        rng = np.random.default_rng(kind.seed)
        values = rng.uniform(0.0, 1.0, graph.num_edges)
    else:
        values = pair_similarities(ratings, kind.tag, graph.edge_src, graph.edge_dst)
    return SimilarityTable(graph, values)
