"""User-user similarity measures evaluated on training ratings and
materialized once per trust edge.

Four kinds are supported: Pearson correlation (mapped from [-1, 1] into
[0, 1]), cosine similarity over co-rated items, a constant 1 per edge, and
a seeded uniform random value per edge.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import SparseRatings, TrustGraph, whole_number

KINDS = ("pcc", "vss", "constant", "random")


@dataclass(frozen=True)
class SimilarityKind:
    """Similarity selector; ``seed``, a whole number >= 0 kept as an int, only
    matters for the random kind. A bool, string or fractional seed raises."""

    tag: str
    seed: int = 0

    def __post_init__(self):
        if self.tag not in KINDS:
            raise ValueError(f"unknown similarity kind {self.tag!r}; choose from {KINDS}")
        object.__setattr__(self, "seed", whole_number("seed", self.seed))

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
        """Parse 'pcc' | 'vss' | 'constant' | 'random[:seed]'; a seed on any
        other kind is a ValueError, since nothing would use it."""
        tag, _, seed = text.strip().lower().partition(":")
        if not seed:
            return cls(tag)
        if tag in KINDS and tag != "random":
            raise ValueError(f"only the random kind takes a seed, got {text!r}")
        return cls(tag, int(seed))

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


def pair_similarities(ratings: SparseRatings, kind: SimilarityKind, src, dst) -> np.ndarray:
    """Similarity in [0, 1] of each user pair (src[e], dst[e]) under ``kind``:
    1 for constant, one draw of ``default_rng(kind.seed).uniform(0, 1, n)``
    for random, VSS, or PCC mapped onto [0, 1]."""
    if kind.tag == "constant":
        return np.ones(len(src))
    if kind.tag == "random":
        return np.random.default_rng(kind.seed).uniform(0.0, 1.0, len(src))
    if kind.tag == "vss":
        return _kernels.vss_edges(ratings.user_ptr, ratings.items, ratings.values, src, dst)
    pearson = _kernels.pcc_edges(
        ratings.user_ptr, ratings.items, ratings.values, ratings.user_means(), src, dst,
    )
    return (pearson + 1.0) / 2.0


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
    return SimilarityTable(graph, pair_similarities(ratings, kind, graph.edge_src, graph.edge_dst))
