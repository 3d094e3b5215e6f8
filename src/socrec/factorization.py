"""Latent-factor optimization core.

Two objectives share one trainer: plain L2-regularized matrix factorization,
and the social variant that adds a smoothness penalty pulling each user's
factor toward the factors of the users they trust, weighted by similarity.
Training is full-batch gradient descent with a constant learning rate; runs
are fully deterministic given (seed, hyperparameters, data).

Factors are stored row-per-user / row-per-item (shape (M, K) and (N, K));
each row is one latent column vector of the factor matrices. A training
keeps both in one C-contiguous (M + N, K) block, users first, so each
whole-model pass of an epoch (the L2 products, the gradient and the
update) is one numpy call; the model's two factor arrays are adjacent
views of that block, as those of ``load_model`` are of the file body.
"""

import codecs
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .data import (DataFileError, IdMap, SparseRatings, TrustGraph, _index_array, reading,
                   real_number, whole_number)
from .similarity import SimilarityTable


class DivergenceError(RuntimeError):
    """Training left the finite range: the objective of an epoch, whose
    factors overflowed (learning rate too high), or, given the
    ``init_scale`` at fault, the objective of the initial factors at
    epoch 0."""

    def __init__(self, epoch: int, init_scale: float | None = None):
        super().__init__(f"non-finite factors at epoch {epoch}; lower the learning rate"
                         if init_scale is None else
                         f"non-finite objective at epoch {epoch}, from initial factors on "
                         f"[0, {init_scale:g}]; lower the initial scale")
        self.epoch = epoch


@dataclass(frozen=True)
class Hyperparams:
    """Training settings; defaults follow the reproduction configuration.

    ``k``, ``max_epochs`` (>= 1) and ``seed`` (>= 0) are whole numbers, kept
    as ints (``k=2.0`` is ``k=2``); the others are finite floats, ``lam``
    (``lambda`` in messages), ``alpha``, ``init_scale`` >= 0 and the rest > 0.
    Any other value, a bool or a string too, raises ValueError naming it."""

    k: int = 10
    lam: float = 3.0
    alpha: float = 0.01
    learning_rate: float = 0.001
    max_epochs: int = 300
    tolerance: float = 1e-5
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, value in (
            ("k", whole_number("k", self.k, 1)),
            ("lam", real_number("lambda", self.lam, 0)),
            ("alpha", real_number("alpha", self.alpha, 0)),
            ("learning_rate", real_number("learning_rate", self.learning_rate, 0, closed=False)),
            ("max_epochs", whole_number("max_epochs", self.max_epochs, 1)),
            ("tolerance", real_number("tolerance", self.tolerance, 0, closed=False)),
            ("init_scale", real_number("init_scale", self.init_scale, 0)),
            ("seed", whole_number("seed", self.seed)),
        ):
            object.__setattr__(self, name, value)

    def with_seed(self, seed: int) -> "Hyperparams":
        return replace(self, seed=seed)


@dataclass
class FactorModel:
    """User and item latent factors plus the training-set mean rating, and
    the external ids of the rows when they are known. The factors are
    non-empty 2-D arrays of one width, ``k``; others raise ValueError."""

    user_factors: np.ndarray  # (num_users, k)
    item_factors: np.ndarray  # (num_items, k)
    global_mean: float = 0.0
    ids: IdMap | None = None

    def __post_init__(self):
        users, items = np.shape(self.user_factors), np.shape(self.item_factors)
        if len(users) != 2 or len(items) != 2 or users[1] != items[1] or 0 in users + items:
            raise ValueError("user and item factors must be non-empty 2-D arrays of one "
                             f"width, got shapes {users} and {items}")

    @property
    def k(self) -> int:
        return self.user_factors.shape[1]

    @property
    def num_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_factors.shape[0]

    def predict(self, u, i):
        return predict(self, u, i)


@dataclass
class TrainReport:
    """Objective trajectory of one training run, one value per epoch run."""

    objective_per_epoch: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.objective_per_epoch)


def init_model(num_users: int, num_items: int, hp: Hyperparams) -> FactorModel:
    """Seeded factor initialization, entries i.i.d. uniform on [0, init_scale].

    One draw fills a C-contiguous ``(num_users + num_items, k)`` block,
    user rows first; the model's user and item factors are its two adjacent
    row ranges. The stream is the one two draws in turn would take, so the
    values are those of a user draw followed by an item draw.
    """
    num_users = whole_number("num_users", num_users, -math.inf)
    num_items = whole_number("num_items", num_items, -math.inf)
    if num_users < 1 or num_items < 1:
        raise ValueError(f"need at least one user and one item, got num_users {num_users} "
                         f"and num_items {num_items}")
    rng = np.random.default_rng(hp.seed)
    try:
        # abs: numpy refuses a high of -0.0 (high - low < 0), which is a scale of 0
        factors = rng.uniform(0.0, abs(hp.init_scale), size=(num_users + num_items, hp.k))
    except ValueError:
        # numpy refuses a block whose byte size or k it cannot even index
        raise MemoryError(f"a ({num_users + num_items}, {hp.k}) float64 factor "
                          "block is larger than numpy can address") from None
    return FactorModel(factors[:num_users], factors[num_users:])


def predict(model: FactorModel, u, i):
    """Raw inner-product prediction, unclamped (clamping happens at
    evaluation time): a float for scalar indices, an array for 1-d index
    arrays of one shape, both from ``_kernels.predict_pairs``, so bit for bit
    what ``evaluate`` scores. A bool, string or fractional index raises ValueError."""
    # a scalar index becomes a 1-element array (np.ascontiguousarray)
    users, items = _index_array("users", u), _index_array("items", i)
    if np.shape(u) != np.shape(i):
        raise ValueError(f"users and items must have one shape, got {np.shape(u)}, {np.shape(i)}")
    preds = _kernels.predict_pairs(model.user_factors, model.item_factors, users, items)
    return float(preds[0]) if np.ndim(u) == 0 else preds


def _has_social_term(graph: TrustGraph | None, hp: Hyperparams) -> bool:
    """Whether the social penalty contributes: alpha > 0 on a graph with edges."""
    return graph is not None and hp.alpha != 0.0 and graph.num_edges > 0


class _Epoch:
    """The operands of one training, built once, and the passes of its
    epochs over them: ``terms`` and ``step``.

    ``factors`` is the training's C-contiguous ``(M + N, k)`` block, the
    user factors ``P`` in its first M rows and the item factors ``Q`` in
    the rest; ``step`` updates it in place. The object holds the train
    entries, their residual matrix ``E`` (``residual_matrix``) with ``Eᵀ``,
    which shares ``E.data``, the social Laplacian ``L``
    (``sim.laplacian()``) when the social term contributes, one scratch
    block shaped like ``factors``, and ``lam`` and ``alpha``. ``terms``
    writes the residuals at the current factors into ``E.data`` and, with
    ``keep_pull``, leaves the social pull ``alpha L @ P`` in ``pull``; the
    following ``gradients`` read both there instead of recomputing them.
    The scratch block takes the elementwise products of the L2 and social
    penalties in ``terms`` and the gradient in ``gradients``, so an epoch
    allocates no full-size temporary for them.
    """

    def __init__(self, factors: np.ndarray, train: SparseRatings, hp: Hyperparams,
                 graph: TrustGraph | None = None, sim: SimilarityTable | None = None):
        m = train.num_users
        self.factors, self.user_f, self.item_f = factors, factors[:m], factors[m:]
        self.entries = (train.users, train.items, train.values)
        self.resid = _kernels.residual_matrix(train.user_ptr, train.items, train.num_items)
        self.resid_t = self.resid.T
        social = _has_social_term(graph, hp)
        self.edges = (graph.edge_src, graph.edge_dst, sim.values) if social else None
        self.laplacian = sim.laplacian() if social else None
        self.scratch = np.empty_like(factors)
        self.scratch_user, self.scratch_item = self.scratch[:m], self.scratch[m:]
        self.lam, self.alpha = hp.lam, hp.alpha
        self.pull = None

    def terms(self, keep_pull: bool = True) -> tuple[float, float, float]:
        """The data, L2 and social terms of the objective at the current
        factors; the objective is ``(data + l2) + social``.

        With ``keep_pull`` the social term is half the pull dotted with
        ``P`` (the penalty of a quadratic form), and the pull stays for the
        next ``gradients``; without, it is ``social_penalty`` alone.
        """
        user_f, item_f = self.user_f, self.item_f
        data = 0.5 * _kernels.squared_error_sum(user_f, item_f, *self.entries,
                                                out=self.resid.data)
        l2 = 0.0
        if self.lam != 0.0:
            np.multiply(self.factors, self.factors, out=self.scratch)
            # one sum per half: a sum over the whole block rounds
            # differently, which can move a tolerance stop by an epoch
            l2 = 0.5 * self.lam * (float(self.scratch_user.sum())
                                   + float(self.scratch_item.sum()))
        if self.laplacian is None:
            return data, l2, 0.0
        if not keep_pull:
            return data, l2, 0.5 * self.alpha * _kernels.social_penalty(
                user_f, *self.edges, laplacian=self.laplacian)
        self.pull = _kernels.social_gradient(user_f, *self.edges, self.alpha,
                                             laplacian=self.laplacian)
        return data, l2, 0.5 * float(np.multiply(user_f, self.pull,
                                                 out=self.scratch_user).sum())

    def gradients(self):
        """The gradient at the factors of the last ``terms``, from the
        residuals and the pull it left, in the scratch block: ``lam * F``,
        plus ``E @ Q`` in the user rows and ``Eᵀ @ P`` in the item rows,
        plus the pull in the user rows. Returns its (d_user, d_item) views.
        """
        np.multiply(self.factors, self.lam, out=self.scratch)
        d_user, d_item = _kernels.rating_gradients(self.user_f, self.item_f, *self.entries,
                                                   resid=self.resid, resid_t=self.resid_t)
        self.scratch_user += d_user
        self.scratch_item += d_item
        if self.laplacian is not None:
            self.scratch_user += self.pull
        return self.scratch_user, self.scratch_item

    def step(self, eta: float):
        """One descent update of the factors in place, after ``terms`` with
        ``keep_pull`` at the current factors: scales the gradient by
        ``eta`` and subtracts it."""
        self.gradients()
        self.scratch *= eta
        self.factors -= self.scratch


def _factor_block(model: FactorModel) -> np.ndarray:
    """A new ``(M + N, k)`` block holding copies of the model's user and
    item factors, so that an epoch over it leaves the model's arrays as
    they are."""
    return np.concatenate((model.user_factors, model.item_factors))


def objective_basic(model: FactorModel, train: SparseRatings, hp: Hyperparams) -> float:
    """Half the squared rating error plus the L2 penalty on both factor sets."""
    data, l2, _ = _Epoch(_factor_block(model), train, hp).terms(keep_pull=False)
    return data + l2


def objective_social(model: FactorModel, train: SparseRatings, graph: TrustGraph,
                     sim: SimilarityTable, hp: Hyperparams) -> float:
    """Basic objective plus the similarity-weighted factor smoothness penalty
    over out-link edges."""
    data, l2, social = _Epoch(_factor_block(model), train, hp, graph, sim).terms(
        keep_pull=False)
    return data + l2 + social


def gradients_social(model: FactorModel, train: SparseRatings, graph: TrustGraph,
                     sim: SimilarityTable, hp: Hyperparams):
    """Analytic gradients of the social objective.

    Returns (d_user, d_item) with the factor array shapes. Each trust edge
    (u, f) with similarity s contributes alpha*s*(p_u - p_f) to the source
    row and alpha*s*(p_f - p_u) to the destination row, i.e. the out-link
    and in-link terms of the derivative; the in-link term reads the
    similarity stored on the existing edge. Computed as in a training
    epoch: ``terms`` at the factors, then ``gradients``.
    """
    epoch = _Epoch(_factor_block(model), train, hp, graph, sim)
    epoch.terms()
    return epoch.gradients()


def train(
    ratings: SparseRatings,
    hp: Hyperparams,
    graph: TrustGraph | None = None,
    sim: SimilarityTable | None = None,
) -> tuple[FactorModel, TrainReport]:
    """Fit factors by full-batch gradient descent.

    Pass graph and sim together for the social variant, or neither for the
    basic one. Stops when the relative objective change drops below
    hp.tolerance or after hp.max_epochs epochs. Raises DivergenceError if
    the objective leaves the finite range, as it does at the epoch whose
    step overflows a factor.

    One ``_Epoch`` per call holds the operands every epoch reuses, over
    the one factor block of ``init_model``. Each epoch is its ``step`` (the
    gradient from the residuals and the social pull ``alpha L @ P`` that
    the last ``terms`` left, then an in-place update of the block) and its
    ``terms`` at the new factors, so every epoch makes one residual pass.
    ``L`` is ``sim.laplacian()``, built once per table, so trainings that
    share a table share it.
    """
    if (graph is None) != (sim is None):
        raise ValueError("graph and sim must be supplied together or not at all")
    if graph is not None and graph.num_users != ratings.num_users:
        raise ValueError("graph and ratings must share the user index space")
    if graph is not None and not sim.keyed_by(graph):
        raise ValueError("sim must hold one value per edge of graph")
    if ratings.num_entries == 0:
        raise ValueError("cannot train on an empty ratings set")

    model = init_model(ratings.num_users, ratings.num_items, hp)
    model.global_mean = ratings.global_mean()
    # the model's factors are views of the block init_model drew
    epoch = _Epoch(model.user_factors.base, ratings, hp, graph, sim)
    report = TrainReport()
    eta = hp.learning_rate
    # overflow to inf/nan is detected and raised as DivergenceError below
    with np.errstate(over="ignore", invalid="ignore"):
        data, l2, social = epoch.terms()
        previous = data + l2 + social
        if not math.isfinite(previous):
            raise DivergenceError(0, hp.init_scale)
        for n in range(1, hp.max_epochs + 1):
            epoch.step(eta)
            # the last epoch's pull would feed no step
            data, l2, social = epoch.terms(keep_pull=n < hp.max_epochs)
            current = data + l2 + social
            if not math.isfinite(current):
                raise DivergenceError(n)
            report.objective_per_epoch.append(current)
            if abs(current - previous) / max(1.0, previous) < hp.tolerance:
                report.converged = True
                break
            previous = current
    return model, report


MODEL_HEADER = "SOCREC-MODEL v3"
_HEADER_LIMIT = 256  # bytes; a v3 header line is far shorter


def save_model(model: FactorModel, path):
    """Write model format v3: the ASCII line ``SOCREC-MODEL v3 K M N B``,
    then ``B`` bytes of UTF-8 ids, the M user ids and then the N item ids
    one per line, then the user rows, the item rows (both row-major) and
    the train mean as little-endian IEEE float64, ``8 * ((M + N) * K + 1)``
    bytes, so the values round-trip bit for bit. The ids are
    ``model.ids``, or the dense indices when that is None."""
    m, n, ids = model.num_users, model.num_items, model.ids
    if ids is not None and (len(ids.users), len(ids.items)) != (m, n):
        raise ValueError(f"model.ids holds {len(ids.users)} user and {len(ids.items)} "
                         f"item ids for {m} user and {n} item rows")
    names = ([*map(str, range(m)), *map(str, range(n))] if ids is None else
             [*ids.users, *ids.items])
    text = "\n".join(names) + "\n"
    if text.split() != names:
        # load_model splits the block on whitespace
        raise ValueError("every id must be non-empty and hold no whitespace")
    block = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(f"{MODEL_HEADER} {model.k} {m} {n} {len(block)}\n".encode("ascii"))
        fh.write(block)
        for values in (model.user_factors, model.item_factors, model.global_mean):
            fh.write(np.ascontiguousarray(values, dtype="<f8"))


def load_model(path) -> FactorModel:
    """Read a model of format v3, ids included (a leading UTF-8 BOM is
    skipped). Raises DataFileError on a file of another format, any format
    violation, a repeated id or a non-finite value, and when the file
    cannot be read; the file must be exactly the size its header gives,
    which is checked before anything else is read."""
    with reading(path), open(path, "rb") as fh:
        head = fh.readline(_HEADER_LIMIT)
        fields = head.removeprefix(codecs.BOM_UTF8).split()
        if fields[:2] != MODEL_HEADER.encode().split():
            raise DataFileError(f"{path}:1: not a {MODEL_HEADER} file; models written "
                                "by earlier versions must be trained again")
        if len(fields) != 6 or not head.endswith(b"\n"):
            raise DataFileError(f"{path}:1: bad model header")
        try:
            k, m, n, b = (int(x) for x in fields[2:])
        except ValueError:
            raise DataFileError(f"{path}:1: bad model dimensions") from None
        if k < 1 or m < 1 or n < 1 or b < 0:
            raise DataFileError(f"{path}:1: model dimensions must be >= 1 "
                                "and its id block size >= 0")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        need = 8 * ((m + n) * k + 1)
        if size != b + need:
            raise DataFileError(f"{path}: model has {size} bytes after its header, "
                                f"header {k} {m} {n} {b} needs {b + need}")
        names = fh.read(b).decode("utf-8").split()
        if len(names) != m + n:
            raise DataFileError(f"{path}: id block holds {len(names)} ids, "
                                f"header {k} {m} {n} {b} needs {m + n}")
        body = np.empty(need // 8, dtype="<f8")
        if fh.readinto(body) != need:
            raise DataFileError(f"{path}: model file shrank while being read")
    ids = IdMap()
    for kind, table, part in (("user", ids.users, names[:m]), ("item", ids.items, names[m:])):
        repeated = np.flatnonzero(table.add(part) != np.arange(len(part)))
        if repeated.size:
            raise DataFileError(f"{path}: {kind} id {part[repeated[0]]!r} listed twice")
    body = body.astype(np.float64, copy=False)
    finite = np.isfinite(body)
    if not finite.all():
        row = int(np.argmin(finite)) // k
        where = (f"user row {row}" if row < m else
                 f"item row {row - m}" if row < m + n else "global mean")
        raise DataFileError(f"{path}: non-finite value in {where}")
    return FactorModel(body[:m * k].reshape(m, k), body[m * k:-1].reshape(n, k),
                       float(body[-1]), ids)
