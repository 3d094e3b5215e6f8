"""Latent-factor optimization core.

Two objectives share one trainer: plain L2-regularized matrix factorization,
and the social variant that adds a smoothness penalty pulling each user's
factor toward the factors of the users they trust, weighted by similarity.
Training is full-batch gradient descent with a constant learning rate; runs
are fully deterministic given (seed, hyperparameters, data).

Factors are stored row-per-user / row-per-item (shape (M, K) and (N, K));
each row is one latent column vector of the factor matrices.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .data import DataFileError, SparseRatings, TrustGraph, reading
from .similarity import SimilarityTable


class DivergenceError(RuntimeError):
    """Training produced non-finite factors (learning rate too high)."""

    def __init__(self, epoch: int):
        super().__init__(
            f"non-finite factors at epoch {epoch}; lower the learning rate"
        )
        self.epoch = epoch


@dataclass(frozen=True)
class Hyperparams:
    """Training settings; defaults follow the reproduction configuration."""

    k: int = 10
    lam: float = 3.0
    alpha: float = 0.01
    learning_rate: float = 0.001
    max_epochs: int = 300
    tolerance: float = 1e-5
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for label, value in (("lambda", self.lam), ("alpha", self.alpha),
                             ("learning_rate", self.learning_rate),
                             ("tolerance", self.tolerance), ("init_scale", self.init_scale)):
            if not math.isfinite(value):
                raise ValueError(f"{label} must be finite, got {value}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.init_scale < 0:
            raise ValueError(f"init_scale must be >= 0, got {self.init_scale}")

    def with_seed(self, seed: int) -> "Hyperparams":
        return replace(self, seed=seed)


@dataclass
class FactorModel:
    """User and item latent factors plus the training-set mean rating."""

    user_factors: np.ndarray  # (num_users, k)
    item_factors: np.ndarray  # (num_items, k)
    k: int
    global_mean: float = 0.0

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
    """Objective trajectory of one training run."""

    objective_per_epoch: list[float] = field(default_factory=list)
    epochs_run: int = 0
    converged: bool = False


def init_model(num_users: int, num_items: int, hp: Hyperparams) -> FactorModel:
    """Seeded factor initialization, entries i.i.d. uniform on [0, init_scale]."""
    if num_users < 1 or num_items < 1:
        raise ValueError("need at least one user and one item")
    rng = np.random.default_rng(hp.seed)
    user_f = rng.uniform(0.0, hp.init_scale, size=(num_users, hp.k))
    item_f = rng.uniform(0.0, hp.init_scale, size=(num_items, hp.k))
    return FactorModel(user_f, item_f, hp.k)


def predict(model: FactorModel, u, i):
    """Raw inner-product prediction, unclamped (clamping happens at
    evaluation time). Accepts scalars or index arrays."""
    if np.ndim(u) == 0 and np.ndim(i) == 0:
        return float(model.user_factors[u] @ model.item_factors[i])
    users = np.asarray(u, dtype=np.int64)
    items = np.asarray(i, dtype=np.int64)
    return _kernels.predict_pairs(
        model.user_factors, model.item_factors, users, items
    )


def _scratch(model: FactorModel, state):
    """Arrays shaped like the user and item factors for products that are
    summed or added at once: the state's, reused every epoch, or new ones."""
    if state is None:
        return np.empty_like(model.user_factors), np.empty_like(model.item_factors)
    return state.user_scratch, state.item_scratch


def _l2_penalty(model: FactorModel, lam: float, scratch) -> float:
    if lam == 0.0:
        return 0.0
    uf, it = model.user_factors, model.item_factors
    return 0.5 * lam * (float(np.sum(np.multiply(uf, uf, out=scratch[0])))
                        + float(np.sum(np.multiply(it, it, out=scratch[1]))))


def _has_social_term(graph: TrustGraph | None, hp: Hyperparams) -> bool:
    """Whether the social penalty contributes: alpha > 0 on a graph with edges."""
    return graph is not None and hp.alpha != 0.0 and graph.num_edges > 0


@dataclass
class _EpochState:
    """Operands ``train`` builds once and hands to every epoch's objective
    and gradients.

    ``resid`` is the residual matrix over the train pattern. Each objective
    writes the residuals at the current factors into it, and the following
    ``gradients_social`` reads them there instead of making its own pass.
    While ``keep_pull`` is set, the objective leaves the social gradient
    alpha L @ P in ``pull`` for the next step and takes its penalty from it;
    with no next step it takes the penalty alone. ``user_scratch`` and
    ``item_scratch`` take the elementwise products of the L2 and social
    penalties and the ``lam * factors`` of the gradients, so an epoch
    allocates no full-size temporary for them.
    """

    resid: object
    user_scratch: np.ndarray
    item_scratch: np.ndarray
    keep_pull: bool = True
    pull: np.ndarray | None = None


def objective_basic(model: FactorModel, train: SparseRatings, hp: Hyperparams, *,
                    state: _EpochState | None = None) -> float:
    """Half the squared rating error plus the L2 penalty on both factor sets."""
    sse = _kernels.squared_error_sum(
        model.user_factors, model.item_factors,
        train.users, train.items, train.values,
        out=None if state is None else state.resid.data,
    )
    return 0.5 * sse + _l2_penalty(model, hp.lam, _scratch(model, state))


def objective_social(
    model: FactorModel,
    train: SparseRatings,
    graph: TrustGraph,
    sim: SimilarityTable,
    hp: Hyperparams,
    *,
    state: _EpochState | None = None,
) -> float:
    """Basic objective plus the similarity-weighted factor smoothness penalty
    over out-link edges."""
    value = objective_basic(model, train, hp, state=state)
    if not _has_social_term(graph, hp):
        return value
    user_f = model.user_factors
    edges = (graph.edge_src, graph.edge_dst, sim.values)
    if state is None or not state.keep_pull:
        return value + 0.5 * hp.alpha * _kernels.social_penalty(
            user_f, *edges, laplacian=sim.laplacian())
    # the penalty of a quadratic form is half its gradient dotted with P
    state.pull = _kernels.social_gradient(user_f, *edges, hp.alpha, laplacian=sim.laplacian())
    return value + 0.5 * float(np.sum(np.multiply(user_f, state.pull, out=state.user_scratch)))


def gradients_social(
    model: FactorModel,
    train: SparseRatings,
    graph: TrustGraph,
    sim: SimilarityTable,
    hp: Hyperparams,
    *,
    state: _EpochState | None = None,
):
    """Analytic gradients of the social objective.

    Returns (d_user, d_item) with the factor array shapes. Each trust edge
    (u, f) with similarity s contributes alpha*s*(p_u - p_f) to the source
    row and alpha*s*(p_f - p_u) to the destination row, i.e. the out-link
    and in-link terms of the derivative; the in-link term reads the
    similarity stored on the existing edge. With ``state``, the residuals
    and the social pull are those the last objective left there.
    """
    d_user, d_item = _kernels.rating_gradients(
        model.user_factors, model.item_factors,
        train.users, train.items, train.values,
        resid=None if state is None else state.resid,
    )
    if hp.lam != 0.0:
        # lam * factors is rounded before it is added, as in d + lam * f
        for d, f, scaled in zip((d_user, d_item), (model.user_factors, model.item_factors),
                                _scratch(model, state)):
            d += np.multiply(f, hp.lam, out=scaled)
    if _has_social_term(graph, hp):
        d_user += state.pull if state is not None else _kernels.social_gradient(
            model.user_factors, graph.edge_src, graph.edge_dst, sim.values, hp.alpha,
            laplacian=sim.laplacian())
    return d_user, d_item


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
    factors or the objective leave the finite range.

    The residuals and the social pull ``alpha L @ P`` computed for the
    objective after an update are reused for the next update's gradient
    (see ``_EpochState``), so every epoch makes one residual pass. ``L`` is
    ``sim.laplacian()``, built once per table, so trainings that share a
    table share it. The update scales the gradients and subtracts them in
    place.
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
    state = _EpochState(
        _kernels.residual_matrix(ratings.user_ptr, ratings.items, ratings.num_items),
        *_scratch(model, None))

    def objective() -> float:
        if graph is None:
            return objective_basic(model, ratings, hp, state=state)
        return objective_social(model, ratings, graph, sim, hp, state=state)

    report = TrainReport()
    previous = objective()
    eta = hp.learning_rate
    # overflow to inf/nan is detected and raised as DivergenceError below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, hp.max_epochs + 1):
            d_user, d_item = gradients_social(model, ratings, graph, sim, hp, state=state)
            d_user *= eta
            d_item *= eta
            model.user_factors -= d_user
            model.item_factors -= d_item
            if not (np.isfinite(model.user_factors).all()
                    and np.isfinite(model.item_factors).all()):
                raise DivergenceError(epoch)
            state.keep_pull = epoch < hp.max_epochs
            current = objective()
            if not np.isfinite(current):
                raise DivergenceError(epoch)
            report.objective_per_epoch.append(current)
            report.epochs_run = epoch
            if abs(current - previous) / max(1.0, previous) < hp.tolerance:
                report.converged = True
                break
            previous = current
    return model, report


MODEL_HEADER = "SOCREC-MODEL v1"


def save_model(model: FactorModel, path):
    """Write the text model format: header, user rows, item rows, mean.

    Values carry 17 significant digits for exact float64 round-trips.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MODEL_HEADER} {model.k} {model.num_users} {model.num_items}\n")
        for factors in (model.user_factors, model.item_factors):
            rows, cols = factors.shape
            row = " ".join(["%.17g"] * cols) + "\n"
            fh.write((row * rows) % tuple(factors.ravel().tolist()))
        fh.write(f"{model.global_mean:.17g}\n")


def load_model(path) -> FactorModel:
    """Parse a saved model; raises DataFileError on any format violation or
    non-finite value, and when the file cannot be read."""
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFileError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 5 or " ".join(head[:2]) != MODEL_HEADER:
        raise DataFileError(f"{path}:1: bad model header")
    try:
        k, m, n = (int(x) for x in head[2:])
    except ValueError:
        raise DataFileError(f"{path}:1: bad model dimensions") from None
    if k < 1 or m < 1 or n < 1 or len(lines) != 1 + m + n + 1:
        raise DataFileError(f"{path}: model body does not match header")

    def parse_rows(rows, count, offset):
        out = np.empty((count, k))
        for r, line in enumerate(rows):
            parts = line.split()
            if len(parts) != k:
                raise DataFileError(f"{path}:{offset + r}: expected {k} values")
            try:
                out[r] = [float(p) for p in parts]
            except ValueError:
                raise DataFileError(f"{path}:{offset + r}: non-numeric factor") from None
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
        if bad.size:
            raise DataFileError(f"{path}:{offset + bad[0]}: non-finite factor")
        return out

    user_f = parse_rows(lines[1:1 + m], m, 2)
    item_f = parse_rows(lines[1 + m:1 + m + n], n, 2 + m)
    try:
        mean = float(lines[1 + m + n])
    except ValueError:
        raise DataFileError(f"{path}:{2 + m + n}: non-numeric global mean") from None
    if not np.isfinite(mean):
        raise DataFileError(f"{path}:{2 + m + n}: non-finite global mean")
    return FactorModel(user_f, item_f, k, mean)
