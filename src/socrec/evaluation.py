"""Metrics and experiment orchestration: method comparisons over repeated
splits, alpha-sensitivity sweeps, similarity ablations, cold-start runs,
and the friends-vs-random-peers similarity analysis.

The four training experiments return one shape, a list of
``ExperimentResult`` (a variant's metrics per seed under one train
fraction), in the order of their input grid, from one scoring loop over
the seeds' splits. Every experiment cell is deterministic given its seed;
results are written as CSV by ``write_csv`` (one row per variant and seed,
plus a summary file with means and paired t-test p-values).
"""

import logging
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._choice import choices
from .baselines import build_means, predict_item_mean, predict_user_mean
from .data import (
    RATING_MAX,
    RATING_MIN,
    DatasetSplit,
    SparseRatings,
    TrustGraph,
    check_train_fraction,
    cold_start_split,
    split_ratings,
    whole_number,
)
from .factorization import Hyperparams, train
from .similarity import SimilarityKind, build_similarity_table, pair_similarities

logger = logging.getLogger(__name__)

METHODS = ("user_mean", "item_mean", "basic_mf", "social_mf")
DEFAULT_SEEDS = (1, 2, 3, 4, 5)
DEFAULT_ALPHAS = (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
check_min_out_degree = partial(whole_number, "min_out_degree", low=1)  # the study's rule


def check_study_kind(kind: str) -> str:
    """``kind`` if the friend/peer similarity study compares it, else ValueError."""
    if kind not in ("vss", "pcc"):
        raise ValueError("similarity study supports 'vss' or 'pcc'")
    return kind


@dataclass(frozen=True)
class MetricPair:
    """Mean absolute error and root mean squared error of one evaluation."""

    mae: float
    rmse: float


@dataclass
class ExperimentResult:
    """Per-seed metrics of one variant under one train fraction: a method,
    a social weight or a similarity kind."""

    method: str
    train_fraction: float
    seeds: tuple
    per_seed: list  # MetricPair per seed, aligned with seeds

    @property
    def mean(self) -> MetricPair:
        return MetricPair(
            mae=float(np.mean([m.mae for m in self.per_seed])),
            rmse=float(np.mean([m.rmse for m in self.per_seed])),
        )


@dataclass
class SimilarityStudyResult:
    """Friends-vs-random-peers similarity comparison.

    For each qualifying user (out-degree strictly above ``min_out_degree``)
    holds the mean similarity to out-link friends and to an equally sized,
    disjoint random peer set. ``fraction_positive`` is the share of
    qualifying users whose friend mean strictly exceeds the random mean.
    """

    user_indices: np.ndarray
    friend_sim_means: np.ndarray
    random_sim_means: np.ndarray
    fraction_positive: float
    min_out_degree: int
    seed: int
    skipped_users: list


def _metrics(truths, preds) -> MetricPair:
    resid = truths - preds
    return MetricPair(
        mae=float(np.mean(np.abs(resid))),
        rmse=float(np.sqrt(np.mean(resid * resid))),
    )


def mae_rmse(pairs) -> MetricPair:
    """Metrics from raw (truth, prediction) pairs, no clamping applied."""
    arr = np.asarray(list(pairs), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot compute metrics on an empty list")
    return _metrics(arr[:, 0], arr[:, 1])


def evaluate(predictor, split: DatasetSplit, train: SparseRatings) -> MetricPair:
    """Clamped metrics over the test side of a DatasetSplit.

    The predictor is a vectorized callable ``f(users, items)``, or an
    object with such a ``predict`` method; it is called once with the test
    index arrays and must return one prediction per test entry, else
    ValueError. Predictions on users or items with no train ratings fall
    back to the global train mean (the same rule for every method), and all
    predictions are clamped to the rating range before residuals are taken.
    """
    users, items = split.test_users, split.test_items
    if users.size == 0:
        raise ValueError("cannot evaluate on an empty test set")
    preds = np.asarray(getattr(predictor, "predict", predictor)(users, items),
                       dtype=np.float64)
    if preds.shape != users.shape:
        raise ValueError(f"predictor returned shape {preds.shape}, expected {users.shape}")
    seen_user = train.user_counts() > 0
    seen_item = train.item_counts() > 0
    covered = seen_user[users] & seen_item[items]
    preds = np.where(covered, preds, train.global_mean())
    return _metrics(split.test_values, np.clip(preds, RATING_MIN, RATING_MAX))


def _score(make_split, seeds, graph, hp, train_fraction, variants) -> list:
    """One ExperimentResult per variant, in order, over the splits
    ``make_split(seed)``.

    A variant is ``(name, model)``: ``model`` is a baseline predictor of the
    split's means (``predict_user_mean`` or ``predict_item_mean``), None for
    basic MF, or ``(similarity kind, alpha)`` for social MF. Each split
    builds its means once and one table per run of variants of a kind (so
    an ablation holds one table at a time), from its own train side, and
    every model trains with the split's seed. Every seed is checked before
    the first split.
    """
    for seed in seeds:
        whole_number("seed", seed)
    if graph is None and any(isinstance(model, tuple) for _, model in variants):
        raise ValueError("social_mf requires a trust graph")
    per_seed = [[] for _ in variants]
    for seed in seeds:
        split = make_split(seed)
        train_set, hp_seed = split.train, hp.with_seed(seed)
        means = table_kind = table = None
        for scores, (name, model) in zip(per_seed, variants):
            if model is None:
                predictor, _ = train(train_set, hp_seed)
            elif isinstance(model, tuple):
                kind, alpha = model
                if kind != table_kind:
                    table_kind, table = kind, build_similarity_table(train_set, graph, kind)
                predictor, _ = train(train_set, replace(hp_seed, alpha=alpha), graph, table)
            else:
                if means is None:
                    means = build_means(train_set)
                predictor = partial(model, means)
            scores.append(evaluate(predictor, split, train_set))
            logger.info("%s fraction=%g seed=%s done", name, train_fraction, seed)
    return [ExperimentResult(name, train_fraction, tuple(seeds), scores)
            for (name, _), scores in zip(variants, per_seed)]


def _methods(sim_kind, alpha) -> list:
    """The variants of METHODS, in order."""
    return list(zip(METHODS, (predict_user_mean, predict_item_mean, None, (sim_kind, alpha))))


def run_comparison(
    ratings: SparseRatings,
    graph: TrustGraph,
    fractions,
    seeds,
    hp: Hyperparams,
    sim_kind: SimilarityKind = SimilarityKind.pcc(),
) -> list:
    """Split x seed sweep of all four methods; per-split ``sim_kind`` table.

    Each (fraction, seed) cell re-splits the data, rebuilds the similarity
    table from the train side and retrains; results are aggregated per
    method and fraction.
    """
    if not fractions or not seeds:
        raise ValueError("need at least one fraction and one seed")
    for fraction in fractions:
        check_train_fraction(fraction)
    return [result for fraction in fractions
            for result in _score(partial(split_ratings, ratings, fraction), seeds, graph, hp,
                                 fraction, _methods(sim_kind, hp.alpha))]


def run_alpha_sweep(
    ratings: SparseRatings,
    graph: TrustGraph,
    alphas,
    hp: Hyperparams,
    train_fraction: float = 0.9,
    seed: int = 1,
    sim_kind: SimilarityKind = SimilarityKind.pcc(),
) -> list:
    """Metrics of the social model across social-weight values.

    One full train/evaluate per value, one ExperimentResult per value in
    input order, labelled ``alpha=<value>``; split, seed and similarity
    table are held fixed, so the zero point coincides exactly with the
    basic model.
    """
    if not alphas:
        raise ValueError("need at least one alpha")
    for alpha in alphas:
        replace(hp, alpha=alpha)  # Hyperparams' rule, before any training
    return _score(partial(split_ratings, ratings, train_fraction), (seed,), graph, hp,
                  train_fraction, [(f"alpha={a:g}", (sim_kind, float(a))) for a in alphas])


def run_similarity_ablation(
    ratings: SparseRatings,
    graph: TrustGraph,
    kinds,
    hp: Hyperparams,
    train_fraction: float = 0.9,
    seed: int = 1,
) -> list:
    """Social model under different similarity kinds, all else held fixed;
    one ExperimentResult per kind in input order, labelled by the kind."""
    if not kinds:
        raise ValueError("need at least one similarity kind")
    return _score(partial(split_ratings, ratings, train_fraction), (seed,), graph, hp,
                  train_fraction, [(kind.label(), (kind, hp.alpha)) for kind in kinds])


def run_cold_start(
    ratings: SparseRatings,
    graph: TrustGraph,
    threshold: int,
    hp: Hyperparams,
    seeds=DEFAULT_SEEDS,
    sim_kind: SimilarityKind = SimilarityKind.pcc(),
) -> list:
    """All four methods evaluated on the cold-start held-out ratings only.

    Users below the rating-count threshold each hold out one rating; all
    other ratings stay in train. Returns an empty list (with a logged
    notice) when the data has no cold-start users.
    """
    if cold_start_split(ratings, threshold).num_test == 0:
        logger.warning("no cold-start users below threshold %d; nothing to do", threshold)
        return []
    return _score(partial(cold_start_split, ratings, threshold), seeds, graph, hp,
                  float("nan"), _methods(sim_kind, hp.alpha))


def run_similarity_study(
    ratings: SparseRatings,
    graph: TrustGraph,
    min_out_degree: int = 5,
    seed: int = 0,
    kind: str = "vss",
) -> SimilarityStudyResult:
    """Compare mean similarity to trusted friends against random peers.

    For every user whose out-degree strictly exceeds ``min_out_degree``,
    draws a random peer set of the same size (disjoint from the friend set,
    excluding the user) and averages the pairwise similarity to both sets.
    Users without enough eligible peers are skipped with a notice.

    The peer sets are drawn from ``np.random.default_rng(seed)`` in user
    order: the set of a user with ``d`` friends is the eligible users (in
    ascending order) at the ranks ``rng.choice(n_eligible, d,
    replace=False)``, exactly, which ``tests/test_evaluation.py`` pins
    against the installed numpy.
    """
    min_out_degree = check_min_out_degree(min_out_degree)
    check_study_kind(kind)
    rng = np.random.default_rng(seed := whole_number("seed", seed))
    num_users = graph.num_users
    degrees = graph.out_degrees()
    users = np.nonzero(degrees > min_out_degree)[0]
    # a user excludes its friends and itself; the graph has no self-loops
    # or repeated edges, so that is deg + 1 distinct users
    num_eligible = num_users - degrees[users] - 1
    keep = num_eligible >= degrees[users]
    kept, skipped = users[keep], users[~keep].tolist()
    if skipped:
        logger.warning(
            "similarity study skipped %d users with too few eligible peers", len(skipped)
        )
    deg = degrees[kept]

    # every peer set in user order, as ranks among the owner's eligible users
    ranks = choices(rng, deg, num_eligible[keep])

    # the kept users' friend lists, concatenated, with each entry's owner
    # (position in kept) and its index within the owner's list
    fr_start = np.cumsum(deg) - deg
    owner = np.repeat(np.arange(kept.size), deg)
    local = np.arange(ranks.size) - fr_start[owner]
    owner_user = kept[owner]
    friends = graph.edge_dst[graph.out_ptr[owner_user] + local]

    # each owner's excluded users in ascending order, scattered: friends
    # above the owner move up one slot to make room for the owner itself
    ex_start = fr_start + np.arange(kept.size)
    above = friends > owner_user
    excluded = np.empty(ranks.size + kept.size, dtype=np.int64)
    excluded[ex_start[owner] + local + above] = friends
    excluded[ex_start + np.bincount(owner[~above], minlength=kept.size)] = kept

    # the rank-r eligible user is r plus the count of excluded users below
    # it, and excluded[j] - j counts the eligible users below excluded[j];
    # keying by owner turns every owner's lookup into one searchsorted
    span = num_users + 1
    ex_owner = np.repeat(np.arange(kept.size), deg + 1)
    keys = ex_owner * span + (excluded - (np.arange(excluded.size) - ex_start[ex_owner]))
    shift = np.searchsorted(keys, owner * span + ranks, side="right") - ex_start[owner]

    # score all pairs in one call: each kept user's friends, then its peers
    slot = local + 2 * fr_start[owner]
    dst = np.empty(2 * ranks.size, dtype=np.int64)
    dst[slot] = friends
    dst[slot + deg[owner]] = ranks + shift
    sizes = np.repeat(deg, 2)
    sims = pair_similarities(ratings, kind, np.repeat(kept, 2 * deg), dst)
    # one sum per peer set, each from its start to the next set's; every
    # set holds at least one user, so no segment is empty
    starts = np.cumsum(sizes) - sizes
    means = np.add.reduceat(sims, starts) / sizes if sizes.size else np.empty(0)
    friend_arr, random_arr = means[0::2], means[1::2]
    fraction = float(np.mean(friend_arr > random_arr)) if friend_arr.size else 0.0
    return SimilarityStudyResult(
        user_indices=np.asarray(kept, dtype=np.int64),
        friend_sim_means=friend_arr,
        random_sim_means=random_arr,
        fraction_positive=fraction,
        min_out_degree=min_out_degree,
        seed=seed,
        skipped_users=skipped,
    )


# --------------------------------------------------------------------------
# statistics and CSV output
# --------------------------------------------------------------------------

def paired_t_pvalue(sample_a, sample_b):
    """Two-sided paired t-test p-value, or None when undefined.

    None for fewer than two pairs, samples of unequal size, or identical
    samples (their t statistic is 0/0, a NaN p-value). The arithmetic is
    the one ``scipy.stats.ttest_rel`` runs (scipy 1.17): a one-sample
    t-test of ``a - b`` against 0 with the Student-t tail from
    ``scipy.special.stdtr``, so the p-values are equal bit for bit.
    ``scipy.stats`` is not imported, because its import adds about 1 s and
    45 MB to a process (2 vCPUs); its "catastrophic cancellation"
    RuntimeWarning on nearly identical samples is therefore not raised.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or a.size != b.size:
        return None
    from scipy.special import stdtr

    d = a - b
    n = d.size
    mean = np.mean(d)
    var = np.mean((d - mean) ** 2) * (n / (n - 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = mean / np.sqrt(var / n)
    p = float(2 * stdtr(n - 1.0, -np.abs(t)))
    return None if np.isnan(p) else p


def write_csv(path, header, rows):
    """A CSV file: the ``header`` names on one line, then one line per row.
    A float is written as ``.10g``, None as an empty field and any other
    value as its ``str``; the file holds nothing else, so a rerun with the
    same inputs writes the same bytes."""
    def field(value):
        return "" if value is None else f"{value:.10g}" if isinstance(value, float) else str(value)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(field, row)) + "\n" for row in rows)


def write_rows_csv(path, experiment, rows):
    """Rows of (variant, seed, train_fraction, MetricPair), one CSV line each."""
    write_csv(path, ("experiment", "variant", "seed", "train_fraction", "mae", "rmse"),
              ((experiment, variant, seed, fraction, pair.mae, pair.rmse)
               for variant, seed, fraction, pair in rows))


def write_summary_csv(path, experiment, rows):
    """Rows of (variant, train_fraction, mae, rmse, p_mae, p_rmse); the
    p-values are written as ``.6g``."""
    write_csv(path, ("experiment", "variant", "train_fraction", "mae", "rmse", "p_mae", "p_rmse"),
              ((experiment, variant, fraction, mae, rmse,
                *(None if p is None else f"{p:.6g}" for p in (p_mae, p_rmse)))
               for variant, fraction, mae, rmse, p_mae, p_rmse in rows))


def comparison_summary(results):
    """Summary rows with paired t-test p-values against the social model."""
    rows = []
    # keyed on repr so the NaN fraction of cold-start runs still matches
    social = {
        repr(r.train_fraction): r for r in results if r.method == "social_mf"
    }
    for r in results:
        ref = social.get(repr(r.train_fraction))
        if ref is None or r.method == "social_mf":
            p_mae = p_rmse = None
        else:
            p_mae = paired_t_pvalue(
                [m.mae for m in r.per_seed], [m.mae for m in ref.per_seed]
            )
            p_rmse = paired_t_pvalue(
                [m.rmse for m in r.per_seed], [m.rmse for m in ref.per_seed]
            )
        mean = r.mean
        rows.append((r.method, r.train_fraction, mean.mae, mean.rmse, p_mae, p_rmse))
    return rows
