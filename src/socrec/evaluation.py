"""Metrics and experiment orchestration: method comparisons over repeated
splits, alpha-sensitivity sweeps, similarity ablations, cold-start runs,
and the friends-vs-random-peers similarity analysis.

The four training experiments return one shape, a list of
``ExperimentResult`` (a variant's metrics per seed under one train
fraction), in the order of their input grid. Every experiment cell is
deterministic given its seed; results can be written as CSV (one row per
variant and seed, plus a summary file with means and paired t-test
p-values).
"""

import logging
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import partial

import numpy as np

from .baselines import build_means, predict_item_mean, predict_user_mean
from .data import (
    RATING_MAX,
    RATING_MIN,
    DatasetSplit,
    SparseRatings,
    TrustGraph,
    cold_start_split,
    split_ratings,
)
from .factorization import Hyperparams, train
from .similarity import SimilarityKind, build_similarity_table, pair_similarities

logger = logging.getLogger(__name__)

METHODS = ("user_mean", "item_mean", "basic_mf", "social_mf")
DEFAULT_SEEDS = (1, 2, 3, 4, 5)
DEFAULT_ALPHAS = (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
STUDY_KINDS = ("vss", "pcc")  # the similarities the friend/peer study compares


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


def _fit_and_score(split, graph, sim_kind, hp):
    """Train and evaluate every method of METHODS on one split. Returns
    {method: MetricPair}."""
    if graph is None:
        raise ValueError("social_mf requires a trust graph")
    train_set = split.train
    means = build_means(train_set)
    basic, _ = train(train_set, hp)
    social, _ = train(train_set, hp, graph, build_similarity_table(train_set, graph, sim_kind))
    return {
        "user_mean": evaluate(partial(predict_user_mean, means), split, train_set),
        "item_mean": evaluate(partial(predict_item_mean, means), split, train_set),
        "basic_mf": evaluate(basic, split, train_set),
        "social_mf": evaluate(social, split, train_set),
    }


def _score_seeds(make_split, seeds, graph, sim_kind, hp, train_fraction, label):
    """One ExperimentResult per method over the splits ``make_split(seed)``."""
    per_method = {m: [] for m in METHODS}
    for seed in seeds:
        cell = _fit_and_score(make_split(seed), graph, sim_kind, hp.with_seed(seed))
        for method, pair in cell.items():
            per_method[method].append(pair)
        logger.info("%s seed=%s done", label, seed)
    return [
        ExperimentResult(
            method=method,
            train_fraction=train_fraction,
            seeds=tuple(seeds),
            per_seed=per_method[method],
        )
        for method in METHODS
    ]


def run_comparison(
    ratings: SparseRatings,
    graph: TrustGraph,
    fractions,
    seeds,
    hp: Hyperparams,
    sim_kind: SimilarityKind = SimilarityKind.pcc(),
) -> list:
    """Split x seed sweep of all four methods; per-split PCC similarity.

    Each (fraction, seed) cell re-splits the data, rebuilds the similarity
    table from the train side and retrains; results are aggregated per
    method and fraction.
    """
    if not fractions or not seeds:
        raise ValueError("need at least one fraction and one seed")
    results = []
    for fraction in fractions:
        results += _score_seeds(partial(split_ratings, ratings, fraction), seeds, graph,
                                sim_kind, hp, fraction, f"comparison fraction={fraction}")
    return results


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
    split = split_ratings(ratings, train_fraction, seed)
    sim = build_similarity_table(split.train, graph, sim_kind)
    out = []
    for alpha in alphas:
        model, _ = train(split.train, replace(hp, alpha=float(alpha), seed=seed), graph, sim)
        out.append(ExperimentResult(f"alpha={alpha:g}", train_fraction, (seed,),
                                    [evaluate(model, split, split.train)]))
        logger.info("alpha sweep alpha=%s done", alpha)
    return out


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
    split = split_ratings(ratings, train_fraction, seed)
    hp_run = hp.with_seed(seed)
    out = []
    for kind in kinds:
        sim = build_similarity_table(split.train, graph, kind)
        model, _ = train(split.train, hp_run, graph, sim)
        out.append(ExperimentResult(kind.label(), train_fraction, (seed,),
                                    [evaluate(model, split, split.train)]))
        logger.info("ablation kind=%s done", kind.label())
    return out


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
    if threshold < 2:
        raise ValueError(f"threshold must be >= 2, got {threshold}")
    counts = ratings.user_counts()
    if not np.any((counts >= 1) & (counts < threshold)):
        logger.warning("no cold-start users below threshold %d; nothing to do", threshold)
        return []
    return _score_seeds(partial(cold_start_split, ratings, threshold), seeds, graph,
                        sim_kind, hp, float("nan"), "cold-start")


# Generator.choice(n, d, replace=False) shuffles the tail of arange(n) when
# n > _TAIL_MIN_POP and d > n // _TAIL_RATIO, else it runs Floyd's algorithm
_TAIL_MIN_POP = 10000
_TAIL_RATIO = 50
# a shuffle level run as one numpy round costs about as much as tens of
# Python swaps, so levels with fewer active users than this run in lists
_DEEP_USERS = 32


def _peer_ranks(rng, deg, num_eligible) -> np.ndarray:
    """``rng.choice(n, d, replace=False)`` for each (d, n) pair in turn,
    concatenated, bit for bit, and leaving ``rng`` in the same state.

    choice makes every draw with the bounded draw that ``rng.integers(0,
    high)`` makes element by element for an int64 ``high`` array (a bound
    of 1 consumes nothing), so one such call over all users' bounds, in user
    order, is the whole stream. Floyd's branch draws pick t from [0, n-d+t],
    replaces a pick already taken by n-d+t, then swaps position i with a
    draw from [0, i] for i = d-1 .. 1. The tail branch swaps position i of
    arange(n) with a draw from [0, i] for i = n-1 .. max(n-d, 1) and keeps
    the last d entries.
    """
    deg = np.asarray(deg, dtype=np.int64)
    n = np.asarray(num_eligible, dtype=np.int64)
    users = np.arange(deg.size)
    tail = (n > _TAIL_MIN_POP) & (deg > n // _TAIL_RATIO)
    # each user's bounds: Floyd's n-d+1 .. n then the shuffle's d .. 2, or
    # the tail's n .. max(n-d, 1)+1
    count = np.where(tail, np.minimum(deg, n - 1), np.maximum(2 * deg - 1, 0))
    seg = np.cumsum(count) - count
    o = np.repeat(users, count)
    k = np.arange(o.size) - seg[o]
    d, m = deg[o], n[o]
    draws = rng.integers(0, np.where(tail[o], m - k, np.where(k < d, m - d + 1 + k, 2 * d - k)))

    # Floyd's picks are the raw draws unless a user's draws repeat
    start = np.cumsum(deg) - deg
    owner = np.repeat(users, deg)
    local = np.arange(owner.size) - start[owner]
    floyd = ~tail[owner]
    ranks = np.empty(owner.size, dtype=np.int64)
    ranks[floyd] = draws[(seg[owner] + local)[floyd]]
    span = int(n.max(initial=0)) + 1
    keys = np.sort((owner * span + ranks)[floyd])
    repeats = keys[1:][keys[1:] == keys[:-1]] // span
    for u in np.unique(repeats).tolist():
        du, nu, s = int(deg[u]), int(n[u]), int(seg[u])
        picks, taken = draws[s:s + du].tolist(), set()
        for t, v in enumerate(picks):
            if v in taken:
                picks[t] = v = nu - du + t
            taken.add(v)
        ranks[start[u]:start[u] + du] = picks

    # Fisher–Yates, one level i at a time over the users with d > i, by
    # degree descending; the draw for level i sits at seg + 2d - 1 - i.
    # Levels from top up have fewer than _DEEP_USERS users (a heavy-tailed
    # degree list has hundreds of them), so those users swap them in a list
    # first; each user's swaps still run in descending i
    fy = np.nonzero(~tail)[0]
    fy = fy[np.argsort(-deg[fy], kind="stable")]
    fdeg = deg[fy]
    top = max(int(fdeg[_DEEP_USERS - 1]), 1) if fy.size >= _DEEP_USERS else 1
    for u in fy[:_DEEP_USERS].tolist():
        du, s, r = int(deg[u]), int(seg[u]), int(start[u])
        if du <= top:
            break
        part = ranks[r:r + du].tolist()
        for i, j in zip(range(du - 1, top - 1, -1), draws[s + du:s + 2 * du - top].tolist()):
            part[i], part[j] = part[j], part[i]
        ranks[r:r + du] = part
    active = fy.size - np.cumsum(np.bincount(fdeg))
    base, last = start[fy], seg[fy] + 2 * fdeg - 1
    for i in range(top - 1, 0, -1):
        a = base[:active[i]]
        hi, lo = a + i, a + draws[last[:active[i]] - i]
        ranks[hi], ranks[lo] = ranks[lo], ranks[hi]

    # tail users: the swaps on arange(n), kept sparse in a dict
    for u in np.nonzero(tail)[0].tolist():
        du, nu, s = int(deg[u]), int(n[u]), int(seg[u])
        moved = {}
        for i, j in zip(range(nu - 1, 0, -1), draws[s:s + int(count[u])].tolist()):
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        ranks[start[u]:start[u] + du] = [moved.get(i, i) for i in range(nu - du, nu)]
    return ranks


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
    if min_out_degree < 1:
        raise ValueError(f"min_out_degree must be >= 1, got {min_out_degree}")
    if kind not in STUDY_KINDS:
        raise ValueError("similarity study supports 'vss' or 'pcc'")
    rng = np.random.default_rng(seed)
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
    ranks = _peer_ranks(rng, deg, num_eligible[keep])

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


def _timestamp_header(experiment):
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return f"# socrec {experiment} generated {stamp}\n"


def write_rows_csv(path, experiment, rows):
    """Rows of (variant, seed, train_fraction, MetricPair), one CSV line each."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_timestamp_header(experiment))
        fh.write("experiment,variant,seed,train_fraction,mae,rmse\n")
        for variant, seed, fraction, pair in rows:
            fh.write(
                f"{experiment},{variant},{seed},{fraction:.10g},"
                f"{pair.mae:.10g},{pair.rmse:.10g}\n"
            )


def write_summary_csv(path, experiment, rows):
    """Rows of (variant, train_fraction, mae, rmse, p_mae, p_rmse)."""

    def fmt_p(p):
        return f"{p:.6g}" if p is not None else ""

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_timestamp_header(experiment))
        fh.write("experiment,variant,train_fraction,mae,rmse,p_mae,p_rmse\n")
        for variant, fraction, mae, rmse, p_mae, p_rmse in rows:
            fh.write(
                f"{experiment},{variant},{fraction:.10g},{mae:.10g},{rmse:.10g},"
                f"{fmt_p(p_mae)},{fmt_p(p_rmse)}\n"
            )


def write_metric_column_csv(path, experiment, column, pairs):
    """Two-column CSV (e.g. alpha,mae) for external plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_timestamp_header(experiment))
        fh.write(f"alpha,{column}\n")
        for alpha, value in pairs:
            fh.write(f"{alpha:.10g},{value:.10g}\n")


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
