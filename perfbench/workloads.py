"""The three benchmark workloads: how their inputs are generated and the
script of public calls each timed iteration makes.

Every workload starts from files on disk: set-up writes the seeded ratings
and trust TSVs (plus a control or cohort trust file where the script needs
one), and the script receives only those paths.
"""

from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

RATINGS_FILE = "ratings.tsv"
TRUST_FILE = "trust.tsv"
EXTRA_TRUST_FILE = "extra-trust.tsv"

# stage tags that feed end-to-end metrics
PREPARE = "prepare"
SOCIAL = "social"
BASIC = "basic"
STUDY = "study"


@dataclass(frozen=True)
class Workload:
    name: str
    num_users: int
    num_items: int
    ratings_per_user: int
    out_degree: int

    def dataset_params(self, seed: int) -> dict:
        """``clustered_dataset`` arguments; its defaults (10 clusters, 90 %
        intra-cluster edges, noise 0.5) are the acceptance suite's."""
        return dict(num_users=self.num_users, num_items=self.num_items,
                    ratings_per_user=self.ratings_per_user, out_degree=self.out_degree,
                    seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        # the acceptance suite's PLANTED parameters (its seed is 100); why each
        # workload was chosen is recorded in BENCHMARK.json and README.md
        Workload("planted-200", num_users=200, num_items=8, ratings_per_user=5,
                 out_degree=8),
        Workload("pipeline-3k", num_users=3000, num_items=1200, ratings_per_user=20,
                 out_degree=8),
        Workload("graph-20k", num_users=20000, num_items=8000, ratings_per_user=20,
                 out_degree=8),
    )
}

# planted-200 runs the acceptance hyperparameters over the acceptance alpha
# grid; the CLI's default grid reaches 10 and diverges at this learning rate.
# The suite trains up to 800 epochs; 200 keep an iteration near 3 s, so a
# run holds enough iterations for steady medians of its short stages.
PLANTED_EPOCHS = 200
PLANTED_HP = dict(k=8, lam=0.1, alpha=0.0, learning_rate=0.01, max_epochs=PLANTED_EPOCHS,
                  tolerance=1e-9, init_scale=0.1)
PLANTED_ALPHAS = (0.01, 0.1, 0.5, 1.0)
# the larger workloads train a fixed epoch budget with a tolerance no run
# meets, so every iteration does the same amount of work. They train two
# social/basic pairs (initialization seeds 1 and 2), one on each side of the
# similarity study, so the epoch samples spread over the iteration.
FIXED_BUDGET_HP = dict(k=10, lam=3.0, alpha=0.01, learning_rate=0.001,
                       tolerance=1e-300, init_scale=0.1)
PIPELINE_EPOCHS = 10
GRAPH_EPOCHS = 3
# graph-20k runs the similarity study on the out-links of a seeded cohort:
# the study draws peers with one setdiff over all users per qualifying
# user, so over all 20k users it takes minutes
GRAPH_STUDY_COHORT = 500
SPLIT_SEED = 1


def generate(workload: Workload, seed: int, out_dir: Path):
    """Write the workload's input files for one seed (the set-up step)."""
    import numpy as np

    from socrec.data import save_ratings
    from socrec.synthetic import clustered_dataset, shuffled_graph

    ratings, graph, _ = clustered_dataset(**workload.dataset_params(seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    save_ratings(ratings, out_dir / RATINGS_FILE)
    _write_trust(out_dir / TRUST_FILE, graph.edge_src, graph.edge_dst)
    if workload.name == "planted-200":
        # the no-homophily control graph of acceptance criterion 7
        control = shuffled_graph(graph, seed=9)
        _write_trust(out_dir / EXTRA_TRUST_FILE, control.edge_src, control.edge_dst)
    elif workload.name == "graph-20k":
        rng = np.random.default_rng(seed)
        cohort = rng.choice(graph.num_users, size=GRAPH_STUDY_COHORT, replace=False)
        keep = np.isin(graph.edge_src, cohort)
        _write_trust(out_dir / EXTRA_TRUST_FILE, graph.edge_src[keep], graph.edge_dst[keep])


def _write_trust(path, src, dst):
    with open(path, "w", encoding="utf-8") as fh:
        for s, t in zip(src.tolist(), dst.tolist()):
            fh.write(f"{s}\t{t}\n")


def run_script(workload: Workload, run):
    """One timed iteration: the workload's public calls, in order, through
    ``run.op`` (which times, counts and checks each of them)."""
    SCRIPTS[workload.name](run, Path(run.data_dir))


def _load_and_split(run, data_dir, fraction):
    from socrec import data

    ratings, graph, ids = run.op(
        "load_dataset", data.load_dataset,
        str(data_dir / RATINGS_FILE), str(data_dir / TRUST_FILE), stage=PREPARE,
    )
    split = run.op("split_ratings", data.split_ratings, ratings, fraction, SPLIT_SEED,
                   stage=PREPARE)
    return ratings, graph, ids, split


def _table(run, kind_text, train_set, graph, stage=None, key=None):
    from socrec import similarity

    kind = similarity.SimilarityKind.parse(kind_text)
    return run.op(key or f"similarity.{kind.label()}", similarity.build_similarity_table,
                  train_set, graph, kind, stage=stage)


def _cold_start_baseline(run, ratings, threshold):
    """User-mean baseline on a split that holds out one rating per user."""
    from socrec import baselines, data, evaluation

    cold = run.op("cold_start_split", data.cold_start_split, ratings, threshold,
                  SPLIT_SEED)
    means = run.op("build_means", baselines.build_means, cold.train)
    run.op("evaluate.user_mean.cold", evaluation.evaluate,
           partial(baselines.predict_user_mean, means), cold, cold.train)
    return cold


def _train_and_evaluate(run, key, train_set, hp, split, graph=None, sim=None,
                        fixed_epochs=False):
    from socrec import evaluation, factorization

    if graph is None:
        result = run.op(f"train.{key}", factorization.train, train_set, hp, stage=BASIC,
                        fixed_epochs=fixed_epochs)
    else:
        result = run.op(f"train.{key}", factorization.train, train_set, hp, graph, sim,
                        stage=SOCIAL, fixed_epochs=fixed_epochs)
    model = result[0]
    # evaluate clips to the rating range, which on the short fixed-budget
    # trainings hides the model entirely; the raw predictions do not
    run.op(f"predict.{key}", factorization.predict, model, split.test_users, split.test_items)
    run.op(f"evaluate.{key}", evaluation.evaluate, model, split, split.train)
    return model


def _model_round_trip(run, model):
    from socrec import factorization

    path = str(Path(run.scratch_dir) / "model.txt")
    run.op("save_model", factorization.save_model, model, path)
    run.op("load_model", factorization.load_model, path, same_as=model)


def planted_script(run, data_dir):
    from socrec import cli, data, evaluation, factorization

    hp = factorization.Hyperparams(**PLANTED_HP, seed=SPLIT_SEED)
    ratings, graph, ids, split = _load_and_split(run, data_dir, 0.8)
    pcc = _table(run, "pcc", split.train, graph, stage=PREPARE)
    vss = _table(run, "vss", split.train, graph, stage=PREPARE)
    rnd = _table(run, "random:42", split.train, graph)
    cold = _cold_start_baseline(run, ratings, WORKLOADS["planted-200"].ratings_per_user + 1)

    # the cold-start variant of acceptance criterion 5
    cold_pcc = _table(run, "pcc", cold.train, graph, key="similarity.pcc.cold")
    _train_and_evaluate(run, "basic.cold", cold.train, hp, cold)
    _train_and_evaluate(run, "social.pcc.cold", cold.train, replace(hp, alpha=0.5), cold,
                        graph, cold_pcc)

    _train_and_evaluate(run, "basic", split.train, hp, split)
    kept = None
    for alpha in PLANTED_ALPHAS:
        model = _train_and_evaluate(run, f"social.pcc.alpha={alpha:g}", split.train,
                                    replace(hp, alpha=alpha), split, graph, pcc)
        if alpha == 0.5:
            kept = model
    for label, table in (("vss", vss), ("random", rnd)):
        _train_and_evaluate(run, f"social.{label}.alpha=0.5", split.train,
                            replace(hp, alpha=0.5), split, graph, table)
    _model_round_trip(run, kept)

    run.op("similarity_study.planted", evaluation.run_similarity_study,
           ratings, graph, min_out_degree=5, seed=3, stage=STUDY)
    control = run.op("load_trust.control", data.load_trust,
                     str(data_dir / EXTRA_TRUST_FILE), ids)
    run.op("similarity_study.control", evaluation.run_similarity_study,
           ratings, control, min_out_degree=5, seed=3, stage=STUDY)

    out_dir = Path(run.scratch_dir) / "compare"
    run.op("cli.compare", cli.main, [
        "experiment", "--which", "compare",
        "--ratings", str(data_dir / RATINGS_FILE),
        "--trust", str(data_dir / TRUST_FILE),
        "--out-dir", str(out_dir), "--fractions", "0.8", "--seeds", "1,2",
        "--k", "8", "--lambda", "0.1", "--alpha", "0.5", "--learning-rate", "0.01",
        "--max-epochs", str(PLANTED_EPOCHS), "--tolerance", "1e-9",
    ], csv_dir=out_dir)


def _train_pair(run, seed, train_set, hp, split, graph, sim):
    """Social then basic model with one initialization seed; returns the
    social model."""
    hp = replace(hp, seed=seed)
    social = _train_and_evaluate(run, f"social.pcc.seed={seed}", train_set, hp, split,
                                 graph, sim, fixed_epochs=True)
    _train_and_evaluate(run, f"basic.seed={seed}", train_set, hp, split, fixed_epochs=True)
    return social


def pipeline_script(run, data_dir):
    from socrec import evaluation, factorization

    hp = factorization.Hyperparams(**FIXED_BUDGET_HP, max_epochs=PIPELINE_EPOCHS)
    ratings, graph, _, split = _load_and_split(run, data_dir, 0.9)
    pcc = _table(run, "pcc", split.train, graph, stage=PREPARE)
    _cold_start_baseline(run, ratings, WORKLOADS["pipeline-3k"].ratings_per_user + 1)
    social = _train_pair(run, 1, split.train, hp, split, graph, pcc)
    _model_round_trip(run, social)
    run.op("similarity_study", evaluation.run_similarity_study,
           ratings, graph, min_out_degree=5, seed=SPLIT_SEED, stage=STUDY)
    _train_pair(run, 2, split.train, hp, split, graph, pcc)


def graph_script(run, data_dir):
    from socrec import data, evaluation, factorization

    hp = factorization.Hyperparams(**FIXED_BUDGET_HP, max_epochs=GRAPH_EPOCHS)
    ratings, graph, ids, split = _load_and_split(run, data_dir, 0.9)
    pcc = _table(run, "pcc", split.train, graph, stage=PREPARE)
    _table(run, "vss", split.train, graph, stage=PREPARE)
    _cold_start_baseline(run, ratings, WORKLOADS["graph-20k"].ratings_per_user + 1)
    social = _train_pair(run, 1, split.train, hp, split, graph, pcc)
    _model_round_trip(run, social)
    cohort = run.op("load_trust.cohort", data.load_trust,
                    str(data_dir / EXTRA_TRUST_FILE), ids)
    run.op("similarity_study.cohort", evaluation.run_similarity_study,
           ratings, cohort, min_out_degree=5, seed=SPLIT_SEED, stage=STUDY)
    _train_pair(run, 2, split.train, hp, split, graph, pcc)


SCRIPTS = {
    "planted-200": planted_script,
    "pipeline-3k": pipeline_script,
    "graph-20k": graph_script,
}
