"""Command-line front end.

Subcommands: ``train``, ``predict``, ``experiment``. Values are resolved
with the precedence flags > config file > defaults; the config file is
plain ``key = value`` text with ``#`` comments and kebab- or snake-case
keys. Exit codes: 0 success, 1 usage/config error, 2 data error,
3 numerical divergence.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import RATING_MAX, RATING_MIN, DataFileError, load_dataset
from .evaluation import (
    DEFAULT_ALPHAS,
    DEFAULT_SEEDS,
    STUDY_KINDS,
    comparison_summary,
    run_alpha_sweep,
    run_cold_start,
    run_comparison,
    run_similarity_ablation,
    run_similarity_study,
    write_metric_column_csv,
    write_rows_csv,
    write_summary_csv,
)
from .factorization import DivergenceError, Hyperparams, load_model, save_model, train
from .similarity import SimilarityKind, build_similarity_table

class ConfigError(ValueError):
    """Invalid usage, flag value or config-file entry."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: experiment's --seeds must not take a --seed
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _float_list(text):
    return tuple(float(x) for x in text.replace(",", " ").split())


def _int_list(text):
    return tuple(int(x) for x in text.replace(",", " ").split())


def _kind_list(text):
    return tuple(SimilarityKind.parse(x) for x in text.split(","))


_TRAIN, _EXPERIMENT, _BOTH = ("train",), ("experiment",), ("train", "experiment")

# the one declaration of each option: name -> (converter, default, commands
# that take it, help); the flag is --<name in kebab case>, the config key is
# the name in either case, and flag and config text go through one converter
_OPTIONS = {
    "ratings": (str, None, _BOTH, "ratings file (user item rating per line)"),
    "trust": (str, None, _BOTH, "trust file (truster trustee per line)"),
    "out": (str, "socrec-model.bin", _TRAIN, "model output path"),
    "out_dir": (str, "socrec-results", _EXPERIMENT, "directory for result CSVs"),
    "k": (int, 10, _BOTH, "latent dimension"),
    "lambda": (float, 3.0, _BOTH, "L2 regularization weight"),
    "alpha": (float, 0.01, _BOTH, "social regularization weight"),
    "learning_rate": (float, 0.001, _BOTH, "gradient step size"),
    "max_epochs": (int, 300, _BOTH, "epoch budget of each training"),
    "tolerance": (float, 1e-5, _BOTH, "relative objective change that stops training"),
    "init_scale": (float, 0.1, _BOTH, "initial factors are uniform on [0, init-scale]"),
    # each experiment trains with its split's seed
    "seed": (int, 1, _TRAIN, "factor initialization seed"),
    "fractions": (_float_list, (0.9, 0.8), _EXPERIMENT, "train fractions, e.g. 0.9,0.8"),
    "seeds": (_int_list, DEFAULT_SEEDS, _EXPERIMENT, "split seeds, e.g. 1,2,3,4,5"),
    "alphas": (_float_list, DEFAULT_ALPHAS, _EXPERIMENT, "alpha-sweep grid, e.g. 0,0.01,0.1"),
    "kinds": (_kind_list, _kind_list("constant,random,vss,pcc"), _EXPERIMENT,
              "ablation kinds, e.g. constant,random:7,vss,pcc"),
    "cold_start_threshold": (int, 5, _EXPERIMENT, "users with fewer ratings are cold"),
    "min_out_degree": (int, 5, _EXPERIMENT, "sim-study: users need more friends than this"),
    # per-command default: pcc for training, vss for the study
    "similarity": (SimilarityKind.parse, None, _BOTH, "pcc | vss | constant | random[:seed]"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="socrec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a factor model and save it")
    p_train.add_argument("--method", choices=("mf", "social"), default="mf")

    p_pred = sub.add_parser("predict", help="predict one rating from a saved model")
    p_pred.add_argument("--model", required=True, help="model file written by train")
    p_pred.add_argument("--user", required=True, help="external user id")
    p_pred.add_argument("--item", required=True, help="external item id")

    p_exp = sub.add_parser("experiment", help="run an experiment and write CSVs")
    p_exp.add_argument("--which", choices=(*_RUNNERS, "sim-study"), required=True)

    parsers = {"train": p_train, "experiment": p_exp}
    for p in parsers.values():
        p.add_argument("--config", help="key = value config file")
    for name, (_, _, commands, help_text) in _OPTIONS.items():
        for command in commands:
            # no type=: _resolve converts flag text as it converts config text
            parsers[command].add_argument(f"--{name.replace('_', '-')}", dest=name,
                                          help=help_text)
    return parser


def read_config_file(path) -> dict:
    """Parse a plain 'key = value' file into converted option values."""
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config file {path}: {reason}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _OPTIONS[key][0](value.strip())
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: bad value for {key}: {value.strip()!r}: {exc}"
            ) from None
    return values


def _resolve(args, config, name):
    """Option precedence: flag > config file > built-in default. Flag text
    goes through its option's converter, as config text does; a value it
    refuses is a ConfigError naming the flag."""
    convert, default = _OPTIONS[name][:2]
    flag = getattr(args, name, None)
    if flag is None:
        return config.get(name, default)
    try:
        return convert(flag)
    except ValueError as exc:
        raise ConfigError(f"--{name.replace('_', '-')} {flag!r}: {exc}") from None


@dataclass
class RunConfig:
    """Fully resolved options: paths, hyperparameters and experiment
    selectors, validated before any data is loaded or compute starts."""

    ratings: str | None
    trust: str | None
    out: str
    out_dir: str
    hyperparams: Hyperparams
    fractions: tuple
    seeds: tuple
    alphas: tuple
    kinds: tuple
    cold_start_threshold: int
    min_out_degree: int
    similarity: SimilarityKind | None

    def validate(self, study: bool = False) -> "RunConfig":
        """Check value ranges; ``study`` also applies the similarity study's
        rule that ``--similarity`` is vss or pcc."""
        if not self.fractions or any(not 0.0 < f < 1.0 for f in self.fractions):
            raise ConfigError(f"--fractions must lie in (0, 1), got {self.fractions}")
        if not self.seeds:
            raise ConfigError("--seeds must not be empty")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError(f"--seeds must be >= 0, got {self.seeds}")
        if not self.alphas or any(not 0.0 <= a < math.inf for a in self.alphas):
            raise ConfigError(f"--alphas must be >= 0 and finite, got {self.alphas}")
        if not self.kinds:
            raise ConfigError("--kinds must not be empty")
        if self.cold_start_threshold < 2:
            raise ConfigError(
                f"--cold-start-threshold must be >= 2, got {self.cold_start_threshold}"
            )
        if self.min_out_degree < 1:
            raise ConfigError(
                f"--min-out-degree must be >= 1, got {self.min_out_degree}"
            )
        if study and self.similarity and self.similarity.tag not in STUDY_KINDS:
            raise ConfigError(f"--similarity {self.similarity.label()!r}: the similarity "
                              f"study supports {' or '.join(STUDY_KINDS)}")
        return self


def resolve_config(args) -> RunConfig:
    """The command's options from its flags, its --config file and the
    table's defaults, converted and validated."""
    config = read_config_file(args.config) if args.config else {}
    # converted outside the try below: a ConfigError is a ValueError too
    hp_values = {f.name: _resolve(args, config, "lambda" if f.name == "lam" else f.name)
                 for f in fields(Hyperparams)}
    try:
        hp = Hyperparams(**hp_values)
    except ValueError as exc:
        # each Hyperparams message opens with its option's name, in snake case
        label, _, fault = str(exc).partition(" ")
        raise ConfigError(f"--{label.replace('_', '-')} {fault}") from None
    return RunConfig(hyperparams=hp, **{f.name: _resolve(args, config, f.name)
                                        for f in fields(RunConfig) if f.name != "hyperparams"}
                     ).validate(study=getattr(args, "which", None) == "sim-study")


def _load(cfg: RunConfig, need_trust: bool):
    if not cfg.ratings:
        raise ConfigError("--ratings is required")
    if need_trust and not cfg.trust:
        raise ConfigError("--trust is required for this command")
    return load_dataset(cfg.ratings, cfg.trust)


def cmd_train(args, cfg: RunConfig) -> int:
    out = Path(cfg.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"--out {out}: not a file in an existing directory")
    method = args.method
    ratings, graph, ids = _load(cfg, need_trust=(method == "social"))
    hp = cfg.hyperparams
    if method == "social":
        sim = build_similarity_table(ratings, graph, cfg.similarity or SimilarityKind.pcc())
        model, report = train(ratings, hp, graph, sim)
    else:
        model, report = train(ratings, hp)

    model.ids = ids
    save_model(model, out)
    report_path = Path(str(out) + ".report.json")
    report_path.write_text(json.dumps({
        "method": method,
        "hyperparams": asdict(hp),
        "epochs_run": report.epochs_run,
        "converged": report.converged,
        "objective_per_epoch": report.objective_per_epoch,
    }, indent=2) + "\n", encoding="utf-8")
    print(f"model written to {out} ({report.epochs_run} epochs, "
          f"converged={report.converged})")
    print(f"training report: {report_path}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    u, i = model.ids.user_index(args.user), model.ids.item_index(args.item)
    if u is None or i is None:
        missing = "user" if u is None else "item"
        print(f"warning: unknown {missing} id; falling back to the global mean",
              file=sys.stderr)
        value = model.global_mean
    else:
        value = model.predict(u, i)
    print(f"{float(np.clip(value, RATING_MIN, RATING_MAX)):.4f}")
    return 0


def _print_summary(rows):
    """The summary rows as a left-aligned table on stdout."""
    table = [("variant", "fraction", "mae", "rmse", "p_mae", "p_rmse")] + [
        (variant, f"{fraction:.10g}", f"{mae:.4f}", f"{rmse:.4f}",
         "-" if p_mae is None else f"{p_mae:.4g}", "-" if p_rmse is None else f"{p_rmse:.4g}")
        for variant, fraction, mae, rmse, p_mae, p_rmse in rows
    ]
    widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _write_similarity_study(study, rows_path, summary_path):
    """The study's per-user and summary CSVs, and its one-line summary."""
    with open(rows_path, "w", encoding="utf-8") as fh:
        fh.write("user,friend_sim_mean,random_sim_mean\n")
        for u, f_mean, r_mean in zip(
            study.user_indices, study.friend_sim_means, study.random_sim_means
        ):
            fh.write(f"{u},{f_mean:.10g},{r_mean:.10g}\n")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("fraction_positive,users_evaluated,users_skipped,min_out_degree,seed\n")
        fh.write(
            f"{study.fraction_positive:.10g},{study.user_indices.size},"
            f"{len(study.skipped_users)},{study.min_out_degree},{study.seed}\n"
        )
    print(f"fraction_positive = {study.fraction_positive:.4f} "
          f"({study.user_indices.size} users evaluated, "
          f"{len(study.skipped_users)} skipped)")


# each training experiment's runner: (ratings, graph, cfg) -> [ExperimentResult];
# the sweeps and the ablation take the first --fractions and --seeds value
_RUNNERS = {
    "compare": lambda ratings, graph, cfg: run_comparison(
        ratings, graph, cfg.fractions, cfg.seeds, cfg.hyperparams,
        sim_kind=cfg.similarity or SimilarityKind.pcc()),
    "alpha-sweep": lambda ratings, graph, cfg: run_alpha_sweep(
        ratings, graph, cfg.alphas, cfg.hyperparams, train_fraction=cfg.fractions[0],
        seed=cfg.seeds[0], sim_kind=cfg.similarity or SimilarityKind.pcc()),
    "ablation": lambda ratings, graph, cfg: run_similarity_ablation(
        ratings, graph, cfg.kinds, cfg.hyperparams,
        train_fraction=cfg.fractions[0], seed=cfg.seeds[0]),
    "cold-start": lambda ratings, graph, cfg: run_cold_start(
        ratings, graph, cfg.cold_start_threshold, cfg.hyperparams, seeds=cfg.seeds,
        sim_kind=cfg.similarity or SimilarityKind.pcc()),
}


def cmd_experiment(args, cfg: RunConfig) -> int:
    which = args.which
    ratings, graph, _ = _load(cfg, need_trust=True)
    if which == "cold-start" and ratings.user_counts().max(initial=0) <= 1:
        # each cold-start user holds out one rating, so one rating per user
        # leaves no train set at any threshold: the file, not an option, is at fault
        raise DataFileError(f"{cfg.ratings}: every user has one rating; the cold-start "
                            "split holds each one out and leaves no train set")
    if which in ("compare", "alpha-sweep", "ablation") and ratings.num_entries < 2:
        # no train fraction splits one rating into two non-empty sides
        raise DataFileError(f"{cfg.ratings}: holds 1 rating; a train/test split "
                            "needs at least 2 ratings")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows_path = out_dir / f"{which}.csv"
    summary_path = out_dir / f"{which}-summary.csv"

    if which == "sim-study":
        study = run_similarity_study(
            ratings, graph,
            min_out_degree=cfg.min_out_degree,
            seed=cfg.seeds[0],
            kind=cfg.similarity.tag if cfg.similarity else "vss",
        )
        _write_similarity_study(study, rows_path, summary_path)
    else:
        results = _RUNNERS[which](ratings, graph, cfg)
        write_rows_csv(rows_path, which, [
            (r.method, seed, r.train_fraction, pair)
            for r in results for seed, pair in zip(r.seeds, r.per_seed)
        ])
        summary = comparison_summary(results)
        write_summary_csv(summary_path, which, summary)
        if which == "alpha-sweep":
            for column in ("mae", "rmse"):
                write_metric_column_csv(
                    out_dir / f"alpha-sweep-{column}.csv", which, column,
                    [(a, getattr(r.mean, column)) for a, r in zip(cfg.alphas, results)])
        _print_summary(summary)

    print(f"results written to {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "predict":
            return cmd_predict(args)
        cfg = resolve_config(args)
        if args.command == "train":
            return cmd_train(args, cfg)
        return cmd_experiment(args, cfg)
    except ConfigError as exc:
        print(f"socrec: error: {exc}", file=sys.stderr)
        return 1
    except DataFileError as exc:
        print(f"socrec: data error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"socrec: divergence: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # the factor matrices are sized by --k, a configuration value
        print(f"socrec: error: not enough memory: {exc}; lower --k", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
