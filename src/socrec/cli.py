"""Command-line front end.

Subcommands: ``train``, ``predict``, ``experiment``. A run is ``train
--method mf|social`` or ``experiment --which <name>``; it reads its own
options and refuses a flag that it does not read. Values are resolved with
the precedence flags > config file > defaults; the config file is plain
``key = value`` text with ``#`` comments and kebab- or snake-case keys, and
may hold keys for other runs. Exit codes: 0 success, 1 usage/config error,
2 data error, 3 numerical divergence, 4 a result file that cannot be written.
"""

import argparse
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .data import (RATING_MAX, RATING_MIN, DataFileError, IdTable, check_threshold,
                   check_train_fraction, load_dataset, whole_number)
from .evaluation import (
    DEFAULT_ALPHAS,
    DEFAULT_SEEDS,
    check_min_out_degree,
    check_study_kind,
    comparison_summary,
    run_alpha_sweep,
    run_cold_start,
    run_comparison,
    run_similarity_ablation,
    run_similarity_study,
    write_csv,
    write_rows_csv,
    write_summary_csv,
)
from .factorization import DivergenceError, Hyperparams, load_model, save_model, train
from .similarity import SimilarityKind, build_similarity_table

class ConfigError(ValueError):
    """Invalid usage, flag value or config-file entry."""


class OutputError(Exception):
    """A result file that cannot be written."""


@contextmanager
def _writing(path):
    """Context for writing the result file ``path``: an OSError raised in it
    is an OutputError naming the path."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: experiment's --seeds must not take a --seed
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # --alphas -0,0.5 passes a value, not a flag (Python 3.13's rule)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ConfigError(message)


def _list(convert):
    """A converter of comma- or space-separated values, each through ``convert``,
    which refuses the one empty value that text without values gives."""
    return lambda text: tuple(map(convert, text.replace(",", " ").split() or [""]))


def _hyperparam(field, parse):
    """(converter, default) of Hyperparams' ``field``: ``parse``, then its own check."""
    return (lambda text: getattr(Hyperparams(**{field: parse(text)}), field),
            getattr(Hyperparams(), field))


_EXPERIMENTS = ("compare", "alpha-sweep", "ablation", "cold-start", "sim-study")
_RUNS = {"train": ("mf", "social"), "experiment": _EXPERIMENTS}
_ALL = (*_RUNS["train"], *_EXPERIMENTS)
_TRAINING = tuple(run for run in _ALL if run != "sim-study")

# the one declaration of each option: name -> (converter, default, runs that
# read it, help); the flag is --<name in kebab case>, the config key is the
# name in either case, and flag and config text go through one converter,
# which parses the text and passes the value to the library's own rule for it
_OPTIONS = {
    "ratings": (str, None, _ALL, "ratings file (user item rating per line)"),
    "trust": (str, None, ("social", *_EXPERIMENTS), "trust file (truster trustee per line)"),
    "out": (str, "socrec-model.bin", _RUNS["train"], "model output path"),
    "out_dir": (str, "socrec-results", _EXPERIMENTS, "directory for result CSVs"),
    "k": (*_hyperparam("k", int), _TRAINING, "latent dimension"),
    "lambda": (*_hyperparam("lam", float), _TRAINING, "L2 regularization weight"),
    # alpha-sweep reads --alphas in its place
    "alpha": (*_hyperparam("alpha", float), ("social", "compare", "ablation", "cold-start"),
              "social regularization weight"),
    "learning_rate": (*_hyperparam("learning_rate", float), _TRAINING, "gradient step size"),
    "max_epochs": (*_hyperparam("max_epochs", int), _TRAINING, "epoch budget of a training"),
    "tolerance": (*_hyperparam("tolerance", float), _TRAINING,
                  "relative objective change that stops training"),
    "init_scale": (*_hyperparam("init_scale", float), _TRAINING,
                   "initial factors are uniform on [0, init-scale]"),
    # each experiment trains with its split's seed; train's default is not Hyperparams'
    "seed": (_hyperparam("seed", int)[0], 1, _RUNS["train"], "factor initialization seed"),
    "fractions": (_list(lambda text: check_train_fraction(float(text))), (0.9, 0.8),
                  ("compare", "alpha-sweep", "ablation"), "train fractions, e.g. 0.9,0.8"),
    "seeds": (_list(lambda text: whole_number("seed", int(text))), DEFAULT_SEEDS, _EXPERIMENTS,
              "split seeds, e.g. 1,2,3,4,5"),
    "alphas": (_list(_hyperparam("alpha", float)[0]), DEFAULT_ALPHAS, ("alpha-sweep",),
               "alpha-sweep grid, e.g. 0,0.01,0.1"),
    "kinds": (_list(SimilarityKind.parse),
              tuple(map(SimilarityKind, ("constant", "random", "vss", "pcc"))), ("ablation",),
              "ablation kinds, e.g. constant,random:7,vss,pcc"),
    "cold_start_threshold": (lambda text: check_threshold(int(text)), 5, ("cold-start",),
                             "users with fewer ratings are cold"),
    "min_out_degree": (lambda text: check_min_out_degree(int(text)), 5, ("sim-study",),
                       "users need more friends than this"),
    # the study's own rule and default are _STUDY_SIMILARITY
    "similarity": (SimilarityKind.parse, SimilarityKind.pcc(),
                   ("social", "compare", "alpha-sweep", "cold-start", "sim-study"),
                   "pcc | vss | constant | random[:seed]"),
}
# the similarity study compares vss, its default, or pcc
_STUDY_SIMILARITY = (lambda text: SimilarityKind(check_study_kind(SimilarityKind.parse(text).tag)),
                     SimilarityKind.vss())
# option name -> Hyperparams field
_HYPERPARAMS = {"lambda" if f.name == "lam" else f.name: f.name for f in fields(Hyperparams)}


def _option(name, run):
    """The converter and default of an option in ``run``."""
    return _STUDY_SIMILARITY if (name, run) == ("similarity", "sim-study") else _OPTIONS[name][:2]


def _flag(name):
    return f"--{name.replace('_', '-')}"


def build_parser() -> _Parser:
    parser = _Parser(prog="socrec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a factor model and save it")
    p_train.add_argument("--method", choices=_RUNS["train"], default="mf")

    p_pred = sub.add_parser("predict", help="predict one rating from a saved model")
    p_pred.add_argument("--model", required=True, help="model file written by train")
    p_pred.add_argument("--user", required=True, help="external user id")
    p_pred.add_argument("--item", required=True, help="external item id")

    p_exp = sub.add_parser("experiment", help="run an experiment and write CSVs")
    p_exp.add_argument("--which", choices=_EXPERIMENTS, required=True)

    for command, p in (("train", p_train), ("experiment", p_exp)):
        p.add_argument("--config", help="key = value config file")
        for name, (_, _, runs, help_text) in _OPTIONS.items():
            readers = [run for run in runs if run in _RUNS[command]]
            if readers:
                # no type=: resolve_config converts flag text as it converts config text
                p.add_argument(_flag(name), dest=name,
                               help=f"{help_text} ({', '.join(readers)})")
    return parser


def _convert(name, run, text, where):
    """``text`` through the option's converter for ``run``; text it refuses
    is a ConfigError that opens with ``where``."""
    try:
        return _option(name, run)[0](text)
    except ValueError as exc:
        raise ConfigError(f"{where} {text!r}: {exc}") from None


def read_config_file(path, run=None) -> dict:
    """Parse a plain 'key = value' file into option values, each converted
    and checked as ``run`` takes it. A key that ``run`` does not read is
    checked too, and left for the caller to ignore: one file may serve
    several runs."""
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
        values[key] = _convert(key, run, value.strip(), f"{path}:{lineno}: bad value for {key}:")
    return values


def _resolve(args, config, name, run):
    """Option precedence: flag > config file > the run's default. Flag text
    goes through the option's converter, as config text does."""
    flag = getattr(args, name, None)
    if flag is None:
        return config.get(name, _option(name, run)[1])
    return _convert(name, run, flag, _flag(name))


def resolve_config(args) -> SimpleNamespace:
    """The selected run's options from its flags, its --config file and the
    table's defaults, converted and checked before any data is loaded. A
    flag the run does not read is a ConfigError; an option it does not read
    is None, and so is ``hyperparams`` for a run that trains nothing."""
    run = args.method if args.command == "train" else args.which
    reads = [name for name, (_, _, runs, _) in _OPTIONS.items() if run in runs]
    for name in _OPTIONS:
        flag = getattr(args, name, None)
        if flag is not None and name not in reads:
            raise ConfigError(f"{_flag(name)} {flag!r}: {run} does not read it")
    config = read_config_file(args.config, run) if args.config else {}
    hp = {field: _resolve(args, config, name, run)
          for name, field in _HYPERPARAMS.items() if name in reads}
    return SimpleNamespace(run=run, hyperparams=Hyperparams(**hp) if hp else None, **{
        name: _resolve(args, config, name, run) if name in reads else None
        for name in _OPTIONS if name not in _HYPERPARAMS})


def _load(cfg):
    if not cfg.ratings:
        raise ConfigError("--ratings is required")
    if cfg.run in _OPTIONS["trust"][2] and not cfg.trust:
        raise ConfigError(f"--trust is required for {cfg.run}")
    return load_dataset(cfg.ratings, cfg.trust)


def _refuse_directories(*paths):
    """ConfigError naming the first result path that is a directory, checked
    before any data is read."""
    for path in paths:
        if path.is_dir():
            raise ConfigError(f"result path {path} is a directory")


def cmd_train(cfg) -> int:
    out = Path(cfg.out)
    report_path = Path(f"{out}.report.json")
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"--out {out}: not a file in an existing directory")
    _refuse_directories(report_path)
    method = cfg.run
    ratings, graph, ids = _load(cfg)
    hp = cfg.hyperparams
    if method == "social":
        sim = build_similarity_table(ratings, graph, cfg.similarity)
        model, report = train(ratings, hp, graph, sim)
    else:
        model, report = train(ratings, hp)

    # users named only by the trust file, whom load_dataset adds last, have no
    # ratings to train their factors: the model leaves their rows out, so
    # predict gives them the global mean, as evaluate does
    rated = ids.users[:np.count_nonzero(ratings.user_counts())]
    ids.users = IdTable()
    ids.users.add(rated)
    model.user_factors, model.ids = model.user_factors[:len(rated)], ids
    with _writing(out):
        save_model(model, out)
    with _writing(report_path):
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
    u, i = model.ids.users.index(args.user), model.ids.items.index(args.item)
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


# each training experiment's runner: (ratings, graph, cfg) -> [ExperimentResult];
# the sweeps and the ablation take the first --fractions and --seeds value
_RUNNERS = {
    "compare": lambda ratings, graph, cfg: run_comparison(
        ratings, graph, cfg.fractions, cfg.seeds, cfg.hyperparams, sim_kind=cfg.similarity),
    "alpha-sweep": lambda ratings, graph, cfg: run_alpha_sweep(
        ratings, graph, cfg.alphas, cfg.hyperparams, train_fraction=cfg.fractions[0],
        seed=cfg.seeds[0], sim_kind=cfg.similarity),
    "ablation": lambda ratings, graph, cfg: run_similarity_ablation(
        ratings, graph, cfg.kinds, cfg.hyperparams,
        train_fraction=cfg.fractions[0], seed=cfg.seeds[0]),
    "cold-start": lambda ratings, graph, cfg: run_cold_start(
        ratings, graph, cfg.cold_start_threshold, cfg.hyperparams, seeds=cfg.seeds,
        sim_kind=cfg.similarity),
}


def cmd_experiment(cfg) -> int:
    which = cfg.run
    out_dir = Path(cfg.out_dir)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out-dir {out_dir}: {existing} is not a directory")
    columns = ("mae", "rmse") if which == "alpha-sweep" else ()
    rows_path, summary_path, *column_paths = (
        out_dir / f"{name}.csv"
        for name in (which, f"{which}-summary", *(f"{which}-{c}" for c in columns)))
    _refuse_directories(rows_path, summary_path, *column_paths)
    ratings, graph, _ = _load(cfg)
    if which == "cold-start" and ratings.user_counts().max(initial=0) <= 1:
        # each cold-start user holds out one rating, so one rating per user
        # leaves no train set at any threshold: the file, not an option, is at fault
        raise DataFileError(f"{cfg.ratings}: every user has one rating; the cold-start "
                            "split holds each one out and leaves no train set")
    if which in ("compare", "alpha-sweep", "ablation") and ratings.num_entries < 2:
        # no train fraction splits one rating into two non-empty sides
        raise DataFileError(f"{cfg.ratings}: holds 1 rating; a train/test split "
                            "needs at least 2 ratings")
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)

    if which == "sim-study":
        study = run_similarity_study(ratings, graph, min_out_degree=cfg.min_out_degree,
                                     seed=cfg.seeds[0], kind=cfg.similarity.tag)
        with _writing(rows_path):
            write_csv(rows_path, ("user", "friend_sim_mean", "random_sim_mean"),
                      zip(study.user_indices.tolist(), study.friend_sim_means.tolist(),
                          study.random_sim_means.tolist()))
        with _writing(summary_path):
            write_csv(summary_path, ("fraction_positive", "users_evaluated", "users_skipped",
                                     "min_out_degree", "seed"),
                      [(study.fraction_positive, study.user_indices.size,
                        len(study.skipped_users), study.min_out_degree, study.seed)])
        print(f"fraction_positive = {study.fraction_positive:.4f} "
              f"({study.user_indices.size} users evaluated, "
              f"{len(study.skipped_users)} skipped)")
    else:
        results = _RUNNERS[which](ratings, graph, cfg)
        with _writing(rows_path):
            write_rows_csv(rows_path, which, [
                (r.method, seed, r.train_fraction, pair)
                for r in results for seed, pair in zip(r.seeds, r.per_seed)
            ])
        summary = comparison_summary(results)
        with _writing(summary_path):
            write_summary_csv(summary_path, which, summary)
        for column, path in zip(columns, column_paths):
            with _writing(path):
                write_csv(path, ("alpha", column),
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
        return cmd_train(cfg) if args.command == "train" else cmd_experiment(cfg)
    except ConfigError as exc:
        print(f"socrec: error: {exc}", file=sys.stderr)
        return 1
    except DataFileError as exc:
        print(f"socrec: data error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"socrec: divergence: {exc}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"socrec: output error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        # the factor matrices are sized by --k, a configuration value
        print(f"socrec: error: not enough memory: {exc}; lower --k", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
