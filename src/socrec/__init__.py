"""socrec: social-regularized matrix factorization for rating prediction.

Library layout:

- ``socrec.data``          sparse ratings, trust graph, loaders, splitters
- ``socrec.similarity``    user-user similarity measures and edge tables
- ``socrec.factorization`` objectives, gradients, gradient-descent trainer
- ``socrec.baselines``     user-mean / item-mean predictors
- ``socrec.evaluation``    metrics and the experiment harness
- ``socrec.synthetic``     seeded dataset generators
- ``socrec.cli``           the ``socrec`` command-line front end
"""

from .baselines import MeanTable, build_means, predict_item_mean, predict_user_mean
from .data import (
    DataFileError,
    DatasetSplit,
    IdMap,
    SparseRatings,
    TrustGraph,
    cold_start_split,
    load_dataset,
    load_ratings,
    load_trust,
    save_ratings,
    split_ratings,
)
from .factorization import (
    DivergenceError,
    FactorModel,
    Hyperparams,
    TrainReport,
    gradients_social,
    init_model,
    load_model,
    objective_basic,
    objective_social,
    predict,
    save_model,
    train,
)
from .evaluation import (
    MetricPair,
    ExperimentResult,
    SimilarityStudyResult,
    evaluate,
    mae_rmse,
    run_alpha_sweep,
    run_cold_start,
    run_comparison,
    run_similarity_ablation,
    run_similarity_study,
)
from .similarity import (
    SimilarityKind,
    SimilarityTable,
    build_similarity_table,
    map_to_unit,
    pcc,
    vss,
)

__version__ = "0.1.0"

__all__ = [
    "DataFileError",
    "DatasetSplit",
    "DivergenceError",
    "ExperimentResult",
    "FactorModel",
    "Hyperparams",
    "IdMap",
    "MeanTable",
    "MetricPair",
    "SimilarityKind",
    "SimilarityStudyResult",
    "SimilarityTable",
    "SparseRatings",
    "TrainReport",
    "TrustGraph",
    "build_means",
    "build_similarity_table",
    "cold_start_split",
    "evaluate",
    "gradients_social",
    "init_model",
    "load_dataset",
    "load_model",
    "load_ratings",
    "load_trust",
    "mae_rmse",
    "map_to_unit",
    "objective_basic",
    "objective_social",
    "pcc",
    "predict",
    "predict_item_mean",
    "predict_user_mean",
    "run_alpha_sweep",
    "run_cold_start",
    "run_comparison",
    "run_similarity_ablation",
    "run_similarity_study",
    "save_model",
    "save_ratings",
    "split_ratings",
    "train",
    "vss",
]
