"""Mean-rating baseline predictors."""

from dataclasses import dataclass

import numpy as np

from .data import SparseRatings


@dataclass
class MeanTable:
    """Per-user and per-item train-rating means with the global fallback.

    Users/items without train ratings carry a zero count; their mean slots
    are placeholders and the global mean is served instead.
    """

    user_means: np.ndarray
    user_counts: np.ndarray
    item_means: np.ndarray
    item_counts: np.ndarray
    global_mean: float


def build_means(train: SparseRatings) -> MeanTable:
    """Arithmetic means over the train entries only."""
    if train.num_entries == 0:
        raise ValueError("cannot build means from an empty train set")
    item_counts = train.item_counts()
    item_sums = np.bincount(train.items, weights=train.values, minlength=train.num_items)
    return MeanTable(
        user_means=train.user_means(),
        user_counts=train.user_counts(),
        item_means=item_sums / np.maximum(item_counts, 1),
        item_counts=item_counts,
        global_mean=train.global_mean(),
    )


def predict_user_mean(table: MeanTable, u, i):
    """User's train mean if present, else the global mean.

    Takes index arrays or scalar indices (which give a 0-d array); the item
    index is unused but kept so every predictor shares one call shape.
    """
    u = np.asarray(u, dtype=np.int64)
    return np.where(table.user_counts[u] > 0, table.user_means[u], table.global_mean)


def predict_item_mean(table: MeanTable, u, i):
    """Item's train mean if present, else the global mean."""
    i = np.asarray(i, dtype=np.int64)
    return np.where(table.item_counts[i] > 0, table.item_means[i], table.global_mean)
