"""Optional reference checks against the Epinions dump.

The dataset is not bundled; point SOCREC_EPINIONS_RATINGS and
SOCREC_EPINIONS_TRUST at local copies (`<user> <item> <rating>` and
`<truster> <trustee>` lines) to enable these tests. They verify the
published reference figures: corpus counts, the cold-start user share,
the friends-vs-random similarity fraction, and the 90%-training method
ordering with MAE near the reference table.
"""

import os

import numpy as np
import pytest

from socrec import Hyperparams, load_dataset, run_comparison
from socrec.evaluation import run_similarity_study

RATINGS_PATH = os.environ.get("SOCREC_EPINIONS_RATINGS")
TRUST_PATH = os.environ.get("SOCREC_EPINIONS_TRUST")

pytestmark = pytest.mark.skipif(
    not (RATINGS_PATH and TRUST_PATH),
    reason="set SOCREC_EPINIONS_RATINGS and SOCREC_EPINIONS_TRUST to enable",
)


@pytest.fixture(scope="module")
def epinions():
    return load_dataset(RATINGS_PATH, TRUST_PATH)


def test_corpus_counts(epinions):
    ratings, _, ids = epinions
    assert len(ids.items) == 139738
    assert ratings.num_entries == 664824
    # the ratings file alone covers 49289 users; the trust file may add more
    rated_users = int(np.count_nonzero(ratings.user_counts()))
    assert rated_users == 49289


def test_cold_start_share_exceeds_55_percent(epinions):
    ratings, _, _ = epinions
    counts = ratings.user_counts()
    rated = counts[counts > 0]
    assert np.mean(rated < 5) > 0.55


def test_friends_more_similar_than_random_peers(epinions):
    ratings, graph, _ = epinions
    study = run_similarity_study(ratings, graph, min_out_degree=5, seed=1)
    assert study.fraction_positive == pytest.approx(0.734, abs=0.05)


def test_table_ordering_and_mae_at_90_percent(epinions):
    """Non-gating reproduction: UserMean > MF > social on MAE, and the MF
    and social MAE within 0.03 of the reference values."""
    ratings, graph, _ = epinions
    hp = Hyperparams(k=10, lam=3.0, alpha=0.01, learning_rate=0.001,
                     max_epochs=300, tolerance=1e-5, init_scale=0.1, seed=1)
    results = run_comparison(ratings, graph, fractions=(0.9,),
                             seeds=(1, 2, 3, 4, 5), hp=hp)
    mae = {r.method: r.mean.mae for r in results}
    assert mae["user_mean"] > mae["basic_mf"] > mae["social_mf"]
    assert mae["basic_mf"] == pytest.approx(0.8641, abs=0.03)
    assert mae["social_mf"] == pytest.approx(0.8324, abs=0.03)
