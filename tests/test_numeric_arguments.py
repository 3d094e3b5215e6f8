"""Property test: every numeric argument of the library's entry points
follows one rule (``socrec.data.whole_number`` and ``real_number``).

Each argument is drawn inside its documented domain, just outside it, as a
bool, as a whole float, as a fractional float and as a numeric string. A
call returns, or raises ValueError naming the argument; no other exception
and no RuntimeWarning escapes, and a whole float gives bitwise the result
of its int.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from socrec import (  # noqa: E402
    Hyperparams,
    SimilarityKind,
    SparseRatings,
    TrustGraph,
    cold_start_split,
    init_model,
    split_ratings,
)
from socrec.evaluation import run_cold_start, run_similarity_study  # noqa: E402
from socrec.synthetic import clustered_dataset, low_rank_ratings, shuffled_graph  # noqa: E402

_RATINGS = SparseRatings(3, 3, [0, 0, 1, 2], [0, 1, 2, 0], [1.0, 4.0, 2.5, 5.0])
_GRAPH = TrustGraph(3, [0, 1, 2], [1, 2, 0])
_SMALL = dict(num_users=12, num_items=4, num_clusters=2, ratings_per_user=2, out_degree=3,
              intra_fraction=0.9, noise_sd=0.5, seed=0)
_DATA = clustered_dataset(**_SMALL)
_HP = Hyperparams(k=2, max_epochs=2)


def whole(low, high, *outside, named=None):
    """A whole-number argument: inside draws from [low, high], and the
    values just outside its domain."""
    return named, "whole", st.integers(low, high), st.integers(low, high), outside


def real(inside, ints, *outside, named=None):
    """A real argument: its inside draws, the ints inside its domain (or
    None), and the values just outside it."""
    return named, "real", inside, ints, outside


_SEED = {"seed": whole(0, 9, -1)}
_FRACTION = st.floats(0.0, 1.0)
_POSITIVE = st.floats(0.0, 2.0, exclude_min=True)

# label -> (call, {argument: spec}); the call's defaults are valid
TARGETS = {
    "SparseRatings": (
        lambda num_users=3, num_items=3: SparseRatings(num_users, num_items, [0, 2], [1, 2],
                                                       [3.0, 4.0]),
        {"num_users": whole(3, 5, -1), "num_items": whole(3, 5, -1)}),
    "TrustGraph": (lambda num_users=3: TrustGraph(num_users, [0, 2], [1, 0]),
                   {"num_users": whole(3, 5, -1)}),
    "TrustGraph.from_edges": (
        lambda num_users=3: TrustGraph.from_edges(num_users, [(2, 0), (0, 1), (2, 2)]),
        {"num_users": whole(3, 5, -1)}),
    "split_ratings": (
        lambda train_fraction=0.5, seed=0: split_ratings(_RATINGS, train_fraction, seed),
        {"train_fraction": real(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                None, 0.0, 1.0, -0.5, 1.5), **_SEED}),
    "cold_start_split": (
        lambda threshold=3, seed=0: cold_start_split(_RATINGS, threshold, seed),
        {"threshold": whole(2, 5, 1), **_SEED}),
    "clustered_dataset": (
        lambda **kw: clustered_dataset(**dict(_SMALL, **kw)),
        {"num_users": whole(4, 16, 3), "num_items": whole(2, 5, -1),
         "num_clusters": whole(2, 6, 0), "ratings_per_user": whole(0, 4, -1, 5),
         "out_degree": whole(0, 4, -1),
         "intra_fraction": real(_FRACTION, st.integers(0, 1), -0.01, 1.01),
         "noise_sd": real(st.floats(0.0, 2.0), st.integers(0, 2), -0.01), **_SEED}),
    "low_rank_ratings": (
        lambda num_users=3, num_items=3, rank=2, seed=0: low_rank_ratings(
            num_users, num_items, rank, seed),
        {"num_users": whole(0, 4, -1), "num_items": whole(0, 4, -1), "rank": whole(1, 3, 0),
         **_SEED}),
    "shuffled_graph": (lambda seed=0: shuffled_graph(_GRAPH, seed), _SEED),
    "Hyperparams": (
        lambda **kw: Hyperparams(**kw),
        {"k": whole(1, 4, 0), "max_epochs": whole(1, 5, 0),
         "lam": real(st.floats(0.0, 5.0), st.integers(0, 5), -0.01, named="lambda"),
         "alpha": real(st.floats(0.0, 5.0), st.integers(0, 5), -0.01),
         "learning_rate": real(_POSITIVE, st.integers(1, 2), 0.0, -0.01),
         "tolerance": real(_POSITIVE, st.integers(1, 2), 0.0),
         "init_scale": real(_FRACTION, st.integers(0, 1), -0.01), **_SEED}),
    "SimilarityKind": (lambda seed=0: SimilarityKind("random", seed), _SEED),
    "init_model": (
        lambda num_users=2, num_items=2: init_model(num_users, num_items, _HP),
        {"num_users": whole(1, 4, 0), "num_items": whole(1, 4, 0)}),
    "run_similarity_study": (
        lambda min_out_degree=1, seed=0: run_similarity_study(
            _DATA[0], _DATA[1], min_out_degree, seed),
        {"min_out_degree": whole(1, 3, 0), **_SEED}),
    "run_cold_start": (
        lambda threshold=3: run_cold_start(_DATA[0], _DATA[1], threshold, _HP, seeds=(1,)),
        {"threshold": whole(2, 4, 1)}),
}


def variants(spec):
    _, kind, _, ints, _ = spec
    return ["inside", "outside", "bool", "string", *(["fractional"] if kind == "whole" else []),
            *(["whole float"] if ints is not None else [])]


CASES = [(label, name, variant) for label, (_, specs) in TARGETS.items()
         for name, spec in specs.items() for variant in variants(spec)]


def fingerprint(value):
    """A comparable form of a result that tells apart every bit of its
    numbers and the type of each."""
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return "float", value.hex()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, tuple(map(fingerprint, value))
    if hasattr(value, "__dict__"):
        return type(value).__name__, tuple((key, fingerprint(item))
                                           for key, item in sorted(vars(value).items()))
    return type(value).__name__, value


def outcome(call, name, value):
    """(result, None), or (None, message) when the call raises ValueError;
    a RuntimeWarning is raised as an error, so that it fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call(**{name: value}), None
        except ValueError as exc:
            return None, str(exc)


@pytest.mark.parametrize("label, name, variant", CASES, ids=["-".join(c) for c in CASES])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_numeric_argument_follows_the_rule(label, name, variant, data):
    call, specs = TARGETS[label]
    named, _, inside, ints, outside = specs[name]
    named = named or name
    if variant == "inside":
        _, fault = outcome(call, name, data.draw(inside, label="value"))
        assert fault is None
        return
    if variant == "whole float":
        number = data.draw(ints, label="value")
        (want, fault), (got, float_fault) = (outcome(call, name, number),
                                             outcome(call, name, float(number)))
        assert fault is None and float_fault is None
        assert fingerprint(got) == fingerprint(want)
        return
    value = {
        "outside": lambda: data.draw(st.sampled_from(outside), label="value"),
        "bool": lambda: data.draw(st.booleans(), label="value"),
        "string": lambda: str(data.draw(inside, label="value")),
        "fractional": lambda: data.draw(inside, label="value") + 0.5,
    }[variant]()
    _, fault = outcome(call, name, value)
    assert fault is not None and named in fault, (value, fault)
