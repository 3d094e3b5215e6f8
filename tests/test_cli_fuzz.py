"""Fuzz the CLI with damaged input files, which are truncated, bit-flipped
and spliced; no exception may escape ``main``.

``predict`` reads damaged v1 and v2 models and id sidecars and must end in a
prediction (exit 0) or a data error (exit 2). ``train --method social`` and
every ``experiment --which`` read damaged ratings, trust and config files:
a ratings or trust fault must end in exit 0 or 2, a config fault in exit 0,
1 (a bad value) or 3 (a damaged learning rate can diverge)."""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from socrec import load_model, toydata
from socrec.cli import main

from oracles import line_save_model


@pytest.fixture(scope="module")
def seed_files(tmp_path_factory):
    """The bytes of a trained toy model as v2 and as v1 text, and of its
    id sidecar."""
    out = tmp_path_factory.mktemp("fuzz") / "model.bin"
    assert main(["train", "--method", "mf", "--ratings", str(toydata.ratings_path()),
                 "--k", "2", "--max-epochs", "5", "--out", str(out)]) == 0
    model = load_model(out)
    v1 = out.with_name("model.txt")
    line_save_model(v1, "SOCREC-MODEL v1", model.user_factors.tolist(),
                    model.item_factors.tolist(), model.global_mean)
    return {"v2": out.read_bytes(), "v1": v1.read_bytes(),
            "ids": Path(str(out) + ".ids").read_bytes()}


def _position(draw, size):
    """An offset in ``[0, size]``, half the time within the first line or
    two, where the header and the first sidecar entry sit."""
    return draw(st.integers(0, size) | st.integers(0, min(size, 40)))


@st.composite
def _damaged(draw, data, donors):
    """``data`` after one to three truncations, byte flips or splices; a
    splice puts random bytes or a slice of a donor file in place of a slice."""
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["truncate", "flip", "splice"]))
        if op == "truncate":
            data = data[:_position(draw, len(data))]
        elif op == "flip" and data:
            i = _position(draw, len(data) - 1)
            data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
        elif op == "splice":
            a = _position(draw, len(data))
            b = draw(st.integers(a, min(len(data), a + 64)))
            donor = draw(st.sampled_from(donors))
            c = draw(st.integers(0, len(donor)))
            piece = draw(st.one_of(st.binary(max_size=16),
                                   st.just(donor[c:c + draw(st.integers(0, 64))])))
            data = data[:a] + piece + data[b:]
    return data


_FUZZ = settings(max_examples=300, deadline=None)


@_FUZZ
@given(data=st.data(), version=st.sampled_from(["v1", "v2"]),
       target=st.sampled_from(["model", "ids"]), user=st.sampled_from(["u01", "nobody"]))
def test_damaged_files_give_a_prediction_or_a_data_error(seed_files, data, version,
                                                         target, user):
    files = {"model": seed_files[version], "ids": seed_files["ids"]}
    files[target] = data.draw(_damaged(files[target], list(seed_files.values())))
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model"
        model.write_bytes(files["model"])
        Path(str(model) + ".ids").write_bytes(files["ids"])
        code = main(["predict", "--model", str(model), "--user", user, "--item", "m01"])
    assert code in (0, 2)


# every option the experiments read except --k and --max-epochs, which the
# command line pins so that no damage can make a run large
_SEED_CONFIG = b"""# fuzz seed config
lambda = 3
alpha = 0.01
learning-rate = 0.001
tolerance = 1e-5
init-scale = 0.1
seed = 1
fractions = 0.9
seeds = 1,2
alphas = 0,0.1
kinds = constant,pcc
cold-start-threshold = 5
min-out-degree = 1
similarity = pcc
"""

_COMMANDS = [("train", "--method", "social")] + [
    ("experiment", "--which", which)
    for which in ("compare", "alpha-sweep", "ablation", "cold-start", "sim-study")]

_EXIT_CODES = {"ratings": (0, 2), "trust": (0, 2), "config": (0, 1, 3)}


@_FUZZ
@given(data=st.data(), command=st.sampled_from(_COMMANDS),
       target=st.sampled_from(sorted(_EXIT_CODES)))
def test_damaged_inputs_give_a_result_or_the_fault_s_exit_code(data, command, target):
    files = {"ratings": toydata.ratings_path().read_bytes(),
             "trust": toydata.trust_path().read_bytes(), "config": _SEED_CONFIG}
    files[target] = data.draw(_damaged(files[target], list(files.values())))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in files}
        for name, content in files.items():
            paths[name].write_bytes(content)
        out = ["--out", str(Path(tmp) / "model.bin")] if command[0] == "train" else [
            "--out-dir", str(Path(tmp) / "res")]
        code = main([*command, *out, "--ratings", str(paths["ratings"]),
                     "--trust", str(paths["trust"]), "--config", str(paths["config"]),
                     "--k", "2", "--max-epochs", "3"])
    assert code in _EXIT_CODES[target]
