"""Fuzz the CLI with damaged input files, which are truncated, bit-flipped
and spliced; no exception may escape ``main``.

``predict`` reads damaged v3 models, their header, id block or body, and
must end in a prediction (exit 0) or a data error (exit 2); ``main`` maps
no other exception to an exit code, so ``load_model`` may raise nothing but
``DataFileError``. ``train --method social`` and
every ``experiment --which`` read damaged ratings, trust and config files:
a ratings or trust fault must end in exit 0 or 2, a config fault in exit 0,
1 (a bad value) or 3 (a damaged learning rate can diverge). Each (run,
option) pair of the option table is fuzzed too: a flag the run does not
read exits 1, and option text at the edges (nan, inf, -0, subnormal, past
int64), as a flag or a config line, exits 1 if its converter refuses it and
0 or 3 if not."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from socrec import load_model, toydata
from socrec.cli import _OPTIONS, _RUNS, _flag, _option, main


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """The bytes of a trained toy model, and the length of its header line
    and id block, which the damage favours."""
    out = tmp_path_factory.mktemp("fuzz") / "model.bin"
    assert main(["train", "--method", "mf", "--ratings", str(toydata.ratings_path()),
                 "--k", "2", "--max-epochs", "5", "--out", str(out)]) == 0
    assert main(["predict", "--model", str(out), "--user", "u01", "--item", "m01"]) == 0
    data = out.read_bytes()
    head = data.index(b"\n") + 1
    return data, head + int(data[:head].split()[-1])


def _position(draw, size, hot):
    """An offset in ``[0, size]``, half the time within the first ``hot``
    bytes."""
    return draw(st.integers(0, size) | st.integers(0, min(size, hot)))


@st.composite
def _damaged(draw, data, donors, hot=40):
    """``data`` after one to three truncations, byte flips or splices; a
    splice puts random bytes or a slice of a donor file in place of a slice.
    Half the offsets fall within the first ``hot`` bytes."""
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["truncate", "flip", "splice"]))
        if op == "truncate":
            data = data[:_position(draw, len(data), hot)]
        elif op == "flip" and data:
            i = _position(draw, len(data) - 1, hot)
            data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
        elif op == "splice":
            a = _position(draw, len(data), hot)
            b = draw(st.integers(a, min(len(data), a + 64)))
            donor = draw(st.sampled_from(donors))
            c = draw(st.integers(0, len(donor)))
            piece = draw(st.one_of(st.binary(max_size=16),
                                   st.just(donor[c:c + draw(st.integers(0, 64))])))
            data = data[:a] + piece + data[b:]
    return data


_FUZZ = settings(max_examples=300, deadline=None)


@_FUZZ
@given(data=st.data(), user=st.sampled_from(["u01", "nobody"]))
def test_damaged_models_give_a_prediction_or_a_data_error(model_file, data, user):
    """A model that still predicts holds one id per factor row."""
    original, hot = model_file
    donors = [original, toydata.ratings_path().read_bytes()]
    damaged = data.draw(_damaged(original, donors, hot))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model"
        path.write_bytes(damaged)
        code = main(["predict", "--model", str(path), "--user", user, "--item", "m01"])
        assert code in (0, 2)
        if code == 0:
            model = load_model(path)
            assert (len(model.ids.users), len(model.ids.items)) == (
                model.num_users, model.num_items)


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
        # the study trains nothing, so it takes no training flag
        small = [] if command[-1] == "sim-study" else ["--k", "2", "--max-epochs", "3"]
        code = main([*command, *out, "--ratings", str(paths["ratings"]),
                     "--trust", str(paths["trust"]), "--config", str(paths["config"]), *small])
    assert code in _EXIT_CODES[target]


# option value texts at and just past the edges of what the converters accept
_EDGE_FLOATS = ["nan", "-nan", "inf", "-inf", "1e999", "-0", "0", "5e-324", "1e300", "-1"]
_EDGE_INTS = ["-1", "0", "1", str(2 ** 63), str(10 ** 30), "x", ""]
# --k and --max-epochs stay small: the huge-k tests cover overflow, and no
# draw may allocate gigabytes or train for long
_SMALL_INTS = ["-1", "0", "1", "2", "1.5", ""]
_KIND_TEXTS = ["pcc", "vss", "constant", "random", "cosine", "pcc:5", "",
               *(f"random:{n}" for n in _EDGE_INTS)]
_EDGE_TEXTS = {
    "k": _SMALL_INTS, "max_epochs": _SMALL_INTS,
    **dict.fromkeys(["seed", "seeds", "cold_start_threshold", "min_out_degree"], _EDGE_INTS),
    **dict.fromkeys(["lambda", "alpha", "learning_rate", "tolerance", "init_scale",
                     "fractions", "alphas"], _EDGE_FLOATS),
    "kinds": _KIND_TEXTS, "similarity": _KIND_TEXTS,
}
_LIST_OPTIONS = {"fractions", "alphas", "seeds", "kinds"}
# the flags that keep a run small, wherever the run reads them
_SMALL_RUN = {"k": "2", "max_epochs": "3", "fractions": "0.9", "seeds": "1"}
_RUN_ARGV = {run: [command, "--method" if command == "train" else "--which", run]
             for command, runs in _RUNS.items() for run in runs}
# every (run, option) pair but a path option the run reads, which the
# damaged-input tests above cover
_PAIRS = [(run, name) for run in _RUN_ARGV for name in _OPTIONS
          if name in _EDGE_TEXTS or run not in _OPTIONS[name][2]]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), pair=st.sampled_from(_PAIRS))
def test_edge_option_values_give_a_result_or_a_config_error(data, pair):
    """A flag the run does not read exits 1 naming it. Text for an option
    the run reads, given as a flag or a config line, exits 1 naming the flag
    or the file and line if the option's converter refuses it; else the run
    ends in a result (0) or divergence (3), never in a library check."""
    run, name = pair
    reads = run in _OPTIONS[name][2]
    texts = _EDGE_TEXTS.get(name, ["x.tsv"])
    count = data.draw(st.integers(1, 2)) if name in _LIST_OPTIONS else 1
    value = ",".join(data.draw(st.lists(st.sampled_from(texts), min_size=count,
                                        max_size=count)))
    as_flag = not reads or data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        base = {"ratings": str(toydata.ratings_path()), "trust": str(toydata.trust_path()),
                "out": str(Path(tmp) / "model.bin"), "out_dir": str(Path(tmp) / "res"),
                **_SMALL_RUN}
        argv = [arg for other, text in base.items()
                if other != name and run in _OPTIONS[other][2] for arg in (_flag(other), text)]
        config = Path(tmp) / "run.cfg"
        config.write_text(f"{name} = {value}\n", encoding="utf-8")
        where = [_flag(name), value] if as_flag else ["--config", str(config)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*_RUN_ARGV[run], *argv, *where])
    if not reads:
        assert code == 1 and _flag(name) in err.getvalue()
        return
    try:
        _option(name, run)[0](value.strip())
    except ValueError:
        assert code == 1
        assert (_flag(name) if as_flag else f"{config}:1: ") in err.getvalue()
    else:
        assert code in (0, 3), err.getvalue()


# the files each run writes, by name in --out-dir, or beside --out m.bin
_RESULTS = {"mf": ["m.bin.report.json"], "social": ["m.bin.report.json"],
            **{run: [f"{run}.csv", f"{run}-summary.csv"] for run in _RUNS["experiment"]}}
_RESULTS["alpha-sweep"] += ["alpha-sweep-mae.csv", "alpha-sweep-rmse.csv"]


@pytest.mark.parametrize("run,name", [(run, name) for run, names in _RESULTS.items()
                                      for name in names])
def test_a_directory_at_a_result_path_is_refused_before_any_data(tmp_path, run, name):
    """A result path that is a directory is a usage error naming it (exit 1),
    given before the ratings file, here a missing one, is read."""
    (tmp_path / name).mkdir()
    where = (["--out", str(tmp_path / "m.bin")] if run in _RUNS["train"] else
             ["--out-dir", str(tmp_path)])
    trust = ["--trust", str(tmp_path / "t.tsv")] if run in _OPTIONS["trust"][2] else []
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*_RUN_ARGV[run], "--ratings", str(tmp_path / "r.tsv"), *trust, *where])
    assert code == 1
    assert err.getvalue() == f"socrec: error: result path {tmp_path / name} is a directory\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
def test_a_full_device_is_an_output_error():
    """Every write to /dev/full fails with ENOSPC: exit 4, one line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--method", "mf", "--ratings", str(toydata.ratings_path()),
                     "--k", "2", "--max-epochs", "3", "--out", "/dev/full"])
    assert code == 4
    assert err.getvalue() == ("socrec: output error: cannot write /dev/full: "
                              "No space left on device\n")
