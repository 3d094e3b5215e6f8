"""Checks on the test suite's own structure."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

ORACLES = Path(__file__).with_name("oracles.py")
SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = SRC.parent / "perfbench"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import would reach whatever package the file sits in
            yield "." * node.level + (node.module or "")


def test_oracles_import_no_package_code():
    """The oracles stay independent of socrec, so a shared bug cannot make
    the library and its cross-check agree."""
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"), filename=str(ORACLES))
    modules = list(_imported_modules(tree))
    assert modules, "no imports found; the parse missed the file's header"
    offending = [m for m in modules
                 if m.startswith(".") or m == "socrec" or m.startswith("socrec.")]
    assert offending == []


# builds both edge similarity tables and runs the similarity study on the
# bundled toy data
SIMILARITY_PROBE = """
from socrec import (SimilarityKind, build_similarity_table, load_dataset,
                    run_similarity_study, toydata)
ratings, graph, _ = load_dataset(toydata.ratings_path(), toydata.trust_path())
for kind in (SimilarityKind.pcc(), SimilarityKind.vss()):
    build_similarity_table(ratings, graph, kind)
run_similarity_study(ratings, graph, min_out_degree=1)
"""


def _probe_loads(code, module):
    """Whether running ``code`` in a fresh interpreter imports ``module``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = f"{code}\nimport sys; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    return result.stdout.strip().splitlines()[-1] == "True"


def test_package_import_leaves_scipy_sparse_unloaded():
    """scipy.sparse is imported on first use by the training kernels, so
    starting the CLI (``socrec predict`` included) does not pay for it, and
    neither do the edge similarities nor the similarity study."""
    assert not _probe_loads("import socrec, socrec.cli", "scipy.sparse")
    assert not _probe_loads(SIMILARITY_PROBE, "scipy.sparse")


def test_package_import_leaves_scipy_special_and_stats_unloaded():
    """scipy.special is imported by the first p-value, not at start-up."""
    for module in ("scipy.special", "scipy.stats"):
        assert not _probe_loads("import socrec, socrec.cli", module)


def test_compare_experiment_never_loads_scipy_stats(tmp_path):
    """The paired t-tests of a full comparison run without scipy.stats."""
    code = f"""
from socrec import toydata
from socrec.cli import main
argv = ["experiment", "--which", "compare", "--ratings", str(toydata.ratings_path()),
        "--trust", str(toydata.trust_path()), "--fractions", "0.9", "--seeds", "1,2",
        "--max-epochs", "40", "--out-dir", {str(tmp_path / "res")!r}]
if main(argv) != 0:
    raise SystemExit("compare failed")
"""
    assert not _probe_loads(code, "scipy.stats")
    assert (tmp_path / "res" / "compare-summary.csv").exists()


def test_whitespace_table_covers_every_whitespace_code_point():
    """The block reader marks whitespace in a byte per code point: the
    code points below 256 keep their own byte, which ``_SPACE`` maps to
    ``str.isspace``, after ``_WIDE_SPACE`` has made each higher whitespace
    code point a space. So it splits fields where ``str.split`` does, and a
    Python release that adds a whitespace code point still does."""
    from socrec.data import _SPACE, _WIDE_SPACE

    assert _SPACE.tolist() == [chr(c).isspace() for c in range(256)]
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert _WIDE_SPACE.findall(every) == [c for c in every[256:] if c.isspace()]


def test_toy_data_script_reproduces_the_bundled_files(tmp_path, monkeypatch):
    """``scripts/gen_toydata.py`` writes the toy files the package ships."""
    spec = importlib.util.spec_from_file_location(
        "gen_toydata", SRC.parent / "scripts" / "gen_toydata.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT_DIR", tmp_path)
    script.main()
    for name in ("ratings.tsv", "trust.tsv"):
        assert (tmp_path / name).read_bytes() == (SRC / "socrec" / "toydata" / name).read_bytes()


def test_line_recorder_follows_child_processes():
    """``scripts/linecheck.py`` records the package lines run in its own
    process and in a Python child it starts, and lists the statements that
    neither ran."""
    import inspect

    from socrec import data

    spec = importlib.util.spec_from_file_location(
        "linecheck", SRC.parent / "scripts" / "linecheck.py")
    linecheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecheck)

    def line_of(func, text):
        lines, first = inspect.getsourcelines(func)
        return first + next(n for n, line in enumerate(lines) if text in line)

    def run():
        data.whole_number("n", 3)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        subprocess.run([sys.executable, "-c",
                        "from socrec import data; data.real_number('x', 1, 0)"],
                       env=env, check=True, timeout=60)

    _, lines = linecheck.record(run)
    path = os.path.realpath(data.__file__)
    in_process = line_of(data.whole_number, "return int(")
    in_child = line_of(data.real_number, "return float(")
    assert {(path, in_process), (path, in_child)} <= lines
    missed = linecheck.unreached(lines)
    assert f"src/socrec/data.py:{line_of(data.whole_number, 'raise ValueError')}" in missed
    assert not {f"src/socrec/data.py:{line}" for line in (in_process, in_child)} & set(missed)


@pytest.fixture
def perfbench_module(monkeypatch):
    """A loader of perfbench modules by path. Their sibling imports
    (``import tracer``) resolve from the perfbench directory, and the
    perfbench modules they add to ``sys.modules`` are dropped afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"_perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    yield load
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "").parent == PERFBENCH:
            del sys.modules[name]


def test_benchmark_finds_the_package_names_it_uses(perfbench_module):
    """The benchmark wraps package functions by name and calls some
    directly, outside this suite; a deletion that removes one of them
    fails here instead of in the benchmark run."""
    tracer = perfbench_module("tracer")
    for module, attr, *_ in tracer._entry_points():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    worker = perfbench_module("worker")
    worker.warm_up()
    assert worker.environment()["kernel_backend"]


def test_benchmark_describes_every_result_type(perfbench_module, tmp_path):
    """The benchmark's output check reads fields of each result type it
    handles (``model.k``, ``report.epochs_run``, ``split.num_test``, ...);
    one package-built object of each type describes without a problem."""
    import socrec
    from socrec.synthetic import clustered_dataset

    checks = perfbench_module("checks")
    ratings, graph, _ = clustered_dataset(num_users=60, num_clusters=6, seed=1)
    socrec.save_ratings(ratings, tmp_path / "r.tsv")
    (tmp_path / "t.tsv").write_text("".join(
        f"{s}\t{t}\n" for s, t in zip(graph.edge_src, graph.edge_dst)))
    split = socrec.split_ratings(ratings, 0.8, seed=1)
    sim = socrec.build_similarity_table(split.train, graph, socrec.SimilarityKind.pcc())
    hp = socrec.Hyperparams(k=3, max_epochs=5)
    model, report = socrec.train(split.train, hp, graph, sim)
    results = [
        socrec.load_dataset(tmp_path / "r.tsv", tmp_path / "t.tsv"), split, sim,
        socrec.build_means(split.train), socrec.evaluate(model, split, split.train),
        (model, report), model,
        socrec.run_similarity_study(ratings, graph, min_out_degree=2, seed=1),
        model.predict(split.test_users, split.test_items), graph,
    ]
    for result in results:
        _, _, problems = checks.describe(result)
        assert problems == [], type(result).__name__


def test_readme_defaults_are_the_option_table_s():
    """The README's sentence of CLI defaults, and its ``train --out``
    default, read the values that cli._OPTIONS declares."""
    from socrec import Hyperparams
    from socrec.cli import _OPTIONS

    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Defaults: ((?:`[\w-]+=[^`]+`,?\s*)+)", readme)
    assert sentence, "the README's 'Defaults: `key=value`, ...' sentence is gone"
    stated = dict(re.findall(r"`([\w-]+)=([^`]+)`", sentence.group(1)))
    hyperparams = {"lambda" if f.name == "lam" else f.name for f in fields(Hyperparams)}
    assert hyperparams <= {key.replace("-", "_") for key in stated}
    for key, text in stated.items():
        convert, default = _OPTIONS[key.replace("-", "_")][:2]
        assert convert(text) == default, key
    out = re.search(r"`train --out` defaults to\s+`([^`]+)`", readme)
    assert out and out.group(1) == _OPTIONS["out"][1]


def test_readme_names_each_run_s_flags_as_the_option_table_does():
    """The README's train sentences and its "Each experiment ... reads"
    list name exactly the flags that cli._OPTIONS gives each run, with "the
    training flags" standing for the flags the README defines by that name."""
    from socrec.cli import _OPTIONS

    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    paragraphs = [" ".join(p.split()) for p in readme.split("\n\n")]
    at = [i for i, p in enumerate(paragraphs) if "The training flags are" in p]
    assert at, "the README's paragraph that defines 'The training flags' is gone"
    runs_text, bullets = paragraphs[at[0]], paragraphs[at[0] + 1]

    def flags(text):
        named = set(re.findall(r"`(--[a-z-]+)`", text))
        return named | training if "the training flags" in text else named

    training = flags(re.search(r"The training flags are (.*?)\.", runs_text).group(1))
    stated = {run: flags(text) for run, text in
              re.findall(r"`train --method (\w+)` reads (.*?)[.;]", runs_text)}
    common = re.search(r"Each experiment .*? reads (.*?) and:$", runs_text)
    assert common, "the README's 'Each experiment ... reads ... and:' sentence is gone"
    stated |= {run: flags(common.group(1)) | flags(text)
               for run, text in re.findall(r"- `([\w-]+)`: (.*?)[.;]", bullets)}
    table = {run for _, _, runs, _ in _OPTIONS.values() for run in runs}
    assert stated == {run: {f"--{name.replace('_', '-')}" for name, (_, _, runs, _)
                            in _OPTIONS.items() if run in runs} for run in table}


def test_readme_model_format_names_the_header_save_model_writes():
    """The README's model-format paragraph gives the header line that
    factorization.MODEL_HEADER begins."""
    from socrec.factorization import MODEL_HEADER

    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    bullet = re.search(r"^- Model \(.*?(?=^\S|\Z)", readme, re.M | re.S)
    assert bullet, "the README's '- Model (...' file-format bullet is gone"
    assert f"`{MODEL_HEADER} K M N B`" in " ".join(bullet.group(0).split())
