"""Checks on the test suite's own structure."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")
SRC = Path(__file__).resolve().parents[1] / "src"


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
    """The block reader marks whitespace with a table of ``str.isspace``
    whose last entry stands for every higher code point, so it splits
    fields where ``str.split`` does. A Python release that adds a
    whitespace code point past the table fails here."""
    from socrec.data import _SPACE

    assert _SPACE.tolist() == [chr(c).isspace() for c in range(_SPACE.size)]
    assert not _SPACE[-1]
    assert not any(chr(c).isspace() for c in range(_SPACE.size, sys.maxunicode + 1))
