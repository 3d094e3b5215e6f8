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


def _probe_loads_scipy_sparse(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = f"{code}\nimport sys; print('scipy.sparse' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    return result.stdout.strip().splitlines()[-1] == "True"


def test_package_import_leaves_scipy_sparse_unloaded():
    """scipy.sparse is imported on first use by the training kernels, so
    starting the CLI (``socrec predict`` included) does not pay for it, and
    neither do the edge similarities nor the similarity study."""
    assert not _probe_loads_scipy_sparse("import socrec, socrec.cli")
    assert not _probe_loads_scipy_sparse(SIMILARITY_PROBE)
