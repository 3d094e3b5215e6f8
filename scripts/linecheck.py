"""List the statement lines of the package's functions that the tests never run.

    python scripts/linecheck.py [pytest arguments]

Runs the tier-1 suite (``pytest -q --continue-on-collection-errors``, with
``src`` first on ``PYTHONPATH`` and the arguments appended) in this process
under a ``sys.settrace`` line recorder. The Python processes the tests start
are recorded too: a ``sitecustomize.py`` first on their inherited
``PYTHONPATH`` starts the recorder, which writes the lines the child ran to
a file when it exits. A child whose environment drops ``PYTHONPATH``, or
that ends through ``os._exit`` or a signal, goes unrecorded.

Prints each statement line inside a function of ``src/`` that no process
ran, as ``file:line``, and a count to stderr. Exits with pytest's status
when the tests fail, else 1 when a line is listed, else 0. A statement
counts as run when any line of it (of its header, for a compound
statement) ran; statements that compile to no bytecode, such as
docstrings, are left out. Tracing about doubles the suite's run time.
"""

import ast
import atexit
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# the directory a recorded child writes its lines into
_OUT = "LINECHECK_OUT"
_SITE = """\
import sys
sys.path.insert(0, {scripts!r})
import linecheck
del sys.path[0]
linecheck.record_child()
"""


def start() -> set:
    """Record, from now on, every (file, line) of ``src/`` that this
    thread runs into the set returned (the package starts no threads)."""
    lines, ours = set(), {}
    prefix = str(SRC) + os.sep

    def on_line(frame, event, _):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, _):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(prefix)
        return on_line if ours[name] else None

    sys.settrace(on_call)
    return lines


def record_child():
    """Record this process and write its lines into ``$LINECHECK_OUT`` at exit."""
    lines = start()
    atexit.register(_write, lines, os.environ[_OUT])


def _write(lines, out):
    sys.settrace(None)
    fd, _ = tempfile.mkstemp(dir=out, suffix=".lines")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\t{name}\n" for name, line in lines)


def record(run):
    """``run()``'s result, and the (real path, line) pairs of ``src/`` that
    it ran in this process and in the Python processes it started."""
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "lines")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(_SITE.format(scripts=str(Path(__file__).parent)))
        saved = {key: os.environ.get(key) for key in ("PYTHONPATH", _OUT)}
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(site), saved["PYTHONPATH"])))
        os.environ[_OUT] = str(out)
        previous = sys.gettrace()
        lines = start()
        try:
            result = run()
        finally:
            sys.settrace(previous)
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        for path in out.iterdir():
            with open(path, encoding="utf-8") as fh:
                for row in fh:
                    line, name = row.rstrip("\n").split("\t", 1)
                    lines.add((name, int(line)))
    return result, {(os.path.realpath(name), line) for name, line in lines}


def statements(path) -> dict:
    """The statements inside the functions of the source file ``path`` that
    compile to bytecode: each one's first line, mapped to its lines (a
    compound statement's header only)."""
    source = Path(path).read_text(encoding="utf-8")
    executable, code = set(), [compile(source, str(path), "exec")]
    while code:
        unit = code.pop()
        executable.update(line for *_, line in unit.co_lines() if line)
        code.extend(c for c in unit.co_consts if isinstance(c, types.CodeType))
    found = {}
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if node is func or not isinstance(node, ast.stmt):
                continue
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
            span = range(node.lineno, max(node.lineno, end) + 1)
            if executable.intersection(span):
                found[node.lineno] = span
    return found


def unreached(lines) -> list:
    """``file:line`` of each statement of a ``src/`` function that none of
    the recorded (real path, line) ``lines`` belongs to."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        ran = {line for name, line in lines if name == os.path.realpath(path)}
        out += [f"{path.relative_to(ROOT)}:{first}"
                for first, span in sorted(statements(path).items()) if ran.isdisjoint(span)]
    return out


def main(argv) -> int:
    import pytest

    os.chdir(ROOT)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), path)))
    status, lines = record(lambda: pytest.main(["-q", "--continue-on-collection-errors", *argv]))
    missed = unreached(lines)
    for item in missed:
        print(item)
    print(f"linecheck: {len(missed)} statement lines in src/ functions never ran", file=sys.stderr)
    return status or (1 if missed else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
