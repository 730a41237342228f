"""Print the statements of ``src/tropcyl/`` that no tier-1 test runs.

Runs the tier-1 suite (pytest over ``tests/``, ``src`` on the path) in this
process under a ``sys.settrace`` line tracer, then prints, per module, each
statement that compiles to code and never ran, as ``path:line: source``.
Hypothesis draws from a fixed seed (0), so a report is reproducible; a
statement only some seeds reach shows up as unreached. The script leaves
no file behind: it writes no bytecode and no pytest cache, and Hypothesis
keeps its database and caches in a temporary directory removed at exit.

    python3 tools/unreached.py [extra pytest arguments]

Extra arguments go to pytest after the tier-1 ones, for example ``-x``.
It is not part of tier-1. A full run takes 30-40 s (Python 3.11.7, 2
shared vCPUs), against about 14 s untraced. The tracer keeps no frame
object, so the two tests that assert a call leaves no cyclic garbage
(``test_oracle_leaves_no_cyclic_garbage`` and
``test_canonical_leaves_no_cyclic_garbage``) pass under it as they do
untraced.

A gate: exits 0 when every statement ran and every test passed, 1 after
printing a report that lists some statement or when a test failed, and 2
when pytest itself could not run the suite (usage or internal error, or no
tests collected).
"""

from __future__ import annotations

import ast
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "tropcyl"
TIER1_ARGS = [
    "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
    "--hypothesis-seed=0", str(ROOT / "tests"),
]


def code_lines(source: str, filename: str) -> set[int]:
    """Every line that some instruction of the compiled module sits on."""
    lines: set[int] = set()
    todo = [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def statement_lines(source: str) -> set[int]:
    """The first line of every statement, docstrings left out."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        out.add(node.lineno)
    return out


class HypothesisHome:
    """A pytest plugin that points Hypothesis's storage (its example
    database and caches) at a directory of our own. Hypothesis is imported
    once pytest has set up assertion rewriting."""

    def __init__(self, directory: str):
        self.directory = directory

    def pytest_configure(self, config):
        from hypothesis.configuration import set_hypothesis_home_dir

        set_hypothesis_home_dir(self.directory)


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under a line tracer limited to the package's files; return
    its exit code and the lines run per file."""
    prefix = str(PACKAGE) + "/"
    hit: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, _event, _arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hit.setdefault(name, set()).add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as home:
            code = pytest.main(TIER1_ARGS + pytest_args, plugins=[HypothesisHome(home)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hit


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    code, hit = run_traced(argv)
    if code >= 2:
        print(f"pytest exited {code}; no report", file=sys.stderr)
        return 2
    total = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = hit.get(str(path), set())
        missed = sorted((statement_lines(source) & code_lines(source, str(path))) - ran)
        total += len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    print(f"{total} statements unreached in {PACKAGE.relative_to(ROOT)}/")
    return 1 if total or code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
