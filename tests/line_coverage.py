"""Print the lines of ``src/riimpute`` that a pytest run never executes.

Not a test module (no ``test_`` prefix, so pytest does not collect it), and
standard library only: coverage.py is not a dependency of the project. It runs
pytest in this process under ``sys.settrace`` and ``threading.settrace``, so
the threads of ``ri_impute``'s chain pool and of ``density``'s kernel sums are
traced too, and prints per module of ``src/riimpute`` each executable line
that no traced frame reached, as ``src/riimpute/MODULE.py:LINE: SOURCE``. The
executable lines are the line numbers of the compiled code objects'
instructions (``co_lines``), so a docstring, a comment or a bare ``else:``
never counts.

    PYTHONPATH=src python tests/line_coverage.py                 # the non-slow suite
    PYTHONPATH=src python tests/line_coverage.py tests/test_rng.py

Arguments go to pytest; with none it runs ``-q -m "not slow" tests``. Forked
worker processes (``run_scenario``'s, ``simulate --jobs``) and the CLI runs
that tests start as subprocesses are not traced: a line that only they run is
printed as never run. Tracing makes the non-slow suite about half as slow
again (about 41 s against 29 s on a two-core machine). The exit status is
pytest's.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "riimpute"


def executable_lines(path: Path) -> set[int]:
    """The lines that some instruction of the module's code objects maps to."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main(args: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))  # trace this checkout's package, by its full path
    ran: dict[str, set[int]] = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def trace_lines(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        # a call event's line is the def line, or the line a generator resumes at
        return trace_lines(frame, event, arg) if frame.f_code.co_filename in ran else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(args or ["-q", "-m", "not slow", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name, lines in ran.items():
        path = Path(name)
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - lines):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
