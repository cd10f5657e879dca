"""Lines of `src/billiards` that the test suite never executes.

    python3 scripts/line_coverage.py [PYTEST_ARGS ...]

Runs pytest in this process (by default on `tests/`, quietly) under
`sys.settrace`, with the package imported from the `src/` of the checkout
that holds this script.  Only frames whose file is under `src/billiards`
are traced line by line.  It then prints every executable line that never
ran, as `file:line: text`, and their count.  The executable lines of a
file are the line numbers of its compiled code objects (`co_lines`,
nested functions and classes included).

It reports lines, not branches: a line that ran on one side of a
condition counts as covered.  Tests that run the package in a subprocess,
such as `tests/test_imports.py`, are not traced, so a line that only they
reach is listed.  Tracing makes the suite about 2.5 times slower.  The
exit status is pytest's.  The `coverage` package is not needed.
"""

from __future__ import annotations

import sys
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "billiards"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that hold code in the file, by its code objects.  A
    function's entry instruction sits on its def (or first decorator)
    line, which the enclosing code runs when it defines the function."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(const for const in code.co_consts
                     if isinstance(const, types.CodeType))
        # line 0 is the module's entry instruction, before its first line
        lines.update(line for _, _, line in code.co_lines() if line)
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    prefix = str(PACKAGE) + "/"
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                      str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
