"""List the lines of `src/iccdec` that the Tier-1 suite never runs.

Run from the repository root:

    PYTHONPATH=src python tests/line_census.py [extra pytest args]

It runs the suite in this process under a `sys.settrace` hook, then prints
each never-run line as `path:line` and their count.  A line counts as
executable when some code object compiled from its file starts a line
there.  Tests that start their own interpreter (`subprocess`) are not
traced.  This is a report, not a gate: its exit code is pytest's, and the
argument-check raises it lists are expected.  pytest does not collect this
file, as its name does not start with `test_`.
"""

import dis
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "iccdec"
PREFIX = str(SRC)

ran: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None
    ran.setdefault(filename, set()).add(frame.f_lineno)
    return _local


def _executable(path: Path) -> set[int]:
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def main(argv: list[str]) -> int:
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        seen = ran.get(str(path), set())
        missed += [f"{path.relative_to(SRC.parents[1])}:{line}" for line in sorted(_executable(path) - seen)]
    print("\n".join(missed))
    print(f"{len(missed)} lines of src/iccdec never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
