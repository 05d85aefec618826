"""List the functions of `src/iccdec` that no benchmark request enters.

Run from the repository root:

    python tests/workload_census.py [--seed N] [workload ...]

It builds each named workload (default: decide_sweep, oracle and
cli_corpus) from `perfbench/workloads.py` at the seed, then serves its
seeded request list once, in this process, under a `sys.settrace` hook:
`DecideSweep.serve` for decide_sweep, `ForkedWorkload.execute` and `check`
for oracle (no fork, so the hook sees the work), and
`CliCorpus.serve_in_process` for cli_corpus.  Only the requests are traced,
not the set-up that builds the request lists.  It prints each function that
no request entered as `path:line name`, then their count and each
workload's count of requests and failures.  Last come the calls each
workload makes to `multiply_payloads` and to `invert_payload`, per
construction, with the `oracle` requests split by their op (class, fc,
witness): operation counts that repeat exactly from run to run.  This is a
report, not a gate; pytest does not collect this file, as its name does not
start with `test_`.
"""

import argparse
import inspect
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PREFIX = str(SRC / "iccdec")
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py, imported as it is)

PAYLOAD_OPS = ("multiply_payloads", "invert_payload")


def _counter(entries: Counter):
    """A trace hook that counts the entries into each function of
    src/iccdec, keyed by (path, first line, qualified name)."""

    def enter(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(PREFIX):
            entries[code.co_filename, code.co_firstlineno, code.co_qualname] += 1
        return None

    return enter


COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _functions(path: Path) -> list[tuple[int, str]]:
    """(first line, qualified name) of every function compiled from path;
    class bodies and comprehensions are not listed."""
    found, todo = [], [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                todo.append(const)
                if const.co_flags & inspect.CO_OPTIMIZED and const.co_name not in COMPREHENSIONS:
                    found.append((const.co_firstlineno, const.co_qualname))
    return sorted(found)


def _serve(workload, request) -> bool:
    if isinstance(workload, workloads.ForkedWorkload):
        return workload.check(request, workload.execute(request))[0]
    if isinstance(workload, workloads.CliCorpus):
        return workload.serve_in_process(request).ok
    return workload.serve(request).ok


def _payload_ops(row: str, entries: Counter) -> list[str]:
    lines = []
    for op in PAYLOAD_OPS:
        calls = Counter()
        for (_, _, name), n in entries.items():
            owner, _, method = name.rpartition(".")
            if method == op:
                calls[owner] += n
        split = ", ".join(f"{owner} {n:,}" for owner, n in sorted(calls.items()))
        lines.append(f"{row} {op} {sum(calls.values()):,}" + (f": {split}" if split else ""))
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument("names", nargs="*", default=["decide_sweep", "oracle", "cli_corpus"])
    args = parser.parse_args(argv)
    served, rows = [], {}
    for name in args.names:
        workload = workloads.WORKLOADS[name](str(SRC), args.seed)
        failed = 0
        for request in workload.requests:
            row = f"{name} {request['op']}" if "op" in request else name
            sys.settrace(_counter(rows.setdefault(row, Counter())))
            try:
                failed += not _serve(workload, request)
            finally:
                sys.settrace(None)
        served.append(f"{name}: {len(workload.requests)} requests, {failed} failed")
    entered = {(path, line) for entries in rows.values() for path, line, _ in entries}
    missed = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted(Path(PREFIX).rglob("*.py"))
        for line, name in _functions(path)
        if (str(path), line) not in entered
    ]
    print("\n".join(missed))
    print(f"{len(missed)} functions of src/iccdec entered by no request (seed {args.seed})")
    print("\n".join(served))
    for row, entries in sorted(rows.items()):
        print("\n".join(_payload_ops(row, entries)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
