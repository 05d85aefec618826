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
workload's count of requests and failures.  This is a report, not a gate;
pytest does not collect this file, as its name does not start with `test_`.
"""

import argparse
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PREFIX = str(SRC / "iccdec")
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py, imported as it is)

entered: set[tuple[str, int]] = set()


def _enter(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(PREFIX):
        entered.add((code.co_filename, code.co_firstlineno))
    return None


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


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument("names", nargs="*", default=["decide_sweep", "oracle", "cli_corpus"])
    args = parser.parse_args(argv)
    served = []
    for name in args.names:
        workload = workloads.WORKLOADS[name](str(SRC), args.seed)
        sys.settrace(_enter)
        try:
            failed = sum(not _serve(workload, request) for request in workload.requests)
        finally:
            sys.settrace(None)
        served.append(f"{name}: {len(workload.requests)} requests, {failed} failed")
    missed = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted(Path(PREFIX).rglob("*.py"))
        for line, name in _functions(path)
        if (str(path), line) not in entered
    ]
    print("\n".join(missed))
    print(f"{len(missed)} functions of src/iccdec entered by no request (seed {args.seed})")
    print("\n".join(served))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
