"""Deferred submodules used for the first time by several threads at once.

Each probe starts a fresh interpreter, so that no deferred module has run
yet, and releases four threads together; each parses and decides the same
descriptors.  One probe can miss a race, so the test runs three.
"""

import json
import os
import subprocess
import sys

import iccdec
from iccdec import cli
from iccdec.descriptors import load_descriptor

# An HNN extension, a matrix group, and a torus-bundle piece, which reaches
# the group rules through the manifold engine.
NAMES = [
    "group_bs12.json",
    "group_figure_eight_matrix.json",
    "manifold_torus_bundle_hyperbolic.json",
]
THREADS = 4
PROBES = 3

_PROBE = r"""
import json, sys, threading

from iccdec import cli
from iccdec.descriptors import load_descriptor

threads, paths = int(sys.argv[1]), sys.argv[2:]
sys.setswitchinterval(1e-5)  # switch threads often, so a race shows sooner
barrier = threading.Barrier(threads)
results = [None] * threads


def decide_all(index):
    barrier.wait(timeout=60)
    answers = []
    for path in paths:
        try:
            answers.append(cli._verdict_data(cli._decide(load_descriptor(path))))
        except Exception as exc:
            answers.append(f"{type(exc).__name__}: {exc}")
    results[index] = answers


workers = [
    threading.Thread(target=decide_all, args=(i,), daemon=True) for i in range(threads)
]
for worker in workers:
    worker.start()
for worker in workers:
    worker.join(timeout=60)
print(json.dumps(results))  # a thread still running leaves its entry null
"""


def _decided(path: str) -> dict:
    return json.loads(json.dumps(cli._verdict_data(cli._decide(load_descriptor(path)))))


def test_threads_using_deferred_modules_first_agree_with_one_thread(corpus_dir):
    paths = [str(corpus_dir / name) for name in NAMES]
    expected = [_decided(path) for path in paths]
    src = os.path.dirname(os.path.dirname(iccdec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for _ in range(PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(THREADS), *paths],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [expected] * THREADS
