"""Benchmark of the iccdec package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/` of
that checkout and nowhere else.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 serves the workload's seeded request list in a closed loop, in
whole passes, until the pass boundary nearest to S seconds with at least
MIN_REQUESTS requests served, and reports the end-to-end metrics.
--trace 1 serves the request list exactly once untraced and once traced,
so that counts repeat exactly, and reports the per-layer metrics; S does
not bound it.  Every run also writes perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter

from spans import PAYLOAD, Tracer
from workloads import WORKLOADS, CliCorpus, ForkedWorkload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")

MIN_REQUESTS = 100  # so that p90 has at least ten samples beyond it
SETUP_REPEATS = 3  # before and again after the timed loop
PROBE_REPEATS = 5
CONSTRUCTIONS = (
    "FiniteCyclic", "InfiniteCyclic", "FreeProduct", "Amalgam", "Hnn", "SemidirectZnByZ",
    "DirectWithFinite", "FiberExtension", "SurfaceGroup", "MatrixGroupSL2Eisenstein",
)
LAYERS = (
    PAYLOAD, "groups.multiply", "groups.invert", "groups.conjugate", "groups.ball_with_lengths",
    "oracle.conjugacy_class_ball", "oracle.fc_center_candidates", "oracle.strong_icc_witness",
    "descriptors.parse_descriptor_data", "rules.decide_structured_group", "manifolds.decide",
    "cli.main",
)
# the four manifold-level deciders are one layer
DECIDERS = {f"manifolds.{d}" for d in (
    "decide_icc_orientable", "decide_icc_nonorientable", "decide_icc_knot", "decide_icc_link")}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "iccdec", "__init__.py")):
        fail(f"no iccdec package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import iccdec

    if os.path.dirname(os.path.dirname(os.path.abspath(iccdec.__file__))) != SRC:
        fail(f"iccdec was imported from {iccdec.__file__}, not from {SRC}")


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class Tally:
    """Outcomes of served requests, kept small: latencies, failures, and the
    output digests of the first pass over the request list."""

    def __init__(self, pass_length: int):
        self.pass_length = pass_length
        self.latencies = array("d")
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.rss_kb = 0

    def add(self, outcome) -> None:
        self.latencies.append(outcome.latency_s)
        if not outcome.ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(outcome.detail)
        if len(self.digests) < self.pass_length:
            self.digests.append(outcome.digest)
        self.rss_kb = max(self.rss_kb, outcome.rss_kb)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def setup_workload(name: str, seed: int):
    workload = WORKLOADS[name](SRC, seed)
    workload.serve(workload.warmup_request())  # untimed; a failure shows in the timed requests
    return workload


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter on this script to its first
    request being ready: import, corpus, request list and one warm-up.
    Repeated, as the host's speed drifts; see README.md."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, cwd=ROOT,
        )
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            fail("set-up in a fresh interpreter failed")
    return samples


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    setup_samples = measure_setup(name, seed)
    workload = setup_workload(name, seed)
    requests = workload.requests
    tally = Tally(len(requests))
    passes = 0
    start = time.perf_counter()
    while True:
        for request in requests:
            tally.add(workload.serve(request))
        passes += 1
        if not tally.rss_kb:
            # served in this process: its peak after one pass, before the
            # latency record grows with the run's throughput
            tally.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wall = time.perf_counter() - start
        # whole passes only, so that every run serves the same mix of
        # requests; stop at the pass boundary nearest to `seconds`
        if tally.attempted >= MIN_REQUESTS and wall + wall / passes / 2 >= seconds:
            break
    setup_samples += measure_setup(name, seed)
    latencies = sorted(tally.latencies)
    metrics = {
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        # per second of request time: the benchmark's own work between
        # requests (forks, output checks) is not the program's
        "throughput_rps": (tally.attempted / sum(latencies), "1/s"),
        "peak_rss_mb": (tally.rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "error_rate": (tally.failed / tally.attempted, "ratio"),
    }
    extra = {
        "requests_per_pass": len(requests),
        "samples": tally.attempted,
        "passes": passes,
        "wall_s": wall,
        "setup_samples_s": setup_samples,
    }
    return metrics, tally, extra


# ---------------------------------------------------------------------------
# traced run


def run_pass(workload, in_process: bool, recorder=None, total=None) -> tuple[Tally, float]:
    """Serve the request list once.  With a recorder, each request is
    traced, and the snapshots of forked children are merged into total."""
    tally = Tally(len(workload.requests))
    serve = workload.serve_in_process if in_process else workload.serve
    start = time.perf_counter()
    for request in workload.requests:
        if recorder is not None:
            recorder.request_id = request["id"]
        outcome = serve(request)
        if outcome.trace is not None:
            total.merge(outcome.trace)
        tally.add(outcome)
    return tally, time.perf_counter() - start


def cli_probes(seed: int) -> dict:
    """cli.interpreter_s, cli.import_s and cli.main_s, each a median."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def spawn(code: str) -> float:
        samples = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    bare = spawn("pass")
    imported = spawn("import iccdec.cli")
    corpus = CliCorpus(SRC, seed)
    main = [corpus.serve_in_process(r).latency_s for r in corpus.requests]
    return {"cli.interpreter_s": bare, "cli.import_s": imported - bare,
            "cli.main_s": statistics.median(main)}


def layer_metrics(tracer, traced_s: float) -> dict:
    """Per-layer counts, self times, self shares and ratios of a traced pass.

    A layer's self share is its self time as a percentage of the traced
    pass's wall time; it is 0 on a workload that never calls the layer,
    where a self time would read 0.0 s on every run."""
    calls, self_s, counters = Counter(), Counter(), tracer.counters
    for name, count in tracer.calls.items():
        if name.startswith(PAYLOAD + "."):  # one name per construction class
            layer = PAYLOAD
        else:
            layer = "manifolds.decide" if name in DECIDERS else name
        calls[layer] += count
        self_s[layer] += tracer.self_s[name]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (self_s[layer], "s")
        m[f"{layer}.self_pct"] = (100 * self_s[layer] / traced_s, "%")
    for c in CONSTRUCTIONS:
        m[f"{PAYLOAD}.calls.{c}"] = (tracer.calls[f"{PAYLOAD}.{c}"], "count")

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    ball, class_ball, witness = "groups.ball_with_lengths", "oracle.conjugacy_class_ball", "oracle.strong_icc_witness"
    m[f"{ball}.elements"] = (counters[f"{ball}.elements"], "count")
    m[f"{ball}.hit_ratio"] = (ratio(counters[f"{ball}.hits"], calls[ball]), "ratio")
    m[f"{class_ball}.useful_ratio"] = (
        ratio(counters[f"{class_ball}.distinct"], counters[f"{class_ball}.conjugations"]), "ratio")
    m[f"{witness}.useful_ratio"] = (
        ratio(counters[f"{witness}.kept"], counters[f"{witness}.scanned"]), "ratio")
    return m


def traced_run(name: str, seed: int) -> tuple[dict, Tally, dict]:
    workload = setup_workload(name, seed)
    in_process = name == "cli_corpus"  # a CLI subprocess cannot be traced from here
    probes = cli_probes(seed)  # also warms the in-process CLI path up
    untraced, untraced_s = run_pass(workload, in_process)
    recorder = Tracer()
    recorder.install()
    if isinstance(workload, ForkedWorkload):
        workload.tracer = recorder  # each child records into its own copy
        total = Tracer()
    else:
        recorder.enabled = True
        total = recorder
    traced, traced_s = run_pass(workload, in_process, recorder, total)
    recorder.enabled = False
    if untraced.digests != traced.digests:
        traced.failed += 1
        traced.failures.append("traced and untraced passes gave different outputs")
    metrics = layer_metrics(total, traced_s)
    metrics.update({k: (v, "s") for k, v in probes.items()})
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    tally = Tally(len(workload.requests))
    for part in (untraced, traced):
        tally.latencies.extend(part.latencies)
        tally.failed += part.failed
        tally.failures += part.failures
    tally.digests = traced.digests
    extra = {"requests_per_pass": len(workload.requests), "spans": total.spans}
    return metrics, tally, extra


# ---------------------------------------------------------------------------


def write_result(args, section: str, metrics: dict, tally: Tally, extra: dict) -> str:
    """Record this run under its section of results/<workload>-seed<seed>.json;
    the timed and the traced run of one seed share the file."""
    os.makedirs(RESULTS, exist_ok=True)
    base = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}")
    spans = extra.pop("spans", None)
    if spans is not None:
        with open(base + "-spans.jsonl", "w", encoding="utf-8") as out:
            for name, start, end, parent, request in spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "request": request}) + "\n")
        extra["spans_file"] = os.path.relpath(base + "-spans.jsonl", ROOT)
        extra["span_count"] = len(spans)
    try:
        with open(base + ".json", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = {}
    record.update({"workload": args.workload, "seed": args.seed, "machine": machine()})
    record[section] = {
        "seconds": args.seconds,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "outputs_digest": digest(tally.digests),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    with open(base + ".json", "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True)
    return os.path.relpath(base + ".json", ROOT)


def selected(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [m["name"] for m in json.load(handle)[kind]]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, serve the warm-up request, print 'ready' and exit "
                        "(how setup_s is measured)")
    args = parser.parse_args()
    import_package()
    if args.setup_only:
        setup_workload(args.workload, args.seed)
        print("ready", flush=True)
        return
    if args.trace:
        metrics, tally, extra = traced_run(args.workload, args.seed)
        names = selected("per_layer")
    else:
        metrics, tally, extra = timed_run(args.workload, args.seed, args.seconds)
        names = selected("end_to_end")
    path = write_result(args, "traced" if args.trace else "timed", metrics, tally, extra)
    print(f"workload {args.workload}, seed {args.seed}: {tally.attempted} requests "
          f"({extra['requests_per_pass']} per pass), {tally.failed} failed")
    for detail in tally.failures:
        print(f"  failure: {detail.strip()}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48} {value:>16.6g} {unit}")
    print(f"outputs digest {digest(tally.digests)}; result in {path}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }))


if __name__ == "__main__":
    main()
