"""The workloads: seeded request lists, how a request is served, and the
check each output must pass.  `oracle` is `class_ball` and `witness_search`
in one request list; `BENCHMARK.json` lists it in their place.

Every workload is a closed loop with one client: `serve` returns only when
the request has completed.  A request is served in one of three ways:

- cli_corpus: `python -m iccdec.cli` as a subprocess, timed from the parent;
- decide_sweep: in this process (the rule engine keeps no state between
  requests);
- oracle, class_ball, witness_search: in a child forked from this process
  after import and set-up, timed inside the child.  Each request therefore
  starts with no ball cache, whatever ran before it; the child copies the
  pages of the inherited heap before the clock starts, so the timed request
  pays the cost of its own work and not the fork's.

A request that raises, or whose output fails its check, is a failure.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import sweep

# per-request cost stays near 2 s or less: radius-7 class balls and
# radius-5 fc_center_candidates are skipped on the groups where they cost
# more (measured: fc (5, 2) on group_hnn_icc_base.json alone takes 6-7 s)
CLASS_RADIUS_MAX = {"group_hnn_icc_base.json": 6, "group_figure_eight_matrix.json": 6}
FC_RADIUS_4_ONLY = {
    "group_hnn_icc_base.json",
    "group_figure_eight_matrix.json",
    "group_hnn_z_x_z2.json",
    "group_torus_bundle_hyperbolic.json",
}
SWEEP_PER_FAMILY = 60
# k for the two witness_search targets at each radius; the seed lowers each
# by 0 to 4, so k spans 1 to 40 while the seed barely moves a pass's cost
WITNESS_K_LEVELS = {6: (5, 25), 7: (15, 35), 8: (40, 10)}


@dataclass
class Outcome:
    latency_s: float
    ok: bool
    digest: str  # hash of the request's output
    detail: str = ""
    rss_kb: int = 0  # peak resident set of the serving process
    trace: Optional[dict] = None  # tracer snapshot of a forked child


@dataclass
class CorpusEntry:
    file: str
    path: str
    expected: str
    data: dict
    word: Optional[str] = None  # icc_sample, or the word of a NotICC element witness
    generators: list = field(default_factory=list)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_corpus(src: str) -> list[CorpusEntry]:
    corpus = os.path.join(src, "iccdec", "corpus")
    with open(os.path.join(corpus, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    entries = []
    for section in sorted(manifest):
        for item in manifest[section]:
            path = os.path.join(corpus, item["file"])
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            entries.append(
                CorpusEntry(item["file"], path, item["expected_status"], data, item.get("icc_sample"))
            )
    return entries


def decide(descriptor):
    """The verdict for a parsed descriptor, through the public deciders."""
    from iccdec import manifolds, rules

    if descriptor.kind == "group":
        return rules.decide_structured_group(descriptor.group)
    if descriptor.kind == "manifold":
        if descriptor.manifold.orientable:
            return manifolds.decide_icc_orientable(descriptor.manifold)
        return manifolds.decide_icc_nonorientable(descriptor.manifold)
    if descriptor.kind == "knot":
        return manifolds.decide_icc_knot(descriptor.knot)
    return manifolds.decide_icc_link(descriptor.link)


def verdict_text(verdict) -> str:
    witness = verdict.witness
    parts = [verdict.status.value]
    if witness is not None:
        parts += [witness.kind, witness.description, repr(witness.element)]
    parts += [f"{c.label}:{c.detail}" for c in verdict.reasons]
    return "|".join(parts)


def enumerable_group(descriptor):
    """The group `iccdec enumerate` works in, or None when there is none."""
    from iccdec import groups, manifolds

    if descriptor.kind == "group":
        group = descriptor.group
        if isinstance(group, groups.SurfaceGroup) and group.realization() is None:
            return None
        return group
    if descriptor.kind == "manifold":
        try:
            return manifolds.manifold_group(descriptor.manifold)[0]
        except groups.GroupUsageError:
            return None
    if descriptor.kind == "knot" and isinstance(descriptor.knot, manifolds.TorusKnot):
        p, q = descriptor.knot.p, descriptor.knot.q
        if p == 1 or q == 1:
            return groups.InfiniteCyclic("x")
        return manifolds.torus_knot_group(p, q)[0]
    return None


def enumerable_entries(entries: list[CorpusEntry]) -> list[CorpusEntry]:
    """Corpus entries naming a group with at least one generator, each with
    a canonical word: the manifest's icc_sample, or the NotICC witness."""
    from iccdec import descriptors, groups

    out = []
    for entry in entries:
        descriptor = descriptors.parse_descriptor_data(entry.data)
        group = enumerable_group(descriptor)
        if group is None or not group.generator_payloads():
            continue
        entry.generators = [name for name, _ in group.generator_payloads()]
        if entry.expected == "NotICC":
            witness = decide(descriptor).witness
            element = witness.element if witness is not None else None
            if element is not None and element.group == group and not element.is_identity():
                entry.word = descriptors.format_word(groups.render_word(element))
        out.append(entry)
    return out


def random_word(rng, entry: CorpusEntry, group, slot: int) -> str:
    """A nontrivial two-letter word: the generators come from the slot and
    the seed picks their signs.

    Which generators a word uses decides its cost (on a torus-bundle group a
    word inside the lattice takes a hundred times longer to search than one
    with the stable letter), so they are fixed by the slot and do not change
    with the seed."""
    from iccdec import descriptors

    gens = entry.generators
    first = gens[slot % len(gens)] + rng.choice(("", "'"))
    sign = rng.choice(("", "'"))
    for offset in range(1, len(gens) + 1):
        for second_sign in (sign, "" if sign else "'"):
            word = f"{first} {gens[(slot + offset) % len(gens)]}{second_sign}"
            if not group.reduce_letters(descriptors.parse_word(word)).is_identity():
                return word
    return first


# ---------------------------------------------------------------------------
# forked requests


def run_forked(fn) -> tuple[dict, int]:
    """Run fn() in a child forked from this process; return its JSON reply
    and the child's peak resident set in KiB."""
    sys.stdout.flush()
    sys.stderr.flush()
    # the child's collector then skips this process's objects instead of
    # touching, and so copying, every page of the inherited heap
    gc.freeze()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(read_fd)
            try:
                reply = fn()
            except Exception:
                reply = {"ok": False, "detail": traceback.format_exc(limit=3), "latency_s": 0.0, "digest": ""}
            payload = json.dumps(reply).encode()
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not payload:
        return {"ok": False, "detail": f"child exited with status {status}", "latency_s": 0.0, "digest": ""}, usage.ru_maxrss
    return json.loads(payload), usage.ru_maxrss


def class_requests(workload, rng) -> list:
    """conjugacy_class_ball at radius 4 to 7 on every group, and
    fc_center_candidates on a fixed half of them."""
    requests = []
    for entry in workload.entries:
        group = workload.group_for(entry)
        for radius in range(4, CLASS_RADIUS_MAX.get(entry.file, 7) + 1):
            # the canonical word at odd radii, so the seed moves no costs
            canonical = entry.word is not None and radius % 2 == 1
            word = entry.word if canonical else random_word(rng, entry, group, radius)
            requests.append(
                {"op": "class", "file": entry.file, "word": word, "canonical": canonical,
                 "radius": radius, "window": 3}
            )
    # a fixed half of the groups, so that about one class_ball request in ten
    # is an fc_center_candidates call and the seed does not move its cost
    for entry in workload.entries[::2]:
        radius = 4 if entry.file in FC_RADIUS_4_ONLY else 5
        requests.append({"op": "fc", "file": entry.file, "radius": radius, "window": 2})
    return requests


def witness_requests(workload, rng) -> list:
    """strong_icc_witness at radius 6, 7 and 8 on every group."""
    requests = []
    for entry in workload.entries:
        group = workload.group_for(entry)
        for radius, k_levels in WITNESS_K_LEVELS.items():
            # a fresh random word and the canonical word (or a second
            # random one) at every radius: on a NotICC group the canonical
            # witness exhausts the ball, a random word may not
            for slot, (canonical, k_level) in enumerate(zip((False, entry.word is not None), k_levels)):
                word = entry.word if canonical else random_word(rng, entry, group, radius + 3 * slot)
                requests.append(
                    {"op": "witness", "file": entry.file, "word": word, "canonical": canonical,
                     "k": k_level + rng.randint(-4, 0), "radius": radius}
                )
    return requests


class ForkedWorkload:
    """Shared serving path of the oracle workloads: the requests its makers
    return, in one seeded order, each served in a forked child."""

    makers: tuple = ()
    tracer = None  # set for the traced pass; the child records into it

    def __init__(self, src: str, seed: int):
        self.entries = enumerable_entries(load_corpus(src))
        self.by_file = {e.file: e for e in self.entries}
        rng = random.Random(f"{self.name}:{seed}")
        self.requests = [request for make in self.makers for request in make(self, rng)]
        rng.shuffle(self.requests)
        for index, request in enumerate(self.requests):
            request["id"] = index

    def group_for(self, entry: CorpusEntry):
        from iccdec import descriptors

        return enumerable_group(descriptors.parse_descriptor_data(entry.data))

    def warmup_request(self) -> dict:
        entry = self.entries[0]
        return {"op": "class", "file": entry.file, "word": entry.generators[0],
                "canonical": False, "radius": 4, "window": 3, "id": -1}

    def serve(self, request) -> Outcome:
        tracer = self.tracer

        def child():
            # untimed: a full collection writes the header of every object
            # inherited from the parent, so the copy-on-write faults of the
            # fork fall here and not inside the timed request
            gc.unfreeze()
            gc.collect()
            gc.freeze()
            if tracer is not None:
                tracer.request_id = request["id"]
                tracer.enabled = True
            start = time.perf_counter()
            result = self.execute(request)
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            ok, detail, text = self.check(request, result)
            reply = {"ok": ok, "detail": detail, "latency_s": latency, "digest": _sha(text)}
            if tracer is not None:
                reply["trace"] = tracer.snapshot()
            return reply

        reply, rss_kb = run_forked(child)
        return Outcome(reply["latency_s"], reply["ok"], reply["digest"], reply["detail"], rss_kb, reply.get("trace"))

    def execute(self, request):
        from iccdec import descriptors, oracle

        group = self.group_for(self.by_file[request["file"]])
        if request["op"] == "fc":
            return oracle.fc_center_candidates(group, request["radius"], request["window"])
        element = group.reduce_letters(descriptors.parse_word(request["word"]))
        if request["op"] == "witness":
            return oracle.strong_icc_witness(group, [element], request["k"], request["radius"])
        return oracle.conjugacy_class_ball(group, element, request["radius"], request["window"])

    def check(self, request, result) -> tuple[bool, str, str]:
        if request["op"] == "fc":
            reprs = [repr(g) for g in result]
            if any(g.is_identity() for g in result) or len(set(reprs)) != len(reprs):
                return False, "fc candidates must be distinct and nontrivial", ""
            return True, "", "fc|" + ",".join(reprs)
        if request["op"] == "witness":
            return self.check_witness(request, result)
        return self.check_class(request, result)

    def check_class(self, request, result) -> tuple[bool, str, str]:
        counts = list(result.counts_by_radius)
        reprs = [repr(c) for c in result.conjugates]
        text = f"class|{counts}|{result.stabilized}|{result.central_proven}|" + ",".join(reprs)
        window = request["window"]
        if len(counts) != request["radius"] + 1 or counts[0] != 1:
            return False, f"counts_by_radius {counts} has the wrong shape", text
        if any(a > b for a, b in zip(counts, counts[1:])):
            return False, f"counts decrease with the radius: {counts}", text
        if counts[-1] != len(set(reprs)) or len(reprs) != counts[-1]:
            return False, "conjugates are not the distinct elements counted", text
        if result.stabilized != (counts[-1] == counts[-1 - window]):
            return False, "stabilized flag disagrees with the counts", text
        expected = self.by_file[request["file"]].expected
        if request["canonical"] and expected == "NotICC" and not result.stabilized:
            return False, "the manifest's NotICC witness did not stabilize", text
        if request["canonical"] and expected == "ICC" and result.stabilized:
            return False, "the manifest's ICC sample stabilized", text
        return True, "", text

    def check_witness(self, request, result) -> tuple[bool, str, str]:
        from iccdec import groups

        gammas = [repr(g) for g in result.gammas]
        text = f"witness|{result.verified}|{result.used_radius}|" + ",".join(gammas)
        if len(set(gammas)) != len(gammas) or result.used_radius > request["radius"]:
            return False, "conjugators repeat or lie outside the search radius", text
        if result.verified != (len(gammas) == request["k"]):
            return False, "verified flag disagrees with the sequence length", text
        for f in result.target_set:
            conjugates = {groups.conjugate(f, g).payload for g in result.gammas}
            if len(conjugates) != len(gammas):
                return False, "conjugates of a target are not pairwise distinct", text
        expected = self.by_file[request["file"]].expected
        # corpus NotICC witnesses have classes of size <= 2
        if request["canonical"] and expected == "NotICC" and request["k"] > 2 and result.verified:
            return False, "a finite-class witness yielded a verified sequence", text
        return True, "", text


class ClassBall(ForkedWorkload):
    name = "class_ball"
    makers = (class_requests,)


class WitnessSearch(ForkedWorkload):
    name = "witness_search"
    makers = (witness_requests,)


class Oracle(ForkedWorkload):
    """class_ball and witness_search in one request list: the workload the
    benchmark's gate runs for the oracle layers (L0 to L3)."""

    name = "oracle"
    makers = (class_requests, witness_requests)


# ---------------------------------------------------------------------------
# in-process and subprocess workloads


class DecideSweep:
    name = "decide_sweep"

    def __init__(self, src: str, seed: int):
        self.requests = [
            {"family": family, "data": doc, "expected": expected, "unknown_ok": unknown_ok, "id": i}
            for i, (family, doc, expected, unknown_ok) in enumerate(
                sweep.generate(random.Random(f"{self.name}:{seed}"), SWEEP_PER_FAMILY)
            )
        ]

    def warmup_request(self) -> dict:
        return self.requests[0]

    def serve(self, request) -> Outcome:
        from iccdec import descriptors

        start = time.perf_counter()
        try:
            verdict = decide(descriptors.parse_descriptor_data(request["data"]))
        except Exception:
            return Outcome(time.perf_counter() - start, False, "", traceback.format_exc(limit=3))
        latency = time.perf_counter() - start
        status = verdict.status.value
        text = verdict_text(verdict)
        ok = status == request["expected"] or (status == "Unknown" and request["unknown_ok"])
        detail = "" if ok else f"{request['family']}: expected {request['expected']}, got {status}"
        if ok and status == "NotICC" and verdict.witness is None:
            ok, detail = False, "NotICC verdict without a witness"
        return Outcome(latency, ok, _sha(text), detail)


class CliCorpus:
    name = "cli_corpus"

    def __init__(self, src: str, seed: int):
        self.env = dict(os.environ, PYTHONPATH=src)
        entries = load_corpus(src)
        self.requests = [
            {"command": command, "file": e.file, "path": e.path, "expected": e.expected}
            for e in entries
            for command in ("decide", "explain")
        ]
        random.Random(f"{self.name}:{seed}").shuffle(self.requests)
        for index, request in enumerate(self.requests):
            request["id"] = index

    def warmup_request(self) -> dict:
        return min(self.requests, key=lambda r: (r["file"], r["command"]))

    def argv(self, request) -> list[str]:
        return [request["command"], request["path"], "--json"]

    def serve(self, request) -> Outcome:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "iccdec.cli", *self.argv(request)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env,
        )
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok, detail = self.check(request, proc.returncode, stdout.decode())
        if not ok and stderr:
            detail += ": " + stderr.decode()[-300:]
        return Outcome(latency, ok, _sha(f"{proc.returncode}|{stdout.decode()}"), detail, usage.ru_maxrss)

    def serve_in_process(self, request) -> Outcome:
        """cli.main(argv) in this process, for the traced run and cli.main_s."""
        from iccdec import cli

        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(self.argv(request))
        latency = time.perf_counter() - start
        ok, detail = self.check(request, code, buffer.getvalue())
        return Outcome(latency, ok, _sha(f"{code}|{buffer.getvalue()}"), detail)

    def check(self, request, code: int, stdout: str) -> tuple[bool, str]:
        expected = request["expected"]
        want_code = 2 if expected == "Unknown" else 0
        try:
            data = json.loads(stdout)
        except json.JSONDecodeError:
            return False, f"{request['file']}: output is not JSON (exit {code})"
        if code != want_code or data.get("status") != expected:
            return False, f"{request['file']}: exit {code}, status {data.get('status')}, expected {expected}"
        if data.get("command") != request["command"]:
            return False, f"{request['file']}: output is for command {data.get('command')}"
        return True, ""


WORKLOADS = {w.name: w for w in (CliCorpus, DecideSweep, Oracle, ClassBall, WitnessSearch)}
