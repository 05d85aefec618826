"""In-memory span recorder for the traced run.

Spans are taken from outside the package: `install` replaces the public
layer functions with timing wrappers in every iccdec module that refers to
them (modules import some of them by name, for example `iccdec.oracle`
imports `conjugate` and `ball_with_lengths`), and wraps `multiply_payloads`
on every construction class.

Every wrapped call adds to a per-name call count and self time (its duration
minus the time its wrapped children covered).  Calls of the coarse layers
are also kept as span records (name, start, end, parent, request id); the
hot element calls (payload multiply, multiply, invert, conjugate) are only
counted, so that a traced request of a million multiplies stays small in
memory.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

PAYLOAD = "groups.multiply_payloads"

# name of the layer -> (module, function) of the public function it wraps
COARSE = {
    "descriptors.parse_descriptor_data": ("iccdec.descriptors", "parse_descriptor_data"),
    "rules.decide_structured_group": ("iccdec.rules", "decide_structured_group"),
    "manifolds.decide_icc_orientable": ("iccdec.manifolds", "decide_icc_orientable"),
    "manifolds.decide_icc_nonorientable": ("iccdec.manifolds", "decide_icc_nonorientable"),
    "manifolds.decide_icc_knot": ("iccdec.manifolds", "decide_icc_knot"),
    "manifolds.decide_icc_link": ("iccdec.manifolds", "decide_icc_link"),
    "groups.ball_with_lengths": ("iccdec.groups.base", "ball_with_lengths"),
    "oracle.conjugacy_class_ball": ("iccdec.oracle", "conjugacy_class_ball"),
    "oracle.fc_center_candidates": ("iccdec.oracle", "fc_center_candidates"),
    "oracle.strong_icc_witness": ("iccdec.oracle", "strong_icc_witness"),
    "cli.main": ("iccdec.cli", "main"),
}
# element-level calls: counted and timed, never kept as span records
ELEMENT = {f"groups.{f}": ("iccdec.groups.base", f) for f in ("multiply", "invert", "conjugate")}


class Tracer:
    """Call counts, self times, derived counters and coarse span records."""

    def __init__(self):
        self.enabled = False
        self.request_id = None
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self._child_time = [0.0]  # one slot per open wrapped call
        self._open: list[int] = []  # indices of open span records

    # -- wrapping -------------------------------------------------------

    def wrap(self, name, fn, keep_span, on_exit=None):
        tracer = self
        clock = time.perf_counter
        calls = self.calls
        self_s = self.self_s
        child_time = self._child_time

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if keep_span:
                index = len(tracer.spans)
                parent = tracer._open[-1] if tracer._open else None
                tracer.spans.append(None)
                tracer._open.append(index)
                before = (calls["groups.multiply"], calls["groups.conjugate"])
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                covered = child_time.pop()
                duration = end - start
                child_time[-1] += duration
                calls[name] += 1
                self_s[name] += duration - covered
                if keep_span:
                    tracer._open.pop()
                    tracer.spans[index] = (name, start, end, parent, tracer.request_id)
            if on_exit is not None:
                on_exit(tracer, args, result, before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace the layer functions everywhere iccdec refers to them."""
        from iccdec.groups.base import StructuredGroup

        for name, (module_name, attr) in {**COARSE, **ELEMENT}.items():
            original = getattr(sys.modules[module_name], attr)
            keep = name in COARSE
            wrapper = self.wrap(name, original, keep, _ON_EXIT.get(name))
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("iccdec"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
        pending = [StructuredGroup]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            method = cls.__dict__.get("multiply_payloads")
            if method is not None and not inspect.isabstract(cls):
                cls.multiply_payloads = self.wrap(f"{PAYLOAD}.{cls.__name__}", method, False)

    # -- results --------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "spans": list(self.spans),
        }

    def merge(self, snap: dict) -> None:
        """Add a child process's snapshot; its spans are renumbered."""
        offset = len(self.spans)
        self.calls.update(snap["calls"])
        self.self_s.update(snap["self_s"])
        self.counters.update(snap["counters"])
        for name, start, end, parent, request in snap["spans"]:
            self.spans.append(
                (name, start, end, None if parent is None else parent + offset, request)
            )


def _ball_exit(tracer, args, result, before):
    tracer.counters["groups.ball_with_lengths.elements"] += len(result[0])
    if tracer.calls["groups.multiply"] == before[0]:
        tracer.counters["groups.ball_with_lengths.hits"] += 1


def _class_ball_exit(tracer, args, result, before):
    tracer.counters["oracle.conjugacy_class_ball.conjugations"] += (
        tracer.calls["groups.conjugate"] - before[1]
    )
    tracer.counters["oracle.conjugacy_class_ball.distinct"] += len(result.conjugates)


def _witness_exit(tracer, args, result, before):
    # every scanned candidate is conjugated against each target once
    targets = args[1] if len(args) > 1 else ()
    scanned = (tracer.calls["groups.conjugate"] - before[1]) // max(1, len(targets))
    tracer.counters["oracle.strong_icc_witness.scanned"] += scanned
    tracer.counters["oracle.strong_icc_witness.kept"] += len(result.gammas)


_ON_EXIT = {
    "groups.ball_with_lengths": _ball_exit,
    "oracle.conjugacy_class_ball": _class_ball_exit,
    "oracle.strong_icc_witness": _witness_exit,
}
