"""Command-line front end.

    iccdec decide    <file> [--json]
    iccdec explain   <file> [--json]
    iccdec enumerate <file> --element WORD [--radius R] [--window W] [--json]
    iccdec witness   <file> --set W1,W2 [--length K] [--radius R] [--json]

Exit codes: 0 for a definite answer (ICC or NotICC) and for successful
reports, 2 for Unknown verdicts, 1 for usage, parse or schema errors.
Identical inputs produce byte-identical --json outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import iccdec

from .citations import CITATIONS
from .descriptors import (
    Descriptor,
    DescriptorError,
    load_descriptor,
    parse_word,
)
from .groups.base import INFINITE, GroupUsageError, NotEnumerableError, StructuredGroup
from .oracle import conjugacy_class_ball, strong_icc_witness
from .verdict import Status, Verdict

# The commands reach the rule engine and the manifold engine through the
# package, which executes each on first use: a call decides one kind of
# descriptor and needs only one.


def _decide(descriptor: Descriptor) -> Verdict:
    if descriptor.kind == "group":
        return iccdec.rules.decide_structured_group(descriptor.group)
    manifolds = iccdec.manifolds
    if descriptor.kind == "manifold":
        manifold = descriptor.manifold
        if manifold.orientable:
            return manifolds.decide_icc_orientable(manifold)
        return manifolds.decide_icc_nonorientable(manifold)
    if descriptor.kind == "knot":
        return manifolds.decide_icc_knot(descriptor.knot)
    return manifolds.decide_icc_link(descriptor.link)


def _enumerable_group(descriptor: Descriptor) -> tuple[StructuredGroup, str]:
    if descriptor.kind == "group":
        return descriptor.group, "structured group"
    manifolds = iccdec.manifolds
    if descriptor.kind == "manifold":
        return manifolds.manifold_group(descriptor.manifold)
    if descriptor.kind == "knot":
        return manifolds.knot_group(descriptor.knot)
    raise GroupUsageError("link descriptors do not denote an enumerable group")


def _witness_data(verdict: Verdict):
    if verdict.witness is None:
        return None
    element = verdict.witness.element
    return {
        "kind": verdict.witness.kind,
        "description": verdict.witness.description,
        "element": repr(element) if element is not None else None,
    }


def _verdict_data(verdict: Verdict) -> dict:
    return {
        "status": verdict.status.value,
        "witness": _witness_data(verdict),
        "reasons": [{"label": c.label, "detail": c.detail} for c in verdict.reasons],
    }


def _print_json(data: dict) -> None:
    sys.stdout.write(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _print_verdict(verdict: Verdict) -> None:
    print(f"status: {verdict.status.value}")
    if verdict.witness is not None:
        print(f"witness: {verdict.witness.description}")
    print("reasons:")
    for citation in verdict.reasons:
        detail = f" ({citation.detail})" if citation.detail else ""
        print(f"  - {citation.label}{detail}")


def _verdict_exit(verdict: Verdict) -> int:
    return 2 if verdict.status is Status.UNKNOWN else 0


def _explain_trace(descriptor: Descriptor, normal) -> list[str]:
    """The trace lines; normal is what a manifold's verdict was computed from."""
    trace: list[str] = []
    if descriptor.kind == "group":
        group = descriptor.group
        trace.append(f"input: structured group {group.describe()}")
        names = ", ".join(group.generator_names())
        trace.append(f"designated generators: {names or '(none)'}")
        order = group.order()
        trace.append(f"group order: {'infinite' if order == INFINITE else int(order)}")
        return trace
    if descriptor.kind == "manifold":
        manifold = descriptor.manifold
        orientation = "orientable" if manifold.orientable else "non-orientable"
        trace.append(f"input: {orientation} manifold with {len(manifold.pieces)} piece(s)")
        summary = "no homotopy-sphere pieces to drop"
        if normal.dropped:
            summary = (f"dropped {normal.dropped} homotopy-sphere piece(s), "
                       f"{len(normal.pieces)} piece(s) remain")
        trace.append(f"Poincare variety: {summary}")
        for i, piece in enumerate(normal.pieces):
            sg = piece.seifert
            if sg is not None:
                trace.append(f"piece {i}: Seifert, presentation {sg.presentation.display()}")
                centrality = "central" if sg.fiber_central else "inverted by one-sided generators"
                trace.append(f"piece {i}: fiber class {sg.fiber_name} is {centrality}")
            else:
                trace.append(f"piece {i}: {type(piece.piece).__name__}")
        return trace
    if descriptor.kind == "knot":
        trace.append(f"input: knot descriptor {descriptor.knot}")
        return trace
    trace.append(f"input: link descriptor {descriptor.link}")
    return trace


def _cmd_decide(args) -> int:
    descriptor = load_descriptor(args.file)
    verdict = _decide(descriptor)
    if args.json:
        data = {"schema_version": 1, "command": "decide", **_verdict_data(verdict)}
        _print_json(data)
    else:
        _print_verdict(verdict)
    return _verdict_exit(verdict)


def _cmd_explain(args) -> int:
    descriptor = load_descriptor(args.file)
    if descriptor.kind == "manifold":
        verdict, normal = iccdec.manifolds.explain_manifold(descriptor.manifold)
    else:
        verdict, normal = _decide(descriptor), None
    trace = _explain_trace(descriptor, normal)
    if args.json:
        data = {
            "schema_version": 1,
            "command": "explain",
            **_verdict_data(verdict),
            "trace": trace,
            "statements": {c.label: CITATIONS[c.label] for c in verdict.reasons},
        }
        _print_json(data)
        return _verdict_exit(verdict)
    for line in trace:
        print(line)
    print()
    _print_verdict(verdict)
    print()
    print("cited statements:")
    for citation in verdict.reasons:
        print(f"  {citation.label}: {CITATIONS[citation.label]}")
    return _verdict_exit(verdict)


def _cmd_enumerate(args) -> int:
    descriptor = load_descriptor(args.file)
    group, note = _enumerable_group(descriptor)
    element = group.reduce_letters(parse_word(args.element))
    report = conjugacy_class_ball(group, element, args.radius, args.window)
    if args.json:
        data = {
            "schema_version": 1,
            "command": "enumerate",
            "group": group.describe(),
            "note": note,
            "element": args.element,
            "canonical_form": repr(element),
            "radius": report.radius,
            "window": report.window,
            "counts_by_radius": list(report.counts_by_radius),
            "stabilized": report.stabilized,
            "central_proven": report.central_proven,
            "conjugates": [repr(c) for c in report.conjugates]
            if len(report.conjugates) <= 50
            else None,
        }
        _print_json(data)
        return 0
    # every line is rendered before any is written, so an element that
    # cannot print leaves no partial report
    lines = [
        f"group: {group.describe()} ({note})",
        f"element: {args.element} (canonical form {element!r})",
        f"counts_by_radius: {list(report.counts_by_radius)}",
        f"stabilized: {report.stabilized} (window {report.window})",
    ]
    if report.central_proven:
        lines.append("note: central (symbolically verified against the generating set)")
    if len(report.conjugates) <= 50:
        lines.append(f"conjugates ({len(report.conjugates)}): "
                     + ", ".join(repr(c) for c in report.conjugates))
    else:
        lines.append(f"conjugates: {len(report.conjugates)} (not listed, more than 50)")
    print("\n".join(lines))
    return 0


def _cmd_witness(args) -> int:
    descriptor = load_descriptor(args.file)
    group, note = _enumerable_group(descriptor)
    words = [w for w in (part.strip() for part in args.set.split(",")) if w]
    if not words:
        raise GroupUsageError("the --set option needs at least one word")
    targets = [group.reduce_letters(parse_word(w)) for w in words]
    result = strong_icc_witness(group, targets, args.length, args.radius)
    if args.json:
        data = {
            "schema_version": 1,
            "command": "witness",
            "group": group.describe(),
            "note": note,
            "targets": [repr(t) for t in result.target_set],
            "length_requested": args.length,
            "verified": result.verified,
            "search_radius": result.search_radius,
            "used_radius": result.used_radius,
            "gammas": [repr(g) for g in result.gammas],
        }
        _print_json(data)
        return 0
    targets = ", ".join(repr(t) for t in result.target_set)
    print(f"group: {group.describe()} ({note})\ntargets: {targets}\n{result.summary()}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="iccdec",
        description="Decide whether fundamental groups of described 3-manifolds "
        "(or structured groups) have infinite conjugacy classes, with "
        "theorem-cited reason chains and brute-force conjugacy evidence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="print the ICC verdict for a descriptor file")
    p_decide.add_argument("file")
    p_decide.add_argument("--json", action="store_true")
    p_decide.set_defaults(func=_cmd_decide)

    p_explain = sub.add_parser("explain", help="verdict plus the normalization trace and cited statements")
    p_explain.add_argument("file")
    p_explain.add_argument("--json", action="store_true")
    p_explain.set_defaults(func=_cmd_explain)

    p_enum = sub.add_parser("enumerate", help="conjugacy class ball of an element")
    p_enum.add_argument("file")
    p_enum.add_argument("--element", required=True, help="word, e.g. \"a b' a^2\"")
    p_enum.add_argument("--radius", type=int, default=6)
    p_enum.add_argument("--window", type=int, default=3)
    p_enum.add_argument("--json", action="store_true")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_wit = sub.add_parser("witness", help="strong-ICC witness sequence search")
    p_wit.add_argument("file")
    p_wit.add_argument("--set", required=True, help="comma-separated nontrivial words")
    p_wit.add_argument("--length", type=int, default=5)
    p_wit.add_argument("--radius", type=int, default=10)
    p_wit.add_argument("--json", action="store_true")
    p_wit.set_defaults(func=_cmd_witness)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DescriptorError, NotEnumerableError, GroupUsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, not a bad input: still one line, no traceback
        detail = " ".join(str(exc).split())
        print(f"error: unexpected {type(exc).__name__}: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
