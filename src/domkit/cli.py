"""Command-line front end.

Subcommands expose the library (parameter report, set checking, enumeration,
product construction, well-dominated recognition) plus a ``verify`` harness
that runs the cross-check suites and prints one pass/fail line per claim.
Exit codes: 0 for success or a positive verdict, 1 for a negative verdict,
2 for usage, parse, or resource-cap errors and for any other failure.  All
output is deterministic for fixed inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .domination import (
    EnumerationCapExceeded,
    alpha,
    classify,
    enumerate_minimal_dominating_sets,
    gamma_t,
    is_dominating,
    is_irreducible_dominating,
    is_minimal_dominating,
    is_minimal_total_dominating,
    is_total_dominating,
)

# perfbench/tracer.py wraps gamma and upper_gamma in this module; neither is
# called here any more (``stats`` reads gamma and Gamma off one enumeration,
# and the recognizers find the domination number themselves), but both stay
# imported so that the wrap still finds them
from .domination import gamma, upper_gamma  # noqa: F401
from .graphs import Graph, GraphParseError, VertexSet, parse_graph, write_graph
from .lexicographic import lex_product
from .recognition import (
    RecognitionReport,
    is_well_dominated_bounded_k,
    is_well_dominated_enum,
    is_well_dominated_gamma2,
    is_well_dominated_lex,
    recognize,
)


def _load_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text())


def _parse_vertex_list(text: str) -> list[int]:
    text = text.strip()
    if text in ("", "-"):
        return []
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"cannot parse vertex list {text!r}") from None


def _fmt_set(s: VertexSet) -> str:
    return " ".join(str(v) for v in s.members) if len(s) else "(empty)"


def _cmd_stats(args) -> int:
    graph = _load_graph(args.graph)
    # first, so that a graph above the cap fails before the exact searches;
    # canonical order is by size, so the first set is a minimum one and the
    # last a largest one
    sets = enumerate_minimal_dominating_sets(graph, args.cap)
    g_val, ug_val = len(sets[0]), len(sets[-1])
    try:
        gt_val: int | None = gamma_t(graph)
    except ValueError:
        gt_val = None
    a_val = alpha(graph)
    if args.json:
        print(
            json.dumps(
                {
                    "n": graph.n,
                    "m": len(graph.edges),
                    "gamma": g_val,
                    "gamma_t": gt_val,
                    "Gamma": ug_val,
                    "alpha": a_val,
                },
                sort_keys=True,
            )
        )
    else:
        gt_text = "undefined" if gt_val is None else str(gt_val)
        print(
            f"n={graph.n} m={len(graph.edges)} "
            f"gamma={g_val} gamma_t={gt_text} Gamma={ug_val} alpha={a_val}"
        )
    return 0


def _cmd_check_set(args) -> int:
    graph = _load_graph(args.graph)
    members = _parse_vertex_list(args.set)
    d = VertexSet(graph.n, members)
    info = classify(graph, d)
    results = {
        "set": list(d.members),
        "dominating": is_dominating(graph, d),
        "total_dominating": is_total_dominating(graph, d),
        "minimal_dominating": is_minimal_dominating(graph, d),
        "irreducible_dominating": is_irreducible_dominating(graph, d),
        "minimal_total_dominating": is_minimal_total_dominating(graph, d),
        "barely_dominated": list(info.barely_dominated.members),
        "leaves": list(info.leaves.members),
        "redundant": list(info.redundant.members),
    }
    if args.json:
        print(json.dumps(results, sort_keys=True))
    else:
        print(f"set: {_fmt_set(d)}")
        for key in (
            "dominating",
            "total_dominating",
            "minimal_dominating",
            "irreducible_dominating",
            "minimal_total_dominating",
        ):
            print(f"{key}: {'yes' if results[key] else 'no'}")
        print(f"barely dominated: {_fmt_set(info.barely_dominated)}")
        print(f"leaves: {_fmt_set(info.leaves)}")
        print(f"redundant: {_fmt_set(info.redundant)}")
    return 0 if results["dominating"] else 1


# json.dumps holds one string per number until it joins them, so a long list
# of sets peaks at about twenty times the size of its text; a batch at a time
# bounds that peak
_JSON_BATCH = 128


def _json_sets(sets: list[VertexSet]) -> str:
    """The text of ``json.dumps([list(s.members) for s in sets])``."""
    rows = [s.members for s in sets]
    batches = range(0, len(rows), _JSON_BATCH)
    return "[" + ", ".join(json.dumps(rows[i : i + _JSON_BATCH])[1:-1] for i in batches) + "]"


def _cmd_enumerate_mds(args) -> int:
    graph = _load_graph(args.graph)
    sets = enumerate_minimal_dominating_sets(graph, args.cap)
    if args.json:
        # the text of json.dumps({"count": ..., "sets": ...}, sort_keys=True)
        print(f'{{"count": {len(sets)}, "sets": {_json_sets(sets)}}}')
    else:
        print(f"minimal dominating sets: {len(sets)}")
        for s in sets:
            print(_fmt_set(s))
    return 0


def _cmd_product(args) -> int:
    base = _load_graph(args.base)
    fiber = _load_graph(args.fiber)
    product = lex_product(base, fiber)
    comment = (
        f"lexicographic product: base n={base.n}, fiber n={fiber.n}, "
        f"encoding (g, h) -> g*{fiber.n}+h"
    )
    if args.json:
        print(
            json.dumps(
                {
                    "n": product.graph.n,
                    "m": len(product.graph.edges),
                    "base_n": base.n,
                    "fiber_n": fiber.n,
                    "edges": [list(e) for e in product.graph.edges],
                },
                sort_keys=True,
            )
        )
    else:
        sys.stdout.write(write_graph(product.graph, comments=[comment]))
    return 0


def _print_recognition(report: RecognitionReport, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(f"verdict: {'well-dominated' if report.verdict else 'not well-dominated'}")
        print(f"method: {report.method}")
        if report.gamma is not None:
            print(f"gamma: {report.gamma}")
        if report.verdict and report.common_size is not None:
            print(f"common size: {report.common_size}")
        if not report.verdict and report.witness_small is not None:
            print(f"witness (size {len(report.witness_small)}): {_fmt_set(report.witness_small)}")
            print(f"witness (size {len(report.witness_large)}): {_fmt_set(report.witness_large)}")
            if "witness_small_pairs" in report.notes:
                fmt = lambda pairs: " ".join(f"({g},{h})" for g, h in pairs)
                print(f"witness pairs: {fmt(report.notes['witness_small_pairs'])}")
                print(f"witness pairs: {fmt(report.notes['witness_large_pairs'])}")
    return 0 if report.verdict else 1


def _cmd_well_dominated(args) -> int:
    if args.lex:
        if args.graph is not None:
            raise ValueError("give either one graph or --lex with two graphs, not both")
        base = _load_graph(args.lex[0])
        fiber = _load_graph(args.lex[1])
        return _print_recognition(is_well_dominated_lex(base, fiber, args.cap), args.json)
    if args.graph is None:
        raise ValueError("a graph file is required unless --lex is given")
    graph = _load_graph(args.graph)
    if args.method == "enum":
        report = is_well_dominated_enum(graph, args.cap)
    elif args.method == "gamma2":
        report = is_well_dominated_gamma2(graph, args.cap)
    elif args.method == "bounded-k":
        report = is_well_dominated_bounded_k(graph, args.k, args.cap)
    else:
        report = recognize(graph, args.cap)
    return _print_recognition(report, args.json)


def _cmd_verify(args) -> int:
    # imported on use: the check suites pull in the graph catalogue and the
    # brute-force oracles, which no other subcommand needs
    from .verification import run_all_checks

    results = run_all_checks(args.scale, args.seed)
    all_passed = all(r.passed for r in results)
    if args.json:
        print(
            json.dumps(
                {
                    "scale": args.scale,
                    "seed": args.seed,
                    "all_passed": all_passed,
                    "checks": [
                        {
                            "name": r.name,
                            "passed": r.passed,
                            "instances": r.instances,
                            "detail": r.detail,
                        }
                        for r in results
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        print(f"verification scoreboard: scale={args.scale} seed={args.seed}")
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            detail = f" ({r.detail})" if r.detail else ""
            print(f"{status} {r.name} [{r.instances} instances]{detail}")
        passed = sum(1 for r in results if r.passed)
        print(f"result: {passed}/{len(results)} checks passed")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domkit",
        description="Exact domination toolkit: parameters, enumeration, "
        "lexicographic products, and well-dominated recognition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="structured output")
        p.add_argument("--cap", type=int, default=None, help="enumeration vertex cap (default 24)")

    p = sub.add_parser("stats", help="domination parameters of a graph")
    p.add_argument("graph", help="edge-list file")
    add_common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("check-set", help="classify a vertex set in a graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("set", help="comma- or space-separated vertices ('-' for the empty set)")
    add_common(p)
    p.set_defaults(func=_cmd_check_set)

    p = sub.add_parser("enumerate-mds", help="list all minimal dominating sets")
    p.add_argument("graph", help="edge-list file")
    add_common(p)
    p.set_defaults(func=_cmd_enumerate_mds)

    p = sub.add_parser("product", help="emit the lexicographic product of two graphs")
    p.add_argument("base", help="edge-list file of the base graph")
    p.add_argument("fiber", help="edge-list file of the fiber graph")
    add_common(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("well-dominated", help="recognize well-dominated graphs")
    p.add_argument("graph", nargs="?", default=None, help="edge-list file")
    p.add_argument("--lex", nargs=2, metavar=("BASE", "FIBER"),
                   help="recognize the lexicographic product of two factor graphs")
    p.add_argument("--method", choices=("auto", "enum", "gamma2", "bounded-k"),
                   default="auto")
    p.add_argument("--k", type=int, default=None,
                   help="size for --method bounded-k (default: the domination number)")
    add_common(p)
    p.set_defaults(func=_cmd_well_dominated)

    p = sub.add_parser("verify", help="run the cross-check scoreboard")
    # the keys of verification.SCALES, spelled out to keep that import deferred
    p.add_argument("--scale", choices=("full", "small"), default="small")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process.

    Parsing leaves the parser unchanged, so one instance serves every call;
    building it costs about a millisecond, a large share of a small query.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (GraphParseError, EnumerationCapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 is the negative verdict, so no other failure may escape as it
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
