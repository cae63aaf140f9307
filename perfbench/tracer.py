"""Spans around the calls into each domkit module, installed from outside.

The program has no tracing of its own, so the benchmark wraps functions in
the namespaces that call them: ``(namespace, name)`` below means "calls that
code in ``namespace`` makes to ``name``".  Hot helpers called once per
candidate (the six-vertex test of the triangle-pair scan) get a counter,
not a span, so that tracing stays cheap and the span list stays small.
Spans are kept in memory as (query, id, parent, name, start_ns, end_ns).
"""

from __future__ import annotations

import builtins
import json
from collections import Counter
from time import perf_counter_ns
from types import SimpleNamespace

LAYERS = ("cli", "graphs", "hypergraphs", "domination", "lexicographic", "recognition")

# (namespace module, attribute, layer of the callee, counter of result sizes)
_SPANS = [
    ("cli", "main", "cli", None),
    ("cli", "parse_graph", "graphs", None),
    ("cli", "enumerate_minimal_dominating_sets", "domination", None),
    ("cli", "gamma", "domination", None),
    ("cli", "gamma_t", "domination", None),
    ("cli", "upper_gamma", "domination", None),
    ("cli", "alpha", "domination", None),
    ("cli", "recognize", "recognition", None),
    ("cli", "is_well_dominated_lex", "recognition", None),
    ("domination", "enumerate_minimal_dominating_sets", "domination", None),
    ("domination", "neighborhood_hypergraph", "domination", None),
    ("hypergraphs", "sperner_reduce", "hypergraphs", None),
    ("hypergraphs", "enumerate_minimal_transversals", "hypergraphs", "hypergraphs.transversals"),
    ("recognition", "recognize", "recognition", None),
    ("recognition", "is_well_dominated_gamma2", "recognition", None),
    ("recognition", "is_well_dominated_bounded_k", "recognition", None),
    ("recognition", "is_well_dominated_enum", "recognition", None),
    ("recognition", "gamma", "domination", None),
    ("recognition", "minimum_dominating_set", "domination", None),
    ("recognition", "minimum_total_dominating_set", "domination", None),
    ("recognition", "enumerate_minimal_dominating_sets", "domination", None),
    ("recognition", "neighborhood_hypergraph", "domination", None),
    ("recognition", "all_minimal_transversals_have_size", "hypergraphs", None),
    ("recognition", "enumerate_triangles", "graphs", None),
    ("recognition", "complement", "graphs", None),
    ("recognition", "induced_subgraph", "graphs", None),
    ("recognition", "connected_components", "graphs", None),
    ("recognition", "gamma_product", "lexicographic", None),
    ("recognition", "lex_product", "lexicographic", None),
    ("lexicographic", "enumerate_minimal_dominating_sets_product", "lexicographic",
     "lexicographic.product_sets"),
    ("lexicographic", "gamma_product", "lexicographic", None),
    ("lexicographic", "enumerate_irreducible_dominating_sets", "domination",
     "domination.irreducible_sets"),
    ("lexicographic", "enumerate_minimal_dominating_sets", "domination", None),
    ("lexicographic", "gamma", "domination", None),
    ("lexicographic", "gamma_t", "domination", None),
    ("lexicographic", "induced_subgraph", "graphs", None),
]

# Called once per ordered disjoint triangle pair in the gamma = 2 scan.
_COUNTERS = [("recognition", "induces_c6_complement", "graphs.triangle_pairs")]

_ABSENT = object()


class Tracer:
    """Installs wrappers on ``install`` and restores the originals on ``remove``."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.query = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, count: str | None = None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (self.query, sid, parent, name, start, end)
            if count:
                counts[count] += len(result)
            return result

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self) -> None:
        m = self.modules
        for ns, attr, layer, count in _SPANS:
            fn = getattr(m[ns], attr)
            self._patch(m[ns], attr, self.wrap(f"{layer}.{attr}", fn, count))
        for ns, attr, count in _COUNTERS:
            self._patch(m[ns], attr, self._counter(count, getattr(m[ns], attr)))
        product_set = m["lexicographic"].ProductSet
        self._patch(product_set, "flatten",
                    self.wrap("lexicographic.flatten", product_set.flatten))
        # Output formatting in the CLI: json.dumps and print.
        cli = m["cli"]
        self._patch(cli, "json", SimpleNamespace(
            dumps=self.wrap("cli.json_dumps", json.dumps)))
        self._patch(cli, "print", self.wrap("cli.print", builtins.print))

    def remove(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


# Span names whose time each per-layer metric reports; a span nested inside
# another span of the same metric is not counted twice.
TIME_METRICS = {
    "hypergraphs.transversal_enum_ms": {"hypergraphs.enumerate_minimal_transversals"},
    "hypergraphs.sperner_reduce_ms": {"hypergraphs.sperner_reduce"},
    "hypergraphs.bounded_size_ms": {"hypergraphs.all_minimal_transversals_have_size"},
    "domination.neighborhood_hypergraph_ms": {"domination.neighborhood_hypergraph"},
    "domination.gamma_ms": {"domination.gamma", "domination.gamma_t", "domination.alpha",
                            "domination.minimum_dominating_set",
                            "domination.minimum_total_dominating_set"},
    "domination.irreducible_enum_ms": {"domination.enumerate_irreducible_dominating_sets"},
    "recognition.gamma2_ms": {"recognition.is_well_dominated_gamma2"},
    "recognition.bounded_k_ms": {"recognition.is_well_dominated_bounded_k"},
    "recognition.enum_ms": {"recognition.is_well_dominated_enum"},
    "recognition.lex_ms": {"recognition.is_well_dominated_lex"},
    "graphs.triangles_ms": {"graphs.enumerate_triangles"},
    "graphs.parse_ms": {"graphs.parse_graph"},
    "lexicographic.product_enum_ms": {"lexicographic.enumerate_minimal_dominating_sets_product"},
    "lexicographic.flatten_ms": {"lexicographic.lex_product", "lexicographic.flatten"},
    "lexicographic.gamma_product_ms": {"lexicographic.gamma_product"},
    "cli.format_ms": {"cli.json_dumps", "cli.print"},
}

# Calls counted from spans: which recognizer the dispatch chose.
CALL_COUNTS = {
    "recognition.dispatch.gamma2": "recognition.is_well_dominated_gamma2",
    "recognition.dispatch.bounded_k": "recognition.is_well_dominated_bounded_k",
    "recognition.dispatch.enumeration": "recognition.is_well_dominated_enum",
}

COUNTS = ("hypergraphs.transversals", "domination.irreducible_sets",
          "lexicographic.product_sets", "graphs.triangle_pairs")


def summarize(spans: list[tuple], counts: Counter) -> dict:
    """Total ns per time metric and per layer's self time, and all counts."""
    parent_of = {s[1]: s[2] for s in spans}
    name_of = {s[1]: s[3] for s in spans}
    child_ns = Counter()
    for _, sid, parent, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    def has_ancestor_in(sid, names):
        p = parent_of[sid]
        while p >= 0:
            if name_of[p] in names:
                return True
            p = parent_of[p]
        return False

    out = Counter({name: 0 for name in TIME_METRICS})
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 0
    for _, sid, _, name, start, end in spans:
        out[f"{name.split('.')[0]}.self_ms"] += end - start - child_ns[sid]
        for metric, names in TIME_METRICS.items():
            if name in names and not has_ancestor_in(sid, names):
                out[metric] += end - start
    # Product enumeration minus the irreducible and fiber enumerations.
    out["lexicographic.assembly_ms"] = sum(
        end - start - child_ns[sid] for _, sid, _, name, start, end in spans
        if name == "lexicographic.enumerate_minimal_dominating_sets_product")
    for metric, name in CALL_COUNTS.items():
        out[metric] = sum(1 for s in spans if s[3] == name)
    for name in COUNTS:
        out[name] = counts[name]
    return out
