"""Recognition of well-dominated graphs.

A graph is well-dominated when all its minimal dominating sets share one
size.  Four recognizers are provided: plain enumeration, a polynomial test
for graphs whose domination number is two (triangle-pair scan on the graph
plus a triangle-freeness test on the complement), a bounded-size transversal
test that is polynomial for each fixed domination number k (a search over
irredundant (k+1)-sets, O(n^(2k+2)) bitmask steps), and a factor-based test
for lexicographic products.  Every negative verdict ships two concrete
minimal dominating sets of different sizes when such a pair exists, and the
product recognizer builds and re-checks them from the factors without ever
building the flattened product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (
    Graph,
    VertexSet,
    _closed_union,
    _minimalize,
    _open_union,
    complement,
    connected_components,
    enumerate_triangles,
    _universal_mask,
    induced_subgraph,
    induces_c6_complement,
    is_complete,
    isolated_vertices,
    iter_bits,
)
from .domination import (
    _check_cap,
    _greedy_independent,
    _minimum_cover,
    _require_nonempty,
    enumerate_minimal_dominating_sets,
    minimum_dominating_set,
    minimum_total_dominating_set,
    neighborhood_hypergraph,
)
from .hypergraphs import all_minimal_transversals_have_size
from .lexicographic import ProductSet, _minimality

# no longer called here (witnesses are re-checked at factor level), but
# perfbench/tracer.py wraps the name in this module
from .lexicographic import lex_product  # noqa: F401

# the product formula for a known fiber domination number, bound to the
# public name so that perfbench/tracer.py still times its calls
from .lexicographic import _gamma_product as gamma_product

# no longer called here (``recognize`` bounds its own search), but
# perfbench/tracer.py wraps the name in this module
from .domination import gamma  # noqa: F401


@dataclass(frozen=True)
class RecognitionReport:
    """Outcome of a well-dominated test.

    On a positive verdict ``common_size`` is the shared size of all minimal
    dominating sets (the domination number).  On a negative verdict
    ``witness_small`` and ``witness_large`` are minimal dominating sets of
    different sizes whenever such a pair exists; method-specific details
    (failing conditions, violating triangles, per-component breakdowns, pair
    forms of product witnesses) live in ``notes``.
    """

    verdict: bool
    method: str
    gamma: int | None = None
    common_size: int | None = None
    witness_small: VertexSet | None = None
    witness_large: VertexSet | None = None
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "method": self.method,
            "gamma": self.gamma,
            "common_size": self.common_size,
            "witness_small": None
            if self.witness_small is None
            else list(self.witness_small.members),
            "witness_large": None
            if self.witness_large is None
            else list(self.witness_large.members),
            "notes": self.notes,
        }


# the largest domination number searched on a graph of any size: up to it
# the search is polynomial and the bounded-size test decides
BOUNDED_K_REACH = 3


def _domination_cover(graph: Graph, limit: int, cap: int | None) -> int | None:
    """The mask of a minimum dominating set if one has at most ``limit`` vertices.

    Sizes up to ``min(limit, BOUNDED_K_REACH)`` are searched on a graph of
    any size; the cap is checked before any search past that reach.
    """
    cover = _minimum_cover(graph, True, min(limit, BOUNDED_K_REACH))
    if cover is None and limit > BOUNDED_K_REACH:
        _check_cap(graph.n, cap)
        cover = _minimum_cover(graph, True, limit)
    return cover


def is_well_dominated_enum(graph: Graph, cap: int | None = None) -> RecognitionReport:
    """Decide by enumerating all minimal dominating sets."""
    _require_nonempty(graph)
    mds = enumerate_minimal_dominating_sets(graph, cap)
    smallest = mds[0]
    deviant = next((d for d in mds if len(d) != len(smallest)), None)
    if deviant is None:
        return RecognitionReport(
            verdict=True,
            method="enumeration",
            gamma=len(smallest),
            common_size=len(smallest),
            notes={"count": len(mds)},
        )
    return RecognitionReport(
        verdict=False,
        method="enumeration",
        gamma=len(smallest),
        witness_small=smallest,
        witness_large=deviant,
        notes={"count": len(mds)},
    )


def is_well_covered_alpha2(graph: Graph) -> bool:
    """All maximal independent sets have size two.

    Holds exactly when the complement is triangle-free and has no isolated
    vertices (maximal independent sets are maximal cliques of the complement).
    """
    comp = complement(graph)
    if isolated_vertices(comp).mask:
        return False
    return not enumerate_triangles(comp)


def is_well_dominated_gamma2(graph: Graph, cap: int | None = None) -> RecognitionReport:
    """Polynomial test for "well-dominated with domination number two".

    Condition (a): the complement is triangle-free without isolated vertices,
    which already pins the domination number to two.  Condition (b): for every
    ordered pair of triangles (T, T2) of the graph whose union induces the
    complement of a 6-cycle, the set T together with the vertices outside
    N[T2] fails to dominate.  The pair scan is ordered because the tested set
    uses T and T2 asymmetrically.  A negative verdict reports the domination
    number, found by :func:`_domination_cover`, so past ``BOUNDED_K_REACH``
    it needs the graph within ``cap``.
    """
    _require_nonempty(graph)
    comp = complement(graph)
    comp_triangles = enumerate_triangles(comp)
    cond_triangle_free = not comp_triangles
    cond_no_isolated = not isolated_vertices(comp).mask
    cond_a = cond_triangle_free and cond_no_isolated

    violation: tuple[VertexSet, VertexSet, int] | None = None
    triangles = enumerate_triangles(graph)
    full = graph.full_mask
    for t in triangles:
        for t2 in triangles:
            if t.mask & t2.mask:
                continue
            if not induces_c6_complement(graph, t, t2):
                continue
            candidate = t.mask | (full & ~_closed_union(graph, t2.mask))
            if _closed_union(graph, candidate) == full:
                violation = (t, t2, candidate)
                break
        if violation:
            break
    cond_b = violation is None

    notes: dict = {
        "complement_triangle_free": cond_triangle_free,
        "complement_no_isolated": cond_no_isolated,
        "triangle_pair_condition": cond_b,
    }
    if violation:
        notes["violating_triangles"] = [
            list(violation[0].members),
            list(violation[1].members),
        ]

    if cond_a and cond_b:
        return RecognitionReport(
            verdict=True, method="gamma2", gamma=2, common_size=2, notes=notes
        )

    minimum = VertexSet.from_mask(graph.n, _domination_cover(graph, graph.n, cap))
    small = large = None
    if len(minimum) == 2:
        small = minimum
        if violation:
            large_mask = _minimalize(violation[2], lambda m: _closed_union(graph, m) == full)
            large = VertexSet.from_mask(graph.n, large_mask)
        elif comp_triangles:
            # a complement triangle is an independent triple; its maximal
            # extension is a minimal dominating set of size at least three
            large = VertexSet.from_mask(
                graph.n, _greedy_independent(graph, comp_triangles[0].mask)
            )
    return RecognitionReport(
        verdict=False,
        method="gamma2",
        gamma=len(minimum),
        witness_small=small,
        witness_large=large,
        notes=notes,
    )


def is_well_dominated_bounded_k(
    graph: Graph, k: int | None = None, cap: int | None = None, *, _cover: int | None = None
) -> RecognitionReport:
    """Decide via transversal sizes of the closed-neighborhood hypergraph.

    Requires the domination number to equal ``k``; a missing ``k`` means the
    domination number itself.  Either is found by :func:`_domination_cover`,
    so a domination number past ``BOUNDED_K_REACH`` needs the graph within
    ``cap``, and a ``k`` below it fails fast.  The graph is well-dominated
    exactly when every minimal transversal of the reduced closed-neighborhood
    hypergraph has size ``k``, which ``all_minimal_transversals_have_size``
    decides in polynomial time for fixed ``k``; its oversized minimal
    transversal is the large witness.

    ``_cover`` is internal to :func:`recognize`: the mask of the minimum
    dominating set its own search found, taken as is instead of searched for
    again.  Passing it here, rather than to a separate function, keeps every
    dispatch to this recognizer a call of this function.
    """
    _require_nonempty(graph)
    if _cover is None:
        _cover = _domination_cover(graph, graph.n if k is None else k, cap)
        if _cover is None:
            raise ValueError(f"domination number is above {k}")
        if k is not None and _cover.bit_count() != k:
            raise ValueError(f"domination number is {_cover.bit_count()}, not {k}")
    k = _cover.bit_count()
    small = VertexSet.from_mask(graph.n, _cover)
    ok, deviant = all_minimal_transversals_have_size(neighborhood_hypergraph(graph), k)
    if ok:
        return RecognitionReport(
            verdict=True, method="bounded_k", gamma=k, common_size=k
        )
    return RecognitionReport(
        verdict=False,
        method="bounded_k",
        gamma=k,
        witness_small=small,
        witness_large=deviant,
        notes={"deviant_size": len(deviant)},
    )


def recognize(graph: Graph, cap: int | None = None) -> RecognitionReport:
    """Dispatch to the cheapest applicable recognizer.

    Domination number two gets the triangle-pair test, domination numbers up
    to ``BOUNDED_K_REACH`` the transversal test, everything else plain
    enumeration.  The domination number is searched only up to that reach,
    in O(n^k) per size k; a larger one goes straight to enumeration, whose
    cap check comes before any exponential search.  All paths agree on the
    verdict.
    """
    cover = _domination_cover(graph, BOUNDED_K_REACH, cap)
    if cover is None:
        return is_well_dominated_enum(graph, cap)
    if cover.bit_count() == 2:
        return is_well_dominated_gamma2(graph, cap)
    return is_well_dominated_bounded_k(graph, _cover=cover)


def _lowest_universal(graph: Graph) -> int:
    universal = _universal_mask(graph)
    if not universal:
        raise AssertionError("no universal vertex")
    return (universal & -universal).bit_length() - 1


def _distance_two_triple(graph: Graph) -> tuple[int, int, int]:
    """Lowest (x, y, u) with x, y non-adjacent sharing the common neighbor u.

    Exists in every connected graph with at least two vertices that is not
    complete.
    """
    for x in range(graph.n):
        for y in range(x + 1, graph.n):
            if graph.adjacent(x, y):
                continue
            common = graph.adj_mask(x) & graph.adj_mask(y)
            if common:
                return x, y, (common & -common).bit_length() - 1
    raise AssertionError("graph is complete or disconnected")


def _component_cover(fiber: Graph, sub: Graph, verts: tuple[int, ...],
                     fiber_gamma: int) -> list[tuple[int, int]]:
    """One minimal dominating set for the product of one base component."""
    if fiber_gamma == 1:
        h = _lowest_universal(fiber)
        return [(verts[x], h) for x in minimum_dominating_set(sub)]
    if sub.n == 1:
        return [(verts[0], h) for h in minimum_dominating_set(fiber)]
    return [(verts[x], 0) for x in minimum_total_dominating_set(sub)]


def _lex_witness_pair(
    base: Graph,
    fiber: Graph,
    components: list[tuple[VertexSet, Graph, tuple[int, ...]]],
    failing_index: int,
    fiber_report: RecognitionReport,
    sub_report: RecognitionReport | None,
) -> tuple[ProductSet, ProductSet]:
    """Two minimal dominating sets of different sizes for a failing product.

    Built entirely from factor-level computations: the failing component
    supplies the size gap, every other component is padded with one fixed
    minimal dominating set of its own product.  ``sub_report`` is the
    recognition report of the failing base component, present whenever the
    fiber graph is complete.
    """
    _, sub, verts = components[failing_index]
    fiber_gamma = fiber_report.gamma

    if not fiber_report.verdict:
        a1 = fiber_report.witness_small
        a2 = fiber_report.witness_large
        s = _greedy_independent(sub)
        d1 = [(verts[x], h) for x in iter_bits(s) for h in a1]
        d2 = [(verts[x], h) for x in iter_bits(s) for h in a2]
    elif fiber_gamma == 1:
        # well-dominated with domination number one means complete
        h = _lowest_universal(fiber)
        d1 = [(verts[x], h) for x in sub_report.witness_small]
        d2 = [(verts[x], h) for x in sub_report.witness_large]
    elif fiber_gamma == 2:
        x, y, u = _distance_two_triple(sub)
        s = _greedy_independent(sub, (1 << x) | (1 << y))
        a = minimum_dominating_set(fiber)
        # one ascending removal pass down to a subset of s + u with the same
        # closed and open neighborhood unions
        t = s | (1 << u)
        closed_t, open_t = _closed_union(sub, t), _open_union(sub, t)
        reduced = _minimalize(
            t, lambda m: _closed_union(sub, m) == closed_t and _open_union(sub, m) == open_t
        )
        closed_u = sub.closed_mask(u)
        d1 = [(verts[v], h) for v in iter_bits(s) for h in a]
        d2 = [(verts[v], 0) for v in iter_bits(reduced & closed_u)]
        d2 += [(verts[v], h) for v in iter_bits(reduced & ~closed_u) for h in a]
    else:
        s = _greedy_independent(sub)
        a = minimum_dominating_set(fiber)
        d1 = [(verts[v], h) for v in iter_bits(s) for h in a]
        d2 = [(verts[v], 0) for v in minimum_total_dominating_set(sub)]

    padding: list[tuple[int, int]] = []
    for idx, (_, sub_j, verts_j) in enumerate(components):
        if idx != failing_index:
            padding.extend(_component_cover(fiber, sub_j, verts_j, fiber_gamma))

    ps1 = ProductSet(base.n, fiber.n, d1 + padding)
    ps2 = ProductSet(base.n, fiber.n, d2 + padding)
    if len(ps1) > len(ps2):
        ps1, ps2 = ps2, ps1
    return ps1, ps2


def is_well_dominated_lex(
    base: Graph, fiber: Graph, cap: int | None = None
) -> RecognitionReport:
    """Factor-based recognition for a nontrivial lexicographic product.

    The product decomposes into one component per base component, and each
    component product is well-dominated exactly when either the base
    component is well-dominated and the fiber graph complete, or the base
    component is complete and the fiber graph well-dominated with domination
    number two.  Single-vertex base components contribute a plain fiber copy
    and only require the fiber graph to be well-dominated.
    """
    if base.n < 2 or fiber.n < 2:
        raise ValueError("both factors must have at least two vertices")
    _check_cap(base.n, cap)
    _check_cap(fiber.n, cap)

    fiber_report = recognize(fiber, cap)
    fiber_complete = is_complete(fiber)
    fiber_gamma = fiber_report.gamma

    components = [
        (comp,) + induced_subgraph(base, comp) for comp in connected_components(base)
    ]
    per_component = []
    failing_index: int | None = None
    failing_report: RecognitionReport | None = None
    for idx, (comp, sub, _) in enumerate(components):
        sub_report = None
        if sub.n == 1:
            ok = fiber_report.verdict
            condition = "fiber copy" if ok else None
        else:
            if fiber_complete:
                sub_report = recognize(sub, cap)
            cond_base_wd = sub_report is not None and sub_report.verdict
            cond_fiber_wd2 = (
                is_complete(sub) and fiber_report.verdict and fiber_gamma == 2
            )
            ok = cond_base_wd or cond_fiber_wd2
            condition = (
                "well-dominated base component with complete fiber"
                if cond_base_wd
                else "complete base component with well-dominated fiber of domination number two"
                if cond_fiber_wd2
                else None
            )
        per_component.append(
            {"vertices": list(comp.members), "satisfied": ok, "condition": condition}
        )
        if not ok and failing_index is None:
            failing_index, failing_report = idx, sub_report

    notes: dict = {
        "fiber_well_dominated": fiber_report.verdict,
        "fiber_complete": fiber_complete,
        "fiber_gamma": fiber_gamma,
        "components": per_component,
    }
    gamma_prod = gamma_product(base, fiber, fiber_gamma)

    if failing_index is None:
        return RecognitionReport(
            verdict=True,
            method="lex_formula",
            gamma=gamma_prod,
            common_size=gamma_prod,
            notes=notes,
        )

    small, large = _lex_witness_pair(
        base, fiber, components, failing_index, fiber_report, failing_report
    )
    # re-checked at factor level: the flattened product is never built
    if not (
        _minimality(base, fiber, small).minimal
        and _minimality(base, fiber, large).minimal
        and len(small) != len(large)
    ):
        raise RuntimeError(
            "product witnesses failed their re-check: "
            f"{list(small.pairs)} and {list(large.pairs)} are not minimal "
            "dominating sets of different sizes"
        )
    notes["witness_small_pairs"] = [list(p) for p in small.pairs]
    notes["witness_large_pairs"] = [list(p) for p in large.pairs]
    return RecognitionReport(
        verdict=False,
        method="lex_formula",
        gamma=gamma_prod,
        witness_small=small.flatten(),
        witness_large=large.flatten(),
        notes=notes,
    )
