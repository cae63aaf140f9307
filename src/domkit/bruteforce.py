"""Exhaustive reference implementations used to cross-check the fast paths.

The enumerators and parameters here scan all 2^n subsets and apply
definitions directly, with no shared logic with the search- or
transversal-based implementations.  Only usable at desk scale; that is the
point.  The per-set predicates (``is_dominating``, ``is_minimal_dominating``,
``is_minimal_total_dominating``, ``is_minimal_transversal``) are not 2^n
scans: they apply the definition to the set and, for minimality, to each of
its one-member deletions, so they serve as oracles on sets of inputs far
past desk scale too.
"""

from __future__ import annotations

from .graphs import Graph, VertexSet, iter_bits, set_sort_key
from .hypergraphs import Hypergraph


def _cover_table(graph: Graph, closed: bool) -> list[int]:
    """cover[mask] = union of the closed (or open) neighborhoods over the members of mask."""
    row = graph.closed_mask if closed else graph.adj_mask
    rows = [row(v) for v in range(graph.n)]
    table = [0] * (1 << graph.n)
    for mask in range(1, 1 << graph.n):
        low = mask & -mask
        table[mask] = table[mask ^ low] | rows[low.bit_length() - 1]
    return table


def _minimal_covers(graph: Graph, closed: bool) -> list[VertexSet]:
    """The sets that cover and stop covering when any one member is dropped."""
    full = graph.full_mask
    cover = _cover_table(graph, closed)
    bits = [1 << u for u in range(graph.n)]
    out = [
        VertexSet.from_mask(graph.n, mask)
        for mask, union in enumerate(cover)
        if union == full and not any(cover[mask ^ b] == full for b in bits if mask & b)
    ]
    out.sort(key=set_sort_key)
    return out


def minimal_dominating_sets(graph: Graph) -> list[VertexSet]:
    """All inclusion-minimal dominating sets, by scanning every subset."""
    return _minimal_covers(graph, True)


def minimal_total_dominating_sets(graph: Graph) -> list[VertexSet]:
    return _minimal_covers(graph, False)


def _union(graph: Graph, closed: bool, mask: int) -> int:
    """The union of the closed (or open) neighborhoods of the members of mask."""
    row = graph.closed_mask if closed else graph.adj_mask
    union = 0
    for v in iter_bits(mask):
        union |= row(v)
    return union


def _is_minimal_cover(graph: Graph, d: VertexSet, closed: bool) -> bool:
    full = graph.full_mask
    return _union(graph, closed, d.mask) == full and all(
        _union(graph, closed, d.mask ^ (1 << u)) != full for u in iter_bits(d.mask)
    )


def is_dominating(graph: Graph, d: VertexSet) -> bool:
    """Every vertex is a member of ``d`` or adjacent to one."""
    return _union(graph, True, d.mask) == graph.full_mask


def is_minimal_dominating(graph: Graph, d: VertexSet) -> bool:
    """Dominating, and no one-member deletion is dominating."""
    return _is_minimal_cover(graph, d, True)


def is_minimal_total_dominating(graph: Graph, d: VertexSet) -> bool:
    """Total dominating, and no one-member deletion is total dominating."""
    return _is_minimal_cover(graph, d, False)


def irreducible_dominating_sets(graph: Graph) -> list[VertexSet]:
    """Dominating sets with no droppable member, per the direct definition.

    A member is droppable when removing it keeps the set dominating and keeps
    the set of totally dominated vertices unchanged.
    """
    full = graph.full_mask
    closed = _cover_table(graph, True)
    opened = _cover_table(graph, False)
    out = []
    for mask in range(1 << graph.n):
        if closed[mask] != full:
            continue
        reducible = False
        for u in iter_bits(mask):
            rest = mask ^ (1 << u)
            if closed[rest] == full and opened[rest] == opened[mask]:
                reducible = True
                break
        if not reducible:
            out.append(VertexSet.from_mask(graph.n, mask))
    out.sort(key=set_sort_key)
    return out


def maximal_independent_sets(graph: Graph) -> list[VertexSet]:
    out = []
    for mask in range(1 << graph.n):
        independent = True
        for u in iter_bits(mask):
            if graph.adj_mask(u) & mask:
                independent = False
                break
        if not independent:
            continue
        # maximal: every outside vertex sees some member
        if all(
            graph.adj_mask(v) & mask
            for v in range(graph.n)
            if not mask >> v & 1
        ):
            out.append(VertexSet.from_mask(graph.n, mask))
    out.sort(key=set_sort_key)
    return out


def gamma(graph: Graph) -> int:
    full = graph.full_mask
    cover = _cover_table(graph, True)
    return min(
        mask.bit_count() for mask in range(1 << graph.n) if cover[mask] == full
    )


def gamma_t(graph: Graph) -> int:
    full = graph.full_mask
    cover = _cover_table(graph, False)
    sizes = [mask.bit_count() for mask in range(1 << graph.n) if cover[mask] == full]
    if not sizes:
        raise ValueError("total domination undefined: the graph has an isolated vertex")
    return min(sizes)


def upper_gamma(graph: Graph) -> int:
    return max(len(d) for d in minimal_dominating_sets(graph))


def alpha(graph: Graph) -> int:
    best = 0
    for mask in range(1 << graph.n):
        if all(not graph.adj_mask(u) & mask for u in iter_bits(mask)):
            best = max(best, mask.bit_count())
    return best


def _hits_minimally(edges: tuple[int, ...], mask: int) -> bool:
    """``mask`` hits every edge, and no one-member deletion of it does."""
    return all(mask & e for e in edges) and all(
        not all((mask ^ (1 << u)) & e for e in edges) for u in iter_bits(mask)
    )


def is_minimal_transversal(h: Hypergraph, x: VertexSet) -> bool:
    """Every edge is hit, and no one-member deletion still hits every edge."""
    return _hits_minimally(h.edge_masks, x.mask)


def minimal_transversals(h: Hypergraph) -> list[VertexSet]:
    """All minimal transversals by scanning every subset of the universe."""
    edges = h.edge_masks
    out = [VertexSet.from_mask(h.n, mask) for mask in range(1 << h.n)
           if _hits_minimally(edges, mask)]
    out.sort(key=set_sort_key)
    return out
