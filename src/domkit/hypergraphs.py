"""Hypergraphs and minimal-transversal machinery.

This is the enumeration backend for minimal dominating sets (via the closed
neighborhood hypergraph) and for the bounded-size recognition of graphs whose
minimal dominating sets all share one size.  Enumeration is sequential
edge-by-edge cross-product with intermediate minimization; the fixed-size
decision avoids full enumeration by scanning small subsets and then searching,
with an explicit stack, for a transversal that dodges all of them.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .graphs import (
    GraphParseError,
    VertexSet,
    _check_universe,
    _int_tokens,
    _minimalize,
    _parse_records,
    iter_bits,
    set_sort_key,
)


class Hypergraph:
    """Vertex universe 0..n-1 plus a list of non-empty hyperedges."""

    __slots__ = ("n", "hyperedges")

    def __init__(self, n: int, hyperedges: Iterable[Iterable[int] | VertexSet]):
        if n < 0:
            raise ValueError("universe size must be non-negative")
        edges = []
        for e in hyperedges:
            vs = e if isinstance(e, VertexSet) else VertexSet(n, e)
            if vs.universe_size != n:
                raise ValueError("hyperedge universe does not match the hypergraph")
            if not vs.mask:
                raise ValueError("empty hyperedges are not allowed")
            edges.append(vs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "hyperedges", tuple(edges))

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    @property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple(e.mask for e in self.hyperedges)

    def is_sperner(self) -> bool:
        """True when no hyperedge contains another (duplicates included)."""
        return len(_minimize(self.edge_masks)) == len(self.hyperedges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and sorted(self.edge_masks) == sorted(other.edge_masks)
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.edge_masks))))

    def __repr__(self) -> str:
        return f"Hypergraph({self.n}, {[list(e.members) for e in self.hyperedges]})"


def is_transversal(h: Hypergraph, x: VertexSet) -> bool:
    """True when ``x`` intersects every hyperedge."""
    _check_universe(h, x)
    return all(x.mask & e for e in h.edge_masks)


def is_minimal_transversal(h: Hypergraph, x: VertexSet) -> bool:
    """Transversal whose one-element deletions all fail (sufficient by monotonicity)."""
    _check_universe(h, x)
    masks = h.edge_masks
    if not all(x.mask & e for e in masks):
        return False
    for v in iter_bits(x.mask):
        smaller = x.mask ^ (1 << v)
        if all(smaller & e for e in masks):
            return False
    return True


def _minimize(masks: Iterable[int]) -> list[int]:
    """Inclusion-minimal members of a family of bitmasks, deduplicated."""
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in ordered:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return kept


def sperner_reduce(h: Hypergraph) -> Hypergraph:
    """Keep exactly the inclusion-minimal hyperedges, in canonical order."""
    kept = _minimize(h.edge_masks)
    kept.sort(key=lambda m: (m.bit_count(), tuple(iter_bits(m))))
    return Hypergraph(h.n, [VertexSet.from_mask(h.n, m) for m in kept])


def enumerate_minimal_transversals(h: Hypergraph) -> list[VertexSet]:
    """All minimal transversals, canonically ordered.

    Hyperedges are processed in ascending size order, extending the running
    family one edge at a time and re-minimizing after each step; this keeps the
    intermediate families small on closed-neighborhood hypergraphs.
    """
    edges = sorted(set(h.edge_masks), key=lambda m: (m.bit_count(), m))
    family = [0]
    for e in edges:
        candidates = [t for t in family if t & e]
        for t in family:
            if not t & e:
                for v in iter_bits(e):
                    candidates.append(t | (1 << v))
        family = _minimize(candidates)
    out = [VertexSet.from_mask(h.n, m) for m in family]
    out.sort(key=set_sort_key)
    return out


def minimal_transversals_up_to_size(h: Hypergraph, k: int) -> list[VertexSet]:
    """Minimal transversals of size <= k, by exhaustive scan over small subsets."""
    if k < 0:
        raise ValueError("size bound must be non-negative")
    out = []
    for size in range(0, min(k, h.n) + 1):
        for combo in itertools.combinations(range(h.n), size):
            x = VertexSet(h.n, combo)
            if is_minimal_transversal(h, x):
                out.append(x)
    return out


def all_minimal_transversals_have_size(
    h: Hypergraph, k: int
) -> tuple[bool, VertexSet | None]:
    """Decide whether every minimal transversal has size exactly ``k``.

    Returns (True, None) on success, else (False, w) where w is a minimal
    transversal of size != k, the first counterexample in canonical search
    order.  Requires a Sperner hypergraph.  The decision runs in three steps:
    reject if a minimal transversal smaller than k exists, collect the size-k
    minimal transversals, then backtrack for a transversal containing none of
    them and minimalize it into an oversized witness.
    """
    if not h.is_sperner():
        raise ValueError("hypergraph must be Sperner-reduced")
    for small in minimal_transversals_up_to_size(h, k - 1):
        return False, small
    size_k = [x.mask for x in minimal_transversals_up_to_size(h, k) if len(x) == k]

    edges = h.edge_masks
    n = h.n
    full = (1 << n) - 1

    # Depth-first over vertices in ascending order, excluding a vertex before
    # including it.  A node (i, included) has decided the vertices < i; it is
    # pruned when an edge can no longer be hit or the inclusions already
    # contain a size-k minimal transversal.  The explicit stack keeps the
    # depth off the interpreter's recursion limit.
    stack = [(0, 0)]
    while stack:
        i, included = stack.pop()
        available = included | (full >> i << i)
        if any(not e & available for e in edges):
            continue
        if any(m & ~included == 0 for m in size_k):
            continue
        if i == n:
            witness = _minimalize(included, lambda m: all(m & e for e in edges))
            return False, VertexSet.from_mask(n, witness)
        stack.append((i + 1, included | (1 << i)))
        stack.append((i + 1, included))
    return True, None


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse a hyperedge-list document: "n m", then one line per hyperedge."""

    def hyperedge(line: str, line_no: int, n: int) -> list[int]:
        members = _int_tokens(line, line_no, None, "hyperedge")
        if not members:
            raise GraphParseError("empty hyperedge", line_no)
        for v in members:
            if not 0 <= v < n:
                raise GraphParseError(f"vertex {v} out of range for n={n}", line_no)
        return members

    n, edges = _parse_records(text, hyperedge, "hyperedges", "hyperedges")
    return Hypergraph(n, edges)


def write_hypergraph(h: Hypergraph, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{h.n} {len(h.hyperedges)}")
    lines.extend(" ".join(str(v) for v in e.members) for e in h.hyperedges)
    return "\n".join(lines) + "\n"
