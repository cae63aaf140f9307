"""Hypergraphs and minimal-transversal machinery.

This is the enumeration backend for minimal dominating sets (via the closed
neighborhood hypergraph) and for the bounded-size recognition of graphs whose
minimal dominating sets all share one size.  Enumeration is the depth-first
MMCS search of Murakami and Uno (Discrete Appl. Math., 2014), which builds no
intermediate families.

The fixed-size decision "every minimal transversal has size k" avoids
enumeration and is polynomial for fixed k.  A depth-first search of depth at
most k - 1 decides whether a smaller transversal exists; if so, the witness
is the lexicographically first minimum transversal.  Otherwise a minimal
transversal larger than k exists exactly when some (k+1)-set S is
irredundant (each member has a private edge, one that meets S in that member
alone) and, for some choice of one private edge per member, S plus every
vertex outside S and outside the chosen edges hits all edges (Cockayne,
Hedetniemi and Miller, Canad. Math. Bull. 1978, on irredundance; Eiter and
Gottlob, SIAM J. Comput. 1995, on duality with a bounded-size side).  The
witness is that set for the first S in ascending combination order and its
first choice in edge order, minimalized by one ascending removal pass.
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


def _edge_incidence(n: int, edges: list[int] | tuple[int, ...]) -> list[int]:
    """For each vertex, the bitmask of the indices of the edges that contain it."""
    incidence = [0] * n
    for i, e in enumerate(edges):
        for v in iter_bits(e):
            incidence[v] |= 1 << i
    return incidence


def enumerate_minimal_transversals(h: Hypergraph) -> list[VertexSet]:
    """All minimal transversals, canonically ordered.

    MMCS with an explicit stack: branch on the uncovered edge with the fewest
    candidates; the child that adds v may later add only the vertices of that
    edge tried before v, so each transversal is reached once.  A child is
    skipped when a member would lose its last critical edge (one that it
    alone hits), which no superset regains.
    """
    edges = sorted(set(h.edge_masks))
    incidence = _edge_incidence(h.n, edges)
    found = []
    # frame: the set, each member's critical edges, uncovered edges, candidates
    stack = [(0, [], (1 << len(edges)) - 1, (1 << h.n) - 1)]
    while stack:
        chosen, crit, uncov, cand = stack.pop()
        if not uncov:
            found.append(chosen)
            continue
        branch = min((edges[i] & cand for i in iter_bits(uncov)), key=int.bit_count)
        cand &= ~branch
        for v in iter_bits(branch):
            hit = incidence[v]
            kept = [c & ~hit for c in crit]
            if 0 not in kept:
                kept.append(uncov & hit)
                stack.append((chosen | 1 << v, kept, uncov & ~hit, cand))
            cand |= 1 << v
    return sorted((VertexSet.from_mask(h.n, m) for m in found), key=set_sort_key)


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


def _has_transversal_below(edges: tuple[int, ...], incidence: list[int], k: int) -> bool:
    """Whether some transversal has fewer than ``k`` vertices.

    Depth-first to depth k - 1, branching on an unhit edge with the fewest
    vertices: every transversal contains one of its vertices.
    """
    stack = [((1 << len(edges)) - 1, k - 1)]
    while stack:
        unhit, budget = stack.pop()
        if not unhit:
            return True
        if budget:
            branch = min((edges[i] for i in iter_bits(unhit)), key=int.bit_count)
            stack.extend((unhit & ~incidence[v], budget - 1) for v in iter_bits(branch))
    return False


def _fill_around(edges: tuple[int, ...], full: int, members: int, private: list[int],
                 missed: list[int]) -> int | None:
    """S | F for the first choice of one private edge per member of S, or None.

    Choices run in product order over the members, ascending, each taking its
    private edges in edge order.  F is every vertex outside S and outside the
    chosen edges; S | F is a transversal exactly when each edge that S
    misses keeps a vertex outside the chosen edges, which only gets harder as
    more edges are chosen, so a failing prefix is cut.
    """
    size = len(private)
    stack = [(0, 0)]
    while stack:
        j, chosen = stack.pop()
        if any(not e & ~chosen for e in missed):
            continue
        if j == size:
            return members | (full & ~chosen)
        stack.extend((j + 1, chosen | edges[i]) for i in reversed(list(iter_bits(private[j]))))
    return None


def _oversized_transversal(n: int, edges: tuple[int, ...], incidence: list[int],
                           k: int) -> int | None:
    """A minimal transversal with more than ``k`` vertices, or None.

    A (k+1)-set S lies inside such a transversal exactly when each member has
    a private edge (one that meets S in that member only) and, for some
    choice e(s) of those, S | F is a transversal, F being the vertices
    outside S and every e(s); minimalizing S | F then keeps all of S, since
    each e(s) meets it in s alone.  Candidate sets are searched depth-first in
    ascending combination order, each frame carrying its members' private
    edges and the edges hit so far; a child in which some member would lose
    its last private edge is cut, as no superset regains it.
    """
    size = k + 1
    full = (1 << n) - 1
    # frame: members, their private edges in member order, edges hit, next candidate
    stack: list[tuple[int, list[int], int, int]] = [(0, [], 0, 0)]
    while stack:
        members, private, hit, start = stack.pop()
        if len(private) == size:
            missed = [edges[i] for i in range(len(edges)) if not hit >> i & 1]
            grown = _fill_around(edges, full, members, private, missed)
            if grown is not None:
                return _minimalize(grown, lambda m: all(m & e for e in edges))
            continue
        children = []
        for v in range(start, n - size + len(private) + 1):
            own = incidence[v] & ~hit
            if not own:
                continue
            kept = [p & ~incidence[v] for p in private]
            if 0 not in kept:
                kept.append(own)
                children.append((members | 1 << v, kept, hit | incidence[v], v + 1))
        stack.extend(reversed(children))
    return None


def all_minimal_transversals_have_size(
    h: Hypergraph, k: int
) -> tuple[bool, VertexSet | None]:
    """Decide whether every minimal transversal has size exactly ``k``.

    Returns (True, None) on success, else (False, w) where w is a minimal
    transversal of size != k.  Requires a Sperner hypergraph and k >= 1.  Two
    searches decide it, each polynomial for fixed k:

    - a depth-first search of depth at most k - 1 for a transversal smaller
      than k; when one exists, w is the lexicographically first minimum
      transversal, the first entry of ``minimal_transversals_up_to_size(h, k - 1)``;
    - otherwise a search over the irredundant (k+1)-sets S in ascending
      combination order, trying each S's private-edge choices in edge order
      (see ``_oversized_transversal``); w is S | F of the first S and choice
      that pass, minimalized by one ascending removal pass.

    The second search costs O(n^(k+1) * m^(k+1)) bitmask steps.
    """
    if not h.is_sperner():
        raise ValueError("hypergraph must be Sperner-reduced")
    if k < 1:
        raise ValueError("transversal size must be at least one")
    edges = h.edge_masks
    incidence = _edge_incidence(h.n, edges)
    if _has_transversal_below(edges, incidence, k):
        return False, minimal_transversals_up_to_size(h, k - 1)[0]
    witness = _oversized_transversal(h.n, edges, incidence, k)
    if witness is None:
        return True, None
    return False, VertexSet.from_mask(h.n, witness)


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
