"""Domination predicates, parameters, and enumerators for a single graph.

Everything is exact.  Parameters are found by increasing-size bounded search
(the search branches only inside the neighborhood of an uncovered vertex, and
the first size that covers is the answer, so no approximation is ever
returned).  Set enumerators route through the minimal-transversal backend or
a pruned subset search; both are guarded by a configurable vertex cap so an
accidental call on a large graph fails fast instead of running for hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import (
    Graph,
    VertexSet,
    _check_universe,
    _closed_union,
    _members,
    _once_cover,
    _open_union,
    iter_bits,
)
from . import hypergraphs

DEFAULT_ENUMERATION_CAP = 24


class EnumerationCapExceeded(RuntimeError):
    """Enumeration requested on a graph larger than the configured cap."""


def _check_cap(n: int, cap: int | None) -> None:
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if n > limit:
        raise EnumerationCapExceeded(
            f"graph has {n} vertices, above the enumeration cap {limit}"
        )


def _require_nonempty(graph: Graph) -> None:
    if graph.n == 0:
        raise ValueError("operation undefined on the zero-vertex graph")


def is_dominating(graph: Graph, d: VertexSet) -> bool:
    """True when every vertex is in ``d`` or adjacent to a member of ``d``."""
    _require_nonempty(graph)
    _check_universe(graph, d)
    return _closed_union(graph, d.mask) == graph.full_mask


def is_total_dominating(graph: Graph, d: VertexSet) -> bool:
    """True when every vertex, members of ``d`` included, has a neighbor in ``d``."""
    _require_nonempty(graph)
    _check_universe(graph, d)
    return _open_union(graph, d.mask) == graph.full_mask


@dataclass(frozen=True)
class DominationClassification:
    """Per-vertex view of how a set dominates a graph.

    ``barely_dominated`` vertices are dominated but not totally dominated,
    i.e. x with N[x] meeting the set exactly in {x}; they are always members.
    ``leaves`` are members with exactly one neighbor inside the set, and
    ``redundant`` are members without a private closed neighbor (their removal
    keeps the set dominating whenever it was).
    """

    graph: Graph
    dset: VertexSet
    dominated: VertexSet
    totally_dominated: VertexSet
    barely_dominated: VertexSet
    leaves: VertexSet
    redundant: VertexSet


def _frame(graph: Graph, dmask: int) -> tuple:
    """The leaf frame ``(n, members, dom, tot, support)`` of the set ``dmask``.

    ``dom`` and ``tot`` are the closed and the open neighborhood unions of
    the members, and ``support`` holds one mask per member, in ascending
    member order.  Bits 0..n-1 of member u's mask are its private closed
    neighbors, the vertices whose closed neighborhood meets the set only in
    u; bits n..2n-1 are the vertices whose only neighbor in the set is u.
    ``members & ~tot`` are the barely dominated members, and a member whose
    mask has no bit below n is redundant (see :func:`_redundant_leaves`).
    For an irreducible dominating set this is the frame that
    :func:`_irreducible_frames` yields.
    """
    n = graph.n
    # each member's closed neighborhood in the low half, its open one above
    masks = [graph.closed_mask(u) | graph.adj_mask(u) << n for u in _members(dmask)]
    union, once = _once_cover(masks)
    return n, dmask, union & graph.full_mask, union >> n, tuple([m & once for m in masks])


def _redundant_leaves(frame: tuple) -> list[int]:
    """For each redundant member of a frame, ascending, the mask of its leaf neighbors.

    A redundant member u has no private closed neighbor, so its mask has no
    bit below n.  A vertex whose only neighbor in the set is u is then a
    member (else it would be a private closed neighbor of u) with exactly
    one neighbor in the set, a leaf, so the high bits of u's mask are
    exactly its leaf neighbors.
    """
    n, _, _, _, support = frame
    low = (1 << n) - 1
    return [s >> n for s in support if not s & low]


def classify(graph: Graph, d: VertexSet) -> DominationClassification:
    """Tag every vertex with its domination status relative to ``d``."""
    _require_nonempty(graph)
    _check_universe(graph, d)
    n, dmask, dominated, totally, support = _frame(graph, d.mask)
    # together the high halves of the masks hold the vertices with exactly
    # one neighbor in the set, and the members among them are the leaves
    alone = redundant = 0
    for u, s in zip(_members(dmask), support):
        alone |= s >> n
        if not s & graph.full_mask:
            redundant |= 1 << u
    return DominationClassification(
        graph=graph,
        dset=d,
        dominated=VertexSet.from_mask(n, dominated),
        totally_dominated=VertexSet.from_mask(n, totally),
        barely_dominated=VertexSet.from_mask(n, dominated & ~totally),
        leaves=VertexSet.from_mask(n, dmask & alone),
        redundant=VertexSet.from_mask(n, redundant),
    )


def private_closed_neighbors(graph: Graph, d: VertexSet, u: int) -> VertexSet:
    """All v whose closed neighborhood meets ``d`` exactly in {u}."""
    _require_nonempty(graph)
    _check_universe(graph, d)
    if u not in d:
        raise ValueError(f"vertex {u} is not a member of the set")
    support = _frame(graph, d.mask)[4]
    own = support[(d.mask & ((1 << u) - 1)).bit_count()]
    return VertexSet.from_mask(graph.n, own & graph.full_mask)


def is_minimal_dominating(graph: Graph, d: VertexSet) -> bool:
    """Dominating, and every member keeps a private closed neighbor."""
    _require_nonempty(graph)
    _check_universe(graph, d)
    frame = _frame(graph, d.mask)
    return frame[2] == graph.full_mask and not _redundant_leaves(frame)


def is_irreducible_dominating(graph: Graph, d: VertexSet) -> bool:
    """Dominating set where every member has a private closed neighbor or a leaf neighbor.

    Equivalent to the direct definition checked by
    :func:`is_irreducible_dominating_definitional`: no member can be dropped
    while preserving both domination and the set of totally dominated
    vertices.
    """
    _require_nonempty(graph)
    _check_universe(graph, d)
    frame = _frame(graph, d.mask)
    return frame[2] == graph.full_mask and all(_redundant_leaves(frame))


def is_irreducible_dominating_definitional(graph: Graph, d: VertexSet) -> bool:
    """Direct reducibility check, kept as the oracle for the characterization."""
    _require_nonempty(graph)
    _check_universe(graph, d)
    dmask = d.mask
    if _closed_union(graph, dmask) != graph.full_mask:
        return False
    totally = _open_union(graph, dmask)
    for u in iter_bits(dmask):
        smaller = dmask ^ (1 << u)
        if _closed_union(graph, smaller) == graph.full_mask and _open_union(
            graph, smaller
        ) == totally:
            return False
    return True


def is_minimal_total_dominating(graph: Graph, d: VertexSet) -> bool:
    """Total dominating, and no one-element deletion stays total dominating.

    That is, every member is the only neighbor in the set of some vertex.
    """
    _require_nonempty(graph)
    _check_universe(graph, d)
    n, _, _, tot, support = _frame(graph, d.mask)
    return tot == graph.full_mask and all(s >> n for s in support)


def _minimum_cover(graph: Graph, closed: bool, reach: int) -> int | None:
    """The mask of a smallest covering set if one has at most ``reach`` vertices.

    A covering set is one whose closed (or open) neighborhoods cover all
    vertices.  Searches each size from ceil(n / d) up to ``reach`` in turn,
    O(n^k) steps for size k, d being the most vertices one vertex covers,
    since no smaller set covers all n; returns None when none of them
    covers, without searching further.
    """
    _require_nonempty(graph)
    cover = graph.closed_mask if closed else graph.adj_mask
    # u covers v exactly when v covers u, so one list is both the edges (the
    # vertices covering each vertex) and the incidence (those each one covers)
    masks = [cover(v) for v in range(graph.n)]
    # an edgeless graph has no open cover, so any first size finds none there
    widest = max(1, max(m.bit_count() for m in masks))
    first = -(-graph.n // widest)
    covers = (hypergraphs._hitting_set(masks, masks, k) for k in range(first, reach + 1))
    return next((c for c in covers if c is not None), None)


def minimum_dominating_set(graph: Graph) -> VertexSet:
    """A minimum dominating set, found by increasing-size bounded search."""
    _require_nonempty(graph)
    return VertexSet.from_mask(graph.n, _minimum_cover(graph, True, graph.n))


def gamma(graph: Graph) -> int:
    """Domination number."""
    return len(minimum_dominating_set(graph))


def minimum_total_dominating_set(graph: Graph) -> VertexSet:
    """A minimum total dominating set; undefined with isolated vertices."""
    _require_nonempty(graph)
    if any(graph.adj_mask(v) == 0 for v in range(graph.n)):
        raise ValueError("total domination undefined: the graph has an isolated vertex")
    return VertexSet.from_mask(graph.n, _minimum_cover(graph, False, graph.n))


def gamma_t(graph: Graph) -> int:
    """Total domination number; raises on graphs with isolated vertices."""
    return len(minimum_total_dominating_set(graph))


def _find_independent(graph: Graph, k: int) -> int | None:
    """Search for an independent set of size exactly k >= 1, ascending vertex order.

    A frame offers its lowest allowed vertex as the next member; the subtree
    that takes it is searched before the frame offers its next vertex.
    """
    stack = [(graph.full_mask, 0, k)]
    while stack:
        allowed, chosen, need = stack.pop()
        if allowed.bit_count() < need:
            continue
        low = allowed & -allowed
        allowed ^= low
        if need == 1:
            return chosen | low
        stack.append((allowed, chosen, need))
        v = low.bit_length() - 1
        stack.append((allowed & ~graph.adj_mask(v), chosen | low, need - 1))
    return None


def _greedy_independent(graph: Graph, seed_mask: int = 0) -> int:
    """Extend ``seed_mask`` (an independent set) to a maximal one, ascending."""
    chosen = seed_mask
    blocked = _closed_union(graph, seed_mask)
    for v in range(graph.n):
        if not blocked >> v & 1:
            chosen |= 1 << v
            blocked |= graph.closed_mask(v)
    return chosen


def maximum_independent_set(graph: Graph) -> VertexSet:
    """A maximum independent set, by increasing-size search above a greedy start."""
    _require_nonempty(graph)
    best = _greedy_independent(graph)
    k = best.bit_count()
    while k < graph.n:
        found = _find_independent(graph, k + 1)
        if found is None:
            break
        best, k = found, k + 1
    return VertexSet.from_mask(graph.n, best)


def alpha(graph: Graph) -> int:
    """Independence number."""
    return len(maximum_independent_set(graph))


def neighborhood_hypergraph(graph: Graph) -> hypergraphs.Hypergraph:
    """Inclusion-minimal closed neighborhoods, as a Sperner hypergraph.

    Its minimal transversals are exactly the minimal dominating sets.
    """
    _require_nonempty(graph)
    raw = hypergraphs.Hypergraph(
        graph.n,
        [VertexSet.from_mask(graph.n, graph.closed_mask(v)) for v in range(graph.n)],
    )
    return hypergraphs.sperner_reduce(raw)


def enumerate_minimal_dominating_sets(
    graph: Graph, cap: int | None = None
) -> list[VertexSet]:
    """All minimal dominating sets, canonically ordered."""
    _require_nonempty(graph)
    _check_cap(graph.n, cap)
    return hypergraphs.enumerate_minimal_transversals(neighborhood_hypergraph(graph))


def _dominating_size_range(graph: Graph, cap: int | None = None) -> tuple[int, int]:
    """The domination number and the upper domination number, from one search.

    The sizes of the smallest and the largest minimal dominating set, read
    off the minimal transversals of the closed-neighborhood hypergraph by
    :func:`hypergraphs._transversal_size_range`, which lists no sets.  The
    cap is checked before the search.
    """
    _require_nonempty(graph)
    _check_cap(graph.n, cap)
    return hypergraphs._transversal_size_range(neighborhood_hypergraph(graph))


def upper_gamma(graph: Graph, cap: int | None = None) -> int:
    """Upper domination number: the largest size of a minimal dominating set.

    Found by a size search over the minimal dominating sets that lists none
    of them (see :func:`_dominating_size_range`); like enumeration, it needs
    the graph within ``cap``, checked before any search.
    """
    return _dominating_size_range(graph, cap)[1]


def _irreducible_frames(graph: Graph) -> Iterator[tuple]:
    """The leaf frames of the irreducible search, one per irreducible dominating set.

    Include/exclude search over the vertices in ascending order.  A frame is
    ``(i, members, dom, tot, support)``: the next vertex to decide, the
    members so far, the closed and the open neighborhood unions of the
    members, and one mask per member, in ascending member order.  Bits
    0..n-1 of a member's mask are its candidate private closed neighbors, the
    closed neighbors outside every other member's closed neighborhood.  Bits
    n..2n-1 are its candidate leaf neighbors, the neighbors outside every
    other member's open neighborhood.  Including i removes ``closed[i]`` and
    ``adj[i] << n`` from every member's mask.  Excluding i changes no mask:
    while w is not a member, a mask holds bit n+w exactly when it holds bit
    w, so leaf bits only ever count for members.
    Excluding i can leave only vertices of N[i] without a possible
    dominator, namely those whose highest closed neighbor is i.  A child is
    pruned once some vertex can no longer be dominated or some mask is empty;
    both conditions only get harder as the set grows, so the prune is sound.
    At i = n a mask is non-empty exactly when its member has a private closed
    neighbor or a leaf neighbor, so every leaf that survives is an
    irreducible dominating set and needs no further test.

    Each leaf frame is yielded as the search popped it, so the search
    allocates nothing per set, and a caller that keeps only the members
    never holds every frame's masks at once.  A leaf frame equals
    :func:`_frame` of its members, and :func:`_redundant_leaves` reads its
    redundant members' leaf neighbors.  The search runs on an explicit
    stack, so its depth is not limited by the recursion limit.
    The frames come in the reverse of canonical order within each size.
    """
    n = graph.n
    closed = [graph.closed_mask(v) for v in range(n)]
    adj = [graph.adj_mask(v) for v in range(n)]
    # last[i]: the vertices whose highest closed neighbor is i
    last = [0] * n
    for c in range(n):
        last[closed[c].bit_length() - 1] |= 1 << c
    # Exclusion is pushed last, so it is searched first, as in a recursive
    # search.
    stack = [(0, 0, 0, 0, ())]
    while stack:
        frame = stack.pop()
        i, dmask, dom, tot, support = frame
        if i == n:
            yield frame
            continue
        keep = ~(closed[i] | adj[i] << n)
        kept = tuple([s & keep for s in support])
        own = (closed[i] & ~dom) | (adj[i] & ~tot) << n
        if own and all(kept):
            stack.append(
                (i + 1, dmask | 1 << i, dom | closed[i], tot | adj[i], kept + (own,))
            )
        if not last[i] & ~dom:
            stack.append((i + 1, dmask, dom, tot, support))


def enumerate_irreducible_dominating_sets(
    graph: Graph, cap: int | None = None
) -> list[VertexSet]:
    """All irreducible dominating sets, canonically ordered.

    The sets are the member masks of the leaf frames of
    :func:`_irreducible_frames`, whose frames also serve the product
    enumerator directly.  Two sets of one size differ first at their lowest
    differing vertex, which the search excluded before it included it: in
    reverse, the frames are in canonical order within each size, and a
    stable sort by size finishes it without a sort key.
    """
    _require_nonempty(graph)
    _check_cap(graph.n, cap)
    found = [frame[1] for frame in _irreducible_frames(graph)]
    found.reverse()
    found.sort(key=int.bit_count)
    return VertexSet._wrap(graph.n, found)
