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


def _leaves_mask(graph: Graph, dmask: int) -> int:
    out = 0
    for u in iter_bits(dmask):
        if (graph.adj_mask(u) & dmask).bit_count() == 1:
            out |= 1 << u
    return out


def _private_cover(graph: Graph, dmask: int) -> tuple[int, int]:
    """The vertices dominated by ``dmask``, and those dominated exactly once.

    A vertex v is a private closed neighbor of a member u exactly when v lies
    in N[u] and N[v] meets the set only in u, that is, when v is in N[u] and
    in the second mask.  One pass over the members builds both masks.
    """
    once = twice = 0
    for u in iter_bits(dmask):
        c = graph.closed_mask(u)
        twice |= once & c
        once |= c
    return once, once & ~twice


def _redundant_mask(graph: Graph, dmask: int) -> int:
    _, private = _private_cover(graph, dmask)
    out = 0
    for u in iter_bits(dmask):
        if not graph.closed_mask(u) & private:
            out |= 1 << u
    return out


def _leaf_supports(graph: Graph, dmask: int) -> list[int]:
    """For each redundant member, ascending, the mask of its leaf neighbors."""
    redundant = _redundant_mask(graph, dmask)
    if not redundant:
        return []
    leaves = _leaves_mask(graph, dmask)
    return [graph.adj_mask(r) & leaves for r in iter_bits(redundant)]


def classify(graph: Graph, d: VertexSet) -> DominationClassification:
    """Tag every vertex with its domination status relative to ``d``."""
    _require_nonempty(graph)
    _check_universe(graph, d)
    dmask = d.mask
    dominated = _closed_union(graph, dmask)
    totally = _open_union(graph, dmask)
    return DominationClassification(
        graph=graph,
        dset=d,
        dominated=VertexSet.from_mask(graph.n, dominated),
        totally_dominated=VertexSet.from_mask(graph.n, totally),
        barely_dominated=VertexSet.from_mask(graph.n, dominated & ~totally),
        leaves=VertexSet.from_mask(graph.n, _leaves_mask(graph, dmask)),
        redundant=VertexSet.from_mask(graph.n, _redundant_mask(graph, dmask)),
    )


def private_closed_neighbors(graph: Graph, d: VertexSet, u: int) -> VertexSet:
    """All v whose closed neighborhood meets ``d`` exactly in {u}."""
    _require_nonempty(graph)
    _check_universe(graph, d)
    if u not in d:
        raise ValueError(f"vertex {u} is not a member of the set")
    _, private = _private_cover(graph, d.mask)
    return VertexSet.from_mask(graph.n, graph.closed_mask(u) & private)


def _is_minimal_dominating_mask(graph: Graph, dmask: int) -> bool:
    dominated, private = _private_cover(graph, dmask)
    if dominated != graph.full_mask:
        return False
    return all(graph.closed_mask(u) & private for u in iter_bits(dmask))


def is_minimal_dominating(graph: Graph, d: VertexSet) -> bool:
    """Dominating, and every member keeps a private closed neighbor."""
    _require_nonempty(graph)
    _check_universe(graph, d)
    return _is_minimal_dominating_mask(graph, d.mask)


def _is_irreducible_mask(graph: Graph, dmask: int) -> bool:
    return _closed_union(graph, dmask) == graph.full_mask and all(_leaf_supports(graph, dmask))


def is_irreducible_dominating(graph: Graph, d: VertexSet) -> bool:
    """Dominating set where every member has a private closed neighbor or a leaf neighbor.

    Equivalent to the direct definition checked by
    :func:`is_irreducible_dominating_definitional`: no member can be dropped
    while preserving both domination and the set of totally dominated
    vertices.
    """
    _require_nonempty(graph)
    _check_universe(graph, d)
    return _is_irreducible_mask(graph, d.mask)


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
    """Total dominating, and no one-element deletion stays total dominating."""
    _require_nonempty(graph)
    _check_universe(graph, d)
    full = graph.full_mask
    if _open_union(graph, d.mask) != full:
        return False
    for u in iter_bits(d.mask):
        if _open_union(graph, d.mask ^ (1 << u)) == full:
            return False
    return True


def _minimum_cover(graph: Graph, closed: bool, reach: int) -> int | None:
    """The mask of a smallest covering set if one has at most ``reach`` vertices.

    A covering set is one whose closed (or open) neighborhoods cover all
    vertices.  Searches sizes 1, 2, ..., ``reach`` in turn, O(n^k) steps
    for size k, and returns None when none of them covers, without
    searching further.
    """
    _require_nonempty(graph)
    cover = graph.closed_mask if closed else graph.adj_mask
    # u covers v exactly when v covers u, so one list is both the edges (the
    # vertices covering each vertex) and the incidence (those each one covers)
    masks = [cover(v) for v in range(graph.n)]
    covers = (hypergraphs._hitting_set(masks, masks, k) for k in range(1, reach + 1))
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


def upper_gamma(graph: Graph, cap: int | None = None) -> int:
    """Upper domination number: the largest size of a minimal dominating set.

    The enumeration is in canonical order, by size first, so the largest
    set is the last one.  Its cap check comes before any search.
    """
    return len(enumerate_minimal_dominating_sets(graph, cap)[-1])


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
    never holds every frame's masks at once.  In a leaf frame the members
    whose mask has no bit below n are the redundant members, the high bits
    ``mask >> n`` of such a member are exactly its leaf neighbors (with no
    private closed neighbor, it keeps no bit of a non-member), and
    ``members & tot`` are the totally dominated members.  The search runs on
    an explicit stack, so its depth is not limited by the recursion limit.
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
