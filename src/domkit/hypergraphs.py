"""Hypergraphs and minimal-transversal machinery.

This is the enumeration backend for minimal dominating sets (via the closed
neighborhood hypergraph) and for the bounded-size recognition of graphs whose
minimal dominating sets all share one size.  Enumeration is the depth-first
MMCS search of Murakami and Uno (Discrete Appl. Math., 2014), which builds no
intermediate families.  One walker (``_mmcs``), cut by size bounds, also
finds the smallest and the largest minimal transversal size without listing
the sets, and lists the minimal transversals of at most k vertices with a
search of depth at most k, polynomial for fixed k.

The fixed-size decision "every minimal transversal has size k" avoids
enumeration and is polynomial for fixed k.  A depth-first search of depth at
most k - 1 (``_hitting_set``) decides whether a smaller transversal exists;
if so, the witness is the lexicographically first minimum transversal.
Otherwise a minimal transversal larger than k exists exactly when some
(k+1)-set S is irredundant (each member has a private edge, one that meets S
in that member alone) and, for some choice of one private edge per member, S
plus every vertex outside S and outside the chosen edges hits all edges
(Cockayne, Hedetniemi and Miller, Canad. Math. Bull. 1978, on irredundance;
Eiter and Gottlob, SIAM J. Comput. 1995, on duality with a bounded-size
side).  The witness is that set for the first S in ascending combination
order and its first choice in edge order, minimalized by one ascending
removal pass.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graphs import (
    GraphParseError,
    VertexSet,
    _check_universe,
    _int_tokens,
    _key_table,
    _minimalize,
    _once_cover,
    _parse_records,
    iter_bits,
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

    def __reduce__(self):
        return (type(self), (self.n, self.hyperedges))

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
    """Transversal whose one-element deletions all fail (sufficient by monotonicity).

    A deletion fails exactly when the member alone hits some edge, so the
    test reads the edges hit at all and those hit exactly once off the
    members' edge-incidence masks.
    """
    _check_universe(h, x)
    masks = h.edge_masks
    incidence = _edge_incidence(h.n, masks)
    members = [incidence[v] for v in iter_bits(x.mask)]
    hit, critical = _once_cover(members)
    return hit == (1 << len(masks)) - 1 and all(m & critical for m in members)


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


def _guarded_fields(width: int, count: int) -> int:
    """Bit 0 of each of the first ``count`` fields of an int of guarded fields.

    Such an int packs one mask per field: field i is bits i * width to
    i * width + width - 1, a mask of ``width - 1`` bits under a top guard bit
    that stays zero.  With ``ones`` the result, ``mask * ones`` repeats a
    mask in every field, and ``ones >> width * (count - s)`` is the same
    over the first s fields only.

    Zero-field test: with ``unit`` bit 0 of each of the first s fields and
    ``guard = unit << width - 1``, a packed int p whose fields from s on are
    zero has no zero field below s exactly when
    ``(p + guard - unit) & guard == guard``.  Adding the all-ones mask
    ``guard - unit`` to a field carries into its guard exactly when the
    field is not zero, and never past the guard.
    """
    ones, span = min(count, 1), 1
    while span < count:  # doubling: time linear in the result's length
        ones |= ones << width * span
        span *= 2
    return ones & (1 << width * count) - 1


# MMCS reads a child's clear mask from a table, one per vertex over the first
# fields, while the table fits in about this many bits (every field would
# take n * min(n, m) * (m + 1)); a node past it builds the masks of its own
# branch vertices, one product each.
_FIELD_TABLE_BITS = 1 << 22


def _clear_masks(incidence: list[int], unit: int, fill: int,
                 vertices: Iterable[int]) -> dict[int, int]:
    """The clear masks of :func:`_mmcs`'s table for ``vertices`` only, over
    the fields whose bit 0 is in ``unit`` and whose mask bits are ``fill``."""
    clears = {}
    for v in vertices:
        e = incidence[v]
        low = (e & -e).bit_length() - 1 if e else 0  # the shift keeps the product small
        clears[v] = fill ^ (e >> low) * unit << low
    return clears


def _mmcs(h: Hypergraph, bounds: list[int]) -> Iterator[int]:
    """The minimal transversals of ``h`` as canonical keys, in no fixed order.

    MMCS with an explicit stack over the distinct edges in ascending mask
    order: branch on the first uncovered edge with the fewest candidates; the
    child that adds v may later add only the vertices of that edge tried
    before v, so each transversal is reached once.  A child is skipped when a
    member would lose its last critical edge (one that it alone hits), which
    no superset regains.  A child that covers every edge is a leaf, and its
    key is yielded at once rather than pushed; callers sort the keys or read
    only their smallest and largest size.

    ``bounds`` is ``[lo, hi]``, read at every node, so a caller may move it
    between leaves.  A node of size s is cut when s + 1 >= lo and
    s + |uncovered| <= hi, since every leaf below it then has a size in
    [lo, hi]: a completion adds at least one vertex, and each vertex it adds
    keeps a critical edge of its own among the node's uncovered edges.  With
    lo > n and hi < 0 nothing is cut.

    A frame holds its set as its key (see :func:`graphs._key_table`), so
    callers put the keys in canonical order with one plain sort, read a
    size as ``key >> 2n``, and wrap the keys without a key tuple per set.

    It holds its members' critical edges as one int of guarded fields (see
    :func:`_guarded_fields`): one field of m + 1 bits per member, in
    the order the members were added, m being the number of distinct edges.
    A child clears v's edges in every field with one mask, finds a member
    left without a critical edge with the zero-field test, and puts its new
    member's field above the others, so it costs a constant number of int
    operations, not one per member.  A node has fewer members than n and
    than m, since each keeps an edge of its own and some edge is uncovered,
    so ``min(n, m)`` fields hold every frame.  ``keep[v]`` is every mask
    bit of the first ``tabled`` fields except v's edges, a table of at most
    about ``_FIELD_TABLE_BITS`` bits; a node past those fields builds its
    branch vertices' masks with :func:`_clear_masks`.
    """
    n = h.n
    shift = 2 * n
    empty, entries = _key_table(n)
    edges = sorted(set(h.edge_masks))
    if not edges:  # the empty root is then the one leaf; below, only children are leaves
        yield empty
        return
    incidence = _edge_incidence(n, edges)
    width = len(edges) + 1
    top = min(n, len(edges))
    ones = _guarded_fields(width, top)
    tabled = min(top, _FIELD_TABLE_BITS // ((n + 1) * width))
    unit = ones >> width * (top - tabled)
    fill = (unit << width - 1) - unit
    keep = [fill ^ e * unit for e in incidence]
    # frame: the set's key, its members' critical edges as guarded fields,
    # uncovered edges, candidates
    stack = [(empty, 0, (1 << len(edges)) - 1, (1 << n) - 1)]
    while stack:
        chosen, crit, uncov, cand = stack.pop()
        size = chosen >> shift
        if size + 1 >= bounds[0] and size + uncov.bit_count() <= bounds[1]:
            continue
        branch, fewest, rest = 0, n + 1, uncov
        while rest:
            low = rest & -rest
            rest ^= low
            e = edges[low.bit_length() - 1] & cand
            count = e.bit_count()
            if count < fewest:
                branch, fewest = e, count
                if not count:  # a dead end: no vertex can cover this edge
                    break
        cand &= ~branch
        unit = ones >> width * (top - size)
        guards = unit << width - 1
        lift = guards - unit
        clears = keep if size < tabled else _clear_masks(incidence, unit, lift, iter_bits(branch))
        at = width * size
        while branch:
            low = branch & -branch
            branch ^= low
            v = low.bit_length() - 1
            hit = incidence[v]
            kept = crit & clears[v]
            if kept + lift & guards == guards:
                left = uncov & ~hit
                if left:
                    stack.append((chosen + entries[v], kept | (uncov & hit) << at, left, cand))
                else:
                    yield chosen + entries[v]
            cand |= low


def enumerate_minimal_transversals(h: Hypergraph) -> list[VertexSet]:
    """All minimal transversals, canonically ordered: :func:`_mmcs` with no cut."""
    found = list(_mmcs(h, [h.n + 1, -1]))
    found.sort()
    return VertexSet._wrap(h.n, found)


def _transversal_size_range(h: Hypergraph) -> tuple[int, int]:
    """The smallest and the largest size of a minimal transversal.

    Walks :func:`_mmcs` with its bounds at the smallest and the largest size
    found so far, so that a node that can improve neither is cut, and lists
    no sets.  A hypergraph without edges gives (0, 0).
    """
    # no leaf yet: nothing is cut
    bounds = [h.n + 1, -1]
    shift = 2 * h.n
    for key in _mmcs(h, bounds):
        size = key >> shift
        if size < bounds[0]:
            bounds[0] = size
        if size > bounds[1]:
            bounds[1] = size
    return bounds[0], bounds[1]


def minimal_transversals_up_to_size(h: Hypergraph, k: int) -> list[VertexSet]:
    """Minimal transversals of size <= k, canonically ordered.

    :func:`_mmcs` with bounds [k + 1, n + m], which cuts every node of size
    k that is not a transversal, so the search has depth at most k and visits
    O(n^k) nodes: polynomial for fixed k.
    """
    if k < 0:
        raise ValueError("size bound must be non-negative")
    found = list(_mmcs(h, [k + 1, h.n + len(h.hyperedges)]))
    found.sort()
    return VertexSet._wrap(h.n, found)


def _hitting_set(edges: list[int] | tuple[int, ...], incidence: list[int],
                 k: int) -> int | None:
    """The mask of a set of at most ``k`` vertices that hits every edge, or None.

    ``incidence[v]`` is the mask of the indices of the edges that contain v.
    Depth-first, branching on the lowest unhit edge: every hitting set
    contains one of its vertices.  A frame is a node plus the vertices of its
    branch edge it has yet to try; the lowest is tried first and its subtree
    searched before the next, so the explicit stack returns the same set as
    a recursive search.

    No vertex hits more than ``most`` edges, so a node that may still add b
    vertices but leaves more than b * ``most`` edges unhit has no solution
    below it: such a child is not pushed, and such a root returns None at
    once.  Only subtrees without a solution are cut, so the set returned is
    the one the uncut search finds.
    """
    unhit = (1 << len(edges)) - 1
    if not unhit:
        return 0
    most = max(map(int.bit_count, incidence))
    stack = [(unhit, 0, k, edges[0])] if len(edges) <= k * most else []
    while stack:
        unhit, chosen, budget, options = stack.pop()
        if not options:
            continue
        low = options & -options
        stack.append((unhit, chosen, budget, options ^ low))
        left = unhit & ~incidence[low.bit_length() - 1]
        if not left:
            return chosen | low
        if left.bit_count() <= (budget - 1) * most:
            stack.append((left, chosen | low, budget - 1, edges[(left & -left).bit_length() - 1]))
    return None


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
    edges as a list in member order, and the edges hit so far; a child in
    which some member would lose its last private edge is cut, as no superset
    regains it.  A frame has at most k + 1 members, too few for the guarded
    fields of :func:`_mmcs` to save time at the small k the recognizers
    search, so the list goes to :func:`_fill_around` as it is.  No set of more
    than min(n, m) members has a private edge for each, m being the number
    of edges, so a larger k returns None before any search.
    """
    size = k + 1
    if size > min(n, len(edges)):
        return None
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
    if _hitting_set(edges, incidence, k - 1) is not None:
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
