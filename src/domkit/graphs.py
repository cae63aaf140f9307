"""Simple undirected graphs on dense integer vertices, with a bitmask set kernel.

Vertices are the integers 0..n-1.  Vertex sets are immutable bitmask wrappers
that always iterate in ascending order, so every enumerator in the package can
emit canonically sorted output.  Graphs are immutable after construction; all
operations here are pure functions and safe to share across threads.

This is also the bitmask kernel the other modules share: the vertex-set
universe check, the ascending members of a mask and their text, the bulk
allocation of slotted sets, the sort key that gives the canonical order, open
and closed neighborhood unions of a mask, the bits a family of masks covers
exactly once, the universal vertices of a graph, the ascending removal pass
that shrinks a set while a property holds, and the skeleton of the edge-list
document formats are each defined here once.
"""

from __future__ import annotations

import gc
import itertools
import operator
from typing import Callable, Iterable, Iterator


class GraphParseError(ValueError):
    """Malformed edge-list document.  Carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _byte_member_tables(nbytes: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Table k, entry b: the vertices 8k + i for the set bits i of the byte b."""
    tables = []
    for k in range(nbytes):
        row: list[tuple[int, ...]] = [()]
        for v in range(8 * k, 8 * k + 8):
            row += [t + (v,) for t in row]
        tables.append(tuple(row))
    return tuple(tables)


# Built whole at import and never changed, so readers need no lock; masks of
# wider sets fall back to ``iter_bits``.
_BYTE_MEMBERS = _byte_member_tables(8)
_TABLE_BITS = 8 * len(_BYTE_MEMBERS)


def _members(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask`` in ascending order, joined byte by byte from tables."""
    if mask >> _TABLE_BITS:
        return tuple(iter_bits(mask))
    out: tuple[int, ...] = ()
    for table in _BYTE_MEMBERS:
        if not mask:
            break
        out += table[mask & 255]
        mask >>= 8
    return out


# Per separator, table k, entry b: the members of ``_BYTE_MEMBERS[k][b]`` as
# text, the separator before each.  Built on first use and grown to the widest
# mask rendered; a longer tuple of tables replaces a shorter one in one store,
# so readers need no lock.
_TEXT_ROWS: dict[str, tuple[tuple[str, ...], ...]] = {}


def _text_tables(sep: str, nbytes: int) -> tuple[tuple[str, ...], ...]:
    """At least ``nbytes`` text tables for ``sep`` (see ``_TEXT_ROWS``)."""
    tables = _TEXT_ROWS.get(sep, ())
    if len(tables) < nbytes:
        tables = _TEXT_ROWS[sep] = tuple(
            tuple("".join([sep + str(v) for v in members]) for members in row)
            for row in _BYTE_MEMBERS[:nbytes]
        )
    return tables


def _members_text(masks: list[int], sep: str) -> list[str]:
    """``sep.join(map(str, iter_bits(m)))`` for each mask m of ``masks``.

    Each string joins one table entry per byte of the mask and drops the
    leading separator, so no number is turned into text and no ``json`` is
    called: with ", " the members of a set become the inside of its JSON
    list.  The entries are read a byte column at a time over the whole list;
    past ``_TABLE_BITS`` the members are rendered one by one.
    """
    widest = max(masks, default=0).bit_length()
    if widest > _TABLE_BITS:
        return [sep.join(map(str, iter_bits(m))) for m in masks]
    nbytes = -(-widest // 8) or 1  # a list of empty sets still reads one table
    columns = [[table[m >> at & 255] for m in masks]
               for at, table in zip(range(0, 8 * nbytes, 8), _text_tables(sep, nbytes))]
    cut = len(sep)
    return [text[cut:] for text in map("".join, zip(*columns))]


def _bulk_new(cls: type, count: int, *slots: tuple) -> list:
    """``count`` new instances of the slotted ``cls``, filled without checks.

    Each of ``slots`` is a pair (slot descriptor, values), and instance i
    gets the i-th value.  C-level ``map`` loops allocate the instances and
    store every slot, with no Python bytecode run per instance.  The values
    are best a ``map`` of a builtin function, such as ``operator.and_`` over
    the keys and an ``itertools.repeat`` of the mask: a bound method
    wrapper such as ``full.__and__`` costs more per call.

    The cyclic collector is paused around the loops, which would otherwise
    trigger collections that walk the growing list again and again.  The
    instances hold only ints and tuples of ints, so no cycle is made while
    it is off.  Its previous state is restored on the way out, even when
    ``values`` raises; a collector the caller had switched off stays off.
    The switch is process-wide and not coordinated across threads.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        objs = list(map(object.__new__, itertools.repeat(cls, count)))
        for slot, values in slots:
            # each setter returns None, so any() just drives the map to its end
            any(map(slot.__set__, objs, values))
    finally:
        if was_enabled:
            gc.enable()
    return objs


def _key_table(n: int) -> tuple[int, list[int]]:
    """The canonical sort key of the sets over a universe of ``n``.

    Returns the key of the empty set, (2^n - 1) * 2^n, and one entry per
    vertex, 2^(2n) - 2^(2n-1-v) + 2^v for vertex v; a set's key is the key
    of the empty set plus the entries of its members.  Members are
    distinct, so the sum is exact and it holds three fields: the size in the
    bits from 2n up, the complemented mirror of the set (vertex v cleared
    at bit 2n - 1 - v) in bits n..2n-1, and the set itself in the low n
    bits.  ``key >> 2 * n`` is the size and ``key & ((1 << n) - 1)`` the set.

    Canonical order is by size, then by ascending members.  Of two sets of
    one size, the canonical first holds the lowest vertex of their symmetric
    difference, so its mirror is the larger and its complement the smaller,
    and the size outranks both: one plain ascending sort of the keys gives
    the canonical order, with no key function or tuple per set.
    """
    top = 2 * n - 1
    return ((1 << n) - 1) << n, [(1 << top + 1) - (1 << top - v) + (1 << v) for v in range(n)]


class VertexSet:
    """Immutable subset of {0, ..., universe_size - 1}.

    Backed by an integer bitmask; membership tests are O(1) and iteration is
    always in ascending vertex order.
    """

    __slots__ = ("universe_size", "mask")

    def __init__(self, universe_size: int, members: Iterable[int] = ()):
        if universe_size < 0:
            raise ValueError("universe size must be non-negative")
        mask = 0
        for v in members:
            if not 0 <= v < universe_size:
                raise ValueError(f"vertex {v} outside universe of size {universe_size}")
            mask |= 1 << v
        object.__setattr__(self, "universe_size", universe_size)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, universe_size: int, mask: int) -> "VertexSet":
        if universe_size < 0:
            raise ValueError("universe size must be non-negative")
        if mask < 0 or mask >> universe_size:
            raise ValueError("mask has bits outside the universe")
        self = cls.__new__(cls)
        object.__setattr__(self, "universe_size", universe_size)
        object.__setattr__(self, "mask", mask)
        return self

    @classmethod
    def _wrap(cls, universe_size: int, keys: list[int]) -> list["VertexSet"]:
        """Wrap the low ``universe_size`` bits of each key, without checking them.

        Precondition: ``universe_size >= 0`` and every item of ``keys`` is a
        non-negative int; bits at ``universe_size`` and above (the rest of
        a :func:`_key_table` key) are dropped.  Returns the sets equal to
        ``VertexSet.from_mask(universe_size, key & full)``, in the order of
        ``keys``, built by :func:`_bulk_new`.  The masks come from
        ``operator.and_`` mapped over the keys and a repeated ``full``, a
        C-level call per key that is cheaper than the bound method wrapper
        ``full.__and__``.
        """
        full = (1 << universe_size) - 1
        count = len(keys)
        return _bulk_new(cls, count, (cls.universe_size, itertools.repeat(universe_size, count)),
                         (cls.mask, map(operator.and_, keys, itertools.repeat(full, count))))

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    def __reduce__(self):
        # the default restores the slots through the blocking __setattr__
        return (type(self).from_mask, (self.universe_size, self.mask))

    @property
    def members(self) -> tuple[int, ...]:
        """The members in ascending order (see :func:`_members`)."""
        return _members(self.mask)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe_size and bool(self.mask >> v & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.universe_size == other.universe_size
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.universe_size, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({self.universe_size}, {list(self.members)})"

    def issubset(self, other: "VertexSet") -> bool:
        return self.mask & ~other.mask == 0

    def union(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.universe_size, self.mask | other.mask)

    def intersection(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.universe_size, self.mask & other.mask)

    def difference(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.universe_size, self.mask & ~other.mask)


def set_sort_key(s: VertexSet) -> tuple[int, tuple[int, ...]]:
    """Canonical ordering for lists of vertex sets: by size, then lexicographic.

    The brute-force oracles sort by this key, so it lists the members with
    ``iter_bits`` rather than through the tables behind ``members``.
    """
    return (len(s), tuple(iter_bits(s.mask)))


class Graph:
    """Finite simple undirected graph.  Immutable after construction.

    Edges are stored as sorted pairs (u, v) with u < v; adjacency is kept as
    one bitmask per vertex for fast neighborhood algebra.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        object.__setattr__(self, "_adj", tuple(adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (type(self), (self.n, self.edges))

    def adj_mask(self, v: int) -> int:
        """Bitmask of the open neighborhood of ``v``."""
        return self._adj[v]

    def closed_mask(self, v: int) -> int:
        """Bitmask of the closed neighborhood of ``v``."""
        return self._adj[v] | (1 << v)

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {list(self.edges)})"


def _int_tokens(line: str, line_no: int, expected: int | None, what: str) -> list[int]:
    """The integers of one line; ``expected`` of them unless it is None."""
    tokens = line.split()
    if expected is not None and len(tokens) != expected:
        raise GraphParseError(f"expected {expected} integers for {what}, got {line!r}", line_no)
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise GraphParseError(f"non-integer token {t!r} in {what}", line_no) from None
    return out


def _parse_records(
    text: str, parse: Callable[[str, int, int], object], noun: str, declared: str
) -> tuple[int, list]:
    """Skeleton shared by the edge-list formats.

    Blank lines and lines starting with '#' are skipped anywhere; the first
    other line is the header "n m", and exactly m record lines follow, each
    turned into a record by ``parse(line, line_no, n)``.  ``noun`` names the
    records in the count error, ``declared`` in the trailing-content error.
    """
    m: int | None = None
    n = 0
    records: list = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m is None:
            n, m = _int_tokens(line, line_no, 2, "header")
            if n < 0 or m < 0:
                raise GraphParseError("header counts must be non-negative", line_no)
            continue
        if len(records) == m:
            raise GraphParseError(f"unexpected content after the declared {declared}", line_no)
        records.append(parse(line, line_no, n))
    if m is None:
        raise GraphParseError("missing header line \"n m\"")
    if len(records) != m:
        raise GraphParseError(f"expected {m} {noun}, found {len(records)}")
    return n, records


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document.

    Format: an optional run of comment lines starting with '#', a header line
    "n m", then exactly m lines "u v" with 0 <= u, v < n and u != v.  Blank
    lines and further comment lines are skipped anywhere.  Malformed lines,
    out-of-range indices, self-loops, and duplicate edges are rejected with
    the offending line number.
    """
    seen: set[tuple[int, int]] = set()

    def edge(line: str, line_no: int, n: int) -> tuple[int, int]:
        u, v = _int_tokens(line, line_no, 2, "edge")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"edge ({u}, {v}) out of range for n={n}", line_no)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", line_no)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphParseError(f"duplicate edge ({key[0]}, {key[1]})", line_no)
        seen.add(key)
        return key

    n, edges = _parse_records(text, edge, "edges", "edge list")
    return Graph(n, edges)


def write_graph(graph: Graph, comments: Iterable[str] = ()) -> str:
    """Serialize a graph to the edge-list format, edges sorted lexicographically."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{graph.n} {len(graph.edges)}")
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def _check_vertex(graph: Graph, v: int) -> None:
    if not 0 <= v < graph.n:
        raise ValueError(f"vertex {v} out of range for n={graph.n}")


def _check_universe(owner, s: VertexSet) -> None:
    """Reject a vertex set whose universe is not that of ``owner``, a graph or
    a hypergraph (anything with a vertex count ``n``)."""
    if s.universe_size != owner.n:
        raise ValueError(
            f"vertex set universe {s.universe_size} does not match "
            f"{type(owner).__name__.lower()} order {owner.n}"
        )


def _open_union(graph: Graph, mask: int) -> int:
    """Union of the open neighborhoods of the vertices in ``mask``."""
    out = 0
    for v in iter_bits(mask):
        out |= graph.adj_mask(v)
    return out


def _closed_union(graph: Graph, mask: int) -> int:
    """Union of the closed neighborhoods of the vertices in ``mask``."""
    return _open_union(graph, mask) | mask


def _once_cover(masks: Iterable[int]) -> tuple[int, int]:
    """The union of ``masks``, and the bits that exactly one of them holds."""
    once = twice = 0
    for m in masks:
        twice |= once & m
        once |= m
    return once, once & ~twice


def _minimalize(mask: int, holds: Callable[[int], bool]) -> int:
    """Shrink ``mask`` by one ascending removal pass.

    Each member, lowest first, is dropped when ``holds`` accepts the set
    without it.  For a property preserved under supersets (domination,
    hitting every hyperedge) the result is inclusion-minimal.
    """
    for v in iter_bits(mask):
        smaller = mask ^ (1 << v)
        if holds(smaller):
            mask = smaller
    return mask


def open_neighborhood(graph: Graph, v: int) -> VertexSet:
    """N(v): the vertices adjacent to v."""
    _check_vertex(graph, v)
    return VertexSet.from_mask(graph.n, graph.adj_mask(v))


def closed_neighborhood(graph: Graph, v: int) -> VertexSet:
    """N[v] = {v} together with the vertices adjacent to v."""
    _check_vertex(graph, v)
    return VertexSet.from_mask(graph.n, graph.closed_mask(v))


def neighborhood_of_set(graph: Graph, s: VertexSet, closed: bool = True) -> VertexSet:
    """Union of the (closed or open) neighborhoods of the members of ``s``."""
    _check_universe(graph, s)
    union = _closed_union if closed else _open_union
    return VertexSet.from_mask(graph.n, union(graph, s.mask))


def complement(graph: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges."""
    edges = [
        (u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if not graph.adjacent(u, v)
    ]
    return Graph(graph.n, edges)


def connected_components(graph: Graph) -> list[VertexSet]:
    """Components as vertex sets, ordered by their minimum vertex."""
    out = []
    unvisited = graph.full_mask
    while unvisited:
        start = (unvisited & -unvisited).bit_length() - 1
        comp = 1 << start
        frontier = comp
        while frontier:
            grown = comp | _open_union(graph, frontier)
            frontier = grown & ~comp
            comp = grown
        out.append(VertexSet.from_mask(graph.n, comp))
        unvisited &= ~comp
    return out


def _universal_mask(graph: Graph) -> int:
    """The mask of the vertices adjacent to every other vertex."""
    full = graph.full_mask
    mask = 0
    for v in range(graph.n):
        if graph.closed_mask(v) == full:
            mask |= 1 << v
    return mask


def isolated_vertices(graph: Graph) -> VertexSet:
    mask = 0
    for v in range(graph.n):
        if graph.adj_mask(v) == 0:
            mask |= 1 << v
    return VertexSet.from_mask(graph.n, mask)


def is_complete(graph: Graph) -> bool:
    return all(graph.degree(v) == graph.n - 1 for v in range(graph.n))


def is_edgeless(graph: Graph) -> bool:
    return not graph.edges


def induced_subgraph(graph: Graph, s: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``s`` with vertices relabelled 0..|s|-1 in ascending order.

    Returns the subgraph together with the tuple mapping new labels back to the
    original vertices.
    """
    _check_universe(graph, s)
    verts = s.members
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[u], index[v]) for u, v in graph.edges if u in index and v in index
    ]
    return Graph(len(verts), edges), verts


def enumerate_triangles(graph: Graph) -> list[VertexSet]:
    """All 3-cliques, each once, in ascending (u, v, w) order.

    Masks from adjacency intersections (Chiba and Nishizeki, SIAM J. Comput.
    1985): for each u, ``above`` is N(u) above u; its members v are taken
    lowest first, and what is left of ``above`` after v, cut to N(v), is
    every w closing a triangle u < v < w.  Each triangle is one mask, and
    one :meth:`VertexSet._wrap` call wraps them all.
    """
    adj = graph._adj
    masks = []
    for u in range(graph.n):
        above = adj[u] >> u + 1 << u + 1
        while above:
            low = above & -above
            above ^= low
            common = above & adj[low.bit_length() - 1]
            base = 1 << u | low
            while common:
                w = common & -common
                common ^= w
                masks.append(base | w)
    return VertexSet._wrap(graph.n, masks)


def induces_c6_complement(graph: Graph, t: VertexSet, t2: VertexSet) -> bool:
    """Test whether the union of two disjoint triples induces the complement
    of a 6-cycle.

    That graph consists of two disjoint triangles joined by a perfect
    matching, and its triangle pair is unique, so the test looks for exactly
    two vertex-disjoint triangles covering the union with a matching between
    them.  When ``t`` and ``t2`` are themselves triangles this says precisely
    that the matching runs between them.
    """
    _check_universe(graph, t)
    _check_universe(graph, t2)
    if len(t) != 3 or len(t2) != 3:
        raise ValueError("both vertex sets must have exactly 3 members")
    if t.mask & t2.mask:
        raise ValueError("vertex sets must be disjoint")
    sub, _ = induced_subgraph(graph, t.union(t2))
    triangles = enumerate_triangles(sub)
    if len(triangles) != 2:
        return False
    a, b = triangles
    if a.mask | b.mask != sub.full_mask:
        return False
    # a vertex of b with two neighbors in a would close a third triangle, so
    # three cross edges, one at each vertex of a, already form a matching
    for v in iter_bits(a.mask):
        if (sub.adj_mask(v) & b.mask).bit_count() != 1:
            return False
    return True
