"""Lexicographic products: construction, projections, and domination structure.

A vertex of the product is a pair (g, h); the flattened encoding is
g * |V(H)| + h.  Adjacency: (g1, h1) ~ (g2, h2) iff g1 g2 is an edge of the
base graph, or g1 = g2 and h1 h2 is an edge of the fiber graph.  Every subset
of the product decomposes uniquely into its base projection and one fiber per
projected vertex, and the domination-theoretic predicates here are all phrased
through that decomposition; each has a flattened-graph counterpart used as an
oracle in the test suite.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable

from .graphs import (
    Graph,
    VertexSet,
    _bulk_new,
    _key_table,
    _members,
    _universal_mask,
    is_edgeless,
    isolated_vertices,
    induced_subgraph,
    iter_bits,
)
from .domination import (
    DEFAULT_ENUMERATION_CAP,
    _check_cap,
    _frame,
    _irreducible_frames,
    _redundant_leaves,
    _require_nonempty,
    enumerate_minimal_dominating_sets,
    gamma,
    gamma_t,
    alpha,
    upper_gamma,
    is_dominating,
    is_minimal_dominating,
)

# no longer called here (product enumeration reads the irreducible search's
# frames), but perfbench/tracer.py wraps the name in this module
from .domination import enumerate_irreducible_dominating_sets  # noqa: F401


def _require_factors(base: Graph, fiber: Graph) -> None:
    if base.n == 0 or fiber.n == 0:
        raise ValueError("both factors must have at least one vertex")


class ProductGraph:
    """A lexicographic product together with its flattened realization."""

    __slots__ = ("base", "fiber", "graph")

    def __init__(self, base: Graph, fiber: Graph):
        _require_factors(base, fiber)
        nh = fiber.n
        edges = []
        for gu, gv in base.edges:
            for hu in range(nh):
                for hv in range(nh):
                    edges.append((gu * nh + hu, gv * nh + hv))
        for g in range(base.n):
            for hu, hv in fiber.edges:
                edges.append((g * nh + hu, g * nh + hv))
        graph = Graph(base.n * nh, edges)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "graph", graph)

    def __setattr__(self, name, value):
        raise AttributeError("ProductGraph is immutable")

    def __reduce__(self):
        return (type(self), (self.base, self.fiber))

    @property
    def nontrivial(self) -> bool:
        """Both factors have at least two vertices."""
        return self.base.n >= 2 and self.fiber.n >= 2

    def encode(self, g: int, h: int) -> int:
        if not (0 <= g < self.base.n and 0 <= h < self.fiber.n):
            raise ValueError(f"pair ({g}, {h}) outside the product universe")
        return g * self.fiber.n + h

    def decode(self, flat: int) -> tuple[int, int]:
        if not 0 <= flat < self.graph.n:
            raise ValueError(f"flat vertex {flat} outside the product universe")
        return divmod(flat, self.fiber.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProductGraph)
            and self.base == other.base
            and self.fiber == other.fiber
        )

    def __hash__(self) -> int:
        return hash((self.base, self.fiber))

    def __repr__(self) -> str:
        return f"ProductGraph(base={self.base!r}, fiber={self.fiber!r})"


def lex_product(base: Graph, fiber: Graph) -> ProductGraph:
    """Build the lexicographic product of two non-empty graphs."""
    return ProductGraph(base, fiber)


# Pair rows are kept for flattened universes within the square of the
# default enumeration cap; wider sets decode their pairs one member at a time.
_PAIR_ROW_BITS = DEFAULT_ENUMERATION_CAP**2
# fiber_n -> entry v is the pair divmod(v, fiber_n) of flat vertex v; the
# pair of v does not depend on the base, so every shape with that fiber size
# reads one row, and every set that holds a pair shares its tuple.  A longer
# row replaces the shorter one in one store, so readers need no lock; two
# threads that grow the same row at once each build a correct copy.
_PAIR_ROWS: dict[int, tuple[tuple[int, int], ...]] = {}


class ProductSet:
    """Subset of a product's vertices, kept as one flat bitmask.

    Bit g * fiber_n + h of ``mask`` stands for the pair (g, h), so ``mask``
    is the mask of the flattened set.  The pairs, the base projection and
    the per-vertex fibers are derived from it on demand; the set always
    equals the disjoint union of {x} x fiber(x) over the projected vertices
    x, and flattening is exact in both directions.

    ``base_n`` and ``fiber_n`` are read off one ``(base_n, fiber_n)`` tuple,
    which every set of one enumeration shares, so a set is two slots.
    """

    __slots__ = ("_shape", "mask")

    def __init__(self, base_n: int, fiber_n: int, pairs: Iterable[tuple[int, int]]):
        for what, size in (("base", base_n), ("fiber", fiber_n)):
            if size < 0:
                raise ValueError(f"{what} size must be non-negative")
        cleaned = sorted(set((operator.index(g), operator.index(h)) for g, h in pairs))
        mask = 0
        for g, h in cleaned:
            if not (0 <= g < base_n and 0 <= h < fiber_n):
                raise ValueError(f"pair ({g}, {h}) outside the product universe")
            mask |= 1 << (g * fiber_n + h)
        object.__setattr__(self, "_shape", (base_n, fiber_n))
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("ProductSet is immutable")

    def __reduce__(self):
        return (type(self), (*self._shape, self.pairs))

    @property
    def base_n(self) -> int:
        return self._shape[0]

    @property
    def fiber_n(self) -> int:
        return self._shape[1]

    @classmethod
    def _wrap(cls, base_n: int, fiber_n: int, keys: list[int]) -> list["ProductSet"]:
        """Wrap the low ``base_n * fiber_n`` bits of each key, without checking them.

        Precondition: ``base_n`` and ``fiber_n`` are positive ints and every
        item of ``keys`` is a non-negative int whose low ``base_n * fiber_n``
        bits are the set's flat mask; any higher bits (the rest of the
        enumerator's :func:`graphs._key_table` key) are dropped.  Returns
        the sets with those flat masks, in the order of ``keys``; the caller
        is responsible for the precondition, which is what lets the product
        enumerator skip the public constructor's sort and per-pair checks.
        The sets are built by :func:`graphs._bulk_new` and share one shape
        tuple; their masks come from ``operator.and_`` mapped over the keys
        and a repeated ``full``, as in :meth:`graphs.VertexSet._wrap`.
        """
        full = (1 << (base_n * fiber_n)) - 1
        count = len(keys)
        return _bulk_new(cls, count, (cls._shape, itertools.repeat((base_n, fiber_n), count)),
                         (cls.mask, map(operator.and_, keys, itertools.repeat(full, count))))

    @classmethod
    def from_flat(cls, product: ProductGraph, flat: VertexSet) -> "ProductSet":
        if flat.universe_size != product.graph.n:
            raise ValueError("flattened set universe does not match the product")
        return cls._wrap(product.base.n, product.fiber.n, [flat.mask])[0]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The members as ascending (g, h) pairs.

        Each flat member indexes the fiber size's pair row, so every pair is
        a tuple shared with the other sets that hold it, not one made per
        call; universes wider than the rows decode member by member instead.
        The list in between sizes the tuple exactly, where a tuple built
        straight from the iterator over-allocates as it grows.
        """
        base_n, fiber_n = self._shape
        flat_n = base_n * fiber_n
        if flat_n > _PAIR_ROW_BITS:
            return tuple(divmod(v, fiber_n) for v in iter_bits(self.mask))
        row = _PAIR_ROWS.get(fiber_n, ())
        if len(row) < flat_n:
            row = _PAIR_ROWS[fiber_n] = tuple(divmod(v, fiber_n) for v in range(flat_n))
        return tuple([*map(row.__getitem__, _members(self.mask))])

    def _row(self, g: int) -> int:
        """The mask of the fiber over base vertex g (0 when g is not projected)."""
        fiber_n = self._shape[1]
        return self.mask >> (g * fiber_n) & ((1 << fiber_n) - 1)

    def projection(self) -> VertexSet:
        """Base-graph vertices that carry at least one member."""
        proj = 0
        for g in range(self.base_n):
            if self._row(g):
                proj |= 1 << g
        return VertexSet.from_mask(self.base_n, proj)

    def fibers(self) -> dict[int, VertexSet]:
        """Map from each projected vertex to its (non-empty) fiber."""
        out = {}
        for g in range(self.base_n):
            row = self._row(g)
            if row:
                out[g] = VertexSet.from_mask(self.fiber_n, row)
        return out

    def flatten(self) -> VertexSet:
        return VertexSet.from_mask(self.base_n * self.fiber_n, self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProductSet)
            and self._shape == other._shape
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((*self._shape, self.mask))

    def __repr__(self) -> str:
        return f"ProductSet({self.base_n}, {self.fiber_n}, {list(self.pairs)})"


def project(d: ProductSet) -> tuple[VertexSet, dict[int, VertexSet]]:
    """Base projection and fibers of a product set; reconstruction is exact."""
    return d.projection(), d.fibers()


def _check_product_set(base: Graph, fiber: Graph, d: ProductSet) -> None:
    if d.base_n != base.n or d.fiber_n != fiber.n:
        raise ValueError("product set universe does not match the product")


def dominates_product_vertex(
    product: ProductGraph, d: ProductSet, vertex: tuple[int, int]
) -> bool:
    """Whether ``d`` dominates the product vertex (g, h).

    Holds exactly when the projection totally dominates g in the base graph,
    or the fiber over g dominates h in the fiber graph; this matches the
    direct adjacency test in the flattened graph.
    """
    _check_product_set(product.base, product.fiber, d)
    g, h = vertex
    if not (0 <= g < product.base.n and 0 <= h < product.fiber.n):
        raise ValueError(f"pair ({g}, {h}) outside the product universe")
    if product.base.adj_mask(g) & d.projection().mask:
        return True
    return bool(product.fiber.closed_mask(h) & d._row(g))


def is_dominating_product(product: ProductGraph, d: ProductSet) -> bool:
    """Factor-wise domination test, equal to domination in the flattened graph.

    The projection must dominate the base graph, and the fiber over every
    vertex that the projection dominates only barely (no projected neighbor)
    must dominate the whole fiber graph.
    """
    _check_product_set(product.base, product.fiber, d)
    _, members, dom, tot, _ = _frame(product.base, d.projection().mask)
    if dom != product.base.full_mask:
        return False
    fibers = d.fibers()
    return all(is_dominating(product.fiber, fibers[g]) for g in iter_bits(members & ~tot))


@dataclass(frozen=True)
class ProductMinimalityReport:
    """Condition-level breakdown of minimality of a product set.

    cond_i: the projection is an irreducible dominating set of the base graph.
    cond_ii: fibers are singletons over totally dominated projected vertices
        and minimal dominating sets of the fiber graph over barely dominated
        ones.
    cond_iii: every redundant projected vertex has a leaf neighbor whose fiber
        fails to dominate the fiber graph.
    ``minimal`` is their conjunction and coincides with inclusion-minimal
    domination in the flattened product.  When the fiber graph has no
    universal vertex, cond_i and cond_ii together force cond_iii.
    """

    cond_i: bool
    cond_ii: bool
    cond_iii: bool

    @property
    def minimal(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii


def check_minimal_product(product: ProductGraph, d: ProductSet) -> ProductMinimalityReport:
    """Evaluate the three structural minimality conditions for a product set."""
    return _minimality(product.base, product.fiber, d)


def _minimality(base: Graph, fiber_graph: Graph, d: ProductSet) -> ProductMinimalityReport:
    """:func:`check_minimal_product` from the factors alone.

    Reads nothing but the two factors and ``d``, so a caller that holds no
    :class:`ProductGraph` never builds the flattened product to ask.
    """
    _check_product_set(base, fiber_graph, d)
    frame = _frame(base, d.projection().mask)
    _, members, dom, tot, _ = frame
    supports = _redundant_leaves(frame)
    fibers = d.fibers()

    cond_i = dom == base.full_mask and all(supports)

    cond_ii = all(
        len(fibers[g]) == 1 if tot >> g & 1 else is_minimal_dominating(fiber_graph, fibers[g])
        for g in iter_bits(members)
    )

    cond_iii = all(
        any(not is_dominating(fiber_graph, fibers[y]) for y in iter_bits(support))
        for support in supports
    )

    return ProductMinimalityReport(cond_i=cond_i, cond_ii=cond_ii, cond_iii=cond_iii)


def _blocks(
    entries: list[int], fiber_n: int, x: int, options: Iterable[tuple[int, ...]]
) -> tuple[int, ...]:
    """One block per option: the sum of the key entries of the pairs (x, h) for its h.

    ``entries`` is the entry list of :func:`graphs._key_table` for the flat
    universe.
    """
    row = x * fiber_n
    return tuple(sum(entries[row + h] for h in option) for option in options)


def _concatenations(choice_lists: list, empty: int) -> list[int]:
    """The key of every union of one block from each list, in product order.

    ``empty`` is the key of the empty set; the blocks of distinct lists hold
    distinct pairs, so adding them builds each union's key.
    """
    prefixes = [empty]
    for blocks in choice_lists:
        prefixes = [prefix + block for prefix in prefixes for block in blocks]
    return prefixes


def _leaf_admissible(
    choice_lists: list, dmask: int, supports: list[int], split: list
) -> list[list]:
    """Restrictions of ``choice_lists`` (one per member of ``dmask``) to the leaf condition.

    ``supports`` holds the leaf neighbors of each redundant member, and every
    redundant member needs one whose fiber vertex is not universal.  The
    leaves it names are totally dominated, so their blocks are single pairs,
    and ``split[y]`` is leaf y's blocks with a non-universal and with a
    universal fiber vertex.  Each named leaf is restricted to one part, and
    the condition is tested once per such pattern; the patterns are
    disjoint, so every admissible combination lies under exactly one
    returned restriction.
    """
    union = 0
    for s in supports:
        union |= s
    named = _members(union)
    out = []
    for kinds in itertools.product((False, True), repeat=len(named)):
        # kinds[j]: leaf named[j] gets a universal fiber vertex
        free = 0
        for y, is_universal in zip(named, kinds):
            if not is_universal:
                free |= 1 << y
        if not all(s & free for s in supports):
            continue
        lists = list(choice_lists)
        for y, is_universal in zip(named, kinds):
            # leaf y's position among the members
            lists[(dmask & ((1 << y) - 1)).bit_count()] = split[y][is_universal]
        out.append(lists)
    return out


def enumerate_minimal_dominating_sets_product(
    base: Graph, fiber: Graph, cap: int | None = None
) -> list[ProductSet]:
    """All minimal dominating sets of the product, built from the factors.

    For each irreducible dominating set P of the base graph, totally dominated
    members receive singleton fibers and barely dominated members receive
    minimal dominating sets of the fiber graph, in every combination.  When
    the fiber graph has a universal vertex, combinations are kept only if
    every redundant member of P has a leaf neighbor whose chosen fiber vertex
    is not universal (for fiber graphs without universal vertices the
    condition holds automatically).  The output equals brute-force
    minimal-dominating enumeration on the flattened product.

    Sets are built as canonical keys (see :func:`graphs._key_table`) over
    the flat index v = g * |V(H)| + h.  Each base vertex x gets its blocks
    once, one per fiber vertex and one per minimal dominating set of the
    fiber graph, and a set's key is the key of the empty set plus one block
    per member.

    With a complete fiber graph every fiber vertex is universal, so no P
    with a redundant member passes the leaf condition: the base sets are
    exactly the minimal dominating sets of the base graph, which come from
    :func:`domination.enumerate_minimal_dominating_sets`, and the minimal
    dominating sets of the fiber graph are its single vertices, so every
    member gets its single-pair blocks.

    Otherwise the base sets come as the leaf frames of
    :func:`domination._irreducible_frames`, which already hold the totally
    dominated members, the redundant members and their leaf neighbors, so
    nothing about P is computed again.  Leaves are totally dominated, so
    their blocks are single pairs, split once per base vertex into those
    with a non-universal and with a universal fiber vertex; the leaf
    condition depends only on which kind each leaf gets, and is tested once
    per such pattern of the leaves it names rather than once per set (see
    :func:`_leaf_admissible`).

    The canonical order is by size, then by ascending pairs, which is
    ascending flat indices, so one plain sort of the keys gives it.  The
    keys are then wrapped in one call to :meth:`ProductSet._wrap`, which
    keeps their low bits, so the per-set cost after the sum is one
    allocation and two slot stores, with the cyclic collector paused.

    The cap guards the factor sizes, not the flattened size, so products far
    beyond the flattened enumeration range stay reachable.
    """
    _require_factors(base, fiber)
    _check_cap(base.n, cap)
    _check_cap(fiber.n, cap)

    base_n, fiber_n = base.n, fiber.n
    empty, entries = _key_table(base_n * fiber_n)
    universal = _universal_mask(fiber)
    # per base vertex x: its blocks when totally dominated, one per fiber vertex
    singletons = [(h,) for h in range(fiber_n)]
    pair_blocks = [_blocks(entries, fiber_n, x, singletons) for x in range(base_n)]
    raw: list[int] = []
    if universal == fiber.full_mask:
        for p in enumerate_minimal_dominating_sets(base, cap):
            raw.extend(_concatenations([pair_blocks[x] for x in p.members], empty))
    else:
        # x's blocks when barely dominated, one per minimal dominating set
        fiber_sets = [d.members for d in enumerate_minimal_dominating_sets(fiber, cap)]
        set_blocks = [_blocks(entries, fiber_n, x, fiber_sets) for x in range(base_n)]
        # split[x]: x's single-pair blocks with a non-universal and a
        # universal fiber vertex
        split = [
            (tuple(b for h, b in enumerate(row) if not universal >> h & 1),
             tuple(b for h, b in enumerate(row) if universal >> h & 1))
            for row in pair_blocks
        ]
        for frame in _irreducible_frames(base):
            _, dmask, _, tot, _ = frame
            # the leaf condition binds only with a universal fiber vertex
            supports = _redundant_leaves(frame) if universal else None
            totally = dmask & tot
            choice_lists = [pair_blocks[x] if totally >> x & 1 else set_blocks[x]
                            for x in _members(dmask)]
            if supports:
                for lists in _leaf_admissible(choice_lists, dmask, supports, split):
                    raw.extend(_concatenations(lists, empty))
            else:
                raw.extend(_concatenations(choice_lists, empty))
    raw.sort()
    return ProductSet._wrap(base_n, fiber_n, raw)


def gamma_product(base: Graph, fiber: Graph) -> int:
    """Domination number of the product, from the factors alone.

    If the base graph is edgeless the product is |V(base)| disjoint fiber
    copies.  Otherwise, when the fiber graph has a universal vertex the value
    is the base domination number, and when it has none it is the total
    domination number of the base minus its isolated vertices, plus one fiber
    domination number per isolated vertex.  Equals the domination number of
    the flattened product.
    """
    _require_factors(base, fiber)
    return _gamma_product(base, fiber, gamma(fiber))


def _gamma_product(base: Graph, fiber: Graph, fiber_gamma: int) -> int:
    """:func:`gamma_product` for nonempty factors, given the fiber's domination number."""
    if is_edgeless(base):
        return base.n * fiber_gamma
    if fiber_gamma == 1:
        return gamma(base)
    iso = isolated_vertices(base)
    core, _ = induced_subgraph(
        base, VertexSet.from_mask(base.n, base.full_mask & ~iso.mask)
    )
    return gamma_t(core) + len(iso) * fiber_gamma


def upper_gamma_product_bound(
    base: Graph, fiber: Graph, cap: int | None = None
) -> tuple[int, bool]:
    """Lower bound alpha(base) * Gamma(fiber) for the product's upper domination.

    Returns (bound, holds) where ``holds`` reports whether the product's upper
    domination number, taken as the largest set from the constructive
    enumeration, is at least the bound.  Expected to hold always.  The
    enumeration is sorted by size, so the largest set is the last one.
    """
    bound, observed = _upper_gamma_product_bound(base, fiber, cap)
    return bound, observed >= bound


def _upper_gamma_product_bound(
    base: Graph, fiber: Graph, cap: int | None = None
) -> tuple[int, int]:
    """The bound alpha(base) * Gamma(fiber) and the product's upper domination.

    Both factors' caps are checked before the exact search for alpha(base),
    and each input raises the error it would raise if alpha(base) ran first.
    """
    _require_nonempty(base)
    fiber_upper = upper_gamma(fiber, cap)
    _check_cap(base.n, cap)
    bound = alpha(base) * fiber_upper
    return bound, len(enumerate_minimal_dominating_sets_product(base, fiber, cap)[-1])
