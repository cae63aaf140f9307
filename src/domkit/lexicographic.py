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
from dataclasses import dataclass
from typing import Iterable

from .graphs import (
    Graph,
    VertexSet,
    _bulk_new,
    _members,
    _mirrored,
    _sort_mirrored,
    _universal_mask,
    is_edgeless,
    isolated_vertices,
    induced_subgraph,
    iter_bits,
)
from .domination import (
    DEFAULT_ENUMERATION_CAP,
    _check_cap,
    _irreducible_frames,
    _leaf_supports,
    _require_nonempty,
    enumerate_minimal_dominating_sets,
    gamma,
    gamma_t,
    alpha,
    upper_gamma,
    is_dominating,
    is_irreducible_dominating,
    is_minimal_dominating,
)

# no longer called here (product enumeration reads the irreducible search's
# frames), but perfbench/tracer.py wraps the name in this module
from .domination import enumerate_irreducible_dominating_sets  # noqa: F401


class ProductGraph:
    """A lexicographic product together with its flattened realization."""

    __slots__ = ("base", "fiber", "graph")

    def __init__(self, base: Graph, fiber: Graph):
        if base.n == 0 or fiber.n == 0:
            raise ValueError("both factors must have at least one vertex")
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
    """

    __slots__ = ("base_n", "fiber_n", "mask")

    def __init__(self, base_n: int, fiber_n: int, pairs: Iterable[tuple[int, int]]):
        cleaned = sorted(set((int(g), int(h)) for g, h in pairs))
        mask = 0
        for g, h in cleaned:
            if not (0 <= g < base_n and 0 <= h < fiber_n):
                raise ValueError(f"pair ({g}, {h}) outside the product universe")
            mask |= 1 << (g * fiber_n + h)
        object.__setattr__(self, "base_n", base_n)
        object.__setattr__(self, "fiber_n", fiber_n)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("ProductSet is immutable")

    @classmethod
    def _wrap_mirrored(
        cls, base_n: int, fiber_n: int, keys: list[int]
    ) -> list["ProductSet"]:
        """Wrap flat masks that carry a mirror in their high bits, without checking them.

        Precondition: ``base_n`` and ``fiber_n`` are positive ints and every
        item of ``keys`` is a non-negative int whose low ``base_n * fiber_n``
        bits are the set's flat mask; any higher bits (the enumerator's
        mirror) are dropped.  Returns the sets with those flat masks, in the
        order of ``keys``; the caller is responsible for the precondition,
        which is what lets the product enumerator skip the public
        constructor's sort and per-pair checks.  The sets are built by
        :func:`graphs._bulk_new`.
        """
        full = (1 << (base_n * fiber_n)) - 1
        count = len(keys)
        return _bulk_new(cls, count, (cls.base_n, itertools.repeat(base_n, count)),
                         (cls.fiber_n, itertools.repeat(fiber_n, count)),
                         (cls.mask, map(full.__and__, keys)))

    @classmethod
    def from_flat(cls, product: ProductGraph, flat: VertexSet) -> "ProductSet":
        if flat.universe_size != product.graph.n:
            raise ValueError("flattened set universe does not match the product")
        return cls._wrap_mirrored(product.base.n, product.fiber.n, [flat.mask])[0]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The members as ascending (g, h) pairs.

        Each flat member indexes the fiber size's pair row, so every pair is
        a tuple shared with the other sets that hold it, not one made per
        call; universes wider than the rows decode member by member instead.
        The list in between sizes the tuple exactly, where a tuple built
        straight from the iterator over-allocates as it grows.
        """
        fiber_n = self.fiber_n
        flat_n = self.base_n * fiber_n
        if flat_n > _PAIR_ROW_BITS:
            return tuple(divmod(v, fiber_n) for v in iter_bits(self.mask))
        row = _PAIR_ROWS.get(fiber_n, ())
        if len(row) < flat_n:
            row = _PAIR_ROWS[fiber_n] = tuple(divmod(v, fiber_n) for v in range(flat_n))
        return tuple([*map(row.__getitem__, _members(self.mask))])

    def _row(self, g: int) -> int:
        """The mask of the fiber over base vertex g (0 when g is not projected)."""
        return self.mask >> (g * self.fiber_n) & ((1 << self.fiber_n) - 1)

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
            and self.base_n == other.base_n
            and self.fiber_n == other.fiber_n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.base_n, self.fiber_n, self.mask))

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
    base = product.base
    proj = d.projection()
    if not is_dominating(base, proj):
        return False
    fibers = d.fibers()
    for g in iter_bits(proj.mask):
        if base.closed_mask(g) & proj.mask == 1 << g:  # barely dominated
            if not is_dominating(product.fiber, fibers[g]):
                return False
    return True


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
    proj = d.projection()
    fibers = d.fibers()

    cond_i = is_irreducible_dominating(base, proj)

    cond_ii = True
    for g in iter_bits(proj.mask):
        totally = bool(base.adj_mask(g) & proj.mask)
        if totally:
            if len(fibers[g]) != 1:
                cond_ii = False
                break
        elif not is_minimal_dominating(fiber_graph, fibers[g]):
            cond_ii = False
            break

    cond_iii = all(
        any(not is_dominating(fiber_graph, fibers[y]) for y in iter_bits(support))
        for support in _leaf_supports(base, proj.mask)
    )

    return ProductMinimalityReport(cond_i=cond_i, cond_ii=cond_ii, cond_iii=cond_iii)


def _blocks(
    both: list[int], fiber_n: int, x: int, options: Iterable[tuple[int, ...]]
) -> tuple[int, ...]:
    """One block per option: the mirrored mask of the pairs (x, h) for its h.

    ``both`` is :func:`graphs._mirrored` of the flat universe.
    """
    row = x * fiber_n
    blocks = []
    for option in options:
        block = 0
        for h in option:
            block |= both[row + h]
        blocks.append(block)
    return tuple(blocks)


def _concatenations(choice_lists: list) -> list[int]:
    """Every union of one block from each list, in product order."""
    prefixes = [0]
    for blocks in choice_lists:
        prefixes = [prefix | block for prefix in prefixes for block in blocks]
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

    The base sets come as the leaf frames of
    :func:`domination._irreducible_frames`, which already hold the totally
    dominated members, the redundant members and their leaf neighbors, so
    nothing about P is computed again.  Sets are built as mirrored keys (see
    :func:`graphs._mirrored`) over the flat index v = g * |V(H)| + h.  Each
    base vertex x gets its blocks once, one per fiber vertex and one per
    minimal dominating set of the fiber graph, and a set is the OR of one
    block per member.  Leaves are totally dominated, so their blocks are
    single pairs, split once per base vertex into those with a non-universal
    and with a universal fiber vertex; the leaf condition depends only on
    which kind each leaf gets, and is tested once per such pattern of the
    leaves it names rather than once per set (see :func:`_leaf_admissible`).
    With a complete fiber graph no pattern passes, so a base set with a
    redundant member is dropped at once.

    The canonical order is by size, then by ascending pairs, which is
    ascending flat indices, so :func:`graphs._sort_mirrored` gives it.  The
    keys are then stripped of their mirror and wrapped in one call to
    :meth:`ProductSet._wrap_mirrored`, so the per-set cost after the OR is
    one allocation and three slot stores.

    The cap guards the factor sizes, not the flattened size, so products far
    beyond the flattened enumeration range stay reachable.
    """
    if base.n == 0 or fiber.n == 0:
        raise ValueError("both factors must have at least one vertex")
    _check_cap(base.n, cap)
    _check_cap(fiber.n, cap)

    base_n, fiber_n = base.n, fiber.n
    both = _mirrored(base_n * fiber_n)
    fiber_sets = [d.members for d in enumerate_minimal_dominating_sets(fiber, cap)]
    universal = _universal_mask(fiber)
    complete = universal == fiber.full_mask
    # per base vertex x: its blocks when totally dominated (one per fiber
    # vertex) and when barely dominated (one per minimal dominating set)
    singletons = [(h,) for h in range(fiber_n)]
    pair_blocks = [_blocks(both, fiber_n, x, singletons) for x in range(base_n)]
    set_blocks = [_blocks(both, fiber_n, x, fiber_sets) for x in range(base_n)]
    # split[x]: x's single-pair blocks with a non-universal and a universal
    # fiber vertex
    split = [
        (tuple(b for h, b in enumerate(row) if not universal >> h & 1),
         tuple(b for h, b in enumerate(row) if universal >> h & 1))
        for row in pair_blocks
    ]
    low = base.full_mask
    raw: list[int] = []
    for _, dmask, _, tot, support in _irreducible_frames(base):
        # the leaf condition binds only with a universal fiber vertex; a
        # redundant member's mask has no low bit, and its high bits are its
        # leaf neighbors
        supports = [s >> base_n for s in support if not s & low] if universal else None
        if supports and complete:
            continue
        totally = dmask & tot
        choice_lists = [pair_blocks[x] if totally >> x & 1 else set_blocks[x]
                        for x in _members(dmask)]
        if supports:
            for lists in _leaf_admissible(choice_lists, dmask, supports, split):
                raw.extend(_concatenations(lists))
        else:
            raw.extend(_concatenations(choice_lists))
    _sort_mirrored(raw)
    return ProductSet._wrap_mirrored(base_n, fiber_n, raw)


def gamma_product(base: Graph, fiber: Graph) -> int:
    """Domination number of the product, from the factors alone.

    If the base graph is edgeless the product is |V(base)| disjoint fiber
    copies.  Otherwise, when the fiber graph has a universal vertex the value
    is the base domination number, and when it has none it is the total
    domination number of the base minus its isolated vertices, plus one fiber
    domination number per isolated vertex.  Equals the domination number of
    the flattened product.
    """
    if base.n == 0 or fiber.n == 0:
        raise ValueError("both factors must have at least one vertex")
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
