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
    is_edgeless,
    isolated_vertices,
    induced_subgraph,
    iter_bits,
)
from .domination import (
    _check_cap,
    _leaves_mask,
    _redundant_mask,
    _require_nonempty,
    classify,
    enumerate_irreducible_dominating_sets,
    enumerate_minimal_dominating_sets,
    gamma,
    gamma_t,
    alpha,
    upper_gamma,
    is_dominating,
    is_irreducible_dominating,
    is_minimal_dominating,
)


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


class ProductSet:
    """Subset of a product's vertices, kept as sorted (g, h) pairs.

    The base projection and the per-vertex fibers are derived on demand; the
    set always equals the disjoint union of {x} x fiber(x) over the projected
    vertices x, and flattening is exact in both directions.
    """

    __slots__ = ("base_n", "fiber_n", "pairs")

    def __init__(self, base_n: int, fiber_n: int, pairs: Iterable[tuple[int, int]]):
        cleaned = sorted(set((int(g), int(h)) for g, h in pairs))
        for g, h in cleaned:
            if not (0 <= g < base_n and 0 <= h < fiber_n):
                raise ValueError(f"pair ({g}, {h}) outside the product universe")
        object.__setattr__(self, "base_n", base_n)
        object.__setattr__(self, "fiber_n", fiber_n)
        object.__setattr__(self, "pairs", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("ProductSet is immutable")

    @classmethod
    def _wrap_sorted(
        cls, base_n: int, fiber_n: int, raw: list[tuple[tuple[int, int], ...]]
    ) -> list["ProductSet"]:
        """Wrap pair tuples that are already in canonical form, without checking them.

        Precondition: every item of ``raw`` is a tuple of ``(g, h)`` int
        tuples, strictly ascending (so sorted and duplicate-free), with
        ``0 <= g < base_n`` and ``0 <= h < fiber_n``.  Each item is then
        replaced, in place, by a set equal to ``ProductSet(base_n, fiber_n,
        pairs)``, and ``raw`` is returned; the caller is responsible for the
        precondition, which is what lets the product enumerator skip the sort
        and the per-pair checks of the public constructor.  The allocator and
        the three slots' setters are looked up once for the whole list, not
        once per set.
        """
        new = object.__new__
        set_base_n = cls.base_n.__set__
        set_fiber_n = cls.fiber_n.__set__
        set_pairs = cls.pairs.__set__
        for i, pairs in enumerate(raw):
            self = new(cls)
            set_base_n(self, base_n)
            set_fiber_n(self, fiber_n)
            set_pairs(self, pairs)
            raw[i] = self
        return raw

    @classmethod
    def from_flat(cls, product: ProductGraph, flat: VertexSet) -> "ProductSet":
        if flat.universe_size != product.graph.n:
            raise ValueError("flattened set universe does not match the product")
        return cls(
            product.base.n, product.fiber.n, [product.decode(v) for v in flat]
        )

    def projection(self) -> VertexSet:
        """Base-graph vertices that carry at least one member."""
        return VertexSet(self.base_n, {g for g, _ in self.pairs})

    def fibers(self) -> dict[int, VertexSet]:
        """Map from each projected vertex to its (non-empty) fiber."""
        by_g: dict[int, set[int]] = {}
        for g, h in self.pairs:
            by_g.setdefault(g, set()).add(h)
        return {g: VertexSet(self.fiber_n, hs) for g, hs in sorted(by_g.items())}

    def flatten(self) -> VertexSet:
        return VertexSet(
            self.base_n * self.fiber_n, [g * self.fiber_n + h for g, h in self.pairs]
        )

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProductSet)
            and self.base_n == other.base_n
            and self.fiber_n == other.fiber_n
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return hash((self.base_n, self.fiber_n, self.pairs))

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
    proj_mask = 0
    fiber_mask = 0
    for pg, ph in d.pairs:
        proj_mask |= 1 << pg
        if pg == g:
            fiber_mask |= 1 << ph
    if product.base.adj_mask(g) & proj_mask:
        return True
    return bool(product.fiber.closed_mask(h) & fiber_mask)


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

    info = classify(base, proj) if proj.mask else None
    cond_iii = True
    if info is not None:
        for r in iter_bits(info.redundant.mask):
            supported = False
            for y in iter_bits(base.adj_mask(r) & info.leaves.mask):
                if not is_dominating(fiber_graph, fibers[y]):
                    supported = True
                    break
            if not supported:
                cond_iii = False
                break

    return ProductMinimalityReport(cond_i=cond_i, cond_ii=cond_ii, cond_iii=cond_iii)


def _pair_blocks(
    base_n: int, fiber_n: int, x: int, options: Iterable[tuple[int, ...]]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One block per option: the pairs (x, h) for the option's ascending h.

    Every pair is range-checked here, once, so that sets concatenated from
    these blocks meet the precondition of :meth:`ProductSet._wrap_sorted`.
    """
    blocks = tuple(tuple((x, h) for h in option) for option in options)
    for block in blocks:
        for g, h in block:
            if not (0 <= g < base_n and 0 <= h < fiber_n):
                raise ValueError(f"pair ({g}, {h}) outside the product universe")
    return blocks


def _concatenations(choice_lists: list) -> list[tuple[tuple[int, int], ...]]:
    """Every concatenation of one block from each list, in product order."""
    prefixes: list[tuple[tuple[int, int], ...]] = [()]
    for blocks in choice_lists:
        prefixes = [prefix + block for prefix in prefixes for block in blocks]
    return prefixes


def _leaf_admissible(
    base: Graph, p: VertexSet, choice_lists: list, universal: list[bool]
) -> list[list]:
    """Restrictions of ``choice_lists`` (one per member of ``p``) to the leaf condition.

    Every redundant member of ``p`` needs a leaf neighbor whose fiber vertex
    is not universal.  Without a redundant member every combination is
    admissible, and with one but a complete fiber graph none is.  Otherwise
    the leaves the condition names are totally dominated, so their blocks
    are single pairs, and each is split once into its non-universal and its
    universal blocks; both parts are non-empty, since the enumerator calls
    this only for a fiber graph with a universal vertex, and this one also
    has a vertex that is not.  Each named leaf is then
    restricted to one part, and the condition is tested once per such
    pattern; the patterns are disjoint, so every admissible combination lies
    under exactly one returned restriction.
    """
    redundant = _redundant_mask(base, p.mask)
    if not redundant:
        return [choice_lists]
    if all(universal):
        return []
    leaves = _leaves_mask(base, p.mask)
    supports = [base.adj_mask(r) & leaves for r in iter_bits(redundant)]
    union = 0
    for s in supports:
        union |= s
    named = tuple(iter_bits(union))
    position = {x: i for i, x in enumerate(p.members)}
    # parts[j][u]: the blocks of leaf named[j] whose fiber vertex is
    # universal (u = True) or not (u = False)
    parts = []
    for y in named:
        blocks = choice_lists[position[y]]
        parts.append((
            [b for b in blocks if not universal[b[0][1]]],
            [b for b in blocks if universal[b[0][1]]],
        ))
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
        for y, split, is_universal in zip(named, parts, kinds):
            lists[position[y]] = split[is_universal]
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

    Each member x contributes a block of pairs (x, h) per allowed option,
    built and range-checked once per vertex and shared by every set that
    uses it.  Leaves are totally dominated, so their options are single
    fiber vertices; the leaf condition depends only on which of them are
    universal, and is tested once per such pattern of the leaves it names
    rather than once per set (see :func:`_leaf_admissible`, which reads the
    redundant members off one bitmask pass).  Members ascend and each option
    ascends, so a set's pairs are the concatenation of its blocks, already
    canonical.

    The canonical order is by size, then by pairs.  The raw pair tuples are
    sorted in two passes, by pairs and then stably by ``len``, so no key
    tuple is built per set; only then are they wrapped as
    :class:`ProductSet` objects, in place and in one call to
    :meth:`ProductSet._wrap_sorted`, so the per-set cost after the
    concatenation is one allocation and three slot stores.

    The cap guards the factor sizes, not the flattened size, so products far
    beyond the flattened enumeration range stay reachable.
    """
    if base.n == 0 or fiber.n == 0:
        raise ValueError("both factors must have at least one vertex")
    _check_cap(base.n, cap)
    _check_cap(fiber.n, cap)

    base_n, fiber_n = base.n, fiber.n
    fiber_sets = [d.members for d in enumerate_minimal_dominating_sets(fiber, cap)]
    universal = [fiber.closed_mask(h) == fiber.full_mask for h in range(fiber_n)]
    any_universal = any(universal)
    # (x, totally dominated) -> x's blocks, shared by every set that uses them
    blocks: dict[tuple[int, bool], tuple] = {}
    raw: list[tuple[tuple[int, int], ...]] = []
    for p in enumerate_irreducible_dominating_sets(base, cap):
        choice_lists = []
        for x in p.members:
            key = (x, bool(base.adj_mask(x) & p.mask))
            if key not in blocks:
                options = [(h,) for h in range(fiber_n)] if key[1] else fiber_sets
                blocks[key] = _pair_blocks(base_n, fiber_n, x, options)
            choice_lists.append(blocks[key])
        if any_universal:
            combos = _leaf_admissible(base, p, choice_lists, universal)
        else:
            combos = [choice_lists]
        for lists in combos:
            raw.extend(_concatenations(lists))
    raw.sort()
    raw.sort(key=len)
    return ProductSet._wrap_sorted(base_n, fiber_n, raw)


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
