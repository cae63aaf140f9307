"""Product construction and the factor-wise domination characterizations."""

from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import domkit.lexicographic
from domkit import bruteforce
from domkit.domination import (
    EnumerationCapExceeded,
    enumerate_irreducible_dominating_sets,
    enumerate_minimal_dominating_sets,
    gamma_t,
    is_dominating,
    is_irreducible_dominating,
    is_minimal_dominating,
)
from domkit.families import (
    complete_graph,
    cycle_graph,
    edgeless_graph,
    nonisomorphic_graphs,
    path_graph,
    random_isolate_free_graph,
)
from domkit.graphs import Graph, VertexSet
from domkit.lexicographic import (
    ProductSet,
    check_minimal_product,
    dominates_product_vertex,
    enumerate_minimal_dominating_sets_product,
    gamma_product,
    is_dominating_product,
    lex_product,
    project,
    upper_gamma_product_bound,
)


@pytest.fixture(scope="module")
def p5p3():
    return lex_product(path_graph(5), path_graph(3))


def star_graph(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def spider_graph(*legs):
    """A center 0 with one path per entry of ``legs``, of that many edges."""
    edges, n = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph(n, edges)


def small_products(max_base=3, max_fiber=3):
    for nb in range(1, max_base + 1):
        for nf in range(1, max_fiber + 1):
            for base in nonisomorphic_graphs(nb):
                for fiber in nonisomorphic_graphs(nf):
                    yield lex_product(base, fiber)


class TestConstruction:
    def test_vertex_count_and_sample_adjacency(self, p5p3):
        g = p5p3.graph
        assert g.n == 15
        assert g.adjacent(p5p3.encode(0, 0), p5p3.encode(1, 2))  # base edge
        assert g.adjacent(p5p3.encode(2, 0), p5p3.encode(2, 1))  # fiber edge
        assert not g.adjacent(p5p3.encode(2, 0), p5p3.encode(2, 2))
        assert not g.adjacent(p5p3.encode(0, 0), p5p3.encode(2, 1))

    def test_same_base_adjacency_is_fiber_adjacency(self, p5p3):
        for h1 in range(3):
            for h2 in range(3):
                if h1 != h2:
                    assert p5p3.graph.adjacent(
                        p5p3.encode(2, h1), p5p3.encode(2, h2)
                    ) == path_graph(3).adjacent(h1, h2)

    def test_identity_fiber(self):
        prod = lex_product(path_graph(5), complete_graph(1))
        assert prod.graph == path_graph(5)
        assert not prod.nontrivial

    def test_edge_count(self):
        base, fiber = path_graph(4), cycle_graph(3)
        prod = lex_product(base, fiber)
        want = len(base.edges) * fiber.n**2 + base.n * len(fiber.edges)
        assert len(prod.graph.edges) == want

    def test_empty_factor_rejected(self):
        with pytest.raises(ValueError):
            lex_product(Graph(0), path_graph(2))

    def test_encode_decode(self, p5p3):
        for g in range(5):
            for h in range(3):
                assert p5p3.decode(p5p3.encode(g, h)) == (g, h)
        with pytest.raises(ValueError):
            p5p3.encode(5, 0)


class TestProductSet:
    def test_worked_projection(self):
        d = ProductSet(5, 3, [(1, 1), (2, 0), (3, 1)])
        proj, fibers = project(d)
        assert proj.members == (1, 2, 3)
        assert {g: f.members for g, f in fibers.items()} == {1: (1,), 2: (0,), 3: (1,)}

    def test_empty(self):
        d = ProductSet(5, 3, [])
        proj, fibers = project(d)
        assert proj.members == () and fibers == {}

    def test_rectangle(self):
        d = ProductSet(4, 3, [(g, h) for g in (0, 2) for h in (1, 2)])
        proj, fibers = project(d)
        assert proj.members == (0, 2)
        assert all(f.members == (1, 2) for f in fibers.values())

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_decomposition_reconstructs_exactly(self, nb, nf, data):
        mask = data.draw(st.integers(0, (1 << (nb * nf)) - 1))
        flat = VertexSet.from_mask(nb * nf, mask)
        d = ProductSet(nb, nf, [divmod(v, nf) for v in flat])
        proj, fibers = project(d)
        rebuilt = {(g, h) for g in proj for h in fibers[g]}
        assert rebuilt == set(d.pairs)
        assert d.flatten() == flat

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ProductSet(2, 2, [(2, 0)])

    def test_mask_is_the_flattened_mask(self):
        d = ProductSet(5, 3, [(3, 1), (1, 1), (2, 0), (1, 1)])
        assert d.mask == d.flatten().mask == 1 << 4 | 1 << 6 | 1 << 10
        assert d.pairs == ((1, 1), (2, 0), (3, 1))
        assert len(d) == 3 and list(d) == list(d.pairs)
        assert repr(d) == "ProductSet(5, 3, [(1, 1), (2, 0), (3, 1)])"
        with pytest.raises(AttributeError):
            d.mask = 0

    def test_flat_universe_past_64_vertices(self):
        # P14 x C5 has 70 flat vertices; sets on it cross every byte and
        # word boundary of the flat mask
        prod = lex_product(path_graph(14), cycle_graph(5))
        rng = Random(70)
        for mask in [0, 1, 1 << 69, (1 << 70) - 1] + [rng.getrandbits(70) for _ in range(50)]:
            flat = VertexSet.from_mask(70, mask)
            d = ProductSet.from_flat(prod, flat)
            pairs = [divmod(v, 5) for v in flat]
            assert d == ProductSet(14, 5, pairs) and hash(d) == hash(ProductSet(14, 5, pairs))
            assert d.mask == mask and d.flatten() == flat
            assert list(d.pairs) == pairs and list(d) == pairs and len(d) == len(pairs)
            assert d.projection() == VertexSet(14, {g for g, _ in pairs})
            assert {g: f.members for g, f in d.fibers().items()} == {
                g: tuple(h for x, h in pairs if x == g) for g in sorted({g for g, _ in pairs})
            }

    @pytest.mark.parametrize("base_n, fiber_n", [(25, 25), (2, 30)])
    def test_shapes_past_the_pair_tables_decode_member_by_member(self, base_n, fiber_n):
        pairs = [(0, 0), (1, fiber_n - 1), (base_n - 1, 3)]
        d = ProductSet(base_n, fiber_n, pairs)
        assert d.pairs == tuple(sorted(pairs)) and list(d) == sorted(pairs)
        assert d.mask == sum(1 << (g * fiber_n + h) for g, h in pairs)

    def test_sets_of_one_shape_share_their_pair_tuples(self):
        a = ProductSet(6, 4, [(0, 1), (3, 2), (5, 3)])
        b = ProductSet(6, 4, [(3, 2), (4, 0), (5, 3)])
        assert a.pairs[1] == b.pairs[0] == (3, 2)
        assert a.pairs[1] is b.pairs[0] and a.pairs[2] is b.pairs[2]


class TestVertexDomination:
    def test_worked_cases(self, p5p3):
        d = ProductSet(5, 3, [(1, 1)])
        assert dominates_product_vertex(p5p3, d, (0, 2))
        assert dominates_product_vertex(p5p3, d, (1, 0))
        assert not dominates_product_vertex(p5p3, d, (3, 0))

    def test_matches_flat_adjacency_everywhere(self):
        rng = Random(11)
        for prod in small_products():
            flat_n = prod.graph.n
            masks = (
                range(1 << flat_n)
                if flat_n <= 6
                else [rng.getrandbits(flat_n) for _ in range(40)]
            )
            for mask in masks:
                d = ProductSet.from_flat(prod, VertexSet.from_mask(flat_n, mask))
                for v in range(flat_n):
                    want = bool(prod.graph.closed_mask(v) & mask)
                    assert dominates_product_vertex(prod, d, prod.decode(v)) == want
                    # a dominated pair always projects to a dominated base vertex
                    if want:
                        g, _ = prod.decode(v)
                        assert prod.base.closed_mask(g) & d.projection().mask


class TestSetDomination:
    def test_worked_examples(self, p5p3):
        assert is_dominating_product(p5p3, ProductSet(5, 3, [(1, 1), (2, 0), (3, 1)]))
        assert is_dominating_product(p5p3, ProductSet(5, 3, [(1, 1), (3, 1)]))

    def test_independent_rectangle(self, p5p3):
        # maximal independent base set crossed with a minimal dominating fiber set
        d = ProductSet(5, 3, [(g, h) for g in (0, 2, 4) for h in (1,)])
        assert is_dominating_product(p5p3, d)

    def test_matches_flat(self):
        rng = Random(12)
        for prod in small_products():
            flat_n = prod.graph.n
            masks = (
                range(1 << flat_n)
                if flat_n <= 6
                else [rng.getrandbits(flat_n) for _ in range(60)]
            )
            for mask in masks:
                flat = VertexSet.from_mask(flat_n, mask)
                d = ProductSet.from_flat(prod, flat)
                assert is_dominating_product(prod, d) == is_dominating(prod.graph, flat)


class TestMinimality:
    def test_worked_example(self, p5p3):
        report = check_minimal_product(p5p3, ProductSet(5, 3, [(1, 1), (2, 0), (3, 1)]))
        assert (report.cond_i, report.cond_ii, report.cond_iii) == (True, True, False)
        assert not report.minimal

    def test_two_vertex_variant_is_minimal(self, p5p3):
        report = check_minimal_product(p5p3, ProductSet(5, 3, [(1, 1), (3, 1)]))
        assert report.minimal

    def test_independent_rectangle_all_conditions(self, p5p3):
        d = ProductSet(5, 3, [(g, 1) for g in (0, 2, 4)])
        report = check_minimal_product(p5p3, d)
        assert report.cond_i and report.cond_ii and report.cond_iii and report.minimal

    def test_matches_flat(self):
        rng = Random(13)
        for prod in small_products():
            flat_n = prod.graph.n
            fiber = prod.fiber
            no_universal = all(
                fiber.closed_mask(h) != fiber.full_mask for h in range(fiber.n)
            )
            masks = (
                range(1 << flat_n)
                if flat_n <= 6
                else [rng.getrandbits(flat_n) for _ in range(60)]
            )
            for mask in masks:
                flat = VertexSet.from_mask(flat_n, mask)
                report = check_minimal_product(prod, ProductSet.from_flat(prod, flat))
                assert report.minimal == is_minimal_dominating(prod.graph, flat)
                # without universal fiber vertices the third condition is free
                if no_universal and report.cond_i and report.cond_ii:
                    assert report.cond_iii


class TestEnumerator:
    def test_k2_c4_sizes(self):
        sets = enumerate_minimal_dominating_sets_product(complete_graph(2), cycle_graph(4))
        assert sets and all(len(d) == 2 for d in sets)

    def test_identity_fiber_matches_base(self):
        got = enumerate_minimal_dominating_sets_product(path_graph(5), complete_graph(1))
        flats = [d.flatten() for d in got]
        assert flats == bruteforce.minimal_dominating_sets(path_graph(5))

    def test_worked_example_membership(self):
        sets = enumerate_minimal_dominating_sets_product(path_graph(5), path_graph(3))
        assert ProductSet(5, 3, [(1, 1), (3, 1)]) in sets
        assert ProductSet(5, 3, [(1, 1), (2, 0), (3, 1)]) not in sets

    def test_matches_flat_brute_force(self):
        for nb, nf in [(1, 3), (2, 3), (3, 2), (3, 3), (4, 2)]:
            for base in nonisomorphic_graphs(nb):
                for fiber in nonisomorphic_graphs(nf):
                    got = {
                        d.flatten()
                        for d in enumerate_minimal_dominating_sets_product(base, fiber)
                    }
                    want = set(
                        bruteforce.minimal_dominating_sets(lex_product(base, fiber).graph)
                    )
                    assert got == want

    def test_matches_flat_enumeration_in_order(self):
        # bases whose irreducible sets have redundant members with leaf
        # neighbours: P4-P6 and spiders; also C5 and the star K1,3
        bases = [path_graph(4), path_graph(5), path_graph(6), cycle_graph(5), star_graph(3),
                 spider_graph(2, 1, 1), spider_graph(2, 2, 1), spider_graph(2, 2, 2)]
        # fibers with a universal vertex (K1, K2, K3, P3, K1,3) and without one
        fibers = [complete_graph(1), edgeless_graph(2), complete_graph(2), complete_graph(3),
                  path_graph(3), star_graph(3), cycle_graph(4), path_graph(4)]
        for n in range(1, 6):
            bases += nonisomorphic_graphs(n)
            fibers += nonisomorphic_graphs(n) if n <= 3 else []
        checked = 0
        for base in bases:
            for fiber in fibers:
                if base.n * fiber.n > 18:
                    continue
                got = [d.flatten() for d in enumerate_minimal_dominating_sets_product(base, fiber)]
                assert got == enumerate_minimal_dominating_sets(lex_product(base, fiber).graph)
                checked += 1
        assert checked == 774

    def test_leaf_condition_on_p5_p3(self):
        # P5 has the irreducible set {1, 2, 3}: 2 is redundant, 1 and 3 are
        # its leaf neighbours, so a universal fiber vertex must be avoided
        p = VertexSet(5, [1, 2, 3])
        assert is_irreducible_dominating(path_graph(5), p)
        assert p in enumerate_irreducible_dominating_sets(path_graph(5))
        sets = enumerate_minimal_dominating_sets_product(path_graph(5), path_graph(3))
        over_p = [d for d in sets if d.projection() == p]
        # every member is totally dominated, so each gets one of P3's three
        # vertices; 1 and 3 may not both get the universal centre
        assert len(over_p) == 3 * (3 * 3 - 1)

    def test_enumerated_sets_are_canonical(self):
        # the last two have flat universes past 64 vertices (mirrored keys
        # past 128 bits), with and without a universal fiber vertex
        for base, fiber in [
            (path_graph(5), path_graph(3)),
            (spider_graph(2, 2, 1), complete_graph(3)),
            (cycle_graph(5), cycle_graph(4)),
            (star_graph(3), star_graph(3)),
            (edgeless_graph(2), path_graph(4)),
            (path_graph(5), star_graph(13)),
            (cycle_graph(4), edgeless_graph(17)),
        ]:
            sets = enumerate_minimal_dominating_sets_product(base, fiber)
            assert sets
            for d in sets:
                rebuilt = ProductSet(base.n, fiber.n, d.pairs)
                assert rebuilt == d and hash(rebuilt) == hash(d)
                assert rebuilt.pairs == d.pairs and rebuilt.mask == d.mask
                assert len(rebuilt) == len(d) == len(d.pairs)
                assert list(rebuilt) == list(d) == list(d.pairs)
                assert rebuilt.projection() == d.projection()
                assert rebuilt.fibers() == d.fibers()
                assert rebuilt.flatten() == d.flatten()
                assert repr(rebuilt) == repr(d)
                assert isinstance(d.pairs, tuple)
                assert all(a < b for a, b in zip(d.pairs, d.pairs[1:]))
                assert all(0 <= g < base.n and 0 <= h < fiber.n for g, h in d.pairs)
                with pytest.raises(AttributeError):
                    d.pairs = ()
                with pytest.raises(AttributeError):
                    d.base_n = 0

    def test_enumerated_sets_share_their_pair_tuples(self):
        # every occurrence of a pair, in every set of the shape, is one object
        first: dict = {}
        for fiber in (cycle_graph(4), path_graph(4)):
            for d in enumerate_minimal_dominating_sets_product(path_graph(6), fiber):
                for pair in d.pairs:
                    assert first.setdefault(pair, pair) is pair
        assert len(first) == 24

    def test_factor_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_minimal_dominating_sets_product(
                edgeless_graph(30), complete_graph(2)
            )


class TestGammaProduct:
    def test_worked_values(self):
        assert gamma_product(path_graph(5), path_graph(3)) == 2
        assert gamma_product(complete_graph(3), cycle_graph(4)) == 2

    def test_edgeless_base(self):
        assert gamma_product(edgeless_graph(3), path_graph(3)) == 3
        assert gamma_product(edgeless_graph(2), cycle_graph(4)) == 4

    def test_total_domination_link(self):
        rng = Random(14)
        for _ in range(50):
            g = random_isolate_free_graph(rng.randint(2, 8), rng)
            assert gamma_product(g, edgeless_graph(2)) == gamma_t(g)

    def test_isolated_base_vertices(self):
        base = Graph(3, [(0, 1)])  # one isolated vertex
        fiber = cycle_graph(4)
        assert gamma_product(base, fiber) == bruteforce.gamma(lex_product(base, fiber).graph)


class TestUpperGammaBound:
    def test_p5_c4(self):
        bound, holds = upper_gamma_product_bound(path_graph(5), cycle_graph(4))
        assert bound == 6 and holds

    def test_pinned_values(self):
        assert upper_gamma_product_bound(path_graph(5), path_graph(3)) == (6, True)
        assert upper_gamma_product_bound(cycle_graph(5), complete_graph(3)) == (2, True)

    def test_caps_are_checked_before_the_exact_alpha(self, monkeypatch):
        def exact_search(graph):
            raise AssertionError("alpha ran before the cap checks")

        monkeypatch.setattr(domkit.lexicographic, "alpha", exact_search)
        big, small = cycle_graph(25), path_graph(3)
        capped = (EnumerationCapExceeded, "graph has {} vertices, above the enumeration cap 24")
        empty = (ValueError, "operation undefined on the zero-vertex graph")
        cases = [
            (big, small, capped, 25),
            (big, Graph(30), capped, 30),
            (big, Graph(0), empty, None),
            (Graph(0), Graph(30), empty, None),
        ]
        for base, fiber, (error, message), n in cases:
            with pytest.raises(error, match=message.format(n)):
                upper_gamma_product_bound(base, fiber)
