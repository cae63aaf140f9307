"""Graph kernel: parsing, neighborhoods, complement, components, triangles."""

import copy
import gc
import itertools
import pickle
from random import Random

import pytest
from hypothesis import given

from domkit.graphs import (
    Graph,
    GraphParseError,
    VertexSet,
    _bulk_new,
    _key_table,
    _members_text,
    _universal_mask,
    closed_neighborhood,
    complement,
    connected_components,
    enumerate_triangles,
    induced_subgraph,
    induces_c6_complement,
    is_complete,
    is_edgeless,
    isolated_vertices,
    iter_bits,
    neighborhood_of_set,
    open_neighborhood,
    parse_graph,
    set_sort_key,
    write_graph,
)
from domkit.families import (
    complete_graph,
    cycle_graph,
    edgeless_graph,
    nonisomorphic_graphs,
    path_graph,
    random_graph,
)
from domkit.hypergraphs import Hypergraph
from domkit.lexicographic import ProductSet, lex_product
from domkit.recognition import recognize

from conftest import graph_with_subset, graphs


P5_DOC = "5 4\n0 1\n1 2\n2 3\n3 4\n"


class TestVertexSet:
    def test_ascending_iteration(self):
        s = VertexSet(6, [4, 1, 3])
        assert list(s) == [1, 3, 4]
        assert s.members == (1, 3, 4)
        assert len(s) == 3
        assert 3 in s and 0 not in s and 9 not in s

    def test_out_of_universe_rejected(self):
        with pytest.raises(ValueError):
            VertexSet(3, [3])
        with pytest.raises(ValueError):
            VertexSet.from_mask(3, 1 << 5)

    def test_negative_universe_rejected(self):
        for make in (lambda: VertexSet(-1), lambda: VertexSet.from_mask(-1, 0),
                     lambda: VertexSet.from_mask(-3, 1)):
            with pytest.raises(ValueError, match="^universe size must be non-negative$"):
                make()

    def test_immutable(self):
        s = VertexSet(3, [0])
        with pytest.raises(AttributeError):
            s.mask = 7

    def test_members_across_the_member_tables(self):
        bits = (0, 7, 8, 15, 16, 23, 24, 63, 64, 1099)
        masks = [0] + [1 << b for b in bits]
        masks += [sum(1 << b for b in bits if b <= top) for top in bits]
        masks += [(1 << top) - 1 for top in (8, 24, 64, 65, 1100)]
        for mask in masks:
            assert VertexSet.from_mask(1100, mask).members == tuple(iter_bits(mask))

    def test_members_text_matches_iter_bits(self):
        # a list is rendered by its widest mask: one table per byte up to 64
        # bits, and the members one by one past that
        rng = Random(12)
        masks = [0] + [rng.getrandbits(rng.randint(1, 70)) for _ in range(400)]
        groups = [masks] + [[m & (1 << top) - 1 for m in masks] for top in (8, 24, 25, 64, 65)]
        groups += [[m] for m in masks]
        for sep in (" ", ", "):
            for group in groups:
                want = [sep.join(map(str, iter_bits(m))) for m in group]
                assert _members_text(group, sep) == want
        assert _members_text([], " ") == []
        assert _members_text([0], ", ") == [""]

    def test_bulk_wrap_matches_from_mask(self):
        for n, masks in ((0, [0]), (5, [0, 1, 31, 18]), (70, [1 << 69, (1 << 70) - 1, 0])):
            # the same sets as canonical keys, whose bits above n are dropped
            empty, entries = _key_table(n)
            keys = [empty + sum(entries[v] for v in iter_bits(m)) for m in masks]
            assert any(k >> n for k in keys) or n == 0
            for wrapped_keys in (masks, keys):
                wrapped = VertexSet._wrap(n, list(wrapped_keys))
                assert wrapped == [VertexSet.from_mask(n, m) for m in masks]
                assert all(type(s) is VertexSet for s in wrapped)
        # product sets over P14 x C5, 70 flat vertices, go through the same wrap
        empty, entries = _key_table(70)
        masks = [0, 1, 1 << 69, (1 << 70) - 1, 0b1011 << 33]
        keys = [empty + sum(entries[v] for v in iter_bits(m)) for m in masks]
        wrapped = ProductSet._wrap(14, 5, keys)
        assert wrapped == [ProductSet(14, 5, [divmod(v, 5) for v in iter_bits(m)]) for m in masks]
        assert [d.mask for d in wrapped] == masks
        assert all(type(d) is ProductSet for d in wrapped)

    @pytest.mark.parametrize("n", [0, 1, 5, 9, 70])
    def test_mirrored_sort_gives_canonical_order(self, n):
        rng = Random(n)
        masks = list({rng.getrandbits(n) for _ in range(300)})
        empty, entries = _key_table(n)
        keys = [empty + sum(entries[v] for v in iter_bits(m)) for m in masks]
        # the size sits above the complemented mirror, and the set below it
        assert [k >> 2 * n for k in keys] == [m.bit_count() for m in masks]
        assert [k & (1 << n) - 1 for k in keys] == masks
        keys.sort()
        ordered = sorted((VertexSet.from_mask(n, m) for m in masks), key=set_sort_key)
        assert VertexSet._wrap(n, keys) == ordered

    def test_set_algebra(self):
        a = VertexSet(5, [0, 1, 3])
        b = VertexSet(5, [1, 2])
        assert a.union(b).members == (0, 1, 2, 3)
        assert a.intersection(b).members == (1,)
        assert a.difference(b).members == (0, 3)
        assert VertexSet(5, [1]).issubset(a)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Run the test with the cyclic collector on or off, and restore its state after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestBulkNewPausesTheCollector:
    def test_state_is_restored(self, collector):
        objs = _bulk_new(VertexSet, 3, (VertexSet.universe_size, [4, 4, 4]),
                         (VertexSet.mask, [1, 2, 3]))
        assert objs == [VertexSet.from_mask(4, m) for m in (1, 2, 3)]
        assert gc.isenabled() is collector

    def test_state_is_restored_when_the_values_raise(self, collector):
        def values():
            yield 1
            yield 2
            raise RuntimeError("values failed")

        with pytest.raises(RuntimeError, match="values failed"):
            _bulk_new(VertexSet, 3, (VertexSet.universe_size, [4, 4, 4]),
                      (VertexSet.mask, values()))
        assert gc.isenabled() is collector

    def test_no_collection_runs_during_the_allocation(self):
        count = 100_000
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(record)
        try:
            objs = _bulk_new(VertexSet, count,
                             (VertexSet.universe_size, itertools.repeat(17, count)),
                             (VertexSet.mask, range(count)))
            during = len(starts)
        finally:
            gc.callbacks.remove(record)
            (gc.enable if was_enabled else gc.disable)()
        assert during == 0
        assert len(objs) == count and objs[-1] == VertexSet.from_mask(17, count - 1)


_NEGATIVE_REPORT = recognize(path_graph(5))


@pytest.mark.parametrize("value", [
    Graph(4, [(0, 1), (2, 3)]),
    VertexSet(70, [0, 5, 69]),
    Hypergraph(4, [[0, 1], [1, 2, 3]]),
    lex_product(path_graph(3), cycle_graph(4)),
    ProductSet(3, 4, [(0, 1), (2, 3)]),
    _NEGATIVE_REPORT,
], ids=["Graph", "VertexSet", "Hypergraph", "ProductGraph", "ProductSet", "RecognitionReport"])
@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_immutable_types_copy_and_pickle(value, clone):
    other = clone(value)
    assert type(other) is type(value) and other == value
    if value is _NEGATIVE_REPORT:
        assert not value.verdict and value.witness_large is not None
    assert hash(other) == hash(value)
    # the payload is the public constructor's arguments, not the slots
    assert b"_shape" not in pickle.dumps(value)


def test_universal_mask():
    assert _universal_mask(Graph(1)) == 1
    assert _universal_mask(complete_graph(4)) == 0b1111
    assert _universal_mask(Graph(5, [(2, v) for v in (0, 1, 3, 4)])) == 1 << 2
    assert _universal_mask(cycle_graph(5)) == 0
    assert _universal_mask(path_graph(3)) == 1 << 1
    assert _universal_mask(edgeless_graph(2)) == 0


class TestParse:
    def test_p5(self):
        g = parse_graph(P5_DOC)
        assert g.n == 5
        assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_single_vertex(self):
        g = parse_graph("1 0\n")
        assert g.n == 1 and g.edges == ()

    def test_k3(self):
        g = parse_graph("3 3\n0 1\n1 2\n0 2\n")
        assert is_complete(g)

    def test_comments_and_blank_lines(self):
        g = parse_graph("# a path\n\n5 4\n0 1\n# middle\n1 2\n2 3\n\n3 4\n")
        assert g == parse_graph(P5_DOC)

    def test_zero_vertex_graph_accepted(self):
        assert parse_graph("0 0\n").n == 0

    @pytest.mark.parametrize(
        "doc,line_no",
        [
            ("5 4\n0 1\n1 2\n2 x\n3 4\n", 4),          # malformed token
            ("3 1\n0 7\n", 2),                          # index out of range
            ("3 1\n1 1\n", 2),                          # self-loop
            ("3 2\n0 1\n1 0\n", 3),                     # duplicate edge
            ("2 1\n0 1\n0 1\n", 3),                     # trailing content
            ("4 2\n0 1 2\n0 1\n", 2),                   # wrong arity
        ],
    )
    def test_errors_carry_line_numbers(self, doc, line_no):
        with pytest.raises(GraphParseError) as err:
            parse_graph(doc)
        assert err.value.line_no == line_no

    def test_missing_edges_rejected(self):
        with pytest.raises(GraphParseError, match="expected 4 edges"):
            parse_graph("5 4\n0 1\n")

    def test_missing_header_rejected(self):
        with pytest.raises(GraphParseError, match="header"):
            parse_graph("# nothing else\n")

    @given(graphs(max_n=8))
    def test_write_parse_round_trip(self, g):
        assert parse_graph(write_graph(g)) == g

    def test_writer_deterministic_and_sorted(self):
        g = Graph(4, [(2, 3), (0, 3), (0, 1)])
        assert write_graph(g) == "4 3\n0 1\n0 3\n2 3\n"
        assert write_graph(g, comments=["hello"]).startswith("# hello\n4 3\n")


class TestNeighborhoods:
    def test_path_examples(self, p5):
        assert closed_neighborhood(p5, 1).members == (0, 1, 2)
        assert open_neighborhood(p5, 0).members == (1,)

    def test_isolated_vertex(self):
        g = Graph(3, [(0, 1)])
        assert open_neighborhood(g, 2).members == ()
        assert closed_neighborhood(g, 2).members == (2,)

    def test_out_of_range(self, p5):
        with pytest.raises(ValueError):
            closed_neighborhood(p5, 5)

    def test_set_neighborhoods(self, p5, k3):
        assert neighborhood_of_set(p5, VertexSet(5, [1, 3])).members == (0, 1, 2, 3, 4)
        assert neighborhood_of_set(p5, VertexSet(5, [])).members == ()
        # an open set neighborhood need not contain the set itself
        assert neighborhood_of_set(k3, VertexSet(3, [0]), closed=False).members == (1, 2)

    def test_universe_mismatch(self, p5):
        with pytest.raises(ValueError):
            neighborhood_of_set(p5, VertexSet(4, [1]))

    @given(graph_with_subset(max_n=8))
    def test_closed_is_set_union_open(self, gs):
        g, s = gs
        closed = neighborhood_of_set(g, s, closed=True)
        opened = neighborhood_of_set(g, s, closed=False)
        assert closed.mask == s.mask | opened.mask

    @given(graphs(max_n=8))
    def test_vertex_neighborhood_invariants(self, g):
        for v in range(g.n):
            assert len(closed_neighborhood(g, v)) == len(open_neighborhood(g, v)) + 1
            assert v in closed_neighborhood(g, v)
            assert v not in open_neighborhood(g, v)


class TestComplement:
    def test_c6_complement_is_prism(self):
        got = complement(cycle_graph(6))
        want = Graph(
            6,
            [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)],
        )
        assert got == want
        assert [t.members for t in enumerate_triangles(got)] == [(0, 2, 4), (1, 3, 5)]

    def test_complete_to_edgeless(self):
        assert is_edgeless(complement(complete_graph(5)))

    @given(graphs(max_n=8))
    def test_involution_and_edge_counts(self, g):
        co = complement(g)
        assert complement(co) == g
        assert len(g.edges) + len(co.edges) == g.n * (g.n - 1) // 2


class TestComponents:
    def test_path(self, p5):
        assert len(connected_components(p5)) == 1
        assert isolated_vertices(p5).members == ()
        assert not is_complete(p5)

    def test_complete(self):
        assert is_complete(complete_graph(4))

    def test_two_isolated_vertices(self):
        g = edgeless_graph(2)
        comps = connected_components(g)
        assert [c.members for c in comps] == [(0,), (1,)]
        assert isolated_vertices(g).members == (0, 1)
        assert is_edgeless(g)

    def test_component_order_by_minimum(self):
        g = Graph(5, [(1, 3), (0, 4)])
        assert [c.members for c in connected_components(g)] == [(0, 4), (1, 3), (2,)]

    def test_induced_subgraph(self, p5):
        sub, verts = induced_subgraph(p5, VertexSet(5, [1, 2, 4]))
        assert verts == (1, 2, 4)
        assert sub == Graph(3, [(0, 1)])


class TestTriangles:
    def test_c4_triangle_free(self, c4):
        assert enumerate_triangles(c4) == []

    def test_k4_has_four(self):
        assert len(enumerate_triangles(complete_graph(4))) == 4

    def test_prism_exhaustive(self, prism):
        got = {t.members for t in enumerate_triangles(prism)}
        want = {
            trip
            for trip in itertools.combinations(range(6), 3)
            if all(prism.adjacent(a, b) for a, b in itertools.combinations(trip, 2))
        }
        assert got == want == {(0, 2, 4), (1, 3, 5)}

    def test_matches_ordered_combination_scan(self):
        # the mask kernel against a plain scan of vertex triples in
        # ascending order: same list, item for item, universe and mask
        def scan(g):
            return [
                VertexSet(g.n, trip)
                for trip in itertools.combinations(range(g.n), 3)
                if all(g.adjacent(a, b) for a, b in itertools.combinations(trip, 2))
            ]

        cases = [Graph(n) for n in (0, 1, 2)] + [Graph(2, [(0, 1)])]
        cases += [g for n in range(1, 8) for g in nonisomorphic_graphs(n)]
        rng = Random(26)
        cases += [random_graph(n, rng, p) for n in range(25) for p in (0.3, 0.5, 0.8)]
        cases += [complement(cycle_graph(n)) for n in range(10, 19)]
        for g in cases:
            assert enumerate_triangles(g) == scan(g)


class TestC6Complement:
    def test_prism_pair(self, prism):
        assert induces_c6_complement(prism, VertexSet(6, [0, 2, 4]), VertexSet(6, [1, 3, 5]))

    def test_k6_is_not(self):
        g = complete_graph(6)
        assert not induces_c6_complement(g, VertexSet(6, [0, 1, 2]), VertexSet(6, [3, 4, 5]))

    def test_c6_is_not(self):
        g = cycle_graph(6)
        assert not induces_c6_complement(g, VertexSet(6, [0, 2, 4]), VertexSet(6, [1, 3, 5]))

    def test_size_and_overlap_rejected(self, prism):
        with pytest.raises(ValueError):
            induces_c6_complement(prism, VertexSet(6, [0, 2]), VertexSet(6, [1, 3, 5]))
        with pytest.raises(ValueError):
            induces_c6_complement(prism, VertexSet(6, [0, 2, 4]), VertexSet(6, [0, 3, 5]))
