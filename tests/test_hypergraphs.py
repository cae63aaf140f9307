"""Transversal machinery against subset brute force and frozen small cases."""

import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domkit import bruteforce
from domkit.families import (
    cycle_graph,
    nonisomorphic_graphs,
    path_graph,
    random_graph,
    random_sperner_hypergraph,
)
from domkit.domination import (
    enumerate_minimal_dominating_sets,
    gamma,
    is_minimal_dominating,
    neighborhood_hypergraph,
)
from domkit.graphs import GraphParseError, VertexSet
from domkit.hypergraphs import (
    Hypergraph,
    all_minimal_transversals_have_size,
    enumerate_minimal_transversals,
    is_minimal_transversal,
    is_transversal,
    minimal_transversals_up_to_size,
    parse_hypergraph,
    sperner_reduce,
    write_hypergraph,
)


TRIANGLE = Hypergraph(3, [[0, 1], [1, 2], [0, 2]])


@st.composite
def hypergraphs_strategy(draw, max_n=6, max_edges=6):
    n = draw(st.integers(1, max_n))
    count = draw(st.integers(1, max_edges))
    edges = [
        draw(st.integers(1, (1 << n) - 1)) for _ in range(count)
    ]
    return Hypergraph(n, [VertexSet.from_mask(n, m) for m in edges])


class TestBasics:
    def test_empty_hyperedge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [[0], []])

    def test_universe_respected(self):
        with pytest.raises(ValueError):
            Hypergraph(2, [[0, 2]])

    def test_transversal_examples(self):
        x = VertexSet(3, [0, 1])
        assert is_transversal(TRIANGLE, x)
        # all 2^2 deletions of a two-element set fail, so it is minimal
        assert all(
            not is_transversal(TRIANGLE, VertexSet(3, sub))
            for sub in ([0], [1], [])
        )
        assert is_minimal_transversal(TRIANGLE, x)
        assert is_transversal(TRIANGLE, VertexSet(3, [0, 1, 2]))
        assert not is_minimal_transversal(TRIANGLE, VertexSet(3, [0, 1, 2]))
        assert not is_transversal(TRIANGLE, VertexSet(3, []))

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            is_transversal(TRIANGLE, VertexSet(4, [0]))


class TestSpernerReduce:
    def test_containment_dropped(self):
        h = Hypergraph(3, [[0], [0, 1], [1, 2]])
        assert sperner_reduce(h) == Hypergraph(3, [[0], [1, 2]])

    def test_idempotent(self):
        h = sperner_reduce(Hypergraph(4, [[0, 1], [2, 3], [0, 1, 2]]))
        assert sperner_reduce(h) == h
        assert h.is_sperner()

    def test_p3_closed_neighborhoods(self):
        h = neighborhood_hypergraph(path_graph(3))
        assert h == Hypergraph(3, [[0, 1], [1, 2]])


class TestEnumeration:
    def test_triangle(self):
        got = enumerate_minimal_transversals(TRIANGLE)
        assert got == bruteforce.minimal_transversals(TRIANGLE)
        assert [x.members for x in got] == [(0, 1), (0, 2), (1, 2)]

    def test_single_edge(self):
        h = Hypergraph(1, [[0]])
        assert [x.members for x in enumerate_minimal_transversals(h)] == [(0,)]

    def test_edgeless_hypergraphs(self):
        for n in (0, 2):
            assert enumerate_minimal_transversals(Hypergraph(n, [])) == [VertexSet(n)]

    def test_search_deeper_than_the_recursion_limit(self):
        h = Hypergraph(1100, [[v] for v in range(1100)])
        assert enumerate_minimal_transversals(h) == [VertexSet(1100, range(1100))]

    def test_c22_past_brute_force(self):
        c22 = cycle_graph(22)
        sets = enumerate_minimal_dominating_sets(c22)
        assert len(set(sets)) == len(sets) == 1674
        assert all(is_minimal_dominating(c22, d) for d in sets)

    def test_c4_neighborhoods(self):
        h = neighborhood_hypergraph(cycle_graph(4))
        got = enumerate_minimal_transversals(h)
        assert got == bruteforce.minimal_transversals(h)
        assert len(got) == 6 and all(len(x) == 2 for x in got)

    @given(hypergraphs_strategy())
    @settings(max_examples=150)
    def test_matches_brute_force(self, h):
        got = enumerate_minimal_transversals(h)
        assert got == bruteforce.minimal_transversals(h)
        assert all(is_minimal_transversal(h, x) for x in got)

    @given(hypergraphs_strategy())
    @settings(max_examples=100)
    def test_duality_involution(self, h):
        reduced = sperner_reduce(h)
        dual = Hypergraph(h.n, enumerate_minimal_transversals(reduced))
        assert Hypergraph(h.n, enumerate_minimal_transversals(dual)) == reduced


class TestBoundedSize:
    def test_triangle_small_sizes(self):
        assert minimal_transversals_up_to_size(TRIANGLE, 1) == []
        got = minimal_transversals_up_to_size(TRIANGLE, 2)
        assert [x.members for x in got] == [(0, 1), (0, 2), (1, 2)]

    def test_size_zero(self):
        assert minimal_transversals_up_to_size(TRIANGLE, 0) == []
        no_edges = Hypergraph(2, [])
        assert [x.members for x in minimal_transversals_up_to_size(no_edges, 0)] == [()]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            minimal_transversals_up_to_size(TRIANGLE, -1)


class TestFixedSizeDecision:
    def test_c4_all_size_two(self):
        h = neighborhood_hypergraph(cycle_graph(4))
        assert all_minimal_transversals_have_size(h, 2) == (True, None)

    def test_p5_witness(self):
        h = neighborhood_hypergraph(path_graph(5))
        ok, witness = all_minimal_transversals_have_size(h, 2)
        assert not ok
        assert witness.members == (0, 2, 4)

    def test_single_vertex(self):
        assert all_minimal_transversals_have_size(Hypergraph(1, [[0]]), 1) == (True, None)

    def test_non_sperner_rejected(self):
        with pytest.raises(ValueError):
            all_minimal_transversals_have_size(Hypergraph(2, [[0], [0, 1]]), 1)

    def test_size_below_one_rejected(self):
        with pytest.raises(ValueError):
            all_minimal_transversals_have_size(TRIANGLE, 0)
        with pytest.raises(ValueError):
            all_minimal_transversals_have_size(Hypergraph(2, []), 0)

    def test_smaller_transversal_gives_the_first_minimum_one(self):
        h = neighborhood_hypergraph(path_graph(5))
        assert all_minimal_transversals_have_size(h, 3) == (False, VertexSet(5, [0, 3]))
        assert all_minimal_transversals_have_size(Hypergraph(2, []), 1) == (False, VertexSet(2))

    def test_size_above_the_universe(self):
        assert all_minimal_transversals_have_size(TRIANGLE, 3) == (False, VertexSet(3, [0, 1]))
        assert all_minimal_transversals_have_size(Hypergraph(2, [[0], [1]]), 2) == (True, None)

    @staticmethod
    def _assert_decided_like_enumeration(h, k):
        sizes = {len(x) for x in enumerate_minimal_transversals(h)}
        ok, witness = all_minimal_transversals_have_size(h, k)
        assert ok == (sizes == {k})
        if ok:
            assert witness is None
        else:
            assert is_minimal_transversal(h, witness)
            assert len(witness) != k

    @staticmethod
    def _first_oversized_by_rule(h, k):
        """The documented witness rule, spelled out by brute force."""
        edges = h.edge_masks
        for s in itertools.combinations(range(h.n), k + 1):
            private = [
                [e for e in edges if e >> v & 1 and not any(e >> u & 1 for u in s if u != v)]
                for v in s
            ]
            for chosen in itertools.product(*private):
                members = VertexSet(h.n, s).mask
                blocked = members
                for e in chosen:
                    blocked |= e
                grown = members | ((1 << h.n) - 1) & ~blocked
                if all(grown & e for e in edges):
                    for v in range(h.n):
                        smaller = grown & ~(1 << v)
                        if smaller != grown and all(smaller & e for e in edges):
                            grown = smaller
                    return VertexSet.from_mask(h.n, grown)
        return None

    def test_oversized_witness_follows_the_documented_rule(self):
        # two disjoint edges: {0, 2} comes before {1, 3} in combination order
        h = Hypergraph(4, [[0, 1], [2, 3]])
        assert all_minimal_transversals_have_size(h, 1) == (False, VertexSet(4, [0, 2]))
        for n in range(1, 7):
            for g in nonisomorphic_graphs(n):
                h = neighborhood_hypergraph(g)
                k = gamma(g)
                ok, witness = all_minimal_transversals_have_size(h, k)
                assert (None if ok else witness) == self._first_oversized_by_rule(h, k)

    def test_matches_enumeration_on_the_catalogue(self):
        for n in range(1, 8):
            for g in nonisomorphic_graphs(n):
                h = neighborhood_hypergraph(g)
                k = gamma(g)
                self._assert_decided_like_enumeration(h, k)
                self._assert_decided_like_enumeration(h, k + 1)

    def test_matches_enumeration_on_random_graphs(self):
        rng = Random(2)
        done = 0
        while done < 150:
            g = random_graph(rng.randint(8, 14), rng, rng.choice((0.2, 0.3, 0.5, 0.7)))
            k = gamma(g)
            if k > 4:
                continue
            done += 1
            self._assert_decided_like_enumeration(neighborhood_hypergraph(g), k)

    def test_matches_enumeration_on_random_instances(self):
        rng = Random(1)
        for _ in range(300):
            h = random_sperner_hypergraph(rng.randint(1, 7), rng)
            sizes = {len(x) for x in enumerate_minimal_transversals(h)}
            for k in sorted(sizes | {max(sizes) + 1}):
                self._assert_decided_like_enumeration(h, k)


class TestSerialization:
    def test_round_trip(self):
        h = Hypergraph(4, [[0, 1], [2], [1, 3]])
        assert parse_hypergraph(write_hypergraph(h)) == h

    def test_parse_errors(self):
        with pytest.raises(GraphParseError):
            parse_hypergraph("2 1\n")
        with pytest.raises(GraphParseError):
            parse_hypergraph("2 1\n0 5\n")
