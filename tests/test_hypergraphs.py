"""Transversal machinery against subset brute force and frozen small cases."""

import itertools
import time
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domkit.hypergraphs
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
from domkit.graphs import GraphParseError, VertexSet, _key_table, iter_bits, set_sort_key
from domkit.hypergraphs import (
    Hypergraph,
    _edge_incidence,
    _hitting_set,
    _mmcs,
    _oversized_transversal,
    _transversal_size_range,
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

    def test_minimal_transversal_test_matches_brute_force_exhaustively(self):
        # every subset, on random hypergraphs with and without edges, and
        # with duplicate and nested edges that keep them non-Sperner
        rng = Random(20)
        for i in range(60):
            n = rng.randint(1, 8)
            masks = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(0, 6))]
            if i % 2:
                masks += [m if rng.random() < 0.5 else m | rng.randint(1, (1 << n) - 1)
                          for m in masks[: rng.randint(1, 3)]]
            h = Hypergraph(n, [VertexSet.from_mask(n, m) for m in masks])
            want = {x.mask for x in bruteforce.minimal_transversals(h)}
            for mask in range(1 << n):
                x = VertexSet.from_mask(n, mask)
                assert is_minimal_transversal(h, x) == (mask in want)
                assert bruteforce.is_minimal_transversal(h, x) == (mask in want)


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

    def test_order_across_byte_boundaries(self):
        # the property tests above stay below 8 vertices, where the fields of
        # a key and the member tables never cross a byte
        rng = Random(9)
        for n in range(9, 17):
            for _ in range(2):
                h = random_sperner_hypergraph(n, rng, max_edges=8)
                assert enumerate_minimal_transversals(h) == bruteforce.minimal_transversals(h)
        instances = [random_sperner_hypergraph(n, rng, max_edges=6) for n in range(9, 31)]
        instances += [neighborhood_hypergraph(random_graph(n, rng, 0.3)) for n in (24, 30)]
        for h in instances:
            got = enumerate_minimal_transversals(h)
            assert got == sorted(got, key=set_sort_key)
            assert [x.members for x in got] == [tuple(x) for x in got]

    def test_keys_match_brute_force_with_duplicate_and_nested_edges(self):
        # leaf children are yielded as soon as they are found, out of search
        # order: sorted, the keys are those of the brute-force transversals
        rng = Random(31)
        instances = _wide_hypergraphs(4, 32)
        for _ in range(80):
            n = rng.randint(1, 12)
            base = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 8))]
            base += rng.sample(base, rng.randint(0, len(base)))
            base += [m | rng.getrandbits(n) for m in rng.sample(base, rng.randint(0, len(base)))]
            instances.append(Hypergraph(n, [VertexSet.from_mask(n, m) for m in base]))
        for h in instances:
            empty, entries = _key_table(h.n)
            want = [empty + sum(entries[v] for v in x) for x in bruteforce.minimal_transversals(h)]
            assert sorted(_mmcs(h, [h.n + 1, -1])) == want

    @given(hypergraphs_strategy())
    @settings(max_examples=100)
    def test_duality_involution(self, h):
        reduced = sperner_reduce(h)
        dual = Hypergraph(h.n, enumerate_minimal_transversals(reduced))
        assert Hypergraph(h.n, enumerate_minimal_transversals(dual)) == reduced


class TestSizeRange:
    def test_edgeless_hypergraphs(self):
        for n in (0, 2):
            assert _transversal_size_range(Hypergraph(n, [])) == (0, 0)

    @given(hypergraphs_strategy())
    @settings(max_examples=150)
    def test_matches_brute_force(self, h):
        sizes = [len(x) for x in bruteforce.minimal_transversals(h)]
        assert _transversal_size_range(h) == (min(sizes), max(sizes))

    def test_search_deeper_than_the_recursion_limit(self):
        h = Hypergraph(1100, [[v] for v in range(1100)])
        assert _transversal_size_range(h) == (1100, 1100)


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

    def test_matches_brute_force_in_order(self):
        rng = Random(12)
        instances = []
        for _ in range(60):
            n = rng.randint(1, 10)
            masks = []
            for _ in range(rng.randint(0, 8)):
                mask = rng.randint(1, (1 << n) - 1)
                # a duplicate or a superset of an edge keeps the input non-Sperner
                masks += [mask, mask if rng.random() < 0.5 else mask | rng.randint(1, (1 << n) - 1)]
            instances.append(Hypergraph(n, [VertexSet.from_mask(n, m) for m in masks]))
        instances += [
            neighborhood_hypergraph(g) for n in range(1, 6) for g in nonisomorphic_graphs(n)
        ]
        instances += [neighborhood_hypergraph(random_graph(10, rng, p)) for p in (0.15, 0.3, 0.5)]
        for h in instances:
            every = bruteforce.minimal_transversals(h)
            for k in range(5):
                assert minimal_transversals_up_to_size(h, k) == [x for x in every if len(x) <= k]

    def test_depth_bounded_on_many_disjoint_pairs(self):
        # 20 disjoint pairs: every minimal transversal has 20 vertices, so a
        # search for those of at most 5 finds none and must stop at depth 5
        h = Hypergraph(40, [[2 * i, 2 * i + 1] for i in range(20)])
        start = time.perf_counter()
        assert minimal_transversals_up_to_size(h, 5) == []
        assert time.perf_counter() - start < 0.5


def _wide_hypergraphs(count, seed):
    """Hypergraphs on at most 12 vertices with 25 to 70 edges.

    A Sperner base of equal-size edges, then duplicates and supersets of
    some of them, so that the input is not Sperner but its reduction still
    has 25 or more edges.  A field of MMCS's packed frames has one bit per
    distinct edge plus a guard, 26 bits or more, so fields cross the 30-bit
    digits of an int.
    """
    rng = Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(9, 12)
        base = rng.sample(list(itertools.combinations(range(n), rng.randint(3, 5))), 25)
        base = [VertexSet(n, e).mask for e in base]
        base += rng.sample(base, rng.randint(0, 15))
        # capped after the draw, so the seeds that never hit the cap draw as before
        picked = rng.sample(base, min(rng.randint(0, 30), len(base)))
        nested = [m | 1 << rng.randrange(n) for m in picked]
        out.append(Hypergraph(n, [VertexSet.from_mask(n, m) for m in base + nested]))
    return out


class TestPackedFields:
    """MMCS, which packs one guarded field per member, with fields past one
    digit, against subset brute force; with the clear masks tabled for every
    size, for the first sizes only, and for none.  The fixed-size decision,
    which keeps a plain list per frame, is checked on the same inputs."""

    @pytest.mark.parametrize("table_bits", [None, 1500, 0])
    def test_wide_fields_match_brute_force(self, table_bits, monkeypatch):
        if table_bits is not None:
            monkeypatch.setattr(domkit.hypergraphs, "_FIELD_TABLE_BITS", table_bits)
        for h in _wide_hypergraphs(20, 25):
            assert 25 <= len(h.hyperedges) <= 70
            every = bruteforce.minimal_transversals(h)
            sizes = {len(x) for x in every}
            assert enumerate_minimal_transversals(h) == every
            assert _transversal_size_range(h) == (min(sizes), max(sizes))
            for k in range(h.n + 1):
                assert minimal_transversals_up_to_size(h, k) == [x for x in every if len(x) <= k]
            reduced = sperner_reduce(h)
            assert len(reduced.hyperedges) >= 25
            for k in sorted(sizes | {min(sizes) + 1}):
                ok, witness = all_minimal_transversals_have_size(reduced, k)
                assert ok == (sizes == {k})
                if not ok:
                    assert bruteforce.is_minimal_transversal(reduced, witness)
                    assert len(witness) != k

    def test_no_oversized_search_past_the_edge_count(self):
        # no 1101 of 1100 vertices have a private singleton edge each, so the
        # search returns before it builds a frame
        edges = tuple(1 << v for v in range(1100))
        incidence = _edge_incidence(1100, edges)
        tracemalloc.start()
        try:
            assert _oversized_transversal(1100, edges, incidence, 1100) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestHittingSet:
    def test_found_exactly_when_a_transversal_is_small_enough(self):
        rng = Random(8)
        for _ in range(200):
            n = rng.randint(1, 7)
            h = random_sperner_hypergraph(n, rng)
            edges = h.edge_masks
            incidence = _edge_incidence(n, edges)
            smallest = min(len(x) for x in bruteforce.minimal_transversals(h))
            for k in range(n + 1):
                found = _hitting_set(edges, incidence, k)
                if k < smallest:
                    assert found is None
                else:
                    assert found is not None and found.bit_count() <= k
                    assert all(found & e for e in edges)

    def test_lowest_unhit_edge_and_ascending_vertices(self):
        # edges {0, 1}, {1, 2}, {2, 3}: trying 0 first leaves {1, 2} unhit,
        # whose lowest vertex 1 leaves {2, 3}; at k = 2, 0 then 2 is found
        # before 1 then 2 or 1 then 3
        edges = (0b0011, 0b0110, 0b1100)
        incidence = _edge_incidence(4, edges)
        assert _hitting_set(edges, incidence, 2) == 0b0101
        assert _hitting_set(edges, incidence, 1) is None

    def test_cut_returns_the_uncut_search_set(self):
        # the degree cut drops only subtrees without a solution, so the set
        # found is the first of a plain recursive search, lowest unhit edge
        # first and its vertices ascending
        def first(edges, incidence, unhit, k):
            if not unhit:
                return 0
            if k == 0:
                return None
            for v in iter_bits(edges[(unhit & -unhit).bit_length() - 1]):
                found = first(edges, incidence, unhit & ~incidence[v], k - 1)
                if found is not None:
                    return found | 1 << v
            return None

        rng = Random(26)
        for _ in range(150):
            n = rng.randint(4, 10)
            g = random_graph(n, rng, rng.random())
            masks = [g.closed_mask(v) for v in range(n)]
            for k in range(n + 1):
                assert _hitting_set(masks, masks, k) == first(masks, masks, (1 << n) - 1, k)
        for _ in range(150):
            n = rng.randint(1, 8)
            edges = random_sperner_hypergraph(n, rng).edge_masks
            incidence = _edge_incidence(n, edges)
            for k in range(n + 1):
                assert _hitting_set(edges, incidence, k) == first(
                    edges, incidence, (1 << len(edges)) - 1, k)

    def test_no_edges_need_no_vertices(self):
        assert _hitting_set((), [0, 0], 0) == 0
        assert _hitting_set((0b1,), [0b1], 0) is None


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
        # larger graphs in the regime that recognize dispatches to (gamma <= 3),
        # two of them well-dominated and some whose first choice of private
        # edges fails
        rng = Random(2)
        done = 0
        while done < 20:
            g = random_graph(rng.randint(8, 12), rng, rng.choice((0.4, 0.6, 0.8)))
            k = gamma(g)
            if k > 3:
                continue
            done += 1
            h = neighborhood_hypergraph(g)
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
