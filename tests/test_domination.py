"""Domination predicates, parameters, and enumerators against brute force."""

from random import Random

import pytest
from hypothesis import given, settings

from domkit import bruteforce
from domkit.domination import (
    EnumerationCapExceeded,
    _irreducible_frames,
    _leaf_supports,
    _minimum_cover,
    _redundant_mask,
    alpha,
    classify,
    enumerate_irreducible_dominating_sets,
    enumerate_minimal_dominating_sets,
    gamma,
    gamma_t,
    is_dominating,
    is_irreducible_dominating,
    is_minimal_dominating,
    is_minimal_total_dominating,
    is_total_dominating,
    maximum_independent_set,
    minimum_dominating_set,
    minimum_total_dominating_set,
    private_closed_neighbors,
    upper_gamma,
)
from domkit.families import (
    complete_graph,
    cycle_graph,
    edgeless_graph,
    nonisomorphic_graphs,
    path_graph,
    random_graph,
    random_isolate_free_graph,
)
from domkit.graphs import Graph, VertexSet

from conftest import graph_with_subset, graphs


def vs(n, members):
    return VertexSet(n, members)


class TestPredicates:
    def test_dominating(self, p5):
        assert is_dominating(p5, vs(5, [1, 3]))
        assert not is_dominating(p5, vs(5, [0, 1]))
        assert is_dominating(p5, vs(5, range(5)))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            is_dominating(Graph(0), VertexSet(0))

    def test_total_dominating(self, p5):
        assert is_total_dominating(p5, vs(5, [1, 2, 3]))
        assert not is_total_dominating(p5, vs(5, [1, 3]))
        assert not is_total_dominating(complete_graph(2), vs(2, [0]))

    def test_minimal_dominating(self, p5, c4, prism):
        assert is_minimal_dominating(prism, vs(6, [0, 2, 4]))
        assert not is_minimal_dominating(p5, vs(5, [1, 2, 3]))
        assert is_minimal_dominating(c4, vs(4, [0, 1]))

    def test_minimal_total_dominating(self, p5, c4):
        assert is_minimal_total_dominating(p5, vs(5, [1, 2, 3]))
        assert is_minimal_total_dominating(c4, vs(4, [0, 1]))
        assert not is_minimal_total_dominating(p5, vs(5, [1, 2, 3, 4]))

    @given(graph_with_subset(max_n=6))
    @settings(max_examples=200)
    def test_minimal_matches_single_deletion_definition(self, gs):
        g, d = gs
        definitional = is_dominating(g, d) and all(
            not is_dominating(g, VertexSet.from_mask(g.n, d.mask ^ (1 << u)))
            for u in d
        )
        assert is_minimal_dominating(g, d) == definitional


class TestClassification:
    def test_independent_set_all_barely(self, p5):
        info = classify(p5, vs(5, [0, 2, 4]))
        assert info.barely_dominated.members == (0, 2, 4)
        assert info.leaves.members == ()
        assert info.redundant.members == ()

    def test_complete_pair(self, k3):
        info = classify(k3, vs(3, [0, 1]))
        assert info.totally_dominated.members == (0, 1, 2)
        assert info.leaves.members == (0, 1)
        assert info.redundant.members == (0, 1)

    def test_path_interior(self, p5):
        info = classify(p5, vs(5, [1, 2, 3]))
        assert info.leaves.members == (1, 3)
        assert info.redundant.members == (2,)

    def test_barely_is_dominated_minus_totally(self, p5):
        info = classify(p5, vs(5, [1, 3]))
        assert info.barely_dominated.mask == info.dominated.mask & ~info.totally_dominated.mask


class TestPrivateNeighbors:
    def test_path(self, p5):
        assert private_closed_neighbors(p5, vs(5, [1, 3]), 1).members == (0, 1)

    def test_complete_pair_has_none(self, k3):
        assert private_closed_neighbors(k3, vs(3, [0, 1]), 0).members == ()

    def test_singleton_is_its_own_private(self, p5):
        # a barely dominated member is a private closed neighbor of itself
        assert 2 in private_closed_neighbors(p5, vs(5, [2]), 2)

    def test_nonmember_rejected(self, p5):
        with pytest.raises(ValueError):
            private_closed_neighbors(p5, vs(5, [1, 3]), 2)


class TestPrivateCoverMask:
    def test_matches_per_vertex_definition_exhaustively(self):
        # Redundancy, leaves, leaf supports, minimality and irreducibility all
        # read private closed neighbors off one "dominated exactly once"
        # mask; here they are spelled out vertex by vertex: v is a private
        # closed neighbor of u when v is in N[u] and N[v] meets the set
        # exactly in {u}.
        for n in range(1, 7):
            for g in nonisomorphic_graphs(n):
                closed = [{w for w in range(n) if w == v or g.adjacent(v, w)} for v in range(n)]
                for mask in range(1 << n):
                    d = VertexSet.from_mask(n, mask)
                    members = set(d)
                    private = {
                        u: {v for v in closed[u] if closed[v] & members == {u}}
                        for u in members
                    }
                    leaves = {u for u in members if len(closed[u] & members) == 2}
                    redundant = {u for u in members if not private[u]}
                    dominating = all(closed[v] & members for v in range(n))
                    irreducible = dominating and all(
                        private[u] or (closed[u] - {u}) & leaves for u in members
                    )
                    supports = [
                        sum(1 << w for w in (closed[u] - {u}) & leaves) for u in sorted(redundant)
                    ]
                    info = classify(g, d)
                    assert set(info.redundant) == redundant
                    assert set(info.leaves) == leaves
                    assert _leaf_supports(g, mask) == supports
                    assert is_minimal_dominating(g, d) == (dominating and not redundant)
                    assert is_irreducible_dominating(g, d) == irreducible
                    for u in members:
                        assert set(private_closed_neighbors(g, d, u)) == private[u]


class TestIrreducible:
    def test_complete_graph_cases(self, k3):
        assert not is_irreducible_dominating(k3, vs(3, [0, 1, 2]))
        assert is_irreducible_dominating(k3, vs(3, [0, 1]))

    def test_low_degree_dominating_is_irreducible(self, p5):
        assert is_irreducible_dominating(p5, vs(5, [0, 2, 4]))

    @given(graph_with_subset(max_n=7))
    @settings(max_examples=200)
    def test_minimal_sets_are_irreducible(self, gs):
        g, d = gs
        if is_minimal_dominating(g, d) or is_minimal_total_dominating(g, d):
            assert is_irreducible_dominating(g, d)

    def test_minimal_sets_are_irreducible_exhaustively(self):
        for n in range(1, 8):
            for g in nonisomorphic_graphs(n):
                for mask in range(1 << n):
                    d = VertexSet.from_mask(n, mask)
                    if is_minimal_dominating(g, d) or is_minimal_total_dominating(g, d):
                        assert is_irreducible_dominating(g, d)

    @given(graph_with_subset(max_n=7))
    @settings(max_examples=200)
    def test_low_induced_degree_dominating_is_irreducible(self, gs):
        g, d = gs
        if is_dominating(g, d) and all(
            (g.adj_mask(u) & d.mask).bit_count() <= 1 for u in d
        ):
            assert is_irreducible_dominating(g, d)


class TestParameters:
    def test_path_values(self, p5):
        assert gamma(p5) == 2
        assert gamma_t(p5) == 3
        assert upper_gamma(p5) == 3
        assert alpha(p5) == 3

    def test_complete(self):
        for n in (1, 2, 5):
            assert gamma(complete_graph(n)) == 1

    def test_gamma_t_undefined_with_isolated_vertex(self):
        with pytest.raises(ValueError, match="undefined"):
            gamma_t(Graph(3, [(0, 1)]))
        with pytest.raises(ValueError, match="undefined"):
            minimum_total_dominating_set(edgeless_graph(2))

    def test_witnesses_are_what_they_claim(self, p5):
        d = minimum_dominating_set(p5)
        assert is_dominating(p5, d) and len(d) == 2
        t = minimum_total_dominating_set(p5)
        assert is_total_dominating(p5, t) and len(t) == 3
        s = maximum_independent_set(p5)
        assert len(s) == 3
        assert all(not p5.adj_mask(u) & s.mask for u in s)

    def test_total_at_most_twice_domination_spot_check(self):
        rng = Random(3)
        for _ in range(60):
            g = random_isolate_free_graph(rng.randint(2, 8), rng)
            assert gamma_t(g) <= 2 * gamma(g)

    def test_matches_brute_force(self):
        rng = Random(4)
        for _ in range(40):
            g = random_graph(rng.randint(1, 7), rng)
            assert gamma(g) == bruteforce.gamma(g)
            assert alpha(g) == bruteforce.alpha(g)
            assert upper_gamma(g) == bruteforce.upper_gamma(g)
            if all(g.adj_mask(v) for v in range(g.n)):
                assert gamma_t(g) == bruteforce.gamma_t(g)

    def test_minimum_cover_searches_up_to_its_reach(self):
        rng = Random(5)
        for _ in range(40):
            g = random_isolate_free_graph(rng.randint(2, 8), rng)
            for closed, value in ((True, gamma(g)), (False, gamma_t(g))):
                assert _minimum_cover(g, closed, value - 1) is None
                found = _minimum_cover(g, closed, value)
                assert found is not None and found.bit_count() == value
                assert _minimum_cover(g, closed, g.n) == found
                check = is_dominating if closed else is_total_dominating
                assert check(g, VertexSet.from_mask(g.n, found))
        with pytest.raises(ValueError, match="zero-vertex"):
            _minimum_cover(Graph(0), True, 3)

    def test_searches_deeper_than_the_recursion_limit(self):
        assert gamma(Graph(1100)) == 1100
        assert alpha(Graph(1101, [(0, i) for i in range(1, 1101)])) == 1100

    @given(graphs(max_n=7))
    @settings(max_examples=100, deadline=None)
    def test_parameter_order(self, g):
        assert gamma(g) <= upper_gamma(g)
        assert gamma(g) <= alpha(g)


class TestEnumerators:
    def test_c4(self, c4):
        sets = enumerate_minimal_dominating_sets(c4)
        assert len(sets) == 6 and all(len(s) == 2 for s in sets)

    def test_p5(self, p5):
        sets = enumerate_minimal_dominating_sets(p5)
        assert [s.members for s in sets] == [(0, 3), (1, 3), (1, 4), (0, 2, 4)]
        assert {len(s) for s in sets} == {2, 3}

    def test_k3(self, k3):
        assert [s.members for s in enumerate_minimal_dominating_sets(k3)] == [
            (0,),
            (1,),
            (2,),
        ]

    @given(graphs(max_n=7))
    @settings(max_examples=100, deadline=None)
    def test_mds_matches_brute_force(self, g):
        assert enumerate_minimal_dominating_sets(g) == bruteforce.minimal_dominating_sets(g)

    def test_mds_matches_brute_force_exhaustively(self):
        for n in range(1, 8):
            for g in nonisomorphic_graphs(n):
                assert enumerate_minimal_dominating_sets(g) == bruteforce.minimal_dominating_sets(g)

    def test_irreducible_complete_graph(self, k3):
        got = [s.members for s in enumerate_irreducible_dominating_sets(k3)]
        assert got == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]

    @given(graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_irreducible_matches_brute_force_random(self, g):
        assert enumerate_irreducible_dominating_sets(
            g
        ) == bruteforce.irreducible_dominating_sets(g)

    def test_irreducible_matches_brute_force_on_larger_graphs(self):
        # members supported only by a leaf neighbor: the center of a star, and
        # pendant paths next to isolated vertices (0, 1 and 11)
        star = Graph(9, [(0, v) for v in range(1, 9)])
        pendants = Graph(
            12, [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8), (8, 9), (6, 10)]
        )
        rng = Random(14)
        cases = [star, pendants] + [
            random_graph(rng.randint(8, 14), rng, p / 10)
            for _ in range(6)
            for p in range(1, 8)
        ]
        for g in cases:
            assert enumerate_irreducible_dominating_sets(
                g
            ) == bruteforce.irreducible_dominating_sets(g)

    def test_irreducible_searches_deeper_than_the_recursion_limit(self):
        got = enumerate_irreducible_dominating_sets(edgeless_graph(1100), cap=1100)
        assert got == [VertexSet.from_mask(1100, (1 << 1100) - 1)]

    def test_leaf_frames_carry_redundancy_leaves_and_total_domination(self):
        # the product enumerator reads all three off the search's leaf frames
        rng = Random(23)
        cases = [path_graph(n) for n in range(1, 11)] + [cycle_graph(n) for n in range(3, 13)]
        cases += [random_graph(rng.randint(2, 13), rng, rng.choice((0.15, 0.3, 0.5)))
                  for _ in range(40)]
        for g in cases:
            n = g.n
            low = g.full_mask
            frames = list(_irreducible_frames(g))
            masks = [frame[1] for frame in frames]
            want = enumerate_irreducible_dominating_sets(g)
            assert sorted(masks) == sorted(s.mask for s in want)
            for i, dmask, _, tot, support in frames:
                members = [u for u in range(n) if dmask >> u & 1]
                assert i == n and len(support) == len(members)
                redundant = [u for u, s in zip(members, support) if not s & low]
                assert sum(1 << u for u in redundant) == _redundant_mask(g, dmask)
                assert [s >> n for s in support if not s & low] == _leaf_supports(g, dmask)
                totally = sum(1 << u for u in members if g.adj_mask(u) & dmask)
                assert dmask & tot == totally

    def test_every_minimal_set_is_enumerated_as_irreducible(self):
        rng = Random(5)
        for _ in range(20):
            g = random_graph(rng.randint(1, 7), rng)
            irr = set(enumerate_irreducible_dominating_sets(g))
            assert set(enumerate_minimal_dominating_sets(g)) <= irr
            assert set(bruteforce.minimal_total_dominating_sets(g)) <= irr


class TestCap:
    def test_cap_triggers(self, p5):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_minimal_dominating_sets(p5, cap=3)
        with pytest.raises(EnumerationCapExceeded):
            enumerate_irreducible_dominating_sets(edgeless_graph(25))

    def test_cap_override(self, p5):
        assert enumerate_minimal_dominating_sets(p5, cap=5)
