"""Graph catalog: canonical forms, known counts, caching, determinism."""

import itertools
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from domkit.families import (
    canonical_edge_mask,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    graph_from_edge_mask,
    nonisomorphic_graphs,
    path_graph,
    random_graph,
    random_isolate_free_graph,
    random_sperner_hypergraph,
    two_cliques_with_matching,
)
from domkit.graphs import Graph, connected_components, is_complete, is_edgeless

from conftest import graphs


# graph counts by isomorphism class are classical reference values
KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
KNOWN_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


class TestConstructors:
    def test_shapes(self):
        assert len(path_graph(5).edges) == 4
        assert len(cycle_graph(6).edges) == 6
        assert is_complete(complete_graph(4))
        assert is_edgeless(edgeless_graph(3))

    def test_two_cliques_with_matching(self):
        g = two_cliques_with_matching(4)
        assert g.n == 8
        assert len(g.edges) == 2 * 6 + 4
        assert g.adjacent(0, 4) and not g.adjacent(0, 5)

    def test_disjoint_union(self):
        g = disjoint_union(complete_graph(2), path_graph(3))
        assert g.n == 5
        assert [c.members for c in connected_components(g)] == [(0, 1), (2, 3, 4)]


class TestRandomGraphs:
    def test_deterministic_for_fixed_seed(self):
        assert random_graph(7, Random(42)) == random_graph(7, Random(42))

    def test_isolate_free(self):
        rng = Random(7)
        for _ in range(20):
            g = random_isolate_free_graph(rng.randint(2, 7), rng)
            assert all(g.adj_mask(v) for v in range(g.n))

    def test_sperner_sampling(self):
        rng = Random(8)
        for _ in range(20):
            h = random_sperner_hypergraph(rng.randint(1, 6), rng)
            assert h.is_sperner() and h.hyperedges


class TestCanonicalForm:
    def test_relabelling_invariance_fixed(self):
        g = path_graph(4)
        relabelled = Graph(4, [(3, 2), (2, 0), (0, 1)])  # same path, shuffled labels
        assert canonical_edge_mask(g) == canonical_edge_mask(relabelled)

    @given(graphs(max_n=6), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_relabelling_invariance_random(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_edge_mask(g) == canonical_edge_mask(relabelled)

    def test_distinguishes_nonisomorphic(self):
        assert canonical_edge_mask(path_graph(4)) != canonical_edge_mask(cycle_graph(4))


class TestCatalog:
    def test_known_counts(self):
        for n, want in KNOWN_COUNTS.items():
            assert len(nonisomorphic_graphs(n)) == want

    def test_known_connected_counts(self):
        for n, want in KNOWN_CONNECTED.items():
            assert len(nonisomorphic_graphs(n, connected=True)) == want

    def test_catalog_matches_exhaustive_dedup_for_tiny_n(self):
        # independent oracle: dedup every labelled graph by permutation orbit
        for n in (1, 2, 3, 4):
            classes = set()
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_edge_mask(n, mask)
                rep = min(
                    tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
                    for perm in itertools.permutations(range(n))
                )
                classes.add(rep)
            assert len(nonisomorphic_graphs(n)) == len(classes)

    def test_pairwise_nonisomorphic(self):
        for n in (4, 5):
            masks = {canonical_edge_mask(g) for g in nonisomorphic_graphs(n)}
            assert len(masks) == len(nonisomorphic_graphs(n))

    def test_disk_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DOMKIT_CACHE_DIR", str(tmp_path))
        import domkit.families as fam

        monkeypatch.setattr(fam, "_memo", {})
        first = fam.nonisomorphic_graphs(4)
        assert (tmp_path / "graphs_n4.txt").is_file()
        monkeypatch.setattr(fam, "_memo", {})
        second = fam.nonisomorphic_graphs(4)
        assert first == second

    def test_truncated_cache_level_is_regenerated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DOMKIT_CACHE_DIR", str(tmp_path))
        import domkit.families as fam

        monkeypatch.setattr(fam, "_memo", {})
        want = fam.nonisomorphic_graphs(6)
        level = tmp_path / "graphs_n6.txt"
        good = level.read_text().split()
        # truncated; one mask repeated in place of its successor; the last
        # mask past the 15 vertex pairs of six vertices (the last two keep
        # the known count)
        damaged = [good[:11], good[:5] + good[4:5] + good[6:], good[:-1] + [f"{1 << 15:x}"]]
        for masks in damaged:
            level.write_text("\n".join(masks) + "\n")
            monkeypatch.setattr(fam, "_memo", {})
            assert fam.nonisomorphic_graphs(6) == want
            assert level.read_text().split() == good
        assert [f.name for f in tmp_path.iterdir() if f.suffix == ".tmp"] == []
