"""Graph families: named constructions, random sampling, and the exhaustive
catalog of non-isomorphic graphs at desk scale.

The catalog is grown one vertex at a time: each representative on n-1
vertices is extended by a new vertex attached to every possible neighborhood,
and the results are deduplicated by a canonical edge-mask.  Levels are cached
on disk (override the location with DOMKIT_CACHE_DIR) so the property suites
stay reproducible and cheap on repeated runs; a cached level is written
atomically and regenerated when its size is not the known graph count or
its masks are not strictly ascending edge masks.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from random import Random

from .graphs import Graph, VertexSet, iter_bits
from .hypergraphs import Hypergraph, sperner_reduce


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def edgeless_graph(n: int) -> Graph:
    return Graph(n, [])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph(a.n + b.n, edges)


def two_cliques_with_matching(k: int) -> Graph:
    """Two k-cliques {0..k-1} and {k..2k-1} joined by the matching i -- k+i."""
    if k < 1:
        raise ValueError("clique size must be positive")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, k + i) for i in range(k)]
    return Graph(2 * k, edges)


def random_graph(n: int, rng: Random, edge_probability: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_probability
    ]
    return Graph(n, edges)


# Draws ``random_isolate_free_graph`` makes before it gives up.  At the
# default probability one half a draw on n >= 2 vertices is accepted with
# probability at least one half, so a call fails there with probability
# below 2^-1000.
_ISOLATE_FREE_DRAWS = 1000


def random_isolate_free_graph(n: int, rng: Random, edge_probability: float = 0.5) -> Graph:
    """The first draw of ``random_graph`` without isolated vertices.

    Raises ``ValueError`` when ``edge_probability`` is not positive, and when
    none of ``_ISOLATE_FREE_DRAWS`` draws is accepted, as happens when the
    probability is too small for ``n``.
    """
    if n < 2:
        raise ValueError("need at least two vertices to avoid isolated vertices")
    if not edge_probability > 0:  # no edge is ever drawn, so no graph would be accepted
        raise ValueError("edge_probability must be positive to avoid isolated vertices")
    for _ in range(_ISOLATE_FREE_DRAWS):
        g = random_graph(n, rng, edge_probability)
        if all(g.adj_mask(v) for v in range(n)):
            return g
    raise ValueError(
        f"no graph without isolated vertices in {_ISOLATE_FREE_DRAWS} draws of "
        f"G({n}, {edge_probability}); edge_probability is too small"
    )


def random_sperner_hypergraph(n: int, rng: Random, max_edges: int | None = None) -> Hypergraph:
    """Random Sperner hypergraph with at least one non-empty hyperedge."""
    if n < 1:
        raise ValueError("universe must be non-empty")
    limit = max_edges if max_edges is not None else n + 2
    while True:
        edges = []
        for _ in range(rng.randint(1, limit)):
            mask = rng.randrange(1, 1 << n)
            edges.append(VertexSet.from_mask(n, mask))
        h = sperner_reduce(Hypergraph(n, edges))
        if h.hyperedges:
            return h


# --- canonical forms and the exhaustive catalog ---------------------------

def _pair_index(u: int, v: int) -> int:
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    edges = [
        (u, v)
        for v in range(n)
        for u in range(v)
        if mask >> _pair_index(u, v) & 1
    ]
    return Graph(n, edges)


def canonical_edge_mask(graph: Graph) -> int:
    """Relabelling-invariant edge mask: the minimum over all vertex orders.

    Vertices are placed one label at a time; placing label i contributes i
    bits recording adjacency to labels 0..i-1, with earlier labels more
    significant.  At each level only the placements achieving the smallest
    bit string survive, so the frontier tracks exactly the prefix-optimal
    partial orders and any completed one realizes the minimum.
    """
    n = graph.n
    if n <= 1:
        return 0
    adj = [graph.adj_mask(v) for v in range(n)]
    frontier: list[tuple[int, ...]] = [()]
    acc = 0
    for depth in range(n):
        best_row = None
        best_exts: list[tuple[int, ...]] = []
        for perm in frontier:
            used = 0
            for p in perm:
                used |= 1 << p
            for v in range(n):
                if used >> v & 1:
                    continue
                row = 0
                for j, p in enumerate(perm):
                    if adj[v] >> p & 1:
                        row |= 1 << (depth - 1 - j)
                if best_row is None or row < best_row:
                    best_row = row
                    best_exts = [perm + (v,)]
                elif row == best_row:
                    best_exts.append(perm + (v,))
        acc = (acc << depth) | best_row
        frontier = best_exts
    return acc


def _mask_from_canonical_acc(n: int, acc: int) -> int:
    """Decode the canonical bit string back into a pair-indexed edge mask."""
    total = n * (n - 1) // 2
    mask = 0
    for i in range(1, n):
        used = i * (i + 1) // 2
        row = (acc >> (total - used)) & ((1 << i) - 1)
        for j in range(i):
            if row >> (i - 1 - j) & 1:
                mask |= 1 << _pair_index(j, i)
    return mask


def _cache_dir() -> Path:
    override = os.environ.get("DOMKIT_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "domkit"


_memo: dict[int, list[int]] = {}

# OEIS A000088: the number of graphs on n unlabelled vertices.  A cached level
# of any other size is damaged and gets regenerated.
_LEVEL_SIZES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def _read_level(cache_file: Path, n: int) -> list[int] | None:
    """The cached level for n vertices, or None when missing or damaged.

    A level is written in strictly ascending order of edge masks on the
    n(n-1)/2 vertex pairs; one that is not, or that has a mask outside that
    range, would change which graphs the suites check, so it counts as
    damaged too.
    """
    try:
        masks = [int(tok, 16) for tok in cache_file.read_text().split()]
    except (OSError, ValueError):
        return None
    if not masks or len(masks) != _LEVEL_SIZES.get(n, len(masks)):
        return None
    if any(a >= b for a, b in zip(masks, masks[1:])):
        return None
    if masks[0] < 0 or masks[-1] >> n * (n - 1) // 2:
        return None
    return masks


def _write_level(cache_file: Path, masks: list[int]) -> None:
    """Write a level through a temporary file, so readers never see a partial one."""
    tmp = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")
    try:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text("\n".join(f"{m:x}" for m in masks) + "\n")
        os.replace(tmp, cache_file)
    except OSError:
        # the cache only saves time; the level is still returned
        with contextlib.suppress(OSError):
            tmp.unlink()


def _catalog_masks(n: int) -> list[int]:
    if n in _memo:
        return _memo[n]
    cache_file = _cache_dir() / f"graphs_n{n}.txt"
    masks = _read_level(cache_file, n)
    if masks is not None:
        _memo[n] = masks
        return masks
    if n == 1:
        masks = [0]
    else:
        seen: dict[int, int] = {}
        for base_mask in _catalog_masks(n - 1):
            for nbhd in range(1 << (n - 1)):
                mask = base_mask
                for u in iter_bits(nbhd):
                    mask |= 1 << _pair_index(u, n - 1)
                g = graph_from_edge_mask(n, mask)
                acc = canonical_edge_mask(g)
                if acc not in seen:
                    seen[acc] = _mask_from_canonical_acc(n, acc)
        masks = sorted(seen.values())
    _memo[n] = masks
    _write_level(cache_file, masks)
    return masks


def nonisomorphic_graphs(n: int, connected: bool = False) -> list[Graph]:
    """One representative per isomorphism class of graphs on n vertices."""
    if n < 1:
        raise ValueError("need at least one vertex")
    graphs = [graph_from_edge_mask(n, m) for m in _catalog_masks(n)]
    if connected:
        from .graphs import connected_components

        graphs = [g for g in graphs if len(connected_components(g)) == 1]
    return graphs
