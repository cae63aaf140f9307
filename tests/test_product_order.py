"""A golden digest of product enumeration: every set, in canonical order.

The other product tests compare the enumerator with flattened enumeration
on small products; this one pins the exact output, ``(base_n, fiber_n,
pairs)`` of every set in order, on factor pairs that reach each branch of
the construction: fibers with and without a universal vertex, edgeless
bases, bases whose irreducible sets have redundant members with leaf
neighbours, a trivial factor on either side, and flattened universes past
64 vertices.  Any change to how product sets are built, stored or sorted
must leave this digest unchanged.
"""

import hashlib
from random import Random

from domkit.families import complete_graph, cycle_graph, edgeless_graph, path_graph, random_graph
from domkit.graphs import Graph
from domkit.lexicographic import enumerate_minimal_dominating_sets_product


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


FACTOR_PAIRS = [
    # universal fiber vertex, redundant base members with leaf neighbours
    (path_graph(5), path_graph(3)),
    (spider_graph(2, 2, 1), complete_graph(3)),
    (spider_graph(2, 2, 2), path_graph(3)),
    (star_graph(3), star_graph(3)),
    (path_graph(6), star_graph(3)),
    (path_graph(14), complete_graph(2)),
    (cycle_graph(9), path_graph(3)),
    # no universal fiber vertex
    (cycle_graph(5), cycle_graph(4)),
    (random_graph(8, Random(8030), 0.3), path_graph(4)),
    (complete_graph(2), cycle_graph(17)),
    # edgeless bases
    (edgeless_graph(2), path_graph(4)),
    (edgeless_graph(3), complete_graph(2)),
    # trivial factors
    (path_graph(7), complete_graph(1)),
    (complete_graph(1), cycle_graph(5)),
    # flattened universes past 64 vertices (mirrored keys past 128 bits)
    (path_graph(5), star_graph(13)),
    (cycle_graph(4), edgeless_graph(17)),
    (edgeless_graph(3), star_graph(21)),
]

# sha256 of the repr of (base_n, fiber_n, pairs) of every set, in order,
# over FACTOR_PAIRS in order; recorded before product sets were stored as
# flat masks
GOLDEN_COUNT = 55_460
GOLDEN_DIGEST = "7a5f52bb3ee5bea09f89e7385fc30f34da3168efa5e4c72dbd12e958ac1351c9"


def test_product_enumeration_order_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for base, fiber in FACTOR_PAIRS:
        for d in enumerate_minimal_dominating_sets_product(base, fiber):
            digest.update(repr((d.base_n, d.fiber_n, d.pairs)).encode())
            count += 1
    assert (count, digest.hexdigest()) == (GOLDEN_COUNT, GOLDEN_DIGEST)
