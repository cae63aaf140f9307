"""A golden digest of the subcommands that run the transversal search.

``enumerate-mds`` lists the minimal dominating sets, ``stats`` reads γ and Γ
off the bounded size search, and ``well-dominated`` decides by enumeration
or by the fixed-size transversal test; all of them run MMCS on the closed
neighbourhood hypergraph.  This pins the exact stdout and exit code of each,
in text and ``--json``, on every catalogue graph on 1 to 7 vertices, on
seeded G(n, p) for n = 8 to 18, and on C18 and C20.  Any rewrite of the
transversal searches must leave this digest unchanged.

A second digest pins ``well-dominated --lex``, text and ``--json``, on factor
pairs that reach every recognizer a factor can be decided by: small
connected bases with small fibers, co-cycles and seeded γ = 2 negatives with
triangles on either side, cycles and paths past the bounded reach, and
disconnected bases.
"""

import hashlib
import itertools
import time
from random import Random

from domkit.cli import main
from domkit.families import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    nonisomorphic_graphs,
    path_graph,
    random_graph,
)
from domkit.graphs import complement, write_graph

COMMANDS = ("enumerate-mds", "stats", "well-dominated")


def _graphs():
    for n in range(1, 8):
        yield from nonisomorphic_graphs(n)
    rng = Random(8018)
    for n in range(8, 19):
        for p in (0.2, 0.4, 0.6):
            yield random_graph(n, rng, p)
    yield cycle_graph(18)
    yield cycle_graph(20)


# sha256 of the repr of (stdout, exit code) of each call, over the graphs in
# the order above, each command in COMMANDS order, text then --json;
# recorded before the searches packed their critical edges into one int
GOLDEN_COUNT = 7_722
GOLDEN_DIGEST = "3094ba6163be84a11b68ccb68d3274ee9202852c21c4094986f99dc520dddff8"


def test_enumeration_output_is_pinned(tmp_path, capsys):
    graphs = list(_graphs())  # a first run builds the catalogue: not timed
    start = time.perf_counter()
    digest = hashlib.sha256()
    count = 0
    for i, g in enumerate(graphs):
        path = tmp_path / f"g{i}.el"
        path.write_text(write_graph(g))
        for command in COMMANDS:
            for extra in ([], ["--json"]):
                code = main([command, str(path), *extra])
                digest.update(repr((capsys.readouterr().out, code)).encode())
                count += 1
    assert (count, digest.hexdigest()) == (GOLDEN_COUNT, GOLDEN_DIGEST)
    assert time.perf_counter() - start < 10


def _lex_pairs():
    """Factor pairs that reach every branch of ``well-dominated --lex``."""
    bases = [g for n in range(2, 6) for g in nonisomorphic_graphs(n, connected=True)]
    fibers = [h for n in range(2, 5) for h in nonisomorphic_graphs(n)]
    yield from itertools.product(bases, fibers)
    # γ = 2 with triangles: co-C6 is not well-dominated, co-C7 to co-C9 are
    for n in range(6, 10):
        for k in (2, 3):
            yield complement(cycle_graph(n)), complete_graph(k)
            yield complete_graph(k), complement(cycle_graph(n))
    yield path_graph(3), complement(cycle_graph(8))
    # γ = 2 negatives with triangles, on either side: a violating triangle
    # pair (12007, 12010), an independent triple (12006, 12011), or both
    for seed in (12005, 12006, 12007, 12009, 12010, 12011, 12023, 12024, 12032, 12036, 12037):
        g = random_graph(12, Random(seed), 0.75)
        yield g, complete_graph(2)
        yield complete_graph(2), g
    # domination number past the reach: recognize enumerates
    for g in (path_graph(10), cycle_graph(10), cycle_graph(12)):
        yield g, complete_graph(2)
        yield complete_graph(2), g
    # disconnected bases: single-vertex, complete and other components
    k1, k2, p3 = complete_graph(1), complete_graph(2), path_graph(3)
    for base in (disjoint_union(k1, k2), disjoint_union(k2, k2),
                 disjoint_union(p3, complete_graph(3)), disjoint_union(cycle_graph(4), path_graph(4)),
                 disjoint_union(complement(cycle_graph(6)), k1),
                 disjoint_union(complement(cycle_graph(7)), k2)):
        for fiber in (k2, complete_graph(3), p3, cycle_graph(4), cycle_graph(5),
                      complement(cycle_graph(6)), complement(cycle_graph(7))):
            yield base, fiber


# the same over the pairs of _lex_pairs, for ``well-dominated --lex``, text
# then --json; recorded while every factor was decided by ``recognize``
LEX_GOLDEN_COUNT = 1_194
LEX_GOLDEN_DIGEST = "be8c4ca6733104090e990e4faa6db9362d759f160f7a253735c61128a5d1077b"


def test_lex_recognition_output_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    count = 0
    for i, (base, fiber) in enumerate(_lex_pairs()):
        paths = []
        for side, g in (("b", base), ("f", fiber)):
            path = tmp_path / f"{side}{i}.el"
            path.write_text(write_graph(g))
            paths.append(str(path))
        for extra in ([], ["--json"]):
            code = main(["well-dominated", "--lex", *paths, *extra])
            digest.update(repr((capsys.readouterr().out, code)).encode())
            count += 1
    assert (count, digest.hexdigest()) == (LEX_GOLDEN_COUNT, LEX_GOLDEN_DIGEST)
