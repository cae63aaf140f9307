"""A golden digest of the subcommands that run the transversal search.

``enumerate-mds`` lists the minimal dominating sets, ``stats`` reads γ and Γ
off the bounded size search, and ``well-dominated`` decides by enumeration
or by the fixed-size transversal test; all of them run MMCS on the closed
neighbourhood hypergraph.  This pins the exact stdout and exit code of each,
in text and ``--json``, on every catalogue graph on 1 to 7 vertices, on
seeded G(n, p) for n = 8 to 18, and on C18 and C20.  Any rewrite of the
transversal searches must leave this digest unchanged.
"""

import hashlib
import time
from random import Random

from domkit.cli import main
from domkit.families import cycle_graph, nonisomorphic_graphs, random_graph
from domkit.graphs import write_graph

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
