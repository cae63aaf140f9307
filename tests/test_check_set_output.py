"""A golden digest of ``check-set``: its output on every subset of small graphs.

``check-set`` prints every domination predicate and the classification of a
set (barely dominated members, leaves, redundant members), so it is the
public face of the set predicates and of ``classify``.  The spot cases in
``test_cli.py`` cover four sets; this pins the exact stdout and exit code,
in text and ``--json``, of every subset of every catalogue graph on 1 to 5
vertices.  Any rewrite of the predicates must leave this digest unchanged.
"""

import hashlib

from domkit.cli import main
from domkit.families import nonisomorphic_graphs
from domkit.graphs import write_graph

# sha256 of the repr of (stdout, exit code) of each call, over the graphs of
# the catalogue by vertex count, each subset by ascending mask, text then
# --json; recorded before the predicates and classify read a set's leaf frame
GOLDEN_COUNT = 2_612
GOLDEN_DIGEST = "57446d2f09c679f7a85c7274123b1c243490457f3ecbab5f8e40f2c6839d86a9"


def test_check_set_output_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 6):
        for i, g in enumerate(nonisomorphic_graphs(n)):
            path = tmp_path / f"g{n}_{i}.el"
            path.write_text(write_graph(g))
            for mask in range(1 << n):
                members = ",".join(str(v) for v in range(n) if mask >> v & 1) or "-"
                for extra in ([], ["--json"]):
                    code = main(["check-set", str(path), members, *extra])
                    digest.update(repr((capsys.readouterr().out, code)).encode())
                    count += 1
    assert (count, digest.hexdigest()) == (GOLDEN_COUNT, GOLDEN_DIGEST)
