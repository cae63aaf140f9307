"""Exact ``well-dominated --json`` output, one input per witness branch.

The other recognition tests only check that witnesses are valid; these pin
which witnesses are chosen, so a refactor of the recognizers or of the
helpers they share cannot silently change the reported sets.  The lex cases
all use a disconnected base, so the per-component padding is pinned too.
"""

import json

import pytest

from domkit.cli import main
from domkit.families import complete_graph, cycle_graph, disjoint_union, path_graph
from domkit.graphs import Graph, complement, write_graph


def _union(*parts: Graph) -> Graph:
    g = parts[0]
    for p in parts[1:]:
        g = disjoint_union(g, p)
    return g


def _failing(*vertices):
    return {"condition": None, "satisfied": False, "vertices": list(vertices)}


def _satisfied(condition, *vertices):
    return {"condition": condition, "satisfied": True, "vertices": list(vertices)}


COPY = "fiber copy"
COMPLETE_BASE = "complete base component with well-dominated fiber of domination number two"

CASES = {
    # gamma2: a violating triangle pair, large witness by the removal pass
    "gamma2-violation": (
        (complement(cycle_graph(6)),),
        {"gamma": 2, "method": "gamma2",
         "notes": {"complement_no_isolated": True, "complement_triangle_free": True,
                   "triangle_pair_condition": False,
                   "violating_triangles": [[0, 2, 4], [1, 3, 5]]},
         "witness_small": [0, 1], "witness_large": [0, 2, 4]},
    ),
    # gamma2: a complement triangle extended to a maximal independent set
    "gamma2-complement-triangle": (
        (path_graph(5),),
        {"gamma": 2, "method": "gamma2",
         "notes": {"complement_no_isolated": True, "complement_triangle_free": False,
                   "triangle_pair_condition": True},
         "witness_small": [0, 3], "witness_large": [0, 2, 4]},
    ),
    # bounded_k: the avoiding search's deviant, minimalized
    "bounded-k-deviant": (
        (path_graph(7),),
        {"gamma": 3, "method": "bounded_k", "notes": {"deviant_size": 4},
         "witness_small": [0, 2, 5], "witness_large": [0, 2, 4, 6]},
    ),
    "bounded-k-star": (
        (Graph(5, [(0, i) for i in range(1, 5)]),),
        {"gamma": 1, "method": "bounded_k", "notes": {"deviant_size": 4},
         "witness_small": [0], "witness_large": [1, 2, 3, 4]},
    ),
    # lex: the fiber is not well-dominated
    "lex-failing-fiber": (
        (_union(complete_graph(2), Graph(1), path_graph(2)), path_graph(5)),
        {"gamma": 6, "method": "lex_formula",
         "notes": {"components": [_failing(0, 1), _failing(2), _failing(3, 4)],
                   "fiber_complete": False, "fiber_gamma": 2, "fiber_well_dominated": False,
                   "witness_small_pairs": [[0, 0], [0, 3], [2, 0], [2, 3], [3, 0], [4, 0]],
                   "witness_large_pairs": [[0, 0], [0, 2], [0, 4], [2, 0], [2, 3], [3, 0],
                                           [4, 0]]},
         "witness_small": [0, 3, 10, 13, 15, 20],
         "witness_large": [0, 2, 4, 10, 13, 15, 20]},
    ),
    # lex: complete fiber, the base component supplies the witnesses
    "lex-fiber-gamma1": (
        (_union(path_graph(5), Graph(1), path_graph(3)), complete_graph(2)),
        {"gamma": 4, "method": "lex_formula",
         "notes": {"components": [_failing(0, 1, 2, 3, 4), _satisfied(COPY, 5),
                                  _failing(6, 7, 8)],
                   "fiber_complete": True, "fiber_gamma": 1, "fiber_well_dominated": True,
                   "witness_small_pairs": [[0, 0], [3, 0], [5, 0], [7, 0]],
                   "witness_large_pairs": [[0, 0], [2, 0], [4, 0], [5, 0], [7, 0]]},
         "witness_small": [0, 6, 10, 14], "witness_large": [0, 4, 8, 10, 14]},
    ),
    # lex: fiber domination number two, the preserving reduction
    "lex-fiber-gamma2": (
        (_union(path_graph(4), Graph(1), complete_graph(2)), cycle_graph(4)),
        {"gamma": 6, "method": "lex_formula",
         "notes": {"components": [_failing(0, 1, 2, 3), _satisfied(COPY, 4),
                                  _satisfied(COMPLETE_BASE, 5, 6)],
                   "fiber_complete": False, "fiber_gamma": 2, "fiber_well_dominated": True,
                   "witness_small_pairs": [[1, 0], [2, 0], [4, 0], [4, 1], [5, 0], [6, 0]],
                   "witness_large_pairs": [[0, 0], [0, 1], [2, 0], [2, 1], [4, 0], [4, 1],
                                           [5, 0], [6, 0]]},
         "witness_small": [4, 8, 16, 17, 20, 24],
         "witness_large": [0, 1, 8, 9, 16, 17, 20, 24]},
    ),
    # lex: fiber domination number at least three
    "lex-fiber-gamma3": (
        (_union(complete_graph(3), Graph(1), path_graph(3)), cycle_graph(7)),
        {"gamma": 7, "method": "lex_formula",
         "notes": {"components": [_failing(0, 1, 2), _satisfied(COPY, 3), _failing(4, 5, 6)],
                   "fiber_complete": False, "fiber_gamma": 3, "fiber_well_dominated": True,
                   "witness_small_pairs": [[0, 0], [1, 0], [3, 0], [3, 1], [3, 4], [4, 0],
                                           [5, 0]],
                   "witness_large_pairs": [[0, 0], [0, 1], [0, 4], [3, 0], [3, 1], [3, 4],
                                           [4, 0], [5, 0]]},
         "witness_small": [0, 7, 21, 22, 25, 28, 35],
         "witness_large": [0, 1, 4, 21, 22, 25, 28, 35]},
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_well_dominated_json_is_pinned(name, tmp_path, capsys):
    graphs, expected = CASES[name]
    paths = []
    for i, g in enumerate(graphs):
        path = tmp_path / f"g{i}.el"
        path.write_text(write_graph(g))
        paths.append(str(path))
    argv = ["well-dominated", *paths] if len(paths) == 1 else ["well-dominated", "--lex", *paths]
    assert main(argv + ["--json"]) == 1
    report = {"common_size": None, "verdict": False, **expected}
    assert capsys.readouterr().out == json.dumps(report, sort_keys=True) + "\n"
