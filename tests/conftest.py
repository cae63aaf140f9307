import pytest
from hypothesis import strategies as st

from domkit.families import (
    complete_graph,
    cycle_graph,
    path_graph,
)
from domkit.graphs import Graph, VertexSet, complement


@pytest.fixture(scope="session", autouse=True)
def _catalog_cache_dir(tmp_path_factory):
    """Keep the graph catalog cache of a test run out of the user's home."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("DOMKIT_CACHE_DIR", str(tmp_path_factory.mktemp("domkit-cache")))
        yield


@pytest.fixture(scope="session")
def p5():
    return path_graph(5)


@pytest.fixture(scope="session")
def c4():
    return cycle_graph(4)


@pytest.fixture(scope="session")
def k3():
    return complete_graph(3)


@pytest.fixture(scope="session")
def prism():
    return complement(cycle_graph(6))


def graph_from_pair_mask(n: int, mask: int) -> Graph:
    edges = []
    idx = 0
    for v in range(n):
        for u in range(v):
            if mask >> idx & 1:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_pair_mask(n, mask)


@st.composite
def graph_with_subset(draw, min_n=1, max_n=7):
    g = draw(graphs(min_n, max_n))
    mask = draw(st.integers(0, (1 << g.n) - 1))
    return g, VertexSet.from_mask(g.n, mask)
