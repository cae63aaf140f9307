"""Correctness gate: canonical summaries of query outputs, and what they must be.

Each output is mapped back to the master labels of its instance and reduced
to a small canonical summary: set counts with a digest of the sets (each a
bitmask of master vertices, a product vertex (g, h) being g * |fiber| + h),
parameter values, verdicts.  The summary must equal the one recorded in
``digests.json`` at the commit that defined the benchmark and, where the
2^n subset scan of ``domkit.bruteforce`` is feasible, the brute-force one.
Witnesses of negative verdicts are re-checked with a domination test written
here, independent of the program.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")

# Largest graph (flattened, for products) checked against domkit.bruteforce
# on every run; its 2^n cover table costs ~0.1 s at n = 16.
BRUTEFORCE_MAX_N = 16


class CheckFailed(Exception):
    """An output that is malformed or disagrees with its oracle."""


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:32]


def input_digest(query) -> str:
    return digest((query.graph, query.fiber))


def inverse(perm) -> list[int]:
    inv = [0] * len(perm)
    for v, image in enumerate(perm):
        inv[image] = v
    return inv


def mask(vertices) -> int:
    """A vertex set as a bitmask; raises CheckFailed on a repeated vertex."""
    m = 0
    for v in vertices:
        if m >> v & 1:
            raise CheckFailed(f"vertex {v} repeated in a set")
        m |= 1 << v
    return m


def family_digest(masks) -> dict:
    """Count and order-free digest of a family of vertex sets given as bitmasks.

    The masks are sorted and hashed one by one, so the check holds little
    more than one int per set next to the output it checks.
    """
    masks = sorted(masks)
    h = hashlib.sha256()
    for m in masks:
        h.update(b"%x," % m)
    return {"count": len(masks), "sets": h.hexdigest()[:32]}


def product_graph(base: tuple, fiber: tuple) -> tuple:
    """Flattened lexicographic product, vertex (g, h) encoded as g * |fiber| + h."""
    (nb, base_edges), (nf, fiber_edges) = base, fiber
    edges = [(g1 * nf + h1, g2 * nf + h2)
             for g1, g2 in base_edges for h1 in range(nf) for h2 in range(nf)]
    edges += [(g * nf + h1, g * nf + h2) for g in range(nb) for h1, h2 in fiber_edges]
    return nb * nf, tuple(sorted((min(e), max(e)) for e in edges))


def is_minimal_dominating(graph: tuple, members) -> bool:
    n, edges = graph
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    full = (1 << n) - 1

    def covers(vertices):
        mask = 0
        for v in vertices:
            mask |= closed[v]
        return mask == full

    members = list(members)
    if len(set(members)) != len(members) or not covers(members):
        return False
    return not any(covers(members[:i] + members[i + 1:]) for i in range(len(members)))


def _witnesses(query, small, large, to_master) -> None:
    """Two minimal dominating sets of different sizes prove a negative verdict."""
    if small is None or large is None:
        raise CheckFailed("negative verdict without witnesses")
    graph = product_graph(query.graph, query.fiber) if query.fiber else query.graph
    for w in (small, large):
        if not is_minimal_dominating(graph, [to_master(v) for v in w]):
            raise CheckFailed("witness is not a minimal dominating set")
    if len(small) == len(large):
        raise CheckFailed("witnesses have equal sizes")


def summarize(query, perm, fperm, rc, out) -> tuple[dict, int]:
    """Canonical summary of one output, and the dominating sets it delivers.

    ``perm`` (and ``fperm`` for the fiber of a product) map master vertices
    to the labels the program saw.  Raises CheckFailed on a malformed output
    or an invalid witness.
    """
    inv = inverse(perm)
    kind = query.kind
    if kind in ("product-enum", "gamma-product"):
        finv = inverse(fperm)
        if kind == "gamma-product":
            return {"gamma": out}, 0
        nf = len(finv)
        summary = family_digest(mask(inv[g] * nf + finv[h] for g, h in ps.pairs) for ps in out)
        return summary, summary["count"]

    try:
        data = json.loads(out)
    except ValueError:
        raise CheckFailed(f"exit code {rc}, output is not JSON") from None
    if kind == "stats":
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        return data, 0
    if kind == "enumerate-mds":
        if rc != 0 or data["count"] != len(data["sets"]):
            raise CheckFailed("exit code or count field wrong")
        summary = family_digest(mask(inv[v] for v in s) for s in data["sets"])
        return summary, summary["count"]

    # well-dominated and well-dominated-lex
    summary = {k: data[k] for k in ("verdict", "method", "gamma", "common_size")}
    if rc != (0 if data["verdict"] else 1):
        raise CheckFailed(f"exit code {rc} for verdict {data['verdict']}")
    if data["verdict"]:
        return summary, 0
    if query.fiber:
        finv, nf = inverse(fperm), query.fiber[0]

        def to_master(v):
            g, h = divmod(v, nf)
            return inv[g] * nf + finv[h]
    else:
        to_master = inv.__getitem__
    _witnesses(query, data["witness_small"], data["witness_large"], to_master)
    return summary, 2


def bruteforce_expected(query, max_n: int = BRUTEFORCE_MAX_N) -> dict | None:
    """Summary keys fixed by domkit.bruteforce on the master graph, when feasible."""
    if query.flat_n > max_n:
        return None
    from domkit import Graph, bruteforce

    flat = product_graph(query.graph, query.fiber) if query.fiber else query.graph
    graph = Graph(*flat)
    kind = query.kind
    if kind == "stats":
        try:
            gamma_t = bruteforce.gamma_t(graph)
        except ValueError:
            gamma_t = None
        return {"n": graph.n, "m": len(graph.edges), "gamma": bruteforce.gamma(graph),
                "gamma_t": gamma_t, "Gamma": bruteforce.upper_gamma(graph),
                "alpha": bruteforce.alpha(graph)}
    if kind == "gamma-product":
        return {"gamma": bruteforce.gamma(graph)}
    mds = bruteforce.minimal_dominating_sets(graph)
    if kind in ("enumerate-mds", "product-enum"):
        return family_digest(mask(s.members) for s in mds)
    sizes = {len(s) for s in mds}
    verdict = len(sizes) == 1
    return {"verdict": verdict, "gamma": min(sizes),
            "common_size": min(sizes) if verdict else None}


def load_recorded() -> dict:
    return json.loads(DIGESTS.read_text())


def verify(query, summary: dict, recorded: dict, brute: dict | None) -> None:
    """Raise CheckFailed unless ``summary`` matches every oracle of ``query``."""
    entry = recorded.get(query.key)
    if entry is None:
        raise CheckFailed(f"no recorded output for {query.key}")
    if entry["input"] != input_digest(query):
        raise CheckFailed(f"input of {query.key} differs from the recorded one")
    for source, expected in (("recorded", entry["expected"]), ("bruteforce", brute or {})):
        for key, value in expected.items():
            if summary.get(key) != value:
                raise CheckFailed(f"{query.key}: {key} = {summary.get(key)!r}, "
                                  f"{source} oracle says {value!r}")
