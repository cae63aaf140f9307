"""Cross-check harness behind the ``verify`` subcommand.

Each check pits a structural result, as implemented by the fast paths, against
an independent brute-force oracle or a worked regression, and reports a
pass/fail line with the number of instances exercised.  The ``small`` scale
finishes in well under two minutes; ``full`` runs the complete property suite.
All sampling is driven by one seed, so the output is byte-identical across
runs.

The checks have two callers: ``domkit verify`` and the tier-1 acceptance
tests (``tests/test_acceptance.py``), which run every check at the full scale
without random product sets and pin its seed, instance count and time budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random

from . import bruteforce
from .domination import (
    enumerate_irreducible_dominating_sets,
    gamma,
    gamma_t,
    is_irreducible_dominating,
    is_irreducible_dominating_definitional,
    neighborhood_hypergraph,
)
from .families import (
    cycle_graph,
    edgeless_graph,
    complete_graph,
    disjoint_union,
    nonisomorphic_graphs,
    path_graph,
    random_graph,
    random_isolate_free_graph,
    random_sperner_hypergraph,
    two_cliques_with_matching,
)
from .graphs import Graph, VertexSet, complement, induces_c6_complement, iter_bits
from .hypergraphs import (
    Hypergraph,
    _transversal_size_range,
    all_minimal_transversals_have_size,
    enumerate_minimal_transversals,
    write_hypergraph,
)
from .lexicographic import (
    _upper_gamma_product_bound,
    ProductSet,
    check_minimal_product,
    dominates_product_vertex,
    enumerate_minimal_dominating_sets_product,
    gamma_product,
    is_dominating_product,
    lex_product,
    upper_gamma_product_bound,
)
from .recognition import (
    BOUNDED_K_REACH,
    is_well_covered_alpha2,
    is_well_dominated_bounded_k,
    is_well_dominated_enum,
    is_well_dominated_gamma2,
    is_well_dominated_lex,
    recognize,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    instances: int
    detail: str = ""


def _result(name: str, bad: int, instances: int, noun: str = "mismatches") -> CheckResult:
    """The scoreboard line of a check that tallies its failures in ``bad``."""
    return CheckResult(name, bad == 0, instances, f"{bad} {noun}" if bad else "")


@dataclass(frozen=True)
class Scale:
    pair_factor_max: int          # exhaustive factor sizes for per-set product checks
    random_sets_per_pair: int
    enum_base_max: int            # constructive enumerator equality: base sizes
    enum_fiber_max: int
    doubling_identity_samples: int
    doubling_identity_max_n: int
    recognition_family_max: int
    recognition_random: int
    recognition_random_max_n: int
    bounded_k_samples: int
    sperner_samples: int
    disconnected_products: int
    subsets_family_max: int
    prism_induction_samples: int


SCALES = {
    "small": Scale(
        pair_factor_max=3,
        random_sets_per_pair=60,
        enum_base_max=3,
        enum_fiber_max=2,
        doubling_identity_samples=30,
        doubling_identity_max_n=7,
        recognition_family_max=5,
        recognition_random=60,
        recognition_random_max_n=8,
        bounded_k_samples=60,
        sperner_samples=60,
        disconnected_products=10,
        subsets_family_max=5,
        prism_induction_samples=150,
    ),
    "full": Scale(
        pair_factor_max=4,
        random_sets_per_pair=1000,
        enum_base_max=4,
        enum_fiber_max=3,
        doubling_identity_samples=200,
        doubling_identity_max_n=9,
        recognition_family_max=7,
        recognition_random=500,
        recognition_random_max_n=9,
        bounded_k_samples=300,
        sperner_samples=300,
        disconnected_products=50,
        subsets_family_max=6,
        prism_induction_samples=500,
    ),
}


# clique sizes of the upper domination gap check, the same at every scale
GAP_CLIQUE_SIZES = (4, 5)


def _family_up_to(n_max: int) -> list[Graph]:
    out: list[Graph] = []
    for n in range(1, n_max + 1):
        out.extend(nonisomorphic_graphs(n))
    return out


def _product_set_cases(scale: Scale, rng: Random):
    """``(base, fiber, product, set)`` for every factor pair up to
    ``pair_factor_max`` vertices: every subset when the product has at most
    nine vertices, otherwise ``random_sets_per_pair`` seeded random ones."""
    fam = _family_up_to(scale.pair_factor_max)
    for g, h in itertools.product(fam, repeat=2):
        product = lex_product(g, h)
        flat_n = product.graph.n
        if flat_n <= 9:
            masks = range(1 << flat_n)
        else:
            masks = (rng.getrandbits(flat_n) for _ in range(scale.random_sets_per_pair))
        for m in masks:
            yield g, h, product, ProductSet.from_flat(product, VertexSet.from_mask(flat_n, m))


PRODUCT_SET_LINES = (
    "product vertex domination decomposes through projections",
    "product domination via projection and barely-dominated fibers",
    "product minimality via irreducible projection and fiber roles",
)


def check_product_sets(scale: Scale, rng: Random) -> list[CheckResult]:
    """One walk over the product-set cases, three scoreboard lines: per-vertex
    product domination against flat adjacency, with a dominated pair's base
    coordinate dominated; product domination and minimality (with its automatic
    third condition, and the constructive enumerator) against flat brute force."""
    vertex_bad = domination_bad = minimality_bad = cases = 0
    for g, h, product, d in _product_set_cases(scale, rng):
        cases += 1
        flat = product.graph
        flat_d = d.flatten()
        proj = d.projection()
        for flat_v in range(flat.n):
            pair = product.decode(flat_v)
            want = bool(flat.closed_mask(flat_v) & flat_d.mask)
            if dominates_product_vertex(product, d, pair) != want:
                vertex_bad += 1
            if want and not g.closed_mask(pair[0]) & proj.mask:
                vertex_bad += 1
        if is_dominating_product(product, d) != bruteforce.is_dominating(flat, flat_d):
            domination_bad += 1
        report = check_minimal_product(product, d)
        if report.minimal != bruteforce.is_minimal_dominating(flat, flat_d):
            minimality_bad += 1
        h_universal = any(h.closed_mask(v) == h.full_mask for v in range(h.n))
        if not h_universal and report.cond_i and report.cond_ii and not report.cond_iii:
            minimality_bad += 1
    pairs = list(itertools.product(
        _family_up_to(scale.enum_base_max), _family_up_to(scale.enum_fiber_max)
    ))
    for g, h in pairs:
        got = {d.flatten() for d in enumerate_minimal_dominating_sets_product(g, h)}
        if got != set(bruteforce.minimal_dominating_sets(lex_product(g, h).graph)):
            minimality_bad += 1
    return [
        _result(name, bad, instances) for name, bad, instances in zip(
            PRODUCT_SET_LINES, (vertex_bad, domination_bad, minimality_bad),
            (cases, cases, cases + len(pairs)))
    ]


def check_gamma_formula(scale: Scale, rng: Random) -> CheckResult:
    """Factor formula for the product domination number: family equality,
    the constant value two over complete bases, and the edgeless-fiber link
    to total domination."""
    bad = 0
    instances = 0
    for g, h in itertools.product(
        _family_up_to(scale.enum_base_max), _family_up_to(scale.enum_fiber_max)
    ):
        instances += 1
        if gamma_product(g, h) != bruteforce.gamma(lex_product(g, h).graph):
            bad += 1
    for n in (2, 3, 4):
        for h in (cycle_graph(4), path_graph(4), edgeless_graph(2)):
            instances += 1
            if (
                gamma(h) < 2
                or gamma_product(complete_graph(n), h) != 2
                or gamma(lex_product(complete_graph(n), h).graph) != 2
            ):
                bad += 1
    # with a fiber needing three dominators the value stays two, so a complete
    # base does not preserve the fiber domination number
    seven_cycle = cycle_graph(7)
    for n in (2, 3):
        instances += 1
        if gamma(seven_cycle) != 3 or gamma_product(complete_graph(n), seven_cycle) != 2:
            bad += 1
    for _ in range(scale.doubling_identity_samples):
        n = rng.randint(2, scale.doubling_identity_max_n)
        g = random_isolate_free_graph(n, rng)
        instances += 1
        product = lex_product(g, edgeless_graph(2))
        if not (
            gamma_product(g, edgeless_graph(2))
            == gamma_t(g)
            == gamma(product.graph)
        ):
            bad += 1
    return _result("product domination number from factor parameters", bad, instances)


def check_upper_domination_bound(scale: Scale, rng: Random) -> CheckResult:
    pairs = list(itertools.product(
        _family_up_to(scale.enum_base_max), _family_up_to(scale.enum_fiber_max)
    ))
    bad = sum(not upper_gamma_product_bound(g, h)[1] for g, h in pairs)
    return _result(
        "product upper domination at least independence times fiber upper domination",
        bad,
        len(pairs),
        "violations",
    )


def check_upper_domination_gap(scale: Scale, rng: Random) -> CheckResult:
    """Two cliques joined by a matching, fiber a 4-cycle: upper domination of
    the product equals the clique size while the bound stays at four."""
    bad = 0
    instances = 0
    details = []
    for k in GAP_CLIQUE_SIZES:
        instances += 1
        g = two_cliques_with_matching(k)
        h = cycle_graph(4)
        bound, observed = _upper_gamma_product_bound(g, h)
        if not (observed == k and bound == 4 and observed >= bound):
            bad += 1
        details.append(f"k={k}: upper domination {observed}, bound {bound}")
    return CheckResult(
        "upper domination gap beyond the product bound",
        bad == 0,
        instances,
        "; ".join(details),
    )


def _witnesses_fail(graph: Graph, report) -> bool:
    """A negative report's witnesses are not two minimal dominating sets of
    ``graph`` of different sizes, by the brute-force predicate."""
    small, large = report.witness_small, report.witness_large
    return (
        small is None
        or large is None
        or len(small) == len(large)
        or not bruteforce.is_minimal_dominating(graph, small)
        or not bruteforce.is_minimal_dominating(graph, large)
    )


def check_product_recognition(scale: Scale, rng: Random) -> CheckResult:
    """Factor-based recognition against enumeration on the flattened product,
    with the witnesses of each negative verdict re-checked there."""
    connected = []
    for n in range(2, scale.pair_factor_max + 1):
        connected.extend(nonisomorphic_graphs(n, connected=True))
    fibers = []
    for n in range(2, scale.pair_factor_max + 1):
        fibers.extend(nonisomorphic_graphs(n))
    pairs = [(g, h) for g in connected for h in fibers]
    for _ in range(scale.disconnected_products):
        parts = [random_graph(rng.randint(1, 3), rng) for _ in range(rng.randint(2, 3))]
        g = parts[0]
        for p in parts[1:]:
            g = disjoint_union(g, p)
        pairs.append((g, random_graph(rng.randint(2, 3), rng)))
    bad = 0
    for g, h in pairs:
        flat = lex_product(g, h).graph
        rep = is_well_dominated_lex(g, h)
        if rep.verdict != is_well_dominated_enum(flat, cap=flat.n).verdict:
            bad += 1
        if not rep.verdict and _witnesses_fail(flat, rep):
            bad += 1
    return _result("well-dominated products decided from the factors", bad, len(pairs))


def check_well_covered_alpha2(scale: Scale, rng: Random) -> CheckResult:
    bad = 0
    instances = 0
    for g in _family_up_to(scale.recognition_family_max):
        instances += 1
        want = all(len(s) == 2 for s in bruteforce.maximal_independent_sets(g))
        if is_well_covered_alpha2(g) != want:
            bad += 1
    return _result(
        "well-covered graphs with independence number two via the complement",
        bad,
        instances,
    )


def _recognition_pool(scale: Scale, rng: Random) -> list[Graph]:
    """The catalogue up to the recognition size, then seeded random graphs."""
    graphs = _family_up_to(scale.recognition_family_max)
    for _ in range(scale.recognition_random):
        graphs.append(random_graph(rng.randint(1, scale.recognition_random_max_n), rng))
    return graphs


def check_gamma2_recognition(scale: Scale, rng: Random) -> CheckResult:
    """Triangle-pair recognizer against enumeration and against the
    bounded-size transversal test on graphs with domination number two, plus
    the chain into well-covered graphs and the fixed regressions (4-cycle and
    4-path accepted, 6-cycle complement rejected)."""
    bad = 0
    instances = 0
    for g in _recognition_pool(scale, rng):
        rep = is_well_dominated_gamma2(g)
        two = gamma(g) == 2
        if rep.verdict and (not two or not is_well_covered_alpha2(g)):
            bad += 1
        if not two:
            continue
        instances += 1
        if rep.verdict != is_well_dominated_enum(g).verdict:
            bad += 1
        # a second oracle, independent of the triangle characterization
        if rep.verdict != all_minimal_transversals_have_size(neighborhood_hypergraph(g), 2)[0]:
            bad += 1
        if not rep.verdict and _witnesses_fail(g, rep):
            bad += 1
    prism = complement(cycle_graph(6))
    rep = is_well_dominated_gamma2(prism)
    instances += 3
    if rep.verdict or "violating_triangles" not in rep.notes:
        bad += 1
    if not is_well_dominated_gamma2(cycle_graph(4)).verdict:
        bad += 1
    if not is_well_dominated_gamma2(path_graph(4)).verdict:
        bad += 1
    return _result(
        "well-dominated graphs with domination number two via triangle pairs",
        bad,
        instances,
    )


def check_bounded_k_recognition(scale: Scale, rng: Random) -> CheckResult:
    bad = 0
    instances = 0
    produced = 0
    while produced < scale.bounded_k_samples:
        g = random_graph(rng.randint(1, scale.recognition_random_max_n), rng)
        k = gamma(g)
        if k > BOUNDED_K_REACH:
            continue
        produced += 1
        instances += 1
        rep = is_well_dominated_bounded_k(g, k)
        if rep.verdict != is_well_dominated_enum(g).verdict:
            bad += 1
        if not rep.verdict and (len(rep.witness_small) != k or _witnesses_fail(g, rep)):
            bad += 1
    return _result("bounded domination number recognition via transversal sizes", bad, instances)


def check_method_agreement(scale: Scale, rng: Random) -> CheckResult:
    bad = 0
    instances = 0
    for g in _recognition_pool(scale, rng):
        instances += 1
        want = is_well_dominated_enum(g).verdict
        if recognize(g).verdict != want:
            bad += 1
        k = gamma(g)
        if k <= BOUNDED_K_REACH and is_well_dominated_bounded_k(g, k).verdict != want:
            bad += 1
        if k == 2 and is_well_dominated_gamma2(g).verdict != want:
            bad += 1
    return _result("recognizer method agreement", bad, instances)


def check_transversal_machinery(scale: Scale, rng: Random) -> CheckResult:
    """Transversal enumeration against subset brute force, the self-duality
    involution, the size-range search, and the fixed-size decision."""
    bad = 0
    instances = 0
    first_failure = ""
    for _ in range(scale.sperner_samples):
        n = rng.randint(1, 7)
        h = random_sperner_hypergraph(n, rng)
        instances += 1
        before = bad
        fast = enumerate_minimal_transversals(h)
        slow = bruteforce.minimal_transversals(h)
        if fast != slow:
            bad += 1
        if not all(bruteforce.is_minimal_transversal(h, x) for x in fast):
            bad += 1
        dual = Hypergraph(n, fast)
        if Hypergraph(n, enumerate_minimal_transversals(dual)) != h:
            bad += 1
        sizes = {len(x) for x in fast}
        if _transversal_size_range(h) != (min(sizes), max(sizes)):
            bad += 1
        for k in sorted(sizes | {min(sizes) + 1}):
            ok, witness = all_minimal_transversals_have_size(h, k)
            if ok != (sizes == {k}):
                bad += 1
            if not ok and (witness is None or len(witness) == k
                           or not bruteforce.is_minimal_transversal(h, witness)):
                bad += 1
        if bad > before and not first_failure:
            first_failure = "offending instance: " + write_hypergraph(h).replace("\n", " / ")
    return CheckResult(
        "minimal transversal enumeration and self-duality",
        bad == 0,
        instances,
        f"{bad} mismatches; {first_failure}" if bad else "",
    )


def check_irreducible_sets(scale: Scale, rng: Random) -> CheckResult:
    """Characterization of irreducible sets against the direct definition over
    every subset of every small graph, containment of minimal dominating and
    minimal total dominating sets, the low-degree sufficient condition, and
    the complete-graph census.  On every graph the enumerator's list must also
    equal the brute-force one, in order; that comparison is not counted as an
    instance."""
    bad = 0
    instances = 0
    for n in range(1, scale.subsets_family_max + 1):
        for g in nonisomorphic_graphs(n):
            want = bruteforce.irreducible_dominating_sets(g)
            if enumerate_irreducible_dominating_sets(g) != want:
                bad += 1
            for mask in range(1 << n):
                d = VertexSet.from_mask(n, mask)
                instances += 1
                char = is_irreducible_dominating(g, d)
                if char != is_irreducible_dominating_definitional(g, d):
                    bad += 1
                if bruteforce.is_minimal_dominating(g, d) and not char:
                    bad += 1
                if bruteforce.is_minimal_total_dominating(g, d) and not char:
                    bad += 1
                if (
                    bruteforce.is_dominating(g, d)
                    and all((g.adj_mask(v) & mask).bit_count() <= 1 for v in iter_bits(mask))
                    and not char
                ):
                    bad += 1
    for n in (3, 4, 5):
        g = complete_graph(n)
        instances += 1
        got = enumerate_irreducible_dominating_sets(g)
        want = sorted(
            (VertexSet(n, c) for size in (1, 2) for c in itertools.combinations(range(n), size)),
            key=lambda s: (len(s), s.members),
        )
        if got != want:
            bad += 1
    return _result("irreducible dominating set characterization and census", bad, instances)


def check_prism_induction(scale: Scale, rng: Random) -> CheckResult:
    """Triple-pair induction test against a generic induced-subgraph
    isomorphism check on the 6-vertex graph made of two matched triangles."""
    target = complement(cycle_graph(6))

    def oracle(g: Graph, t: VertexSet, t2: VertexSet) -> bool:
        verts = sorted(t.members + t2.members)
        # isomorphic graphs have equally many edges; most samples stop here
        if sum(g.adjacent(a, b) for a, b in itertools.combinations(verts, 2)) != len(target.edges):
            return False
        for perm in itertools.permutations(range(6)):
            if all(
                g.adjacent(verts[perm[i]], verts[perm[j]]) == target.adjacent(i, j)
                for i in range(6)
                for j in range(i + 1, 6)
            ):
                return True
        return False

    bad = 0
    for _ in range(scale.prism_induction_samples):
        n = rng.randint(6, 9)
        g = random_graph(n, rng)
        verts = rng.sample(range(n), 6)
        t = VertexSet(n, verts[:3])
        t2 = VertexSet(n, verts[3:])
        if induces_c6_complement(g, t, t2) != oracle(g, t, t2):
            bad += 1
    return _result(
        "matched-triangle-pair induction against generic isomorphism",
        bad,
        scale.prism_induction_samples,
    )


def check_worked_example(scale: Scale, rng: Random) -> CheckResult:
    """Fixed regression in the product of a 5-path with a 3-path."""
    bad = 0
    g, h = path_graph(5), path_graph(3)
    product = lex_product(g, h)
    d = ProductSet(5, 3, [(1, 1), (2, 0), (3, 1)])
    d_prime = ProductSet(5, 3, [(1, 1), (3, 1)])
    report = check_minimal_product(product, d)
    if not (report.cond_i and report.cond_ii and not report.cond_iii and not report.minimal):
        bad += 1
    if not is_dominating_product(product, d):
        bad += 1
    if not is_dominating_product(product, d_prime):
        bad += 1
    all_minimal = enumerate_minimal_dominating_sets_product(g, h)
    if d_prime not in all_minimal or d in all_minimal:
        bad += 1
    return _result("worked product example regression", bad, 4)


ALL_CHECKS = [
    check_product_sets,
    check_gamma_formula,
    check_upper_domination_bound,
    check_upper_domination_gap,
    check_product_recognition,
    check_well_covered_alpha2,
    check_gamma2_recognition,
    check_bounded_k_recognition,
    check_method_agreement,
    check_transversal_machinery,
    check_irreducible_sets,
    check_prism_induction,
    check_worked_example,
]


# The scoreboard lines of each check that reports more than one, by the
# check's name; any other check owns one line.
CHECK_LINES = {check_product_sets.__name__: PRODUCT_SET_LINES}


def run_all_checks(scale_name: str = "small", seed: int = 0) -> list[CheckResult]:
    """Every check's scoreboard lines, in order.  A check that raises is
    reported as one failed line for each line it owns, named as in
    ``CHECK_LINES`` or else after the check, and the rest still run."""
    scale = SCALES[scale_name]
    results = []
    for check in ALL_CHECKS:
        try:
            result = check(scale, Random(seed))
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            result = [CheckResult(name, False, 0, detail)
                      for name in CHECK_LINES.get(check.__name__, (check.__name__,))]
        results.extend(result if isinstance(result, list) else [result])
    return results
