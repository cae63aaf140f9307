"""Well-dominated recognition: all methods, witnesses, and agreement."""

import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

import domkit

from domkit.domination import EnumerationCapExceeded, gamma, is_minimal_dominating
from domkit.families import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    nonisomorphic_graphs,
    path_graph,
    random_graph,
)
from domkit.graphs import Graph
from domkit.lexicographic import lex_product
from domkit.recognition import (
    BOUNDED_K_REACH,
    is_well_covered_alpha2,
    is_well_dominated_bounded_k,
    is_well_dominated_enum,
    is_well_dominated_gamma2,
    is_well_dominated_lex,
    recognize,
)

from test_golden_witnesses import CASES


class TestEnumerationMethod:
    def test_c4(self, c4):
        report = is_well_dominated_enum(c4)
        assert report.verdict and report.common_size == 2 and report.gamma == 2

    def test_p5_witness(self, p5):
        report = is_well_dominated_enum(p5)
        assert not report.verdict
        # first two sets of differing sizes in canonical (size, members) order
        assert report.witness_small.members == (0, 3)
        assert report.witness_large.members == (0, 2, 4)
        assert is_minimal_dominating(p5, report.witness_small)
        assert is_minimal_dominating(p5, report.witness_large)

    def test_complete_graphs(self):
        for n in (1, 2, 4):
            report = is_well_dominated_enum(complete_graph(n))
            assert report.verdict and report.common_size == 1


class TestAlpha2:
    def test_examples(self, c4, k3, prism):
        assert is_well_covered_alpha2(c4)
        assert not is_well_covered_alpha2(k3)
        assert is_well_covered_alpha2(prism)


class TestGamma2Method:
    def test_c4_vacuous(self, c4):
        report = is_well_dominated_gamma2(c4)
        assert report.verdict and report.common_size == 2

    def test_p4(self):
        assert is_well_dominated_gamma2(path_graph(4)).verdict

    def test_prism_rejected_with_triangle_witness(self, prism):
        report = is_well_dominated_gamma2(prism)
        assert not report.verdict
        assert report.notes["violating_triangles"] == [[0, 2, 4], [1, 3, 5]]
        assert len(report.witness_small) == 2
        assert report.witness_large.members == (0, 2, 4)
        assert is_minimal_dominating(prism, report.witness_small)
        assert is_minimal_dominating(prism, report.witness_large)

    def test_negative_branch_checks_the_cap_past_the_reach(self):
        c25 = cycle_graph(25)
        with pytest.raises(EnumerationCapExceeded):
            is_well_dominated_gamma2(c25)
        report = is_well_dominated_gamma2(c25, cap=25)
        assert not report.verdict and report.gamma == 9

    def test_agreement_with_enumeration_on_gamma2_graphs(self):
        rng = Random(21)
        pool = [g for n in range(1, 7) for g in nonisomorphic_graphs(n)]
        pool += [random_graph(rng.randint(1, 8), rng) for _ in range(100)]
        for g in pool:
            if gamma(g) != 2:
                continue
            rep = is_well_dominated_gamma2(g)
            assert rep.verdict == is_well_dominated_enum(g).verdict
            if not rep.verdict:
                assert len(rep.witness_small) != len(rep.witness_large)
                assert is_minimal_dominating(g, rep.witness_small)
                assert is_minimal_dominating(g, rep.witness_large)


class TestBoundedKMethod:
    def test_c4(self, c4):
        assert is_well_dominated_bounded_k(c4, 2).verdict

    def test_p5_witness(self, p5):
        report = is_well_dominated_bounded_k(p5, 2)
        assert not report.verdict
        assert report.witness_large.members == (0, 2, 4)
        assert len(report.witness_small) == 2

    def test_k5(self):
        assert is_well_dominated_bounded_k(complete_graph(5), 1).verdict

    def test_wrong_k_rejected(self, p5):
        with pytest.raises(ValueError, match="domination number"):
            is_well_dominated_bounded_k(p5, 3)

    def test_three_cliques_past_the_cap(self):
        three_k10 = disjoint_union(
            complete_graph(10), disjoint_union(complete_graph(10), complete_graph(10))
        )
        start = time.perf_counter()
        report = is_well_dominated_bounded_k(three_k10, 3)
        assert time.perf_counter() - start < 1.0
        assert report.verdict and report.common_size == 3

    def test_agreement_with_enumeration(self):
        rng = Random(22)
        done = 0
        while done < 120:
            g = random_graph(rng.randint(1, 8), rng)
            k = gamma(g)
            if k > 3:
                continue
            done += 1
            assert (
                is_well_dominated_bounded_k(g, k).verdict
                == is_well_dominated_enum(g).verdict
            )


class TestDispatch:
    def test_methods(self, c4, k3, p5):
        assert recognize(c4).method == "gamma2" and recognize(c4).verdict
        assert recognize(k3).method == "bounded_k" and recognize(k3).verdict
        assert not recognize(p5).verdict

    def test_reach_sends_domination_numbers_up_to_it_to_the_bounded_size_test(self, c4, k3):
        assert BOUNDED_K_REACH == 3
        assert recognize(k3).method == "bounded_k"
        assert recognize(c4).method == "gamma2"
        assert recognize(cycle_graph(9)).method == "bounded_k"
        assert recognize(cycle_graph(10)).method == "enumeration"

    def test_large_domination_number_meets_the_cap_first(self):
        sparse = random_graph(50, Random(2), 0.1)
        start = time.perf_counter()
        with pytest.raises(EnumerationCapExceeded):
            recognize(sparse)
        assert time.perf_counter() - start < 1.0

    def test_single_vertex(self):
        report = recognize(Graph(1))
        assert report.verdict and report.common_size == 1

    def test_agreement_across_methods(self):
        rng = Random(23)
        pool = [g for n in range(1, 6) for g in nonisomorphic_graphs(n)]
        pool += [random_graph(rng.randint(1, 8), rng) for _ in range(60)]
        for g in pool:
            want = is_well_dominated_enum(g).verdict
            assert recognize(g).verdict == want


class TestLexMethod:
    def test_base_well_dominated_complete_fiber(self):
        report = is_well_dominated_lex(path_graph(4), complete_graph(2))
        assert report.verdict
        assert report.common_size == 2

    def test_complete_base_gamma2_fiber(self):
        assert is_well_dominated_lex(complete_graph(2), cycle_graph(4)).verdict

    def test_p4_c4_rejected_with_verified_witnesses(self):
        report = is_well_dominated_lex(path_graph(4), cycle_graph(4))
        assert not report.verdict
        flat = lex_product(path_graph(4), cycle_graph(4)).graph
        assert is_minimal_dominating(flat, report.witness_small)
        assert is_minimal_dominating(flat, report.witness_large)
        assert len(report.witness_small) < len(report.witness_large)
        assert "witness_small_pairs" in report.notes

    def test_trivial_product_rejected(self):
        with pytest.raises(ValueError):
            is_well_dominated_lex(Graph(1), cycle_graph(4))
        with pytest.raises(ValueError):
            is_well_dominated_lex(cycle_graph(4), Graph(1))

    def test_fiber_not_well_dominated(self, p5):
        report = is_well_dominated_lex(complete_graph(2), p5)
        assert not report.verdict
        flat = lex_product(complete_graph(2), p5).graph
        assert is_minimal_dominating(flat, report.witness_small)
        assert is_minimal_dominating(flat, report.witness_large)

    def test_gamma3_fiber_always_fails_on_edges(self):
        # fiber well-dominated with domination number three
        c7 = cycle_graph(7)
        assert is_well_dominated_enum(c7).verdict and gamma(c7) == 3
        report = is_well_dominated_lex(complete_graph(3), c7)
        assert not report.verdict
        flat = lex_product(complete_graph(3), c7).graph
        assert is_minimal_dominating(flat, report.witness_small)
        assert is_minimal_dominating(flat, report.witness_large)

    def test_singleton_components_are_fiber_copies(self):
        c7 = cycle_graph(7)
        assert is_well_dominated_lex(edgeless_graph(2), c7).verdict
        report = is_well_dominated_lex(disjoint_union(Graph(1), complete_graph(2)), c7)
        assert not report.verdict

    def test_fiber_domination_number_computed_once(self, monkeypatch):
        searched = []

        def recording_gamma(graph):
            searched.append(graph)
            return gamma(graph)

        monkeypatch.setattr("domkit.lexicographic.gamma", recording_gamma)
        fiber = cycle_graph(4)
        report = is_well_dominated_lex(path_graph(4), fiber)
        assert report.gamma == 2
        assert fiber not in searched

    def test_matches_flat_recognition_disconnected(self):
        rng = Random(24)
        for _ in range(15):
            parts = [random_graph(rng.randint(1, 3), rng) for _ in range(2)]
            base = disjoint_union(parts[0], parts[1])
            fiber = random_graph(rng.randint(2, 3), rng)
            got = is_well_dominated_lex(base, fiber)
            want = is_well_dominated_enum(lex_product(base, fiber).graph)
            assert got.verdict == want.verdict


def test_lex_witnesses_never_build_the_flattened_product(monkeypatch):
    lex_cases = [graphs for name, (graphs, _) in sorted(CASES.items()) if name.startswith("lex-")]
    assert len(lex_cases) == 4
    want = [is_well_dominated_lex(base, fiber).to_dict() for base, fiber in lex_cases]

    def refuse(self, base, fiber):
        raise AssertionError("the flattened product was built")

    monkeypatch.setattr(domkit.lexicographic.ProductGraph, "__init__", refuse)
    with pytest.raises(AssertionError):
        lex_product(path_graph(2), path_graph(2))
    got = [is_well_dominated_lex(base, fiber).to_dict() for base, fiber in lex_cases]
    assert not any(report["verdict"] for report in got)
    assert got == want


BAD_WITNESS_SCRIPT = """
import sys
import domkit.recognition as rec
from domkit.families import cycle_graph, path_graph
from domkit.lexicographic import ProductSet

assert sys.flags.optimize
pairs = {pairs}
rec._lex_witness_pair = lambda *args: tuple(ProductSet(4, 4, p) for p in pairs)
try:
    rec.is_well_dominated_lex(path_graph(4), cycle_graph(4))
except RuntimeError as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize(
    "pairs",
    [
        [[(1, 0), (2, 0)], [(1, 0), (2, 0)]],  # minimal, but of equal sizes
        [[(0, 0)], [(1, 0), (2, 0)]],  # the first set does not dominate
    ],
)
def test_bad_lex_witnesses_raise_under_optimize(pairs):
    src = str(Path(domkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", BAD_WITNESS_SCRIPT.format(pairs=pairs)],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised: product witnesses failed their re-check")


class TestReportShape:
    def test_to_dict_round_trips_through_json(self, p5):
        import json

        for report in (
            is_well_dominated_enum(p5),
            recognize(cycle_graph(4)),
            is_well_dominated_lex(path_graph(4), cycle_graph(4)),
        ):
            blob = json.dumps(report.to_dict(), sort_keys=True)
            parsed = json.loads(blob)
            assert parsed["verdict"] == report.verdict
            assert parsed["method"] == report.method

    def test_true_verdict_common_size_equals_gamma(self):
        for g in (cycle_graph(4), complete_graph(3), path_graph(4)):
            report = recognize(g)
            if report.verdict:
                assert report.common_size == gamma(g)
