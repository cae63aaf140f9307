"""Command-line behavior: outputs, exit codes, determinism."""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

import domkit
import domkit.cli
import domkit.hypergraphs
import domkit.recognition
from domkit.cli import _fmt_set, _json_sets, build_parser, main
from domkit.domination import enumerate_minimal_dominating_sets, gamma, is_minimal_dominating
from domkit.families import complete_graph, cycle_graph, disjoint_union, path_graph, random_graph
from domkit.graphs import Graph, VertexSet, parse_graph, write_graph
from domkit.recognition import BOUNDED_K_REACH, is_well_dominated_bounded_k


@pytest.fixture()
def p5_file(tmp_path):
    path = tmp_path / "p5.el"
    path.write_text(write_graph(path_graph(5)))
    return str(path)


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.el"
    path.write_text(write_graph(cycle_graph(4)))
    return str(path)


@pytest.fixture()
def p4_file(tmp_path):
    path = tmp_path / "p4.el"
    path.write_text(write_graph(path_graph(4)))
    return str(path)


class TestStats:
    def test_p5_line(self, p5_file, capsys):
        assert main(["stats", p5_file]) == 0
        out = capsys.readouterr().out
        assert out == "n=5 m=4 gamma=2 gamma_t=3 Gamma=3 alpha=3\n"

    def test_json(self, p5_file, capsys):
        assert main(["stats", p5_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "n": 5,
            "m": 4,
            "gamma": 2,
            "gamma_t": 3,
            "Gamma": 3,
            "alpha": 3,
        }

    def test_undefined_gamma_t(self, tmp_path, capsys):
        path = tmp_path / "iso.el"
        path.write_text("3 1\n0 1\n")
        assert main(["stats", str(path)]) == 0
        assert "gamma_t=undefined" in capsys.readouterr().out

    def test_large_edgeless_graph_hits_the_cap(self, tmp_path, capsys):
        path = tmp_path / "edgeless.el"
        path.write_text(write_graph(Graph(1100)))
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: graph has 1100 vertices, above the enumeration cap 24\n"
        )

    def test_cap_error_comes_before_the_exact_searches(self, tmp_path, monkeypatch, capsys):
        def exact_search(*args):
            raise AssertionError("an exact search ran before the cap check")

        for name in ("gamma", "gamma_t", "alpha"):
            monkeypatch.setattr(domkit.cli, name, exact_search)
        monkeypatch.setattr(domkit.hypergraphs, "_transversal_size_range", exact_search)
        path = tmp_path / "c25.el"
        path.write_text(write_graph(cycle_graph(25)))
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph has 25 vertices, above the enumeration cap 24\n"


    def test_gamma_and_upper_gamma_come_from_one_search(self, p5_file, monkeypatch, capsys):
        def exact_search(*args):
            raise AssertionError("stats ran a second search")

        def enumeration(*args):
            raise AssertionError("stats listed the minimal dominating sets")

        for name in ("gamma", "upper_gamma"):
            monkeypatch.setattr(domkit.cli, name, exact_search)
        monkeypatch.setattr(domkit.cli, "enumerate_minimal_dominating_sets", enumeration)
        assert main(["stats", p5_file]) == 0
        assert capsys.readouterr().out == "n=5 m=4 gamma=2 gamma_t=3 Gamma=3 alpha=3\n"
        assert main(["stats", p5_file, "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"Gamma": 3, "alpha": 3, "gamma": 2, "gamma_t": 3, "m": 4, "n": 5}\n'
        )

    def test_zero_vertex_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.el"
        path.write_text("0 0\n")
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: operation undefined on the zero-vertex graph\n"


class TestCheckSet:
    def test_dominating_set(self, p5_file, capsys):
        assert main(["check-set", p5_file, "1,3"]) == 0
        out = capsys.readouterr().out
        assert "dominating: yes" in out
        assert "minimal_dominating: yes" in out

    def test_non_dominating_set_exits_one(self, p5_file, capsys):
        assert main(["check-set", p5_file, "0"]) == 1

    def test_empty_set(self, p5_file):
        assert main(["check-set", p5_file, "-"]) == 1

    def test_bad_vertex(self, p5_file, capsys):
        assert main(["check-set", p5_file, "9"]) == 2
        assert "error:" in capsys.readouterr().err


class TestEnumerate:
    def test_c4(self, c4_file, capsys):
        assert main(["enumerate-mds", c4_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "minimal dominating sets: 6"
        assert lines[1:] == ["0 1", "0 2", "0 3", "1 2", "1 3", "2 3"]

    def test_cap(self, c4_file, capsys):
        assert main(["enumerate-mds", c4_file, "--cap", "2"]) == 2

    @pytest.mark.parametrize("n, head", [(4, 1), (4, 6), (4, 128), (22, 128)])
    def test_json_is_the_text_of_json_dumps(self, n, head, tmp_path, capsys):
        # C4 has 6 sets and C22 has 1674: the whole listing goes through the
        # command, and its first ``head`` sets, all of C4's or a part of
        # C22's, through the list writer on their own
        path = tmp_path / "cycle.el"
        path.write_text(write_graph(cycle_graph(n)))
        assert main(["enumerate-mds", str(path), "--json"]) == 0
        found = enumerate_minimal_dominating_sets(cycle_graph(n))
        sets = [list(s.members) for s in found]
        want = json.dumps({"count": len(sets), "sets": sets}, sort_keys=True)
        assert capsys.readouterr().out == want + "\n"
        assert _json_sets(found[:head]) == json.dumps(sets[:head])

    @pytest.mark.parametrize("family", ["cycles", "gnp", "past-the-cap"])
    def test_json_is_the_text_of_json_dumps_per_family(self, family, tmp_path, capsys):
        for graph, cap in _listed_graphs(family):
            path = tmp_path / "g.el"
            path.write_text(write_graph(graph))
            assert main(["enumerate-mds", str(path), "--json", "--cap", str(cap)]) == 0
            sets = [list(s.members) for s in enumerate_minimal_dominating_sets(graph, cap)]
            want = json.dumps({"count": len(sets), "sets": sets}, sort_keys=True)
            assert capsys.readouterr().out == want + "\n"

    @pytest.mark.parametrize("family", ["cycles", "gnp", "past-the-cap"])
    def test_text_is_one_line_per_set(self, family, tmp_path, capsys):
        for graph, cap in _listed_graphs(family):
            path = tmp_path / "g.el"
            path.write_text(write_graph(graph))
            assert main(["enumerate-mds", str(path), "--cap", str(cap)]) == 0
            sets = enumerate_minimal_dominating_sets(graph, cap)
            lines = [" ".join(map(str, s)) for s in sets]
            assert lines == [_fmt_set(s) for s in sets]
            assert capsys.readouterr().out.splitlines() == [
                f"minimal dominating sets: {len(sets)}", *lines]

    def test_text_tables_are_built_on_first_rendering(self, tmp_path):
        # a JSON query that lists no sets builds no table, so recognition does
        # not pay for them; text mode builds the " " tables for the first set
        # it prints, and each list reads as many tables as its widest mask has
        # bytes (C9: two)
        (tmp_path / "c9.el").write_text(write_graph(cycle_graph(9)))
        src = str(Path(domkit.__file__).resolve().parents[1])
        code = (
            "import contextlib, io, sys, domkit.cli, domkit.graphs\n"
            "rows = domkit.graphs._TEXT_ROWS\n"
            "def run(*argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        domkit.cli.main([argv[0], sys.argv[1], *argv[1:]])\n"
            "    print({sep: len(tables) for sep, tables in sorted(rows.items())})\n"
            "print(rows)\n"
            "run('well-dominated', '--json')\n"
            "run('check-set', '--json', '0,3,6')\n"
            "run('check-set', '0,3,6')\n"
            "run('enumerate-mds', '--json')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "c9.el")],
            capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
        )
        assert done.stdout.splitlines() == [
            "{}", "{}", "{}", "{' ': 1}", "{' ': 1, ', ': 2}"], done.stderr


def _listed_graphs(family):
    """(graph, cap) pairs whose minimal dominating sets the output tests list."""
    if family == "cycles":
        return [(cycle_graph(n), 24) for n in range(3, 25)]
    if family == "gnp":
        rng = Random(11)
        return [(random_graph(n, rng, p), 24) for n in (1, 6, 12, 18, 24) for p in (0.2, 0.5)]
    # four 9-cliques, 36 vertices: each set holds one vertex of every clique,
    # so the masks reach past the first three tables into a fifth byte
    wide = complete_graph(9)
    for _ in range(3):
        wide = disjoint_union(wide, complete_graph(9))
    return [(wide, 36)]


class TestProduct:
    def test_emits_parseable_document_with_header(self, p5_file, tmp_path, capsys):
        h = tmp_path / "p3.el"
        h.write_text(write_graph(path_graph(3)))
        assert main(["product", p5_file, str(h)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# lexicographic product: base n=5, fiber n=3")
        flat = parse_graph(out)
        assert flat.n == 15

    def test_deterministic(self, p5_file, c4_file, capsys):
        main(["product", p5_file, c4_file])
        first = capsys.readouterr().out
        main(["product", p5_file, c4_file])
        assert capsys.readouterr().out == first

    def test_emitted_product_recognized_like_lex(self, p4_file, c4_file, tmp_path, capsys):
        main(["product", p4_file, c4_file])
        flat_file = tmp_path / "flat.el"
        flat_file.write_text(capsys.readouterr().out)
        direct = main(["well-dominated", str(flat_file), "--method", "enum"])
        capsys.readouterr()
        via_factors = main(["well-dominated", "--lex", p4_file, c4_file])
        capsys.readouterr()
        assert direct == via_factors == 1


class TestWellDominated:
    def test_c4_true(self, c4_file, capsys):
        assert main(["well-dominated", c4_file]) == 0
        out = capsys.readouterr().out
        assert "verdict: well-dominated" in out
        assert "method: gamma2" in out
        assert "common size: 2" in out

    def test_p5_false_with_witnesses(self, p5_file, capsys):
        assert main(["well-dominated", p5_file]) == 1
        out = capsys.readouterr().out
        assert "verdict: not well-dominated" in out
        assert "witness (size 2): 0 3" in out
        assert "witness (size 3): 0 2 4" in out

    def test_methods_agree(self, p5_file, capsys):
        for method in ("auto", "enum", "gamma2", "bounded-k"):
            assert main(["well-dominated", p5_file, "--method", method]) == 1
            capsys.readouterr()

    def test_lex_pair(self, p4_file, c4_file, capsys):
        assert main(["well-dominated", "--lex", p4_file, c4_file]) == 1
        out = capsys.readouterr().out
        assert "method: lex_formula" in out
        assert "witness pairs:" in out

    def test_lex_and_graph_conflict(self, p4_file, c4_file, capsys):
        assert main(["well-dominated", p4_file, "--lex", p4_file, c4_file]) == 2

    def test_json(self, c4_file, capsys):
        assert main(["well-dominated", c4_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] is True and data["method"] == "gamma2"

    def test_large_star_exits_with_a_verdict(self, tmp_path, capsys):
        # domination number one sends K_{1,1100} to the bounded-size test,
        # whose oversized witness holds all 1100 leaves
        star = Graph(1101, [(0, i) for i in range(1, 1101)])
        path = tmp_path / "star.el"
        path.write_text(write_graph(star))
        assert main(["well-dominated", str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        data = json.loads(captured.out)
        assert data["method"] == "bounded_k" and data["verdict"] is False
        small = VertexSet(star.n, data["witness_small"])
        large = VertexSet(star.n, data["witness_large"])
        assert (len(small), len(large)) == (1, 1100)
        assert is_minimal_dominating(star, small) and is_minimal_dominating(star, large)


def _forbid_search_past_the_reach(monkeypatch):
    """Make any domination number search past ``BOUNDED_K_REACH`` fail."""
    search = domkit.recognition._minimum_cover

    def within_reach(graph, closed, reach):
        if reach > BOUNDED_K_REACH:
            raise AssertionError("the exact domination number search ran")
        return search(graph, closed, reach)

    monkeypatch.setattr(domkit.recognition, "_minimum_cover", within_reach)


_CAP_ERROR = "error: graph has 50 vertices, above the enumeration cap 24\n"


class TestFailFast:
    """Every exponential path on a sparse G(50, 0.1), domination number 12."""

    @pytest.mark.parametrize("argv, err", [
        (["well-dominated", "--method", "auto"], _CAP_ERROR),
        (["well-dominated", "--method", "enum"], _CAP_ERROR),
        (["well-dominated", "--method", "gamma2"], _CAP_ERROR),
        (["well-dominated", "--method", "bounded-k"], _CAP_ERROR),
        # the check searches sizes up to --k only
        (["well-dominated", "--method", "bounded-k", "--k", "3"],
         "error: domination number is above 3\n"),
        # no cover within the reach, so the cap is checked before any search past it
        (["well-dominated", "--method", "bounded-k", "--k", "13"], _CAP_ERROR),
        (["stats"], _CAP_ERROR),
        (["enumerate-mds"], _CAP_ERROR),
    ], ids=["auto", "enum", "gamma2", "bounded-k", "bounded-k-k3", "bounded-k-k13",
            "stats", "enumerate-mds"])
    def test_large_domination_number_exits_at_once(
        self, argv, err, tmp_path, monkeypatch, capsys
    ):
        _forbid_search_past_the_reach(monkeypatch)
        path = tmp_path / "sparse.el"
        path.write_text(write_graph(random_graph(50, Random(2), 0.1)))
        start = time.perf_counter()
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)

    def test_gamma2_answers_a_small_domination_number_past_the_cap(
        self, tmp_path, monkeypatch, capsys
    ):
        # three disjoint K_{1,8}: triangle-free, domination number 3, 27 vertices
        _forbid_search_past_the_reach(monkeypatch)
        star = Graph(9, [(0, i) for i in range(1, 9)])
        path = tmp_path / "stars.el"
        path.write_text(write_graph(disjoint_union(disjoint_union(star, star), star)))
        assert main(["well-dominated", str(path), "--method", "gamma2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "verdict: not well-dominated\nmethod: gamma2\ngamma: 3\n"


class TestKBelowOne:
    """``--k`` below 1 is a usage error, raised while the arguments are parsed."""

    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize("graph", [path_graph(3), random_graph(50, Random(2), 0.1)],
                             ids=["P3", "sparse-G50"])
    def test_rejected_before_the_graph_is_read(self, graph, k, tmp_path, monkeypatch, capsys):
        def load(path):
            raise AssertionError("the graph was read")

        monkeypatch.setattr(domkit.cli, "_load_graph", load)
        path = tmp_path / "g.el"
        path.write_text(write_graph(graph))
        start = time.perf_counter()
        assert main(["well-dominated", str(path), "--method", "bounded-k", "--k", k]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"domkit well-dominated: error: argument --k: must be at least 1, not {k}\n"
        )

    def test_a_non_integer_keeps_its_message(self, p5_file, capsys):
        assert main(["well-dominated", p5_file, "--k", "two"]) == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --k: invalid int value: 'two'\n"
        )


class TestCapBelowOne:
    """``--cap`` below 1 is a usage error, raised while the arguments are parsed."""

    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["stats", "g.el"],
        ["enumerate-mds", "g.el"],
        ["well-dominated", "g.el"],
        ["well-dominated", "--lex", "g.el", "g.el"],
    ], ids=["stats", "enumerate-mds", "well-dominated", "lex"])
    def test_rejected_before_the_graph_is_read(self, argv, cap, tmp_path, monkeypatch, capsys):
        def load(path):
            raise AssertionError("the graph was read")

        monkeypatch.setattr(domkit.cli, "_load_graph", load)
        path = tmp_path / "g.el"
        path.write_text(write_graph(path_graph(3)))
        argv = [str(path) if arg == "g.el" else arg for arg in argv]
        assert main([*argv, "--cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"domkit {argv[0]}: error: argument --cap: must be at least 1, not {cap}\n"
        )


@pytest.mark.parametrize("flags", [
    ["--method", "enum"],
    ["--method", "gamma2"],
    ["--method", "bounded-k"],
    ["--k", "2"],
    ["--method", "auto", "--k", "3"],
    ["--method", "bounded-k", "--k", "2", "--json"],
], ids=["enum", "gamma2", "bounded-k", "k", "auto-k", "bounded-k-k-json"])
def test_lex_rejects_method_and_k(flags, tmp_path, monkeypatch, capsys):
    # --lex applies the factor formula, so a recognizer choice or a size
    # would be ignored; it is refused before either file is read
    def load(path):
        raise AssertionError("a graph was read")

    monkeypatch.setattr(domkit.cli, "_load_graph", load)
    path = tmp_path / "k2.el"
    path.write_text(write_graph(complete_graph(2)))
    start = time.perf_counter()
    assert main(["well-dominated", "--lex", str(path), str(path), *flags]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --method and --k do not apply to --lex, which recognizes "
                            "the product from its factors\n")


def test_lex_accepts_method_auto(tmp_path, capsys):
    path = tmp_path / "k2.el"
    path.write_text(write_graph(complete_graph(2)))
    argv = ["well-dominated", "--lex", str(path), str(path), "--json"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main([*argv, "--method", "auto"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("argv", [
    ["check-set", "p3.el", "1"],
    ["product", "p3.el", "p3.el"],
], ids=["check-set", "product"])
def test_subcommands_without_a_search_take_no_cap(argv, tmp_path, monkeypatch, capsys):
    def load(path):
        raise AssertionError("the graph was read")

    monkeypatch.setattr(domkit.cli, "_load_graph", load)
    path = tmp_path / "p3.el"
    path.write_text(write_graph(path_graph(3)))
    argv = [str(path) if arg == "p3.el" else arg for arg in argv]
    assert main([*argv, "--cap", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("domkit: error: unrecognized arguments: --cap 1\n")


class TestBoundedKWithoutK:
    """``--method bounded-k`` without ``--k`` finds the domination number itself."""

    @staticmethod
    def _run(tmp_path, graph, *flags):
        path = tmp_path / "g.el"
        path.write_text(write_graph(graph))
        return main(["well-dominated", str(path), "--method", "bounded-k", *flags])

    @pytest.mark.parametrize("graph", [
        path_graph(5), cycle_graph(4), path_graph(7), cycle_graph(9), cycle_graph(12),
        Graph(1), random_graph(16, Random(5), 0.3), random_graph(20, Random(6), 0.2),
    ])
    def test_inside_the_cap_the_output_is_unchanged(self, graph, tmp_path, capsys):
        want = is_well_dominated_bounded_k(graph, gamma(graph))
        assert self._run(tmp_path, graph, "--json") == (0 if want.verdict else 1)
        assert capsys.readouterr().out == json.dumps(want.to_dict(), sort_keys=True) + "\n"

    def test_small_domination_number_answers_above_the_cap(
        self, tmp_path, monkeypatch, capsys
    ):
        _forbid_search_past_the_reach(monkeypatch)
        three_k10 = disjoint_union(disjoint_union(complete_graph(10), complete_graph(10)),
                                   complete_graph(10))
        assert self._run(tmp_path, three_k10) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "verdict: well-dominated\nmethod: bounded_k\ngamma: 3\ncommon size: 3\n"
        )

    def test_k_above_the_domination_number_is_rejected(self, tmp_path, capsys):
        assert self._run(tmp_path, path_graph(5), "--k", "3") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: domination number is 2, not 3\n"

    def test_k_past_a_small_domination_number_is_rejected_above_the_cap(
        self, tmp_path, capsys
    ):
        three_k10 = disjoint_union(disjoint_union(complete_graph(10), complete_graph(10)),
                                   complete_graph(10))
        start = time.perf_counter()
        assert self._run(tmp_path, three_k10, "--k", "5") == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: domination number is 3, not 5\n"

    @pytest.mark.parametrize("graph, k", [
        (cycle_graph(12), 4), (cycle_graph(12), 5), (path_graph(7), 4),
        (random_graph(20, Random(6), 0.2), 5), (random_graph(20, Random(6), 0.2), 4),
    ])
    def test_k_past_the_reach_inside_the_cap_is_unchanged(self, graph, k, tmp_path, capsys):
        try:
            report = is_well_dominated_bounded_k(graph, k)
        except ValueError as exc:
            want = (2, "", f"error: {exc}\n")
        else:
            out = json.dumps(report.to_dict(), sort_keys=True) + "\n"
            want = (0 if report.verdict else 1, out, "")
        code = self._run(tmp_path, graph, "--k", str(k), "--json")
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == want

    def test_zero_vertex_graph(self, tmp_path, capsys):
        assert self._run(tmp_path, Graph(0)) == 2
        assert capsys.readouterr().err == "error: operation undefined on the zero-vertex graph\n"


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["stats", "no-such-file.el"]) == 2

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "bad.el"
        path.write_text("2 1\n0 0\n")
        assert main(["stats", str(path)]) == 2
        assert "self-loop" in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["no-such-command"]) == 2

    def test_reused_parser_answers_like_fresh_ones(self, p5_file, c4_file, monkeypatch, capsys):
        calls = [
            ["stats", p5_file],
            ["well-dominated", c4_file, "--json"],
            ["no-such-command"],
            ["enumerate-mds", c4_file, "--cap", "2"],
            ["verify", "--scale", "huge"],
            ["check-set", p5_file, "1,3", "--json"],
            ["well-dominated", p5_file, "--method", "bounded-k", "--k", "2"],
            ["stats", p5_file, "--json"],
        ]

        def run_all():
            out = []
            for argv in calls:
                code = main(argv)
                captured = capsys.readouterr()
                out.append((code, captured.out, captured.err))
            return out

        assert domkit.cli._parser() is domkit.cli._parser()
        assert build_parser() is not build_parser()
        reused = run_all()
        monkeypatch.setattr(domkit.cli, "_parser", build_parser)
        assert run_all() == reused
        assert [code for code, _, _ in reused] == [0, 0, 2, 2, 2, 0, 1, 0]
        assert "invalid choice: 'huge'" in reused[4][2]

    def test_internal_failure_exits_two_not_one(self, p5_file, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(domkit.cli, "recognize", fail)
        assert main(["well-dominated", p5_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: RecursionError: maximum recursion depth exceeded\n"


SMALL_SCOREBOARD = (
    "verification scoreboard: scale=small seed=0\n"
    "PASS product vertex domination decomposes through projections [9362 instances]\n"
    "PASS product domination via projection and barely-dominated fibers [9362 instances]\n"
    "PASS product minimality via irreducible projection and fiber roles [9383 instances]\n"
    "PASS product domination number from factor parameters [62 instances]\n"
    "PASS product upper domination at least independence times fiber upper domination [21 instances]\n"
    "PASS upper domination gap beyond the product bound [2 instances]"
    " (k=4: upper domination 4, bound 4; k=5: upper domination 5, bound 4)\n"
    "PASS well-dominated products decided from the factors [28 instances]\n"
    "PASS well-covered graphs with independence number two via the complement [52 instances]\n"
    "PASS well-dominated graphs with domination number two via triangle pairs [52 instances]\n"
    "PASS bounded domination number recognition via transversal sizes [60 instances]\n"
    "PASS recognizer method agreement [112 instances]\n"
    "PASS minimal transversal enumeration and self-duality [60 instances]\n"
    "PASS irreducible dominating set characterization and census [1309 instances]\n"
    "PASS matched-triangle-pair induction against generic isomorphism [150 instances]\n"
    "PASS worked product example regression [4 instances]\n"
    "result: 15/15 checks passed\n"
)


class TestVerify:
    def test_small_scale_passes_and_is_deterministic(self, capsys):
        assert main(["verify", "--scale", "small"]) == 0
        assert capsys.readouterr().out == SMALL_SCOREBOARD

    def test_a_failing_check_is_reported_and_exits_one(self, monkeypatch, capsys):
        from domkit import verification

        # a fast path that calls every set dominating disagrees with the flat
        # oracle on each of the 3345 non-dominating sets
        monkeypatch.setattr(verification, "is_dominating_product", lambda product, d: True)
        lines = verification.check_product_sets(verification.SCALES["small"], Random(0))
        assert [(r.passed, r.detail) for r in lines] == [
            (True, ""), (False, "3345 mismatches"), (True, "")
        ]
        name = "product domination via projection and barely-dominated fibers [9362 instances]"
        assert main(["verify", "--scale", "small"]) == 1
        assert capsys.readouterr().out == (
            SMALL_SCOREBOARD.replace(f"PASS {name}\n", f"FAIL {name} (3345 mismatches)\n")
            .replace("result: 15/15", "result: 14/15")
        )

    def test_a_check_that_raises_is_reported_and_the_rest_still_run(self, monkeypatch, capsys):
        from domkit import verification

        def check_upper_domination_gap(scale, rng):
            raise KeyError(0)

        checks = list(verification.ALL_CHECKS)
        checks[checks.index(verification.check_upper_domination_gap)] = check_upper_domination_gap
        monkeypatch.setattr(verification, "ALL_CHECKS", checks)
        assert main(["verify", "--scale", "small"]) == 1
        gap = next(line for line in SMALL_SCOREBOARD.splitlines(True) if "gap" in line)
        assert capsys.readouterr().out == (
            SMALL_SCOREBOARD.replace(gap, "FAIL check_upper_domination_gap [0 instances] (KeyError: 0)\n")
            .replace("result: 15/15", "result: 14/15")
        )

    def test_a_check_that_raises_fails_every_line_it_owns(self, monkeypatch, capsys):
        from domkit import verification

        def check_product_sets(scale, rng):
            raise ValueError("no cases")

        checks = list(verification.ALL_CHECKS)
        checks[checks.index(verification.check_product_sets)] = check_product_sets
        monkeypatch.setattr(verification, "ALL_CHECKS", checks)
        assert main(["verify", "--scale", "small"]) == 1
        out = capsys.readouterr().out
        expected = SMALL_SCOREBOARD.replace("result: 15/15", "result: 12/15")
        for line in SMALL_SCOREBOARD.splitlines(True)[1:4]:
            name = line.removeprefix("PASS ").partition(" [")[0]
            expected = expected.replace(line, f"FAIL {name} [0 instances] (ValueError: no cases)\n")
        assert out == expected
        assert [line.partition(" [")[0] for line in out.splitlines()[1:4]] == [
            f"FAIL {name}" for name in verification.PRODUCT_SET_LINES
        ]
        assert main(["verify", "--scale", "small", "--json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert len(checks) == 15
        assert [c["name"] for c in checks if not c["passed"]] == list(verification.PRODUCT_SET_LINES)

    def test_a_failing_bound_reports_violations(self, monkeypatch):
        from domkit import verification

        monkeypatch.setattr(verification, "upper_gamma_product_bound", lambda g, h: (0, False))
        result = verification.check_upper_domination_bound(verification.SCALES["small"], Random(0))
        assert (result.passed, result.instances, result.detail) == (False, 21, "21 violations")

    def test_scale_choices_are_the_suite_scales(self):
        from domkit import verification

        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        scale = next(a for a in sub.choices["verify"]._actions if a.dest == "scale")
        assert list(scale.choices) == sorted(verification.SCALES)

    def test_cli_import_leaves_the_suite_unloaded(self):
        src = str(Path(domkit.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, domkit.cli; print('domkit.verification' in sys.modules)"],
            capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
        )
        assert done.stdout == "False\n", done.stderr

    def test_json(self, capsys):
        assert main(["verify", "--scale", "small", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_passed"] is True
        assert len(data["checks"]) == 15
