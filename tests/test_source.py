"""Rules on the package source itself."""

import ast
import importlib.util
from pathlib import Path

import domkit

PACKAGE = Path(domkit.__file__).parent
TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _parsed_modules():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 8
    return [(path, ast.parse(path.read_text(), str(path))) for path in paths]


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements, so no check in the package may be one
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _parsed_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def test_no_module_imports_a_name_it_never_reads():
    # the benchmark's tracer wraps names in the namespaces that call them, so a
    # name it wraps may stay imported where the code no longer calls it;
    # ``__init__`` imports the package's public names for its users
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = {(ns, attr) for ns, attr, *_ in tracer._SPANS + tracer._COUNTERS}
    unread = [
        f"{path.stem}.{name}"
        for path, tree in _parsed_modules()
        if path.stem != "__init__"
        for name in sorted(_imported_names(tree) - {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        })
        if (path.stem, name) not in wrapped
    ]
    assert unread == []


def _imported_modules(tree: ast.Module) -> set[str]:
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    return modules


def test_only_graphs_imports_gc():
    # the collector switch is process-wide, so one primitive
    # (``graphs._bulk_new``) owns it
    importers = [path.name for path, tree in _parsed_modules() if "gc" in _imported_modules(tree)]
    assert importers == ["graphs.py"]


def _private_definitions(tree: ast.Module):
    """The private top-level functions and class methods of a module."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and member.name.startswith("_") and not member.name.endswith("__")):
                yield member


def test_every_private_helper_is_used_in_the_package():
    # a helper that a rewrite replaced is deleted, not kept alive by tests:
    # only references from the package itself count, and a definition's own
    # body (a recursive call) does not
    modules = _parsed_modules()
    references = []
    for path, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((path, node, node.id))
            elif isinstance(node, ast.Attribute):
                references.append((path, node, node.attr))
    unused = []
    for path, tree in modules:
        for helper in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(helper)}
            if not any(name == helper.name and not (where == path and id(node) in inside)
                       for where, node, name in references):
                unused.append(f"{path.stem}.{helper.name}")
    assert unused == []


def _module_tree(name: str) -> ast.Module:
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(), str(path))


def _names_in(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_oracles_stay_independent_of_the_fast_paths():
    # the cross-checks compare the fast paths with the brute-force oracles,
    # which mean something only while the oracles share none of their code:
    # ``bruteforce`` imports the set types, bit iteration and the sort key
    # alone, the definitional irreducibility check builds no leaf frame, and
    # ``verification`` takes the per-set predicates of its oracle sides from
    # ``bruteforce``, not from ``domination`` or ``hypergraphs``
    def from_imports(module):
        return {
            (node.module, alias.name)
            for node in ast.walk(_module_tree(module))
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }

    assert from_imports("bruteforce") == {
        ("graphs", "Graph"), ("graphs", "VertexSet"), ("graphs", "iter_bits"),
        ("graphs", "set_sort_key"), ("hypergraphs", "Hypergraph"),
    }
    assert not any(isinstance(node, ast.Import) for node in ast.walk(_module_tree("bruteforce")))
    [definitional] = [
        node for node in _module_tree("domination").body
        if isinstance(node, ast.FunctionDef)
        and node.name == "is_irreducible_dominating_definitional"
    ]
    assert not _names_in(definitional) & {"_frame", "_once_cover"}
    assert not from_imports("verification") & {
        ("domination", "is_dominating"), ("domination", "is_minimal_dominating"),
        ("domination", "is_minimal_total_dominating"), ("hypergraphs", "is_minimal_transversal"),
    }
