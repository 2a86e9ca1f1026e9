import ast
from pathlib import Path

import guhecke

PACKAGE = Path(guhecke.__file__).resolve().parent


def relative_imports() -> dict[str, set[str]]:
    """module -> the package modules it imports with a relative import."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(alias.name for alias in node.names)
        graph[path.stem] = targets
    return graph


def reachable(graph, start) -> set[str]:
    seen, work = set(), [start]
    while work:
        for nxt in graph.get(work.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


def test_exact_core_does_not_reach_the_hecke_side_or_the_front_ends():
    graph = relative_imports()
    assert {"finitefield", "rational"} <= graph["dieudonne"]
    assert {"dieudonne", "hecke", "acceptance"} <= graph["cli"]
    for module in ("dieudonne", "finitefield", "rational"):
        assert not reachable(graph, module) & {"hecke", "acceptance", "cli"}, \
            module


def test_dieudonne_loads_no_laurent_or_root_datum_code():
    graph = relative_imports()
    assert graph["guards"] == set()
    assert "guards" in graph["dieudonne"]
    assert not reachable(graph, "dieudonne") & {"rootdatum", "laurent"}
    # the guard is shared, not copied
    assert {"guards"} <= graph["rootdatum"] & graph["hecke"]


def test_only_laurent_reads_the_monomial_view():
    # Monomial maps act on LaurentPoly.exponent_rows; the Monomial-keyed
    # ``terms`` view is decoded on every read, so the package leaves it to
    # the tests and to library callers.
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "terms":
                readers.add(path.stem)
    assert readers <= {"laurent"}
