import ast
import re
import subprocess
import sys
from pathlib import Path

import guhecke
from test_cli import src_env

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
    assert "finitefield" in graph["dieudonne"]
    assert {"dieudonne", "hecke", "acceptance"} <= graph["cli"]
    for module in ("dieudonne", "finitefield"):
        assert not reachable(graph, module) & {"hecke", "acceptance", "cli"}, \
            module


def test_dieudonne_loads_no_laurent_or_root_datum_code():
    graph = relative_imports()
    assert graph["guards"] == set()
    assert "guards" in graph["dieudonne"]
    assert not reachable(graph, "dieudonne") & {"rootdatum", "laurent"}
    # the guard is shared, not copied
    assert {"guards"} <= graph["rootdatum"] & graph["hecke"]


def test_root_datum_loads_no_package_code_but_the_guard():
    # A monomial is a plain exponent row, so the root datum needs no
    # Laurent code to act on one.
    assert reachable(relative_imports(), "rootdatum") == {"guards"}


PACKED_STATE = {"_codes", "_bound", "_decode", "_from_sums"}


def test_only_laurent_reads_the_packed_state():
    # Outside laurent a polynomial is read through exponent_rows and its
    # other public methods, never through its packed codes.
    readers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in PACKED_STATE:
                readers.setdefault(path.stem, set()).add(name)
    assert set(readers) == {"laurent"}
    assert readers["laurent"] == PACKED_STATE


FIELD_TABLES = {"_add", "_mul", "_neg", "_inv", "_frob"}


def test_only_finitefield_reads_the_field_tables():
    # Outside finitefield the field is used through its element
    # operations and matrix routines, so a new representation of F_{p^2}
    # touches finitefield only.
    readers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in FIELD_TABLES:
                readers.setdefault(path.stem, set()).add(node.attr)
    assert set(readers) == {"finitefield"}
    assert readers["finitefield"] == FIELD_TABLES


README = PACKAGE.parent.parent / "README.md"


def environment_reads() -> set[str]:
    """The names the package reads from the environment, through
    ``os.environ[...]``, ``os.environ.get`` or ``os.getenv``.  A read of
    a name that is not a string literal, and any other use of
    ``environ`` or ``getenv``, is recorded as "?"."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        keys = {}  # id of the environ or getenv node -> the name read
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript):
                keys[id(node.value)] = node.slice
            elif isinstance(node, ast.Call) and node.args:
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "get":
                    func = func.value
                keys[id(func)] = node.args[0]
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in ("environ", "getenv"):
                key = keys.get(id(node))
                literal = (isinstance(key, ast.Constant)
                           and isinstance(key.value, str))
                names.add(key.value if literal else "?")
    return names


def test_the_package_reads_only_the_environment_readme_documents():
    # Each read is an option, so README names each one.
    documented = set(re.findall(r"GUHECKE_[A-Z0-9_]+",
                                README.read_text(encoding="utf-8")))
    assert environment_reads() == documented


LIST_PACKAGE_MODULES = (
    "import importlib, sys; importlib.import_module(sys.argv[1]); "
    "print(' '.join(sorted(m for m in sys.modules "
    "if m == 'guhecke' or m.startswith('guhecke.'))))")


def test_each_module_loads_only_what_it_imports():
    # The static graph above holds at run time: the package root
    # re-exports nothing, so importing one module alone loads the root,
    # the module and what its relative imports reach, and no more.
    graph = relative_imports()
    children = {}
    for module in sorted(set(graph) - {"__main__"}):
        name = "guhecke" if module == "__init__" else f"guhecke.{module}"
        children[module] = subprocess.Popen(
            [sys.executable, "-c", LIST_PACKAGE_MODULES, name], env=src_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for module, child in children.items():
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        expected = {"guhecke"} | {f"guhecke.{m}" for m in
                                  reachable(graph, module) | {module}
                                  if m != "__init__"}
        assert set(out.split()) == expected, module
