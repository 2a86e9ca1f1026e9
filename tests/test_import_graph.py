import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import guhecke
from guhecke.cli import fixture_path
from test_cli import src_env

PACKAGE = Path(guhecke.__file__).resolve().parent
# The modules that cli binds lazily: each executes on its first read.
CLI_BINDS = {"acceptance", "dieudonne", "finitefield", "hecke", "laurent",
             "rootdatum"}


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
    # cli reads the command modules' names through its lazy bindings
    assert graph["cli"] == {"guards", "acceptance", "dieudonne", "hecke",
                            "laurent"}
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


# Prints the package modules in sys.modules, the executed ones first, then
# "|" and those only bound (a LazyLoader stub whose code has not run).
LIST_PACKAGE_MODULES = """
import importlib, sys, types
importlib.import_module(sys.argv[1])
names = sorted(m for m in sys.modules
               if m == "guhecke" or m.startswith("guhecke."))
ran = [m for m in names if type(sys.modules[m]) is types.ModuleType]
print(*ran, "|", *sorted(set(names) - set(ran)))
"""


def test_each_module_loads_only_what_it_imports():
    # The static graph above holds at run time: the package root
    # re-exports nothing, so importing one module alone executes the
    # root, the module and what its relative imports reach, and no more.
    # cli is the one exception: it executes guards only, and binds the
    # rest without executing them.
    graph = relative_imports()
    children = {}
    for module in sorted(set(graph) - {"__main__"}):
        name = "guhecke" if module == "__init__" else f"guhecke.{module}"
        children[module] = subprocess.Popen(
            [sys.executable, "-c", LIST_PACKAGE_MODULES, name], env=src_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    # Every child is waited for before any assert, so that a failure
    # leaves no child running into the tests after this one.
    outputs = {module: child.communicate(timeout=60)
               for module, child in children.items()}
    eager = dict(graph, cli=graph["cli"] - CLI_BINDS)
    for module, (out, err) in outputs.items():
        assert children[module].returncode == 0, err
        ran, bound = (set(part.split()) for part in out.split("|"))
        expected = {"guhecke"} | {f"guhecke.{m}" for m in
                                  reachable(eager, module) | {module}
                                  if m != "__init__"}
        assert ran == expected, module
        assert bound == ({f"guhecke.{m}" for m in CLI_BINDS}
                         if module == "cli" else set()), module


HECKE_SIDE = {"guards", "laurent", "rootdatum", "hecke"}
DD_SIDE = {"guards", "finitefield", "dieudonne"}

# Runs one CLI call, its output discarded, then prints its exit code and
# the package modules it executed.
RUN_COMMAND = """
import contextlib, io, sys, types
from guhecke.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m[len("guhecke."):] for m, mod in sys.modules.items()
                    if m.startswith("guhecke.")
                    and type(mod) is types.ModuleType))
"""


COMMANDS = (
    ("hecke --n 5", 0, HECKE_SIDE),
    ("hecke --n 5 --format pretty", 0, HECKE_SIDE),
    ("dd models --n 5 --p 3", 0, DD_SIDE),
    ("dd models --n 5 --p 3 --format pretty", 0, DD_SIDE),
    ("dd classify --input FIXTURE --n 5", 0, DD_SIDE),
    ("dd slopes --d 3 --p 5", 0, DD_SIDE),
    ("dd isoc --n 3 --r 1", 0, DD_SIDE),
    ("dd strata --n 5 --format csv", 0, DD_SIDE),
    # refused in main's ValueError clause, before the certificate clause
    ("hecke --n 17", 1, {"guards"}),
    ("selftest", 0, HECKE_SIDE | DD_SIDE | {"acceptance"}),
)


@pytest.mark.parametrize("argv, code, executed", COMMANDS,
                         ids=[argv for argv, _, _ in COMMANDS])
def test_each_command_executes_only_its_own_side(argv, code, executed):
    argv = argv.replace("FIXTURE", str(fixture_path())).split()
    proc = subprocess.run([sys.executable, "-c", RUN_COMMAND, *argv],
                          env=src_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    exit_code, *modules = proc.stdout.split()
    assert int(exit_code) == code
    assert set(modules) == {"cli"} | executed


# Enters the benchmark's traced replay as its run.py does, with nothing of
# the package imported first, and replays one call of each side.
ENTER_REPLAY = """
import sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path.insert(0, str(root))
from perfbench.replay import Replayer
from perfbench.spans import Tracer
with Replayer(root, Tracer()) as replayer:
    for argv in ("hecke --n 3", "dd isoc --n 3 --r 1"):
        code, out = replayer.run(argv.split(), argv.split()[0], None, False)
        print(code, bool(out))
    print(replayer.missing, len(replayer.tracer.spans) > 2)
"""


def test_the_traced_replay_enters_in_a_fresh_interpreter():
    # The replay reads the bound modules from sys.modules and walks the
    # package's attributes while they execute; the suite's own run has
    # executed them all before, so only a fresh interpreter shows a break.
    root = PACKAGE.parent.parent
    proc = subprocess.run([sys.executable, "-c", ENTER_REPLAY, str(root)],
                          env=src_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["0 True", "0 True", "[] True", ""]
