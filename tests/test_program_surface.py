"""The library at its program surface.

Every function and method defined in ``src/guhecke`` is entered by a CLI
call or an acceptance criterion, or it is named in ``ALLOWED`` with the
reason it stays.  The calls of the replayed CLI grid
(``tests/test_cli_grid.py``) run in-process under ``sys.setprofile``,
which records each Python function entered.  ``selftest`` runs once with
every criterion stubbed, so that only its front end is traced, and each
registered criterion then runs traced on its own.  The one exception is
classification-roundtrip: it takes about 1 s untraced and reaches
nothing that the other calls miss, so its ``run`` counts as reached by
registration and is not traced.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import io
import sys
from pathlib import Path

import guhecke
import guhecke.acceptance as acceptance
from guhecke.cli import main
from test_cli_grid import grid_argvs, run_case

PACKAGE = Path(guhecke.__file__).resolve().parent
UNTRACED = "classification-roundtrip"

# (module, qualified name) -> why it stays though no program path enters it
ALLOWED = {
    ("laurent", "LaurentPoly.to_json"):
        "reached through TPoly.to_json, the benchmark replay's target",
    ("laurent", "TPoly.to_json"):
        "the benchmark replay wraps it as laurent.to_json",
    ("laurent", "LaurentPoly.__len__"):
        "the benchmark replay counts terms_H and terms_R with it",
    ("laurent", "LaurentPoly._exact_bound"):
        "the lane-overflow retry; no CLI input gets near the lane limit",
    ("laurent", "NonZeroRemainderError.__init__"):
        "raised only if the factorization certificate fails",
    ("laurent", "LaurentPoly.__repr__"): "debugging repr",
    ("laurent", "TPoly.__repr__"): "debugging repr",
    ("laurent", "TPoly.__hash__"): "keeps TPoly hashable with its __eq__",
    ("finitefield", "GFp2.add"): "the benchmark replay's warm_field calls it",
    ("finitefield", "GFp2.mul"): "the benchmark replay's warm_field calls it",
    ("finitefield", "GFp2.inv"): "the benchmark replay's warm_field calls it",
    ("finitefield", "GFp2.frob"): "the benchmark replay's warm_field calls it",
    ("finitefield", "GFp2.__repr__"): "debugging repr",
    ("rootdatum", "WeylElement.__eq__"): "value equality of group elements",
    ("rootdatum", "WeylElement.__hash__"): "keeps WeylElement hashable "
                                           "with its __eq__",
    ("rootdatum", "WeylElement.__repr__"): "debugging repr",
    ("dieudonne", "char_poly"):
        "the first half of the slope reference in tests/reference.py, and "
        "the benchmark replay wraps it as dieudonne.char_poly",
    ("cli", "_Parser.error"):
        "argparse usage failures; tests/test_cli.py covers them",
}


def defined_functions() -> dict[tuple[str, int], tuple[str, str]]:
    """(module, first line of its code) -> (module, qualified name) for
    every def in the package.  A decorated function's code starts at its
    first decorator."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out[module, first] = (module, name)
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def clear_caches():
    """Empty every memo cache of the package, as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "guhecke"
                                or name.startswith("guhecke.")):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


@contextlib.contextmanager
def tracing(codes: dict):
    """Record the code object of each Python function entered, by id."""
    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(previous)


def entered_functions(monkeypatch) -> set[tuple[str, int]]:
    monkeypatch.delenv("GUHECKE_MAX_N", raising=False)
    assert UNTRACED in {c.name for c in acceptance.CRITERIA}
    clear_caches()
    codes: dict = {}
    stubs = tuple(dataclasses.replace(c, run=lambda seed: "not run")
                  for c in acceptance.CRITERIA)
    with tracing(codes):
        for argv in grid_argvs():
            run_case(argv)
        with monkeypatch.context() as patch:
            patch.setattr(acceptance, "CRITERIA", stubs)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["selftest", "--seed", "0"]) == 0
        for criterion in acceptance.CRITERIA:
            if criterion.name != UNTRACED:
                criterion.run(0)
    clear_caches()
    registered = [c.run.__code__ for c in acceptance.CRITERIA]
    package = str(PACKAGE)
    return {(Path(code.co_filename).stem, code.co_firstlineno)
            for code in [*codes.values(), *registered]
            if str(Path(code.co_filename).resolve().parent) == package}


def test_every_library_function_is_reached_or_allowed(monkeypatch):
    defined = defined_functions()
    entered = entered_functions(monkeypatch)
    unreached = {name for key, name in defined.items() if key not in entered}
    assert sorted(unreached - ALLOWED.keys()) == []
    # An entry the program reaches, or that names no def, is stale.
    assert sorted(ALLOWED.keys() - unreached) == []
