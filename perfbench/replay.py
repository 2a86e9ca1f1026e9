"""The traced replay: each request run in this process through
``guhecke.cli.main``, with spans around the program's public calls.

The spans come from wrappers that this file installs for the length of a
replay, over the functions and methods listed in ``TARGETS``, wherever
the package's modules bind them.  Every request starts cold: the
package's memo caches are cleared first, as in a fresh CLI process.
Output is captured and checked like a CLI call's, so a replay that no
longer follows the CLI shows up as a failure or as falling coverage.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import math
import sys
import traceback
from pathlib import Path

from .spans import Tracer

LAYERS = ("cli", "laurent", "rootdatum", "hecke", "finitefield", "dieudonne",
          "acceptance")
ROOT_PREFIX = "cli."
PROBE_SPANS = frozenset({"finitefield.rref"})


def _weyl_count(span, args, kwargs, result):
    group = args[2] if len(args) > 2 else kwargs.get("group")
    if group is not None:
        size = len(group)
    else:
        m = (args[1] - 1) // 2
        size = 2 ** m * math.factorial(m)
    span.counts["weyl_elements_checked"] = size


def _closure_count(span, args, kwargs, result):
    span.counts["closure_size"] = len(result)


def _term_counts(span, args, kwargs, result):
    span.counts["terms_H"] = sum(len(c) for c in result["Hp"])
    span.counts["terms_R"] = sum(len(c) for c in result["R"])


# (module, attribute or Class.method, span name, counter)
TARGETS = (
    ("guhecke.cli", "_emit_json", "cli.json_encode", None),
    ("guhecke.hecke", "hecke_report", "hecke.report", _term_counts),
    ("guhecke.hecke", "hecke_polynomial", "laurent.expand", None),
    ("guhecke.laurent", "TPoly.divide_exact", "laurent.divide", None),
    ("guhecke.laurent", "TPoly.to_json", "laurent.to_json", None),
    ("guhecke.laurent", "TPoly.evaluate", "laurent.evaluate", None),
    ("guhecke.hecke", "check_weyl_invariance", "rootdatum.weyl_check",
     _weyl_count),
    ("guhecke.hecke", "hecke_value_by_determinant", "hecke.det_crosscheck",
     None),
    ("guhecke.dieudonne", "DieudonneSpace.from_json", "dieudonne.from_json",
     None),
    ("guhecke.dieudonne", "DieudonneSpace.to_json", "dieudonne.to_json", None),
    ("guhecke.dieudonne", "check_bt1", "dieudonne.check_bt1", None),
    ("guhecke.dieudonne", "signature", "dieudonne.signature", None),
    ("guhecke.dieudonne", "fingerprint", "dieudonne.fingerprint",
     _closure_count),
    ("guhecke.dieudonne", "_model_fingerprints",
     "dieudonne.model_fingerprints", None),
    ("guhecke.dieudonne", "model_space", "dieudonne.model_space", None),
    ("guhecke.dieudonne", "char_poly", "dieudonne.char_poly", None),
    ("guhecke.dieudonne", "newton_slopes", "dieudonne.newton", None),
)


def import_program(root: Path):
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return importlib.import_module("guhecke.cli")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "guhecke" or name.startswith("guhecke."))]


class Replayer:
    """Installs the span wrappers on entry and removes them on exit."""

    def __init__(self, root: Path, tracer: Tracer):
        self.cli = import_program(root)
        self.tracer = tracer
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._cache_clears = []

    # -- installing wrappers --------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self, module_name, target, span_name, counter):
        module = sys.modules.get(module_name)
        cls_name, _, attr = target.rpartition(".")
        owner = getattr(module, cls_name, None) if cls_name else module
        if owner is None or attr not in vars(owner):
            self.missing.append(f"{module_name}.{target}")
            return
        if cls_name:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.tracer.wrap(raw.__func__, span_name,
                                                       counter))
            else:
                wrapped = self.tracer.wrap(raw, span_name, counter)
            self._set(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = self.tracer.wrap(original, span_name, counter)
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapped)

    def __enter__(self):
        for mod in _package_modules():
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear) and clear not in self._cache_clears:
                    self._cache_clears.append(clear)
        for target in TARGETS:
            self._install(*target)
        acceptance = sys.modules["guhecke.acceptance"]
        self._set(acceptance, "CRITERIA", tuple(
            dataclasses.replace(c, run=self.tracer.wrap(
                c.run, f"acceptance.{c.name}"))
            for c in acceptance.CRITERIA))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        self.clear_caches()

    def criterion_names(self) -> list[str]:
        return [c.name for c in sys.modules["guhecke.acceptance"].CRITERIA]

    def clear_caches(self):
        for clear in self._cache_clears:
            clear()

    # -- running one request ------------------------------------------------

    def run(self, argv: list[str], command: str, p: int | None,
            uses_field: bool) -> tuple[int, bytes]:
        """Replay one CLI call cold, under a root span ``cli.<command>``;
        returns its exit code and stdout.  ``uses_field`` requests build
        the F_{p^2} tables first, inside their own span."""
        self.clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with self.tracer.span(ROOT_PREFIX + command), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if uses_field and p is not None:
                with self.tracer.span("finitefield.tables"):
                    self.warm_field(p)
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error exits 1 from the CLI too
                traceback.print_exc()
                code = 1
        return code, out.getvalue().encode()

    def warm_field(self, p: int):
        """First use of each field operation on a fresh GFp2(p)."""
        fld = sys.modules["guhecke.finitefield"].gfp2(p)
        fld.add(0, 1)
        fld.mul(1, 1)
        fld.inv(1)
        fld.neg(1)
        fld.frob(1)

    def rref_probe(self, input_path: Path):
        """rref of the transposes of an input's structure matrices, timed
        as its own root span.  Inputs the program rejects are skipped."""
        ff = sys.modules["guhecke.finitefield"]
        dd = sys.modules["guhecke.dieudonne"]
        with self.tracer.paused():
            try:
                space = dd.DieudonneSpace.from_json(
                    json.loads(input_path.read_text(encoding="utf-8")))
            except (ValueError, KeyError, TypeError):
                return
        fld = ff.gfp2(space.p)
        mats = (space.f_e2ebar, space.f_ebar2e, space.v_e2ebar,
                space.v_ebar2e, space.gram)
        with self.tracer.span("finitefield.rref"):
            for m in mats:
                ff.rref(fld, ff.mat_transpose(m))
