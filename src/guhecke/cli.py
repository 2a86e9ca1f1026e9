"""Command-line front end.

Subcommands:

  hecke     -- build the Hecke polynomial for one n, certify the
               factorization, report Weyl invariance
  dd        -- Dieudonne toolbox: models / classify / slopes / isoc / strata
  selftest  -- run the full acceptance suite

Exit codes: 0 success, 1 usage or malformed input, 2 certificate failure,
3 data or classification error.  Running out of memory also exits 1, with
``guhecke: error: out of memory`` on stderr instead of a traceback, and so
does a failed write to stdout (a closed pipe or fd, a full disk), with
``guhecke: error: cannot write output: ...``.
Output is byte-identical across runs for identical flags and seeds; JSON
is emitted compact, one document per run.
Every command that takes --n accepts odd n up to MAX_N (15), the n that
``selftest`` certifies; ``guards`` owns MAX_N, so no acceptance code runs
to check --n.  A larger --n is a usage error (exit 1).  H has about 3.3x
more terms per step in n (14 580 at n = 15, 157 464 at n = 19).
``dd models`` answers at any prime --p.  ``dd slopes`` accepts --d up to
MAX_D (256), an input bound (the model is built in O(d)); a larger --d
is a usage error (exit 1).
``dd classify`` reads the input's ``ne`` first: one that is not an integer
is malformed input (exit 1), and an integer other than --n exits 3 before
any matrix is decoded or validated, whatever else the document holds.

Each command executes only its own side: every module but guards is bound
lazily (importlib.util.LazyLoader) and runs on its first read, so ``hecke``
executes laurent, rootdatum and hecke, ``dd`` finitefield and dieudonne.
All are bound here, not imported per command, as the benchmark's replay
reads them off sys.modules and the package until ROADMAP item 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .guards import MAX_N

for _name in ("acceptance", "dieudonne", "finitefield", "hecke", "laurent",
              "rootdatum"):
    if f"{__package__}.{_name}" not in sys.modules:  # else imported already
        _spec = find_spec(f"{__package__}.{_name}")
        _spec.loader = LazyLoader(_spec.loader)
        sys.modules[_spec.name] = _module = module_from_spec(_spec)
        _spec.loader.exec_module(_module)
        setattr(sys.modules[__package__], _name, _module)
from . import acceptance, dieudonne as dd, hecke, laurent  # noqa: E402

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE = 2
EXIT_DATA = 3

MAX_D = 256  # dd slopes: the input bound on --d; the build is O(d)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _CheckedStdout:
    """sys.stdout during :func:`main`: an OSError from a write or a flush
    is raised as a ValueError, which :func:`main` reports with exit 1;
    no other OSError is taken for one."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, text):
        return self._checked("write", text)

    def flush(self):
        self._checked("flush")

    def _checked(self, method, *args):
        if self.stream is None:  # fd 1 was closed at start-up
            raise ValueError("cannot write output: stdout is closed")
        try:
            return getattr(self.stream, method)(*args)
        except OSError as exc:
            if self.stream is sys.__stdout__:
                # so that the flush at exit cannot fail again (Python docs)
                os.dup2(os.open(os.devnull, os.O_WRONLY), self.stream.fileno())
            raise ValueError(f"cannot write output: {exc}") from None


def _check_n(n: int) -> int:
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the cap {MAX_N}")
    return n


def _dumps(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def _is_poly_list(value) -> bool:
    return (isinstance(value, list) and bool(value)
            and all(hasattr(c, "json_text") for c in value))


def _emit_json(data) -> None:
    """Write data to stdout as one line of compact JSON.

    A dict value that is a list of LaurentPolys (the hecke report's H
    and R) is written one coefficient at a time, each as its
    :meth:`LaurentPoly.json_text`, so the document is never held whole;
    all the coefficients of one call share one texts dict, so each
    distinct lane pair is rendered once per report.  Everything else
    goes through json.dumps.
    """
    write = sys.stdout.write
    if not (isinstance(data, dict) and any(map(_is_poly_list, data.values()))):
        write(_dumps(data) + "\n")
        return
    sep, texts = "{", {}
    for key, value in data.items():
        write(f"{sep}{_dumps(key)}:")
        sep = ","
        if not _is_poly_list(value):
            write(_dumps(value))
            continue
        write("[")
        for i, coeff in enumerate(value):
            if i:
                write(",")
            write(coeff.json_text(texts))
        write("]")
    write("}\n")


def _cmd_hecke(args) -> int:
    n = _check_n(args.n)
    if args.format == "csv":
        raise ValueError("csv output is only available for tabular commands")
    if args.format == "json":
        _emit_json(hecke.hecke_report(n))
        return EXIT_OK
    hp, quotient, root, invariant = hecke.certified_factorization(n)
    print(f"n = {n}")
    print(f"H(t) = {hp}")
    print(f"linear factor: t - {root}")
    print(f"R(t) = {quotient}")
    print(f"weyl_invariant = {invariant}")
    return EXIT_OK


def _cmd_models(args) -> int:
    n = _check_n(args.n)
    rs = [args.r] if args.r is not None else list(range(1, n + 1))
    for r in rs:
        if not 1 <= r <= n:
            raise ValueError(f"r must be in 1..{n}")
    if args.format == "pretty":
        for r in rs:
            sig, bt1 = dd.integral_model(n, r, args.p).signature_and_bt1()
            print(f"r={r}: signature={sig} bt1={bt1}")
        return EXIT_OK
    if args.format == "csv":
        raise ValueError("csv output is only available for tabular commands")
    if args.r is not None:
        _emit_json(dd.model_space(n, args.r, args.p).to_json())
    else:
        _emit_json([{"r": r, "space": dd.model_space(n, r, args.p).to_json()}
                    for r in rs])
    return EXIT_OK


def _cmd_classify(args) -> int:
    n = _check_n(args.n)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        ne = data["ne"]
        # from_json refuses an ne that is not an int; an int ne other
        # than n exits 3 below with no matrix decoded.
        space = None
        if type(ne) is not int or ne == n:
            space = dd.DieudonneSpace.from_json(data)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"guhecke dd classify: malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        dd.check_dimension(ne, n)
        r = dd.classify_type(space, n)
    except dd.ClassificationError as exc:
        print(f"guhecke dd classify: {exc}", file=sys.stderr)
        return EXIT_DATA
    _emit_json({"type": r})
    return EXIT_OK


def _cmd_slopes(args) -> int:
    if args.d < 1:
        raise ValueError("d must be >= 1")
    if args.d > MAX_D:
        raise ValueError(f"d={args.d} exceeds the cap {MAX_D}")
    multiset = dd.newton_slopes(dd.integral_model(args.d, args.d, args.p))
    if args.format == "json":
        _emit_json(multiset.to_json())
    elif args.format == "csv":
        print("slope,mult")
        for s, m in multiset.entries:
            print(f"{s},{m}")
    else:
        print(multiset)
    return EXIT_OK


def _cmd_isoc(args) -> int:
    n = _check_n(args.n)
    shape = dd.isocrystal_shape(n, args.r)
    if args.format == "json":
        _emit_json(shape.to_json())
    elif args.format == "csv":
        print("slope,mult")
        for s, m in shape.slopes.entries:
            print(f"{s},{m}")
    else:
        print(f"n={shape.n} r={shape.r} slopes={shape.slopes}")
        for f in shape.factors:
            print(f"  factor slope={f.slope} dim={f.dim} count={f.count}")
    return EXIT_OK


def _cmd_strata(args) -> int:
    n = _check_n(args.n)
    rows = dd.strata_dims(n)
    if args.format == "json":
        _emit_json([row.to_json() for row in rows])
    elif args.format == "csv":
        print("r,dim,ordinary,supersingular,slopes")
        for row in rows:
            slope_str = ";".join(f"{s}:{m}" for s, m in row.slopes.entries)
            print(f"{row.r},{row.dim},{row.ordinary},{row.supersingular},"
                  f"{slope_str}")
    else:
        for row in rows:
            tags = []
            if row.ordinary:
                tags.append("ordinary")
            if row.supersingular:
                tags.append("supersingular")
            label = f" ({', '.join(tags)})" if tags else ""
            print(f"r={row.r}: dim {row.dim}{label}  slopes {row.slopes}")
    return EXIT_OK


def fixture_path():
    from importlib import resources  # only selftest and the tests read it
    return resources.files("guhecke").joinpath("fixtures", "ss_sum.json")


def _cmd_selftest(args) -> int:
    # Fixture integrity first: a corrupted shipped fixture is a data error.
    try:
        data = json.loads(fixture_path().read_text(encoding="utf-8"))
        space = dd.DieudonneSpace.from_json(data)
        fixture_type = dd.classify_type(space, 5)
        if fixture_type != 5:
            raise dd.ClassificationError(
                f"fixture classified as type {fixture_type}, expected 5")
    except (dd.ClassificationError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"fixture ss_sum.json: corrupted ({exc})", file=sys.stderr)
        return EXIT_DATA
    print("fixture ss_sum.json: type 5 ok")
    results = acceptance.run_all(seed=args.seed)
    failures = [exc for _, exc in results if exc is not None]
    if not failures:
        return EXIT_OK
    if any(isinstance(exc, dd.ClassificationError) for exc in failures):
        return EXIT_DATA
    return EXIT_CERTIFICATE


def _build_parser() -> _Parser:
    parser = _Parser(prog="guhecke",
                     description="Hecke polynomial factorization and unitary "
                                 "Dieudonne classification, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("hecke", help="build and certify the Hecke polynomial")
    report.add_argument("--n", type=int, required=True)
    report.add_argument("--format", choices=("json", "csv", "pretty"),
                        default="json")
    report.set_defaults(func=_cmd_hecke)

    toolbox = sub.add_parser("dd", help="Dieudonne module toolbox")
    ddsub = toolbox.add_subparsers(dest="dd_command", required=True)

    models = ddsub.add_parser("models", help="emit the classification models")
    models.add_argument("--n", type=int, required=True)
    models.add_argument("--p", type=int, required=True)
    models.add_argument("--r", type=int)
    models.add_argument("--format", choices=("json", "csv", "pretty"),
                        default="json")
    models.set_defaults(func=_cmd_models)

    classify = ddsub.add_parser("classify", help="classify a space from JSON")
    classify.add_argument("--input", required=True)
    classify.add_argument("--n", type=int, required=True)
    classify.set_defaults(func=_cmd_classify)

    slopes = ddsub.add_parser("slopes", help="Newton slopes of the banded model")
    slopes.add_argument("--d", type=int, required=True)
    slopes.add_argument("--p", type=int, required=True)
    slopes.add_argument("--format", choices=("json", "csv", "pretty"),
                        default="json")
    slopes.set_defaults(func=_cmd_slopes)

    isoc = ddsub.add_parser("isoc", help="isocrystal shape for (n, r)")
    isoc.add_argument("--n", type=int, required=True)
    isoc.add_argument("--r", type=int, required=True)
    isoc.add_argument("--format", choices=("json", "csv", "pretty"),
                      default="json")
    isoc.set_defaults(func=_cmd_isoc)

    strata = ddsub.add_parser("strata", help="stratum dimension table")
    strata.add_argument("--n", type=int, required=True)
    strata.add_argument("--format", choices=("json", "csv", "pretty"),
                        default="json")
    strata.set_defaults(func=_cmd_strata)

    selftest = sub.add_parser("selftest", help="run the acceptance suite")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    stdout = sys.stdout
    sys.stdout = _CheckedStdout(stdout)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    # before the certificate clause, whose names execute laurent and hecke
    except ValueError as exc:
        print(f"guhecke: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("guhecke: error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except (laurent.NonZeroRemainderError,
            hecke.PairingCertificateError) as exc:
        print(f"guhecke: factorization certificate FAILED: {exc}",
              file=sys.stderr)
        return EXIT_CERTIFICATE
    finally:
        sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
