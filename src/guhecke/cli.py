"""Command-line front end.

Subcommands:

  hecke     -- build the Hecke polynomial for one n, certify the
               factorization, report Weyl invariance
  dd        -- Dieudonne toolbox: models / classify / slopes / isoc / strata
  selftest  -- run the full acceptance suite

Exit codes: 0 success, 1 usage or malformed input, 2 certificate failure,
3 data or classification error.  Running out of memory also exits 1, with
``guhecke: error: out of memory`` on stderr instead of a traceback.
Output is byte-identical across runs for identical flags and seeds; JSON
is emitted compact, one document per run.
The environment variable GUHECKE_MAX_N (default 15) caps accepted --n;
a value that is not an integer is a usage error (exit 1).  ``dd slopes``
accepts --d up to MAX_D (256), where it answers in well under a second;
a larger --d is a usage error (exit 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .acceptance import run_all
from .dieudonne import (ClassificationError, DieudonneSpace, check_bt1,
                        classify_type, isocrystal_shape, make_B, model_space,
                        newton_slopes, signature, strata_dims)
from .hecke import (PairingCertificateError, certified_factorization,
                    hecke_report)
from .laurent import LaurentPoly, NonZeroRemainderError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE = 2
EXIT_DATA = 3

DEFAULT_MAX_N = 15
MAX_D = 256  # dd slopes: the dense build of make_B(d, p) costs O(d^2)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


def _max_n() -> int:
    raw = os.environ.get("GUHECKE_MAX_N", "")
    if not raw:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise UsageError(
            f"GUHECKE_MAX_N must be an integer, got {raw!r}") from None


def _check_n(n: int) -> int:
    if n < 3 or n % 2 == 0:
        raise UsageError("n must be odd and >= 3")
    cap = _max_n()
    if n > cap:
        raise UsageError(f"n={n} exceeds GUHECKE_MAX_N={cap}")
    return n


def _dumps(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def _is_poly_list(value) -> bool:
    return (isinstance(value, list) and bool(value)
            and all(isinstance(c, LaurentPoly) for c in value))


def _emit_json(data) -> None:
    """Write data to stdout as one line of compact JSON.

    A dict value that is a list of LaurentPolys (the hecke report's H
    and R) is written one coefficient at a time, each by its own
    :meth:`LaurentPoly.json_text`, so the document is never held whole;
    everything else goes through json.dumps.
    """
    write = sys.stdout.write
    if not (isinstance(data, dict) and any(map(_is_poly_list, data.values()))):
        write(_dumps(data) + "\n")
        return
    sep = "{"
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
            write(coeff.json_text())
        write("]")
    write("}\n")


def _cmd_hecke(args) -> int:
    n = _check_n(args.n)
    if args.format == "csv":
        raise UsageError("csv output is only available for tabular commands")
    if args.format == "json":
        _emit_json(hecke_report(n))
        return EXIT_OK
    hp, quotient, root, invariant = certified_factorization(n)
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
            raise UsageError(f"r must be in 1..{n}")
    if args.format == "pretty":
        for r in rs:
            space = model_space(n, r, args.p)
            print(f"r={r}: signature={signature(space)} bt1={check_bt1(space)}")
        return EXIT_OK
    if args.format == "csv":
        raise UsageError("csv output is only available for tabular commands")
    if args.r is not None:
        _emit_json(model_space(n, args.r, args.p).to_json())
    else:
        _emit_json([{"r": r, "space": model_space(n, r, args.p).to_json()}
                    for r in rs])
    return EXIT_OK


def _cmd_classify(args) -> int:
    n = _check_n(args.n)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        space = DieudonneSpace.from_json(data)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"guhecke dd classify: malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        r = classify_type(space, n)
    except ClassificationError as exc:
        print(f"guhecke dd classify: {exc}", file=sys.stderr)
        return EXIT_DATA
    _emit_json({"type": r})
    return EXIT_OK


def _cmd_slopes(args) -> int:
    if args.d < 1:
        raise UsageError("d must be >= 1")
    if args.d > MAX_D:
        raise UsageError(f"d={args.d} exceeds the cap {MAX_D}")
    multiset = newton_slopes(make_B(args.d, args.p))
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
    shape = isocrystal_shape(n, args.r)
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
    rows = strata_dims(n)
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


def fixture_path(name: str = "ss_sum.json"):
    return resources.files("guhecke").joinpath("fixtures", name)


def _cmd_selftest(args) -> int:
    # Fixture integrity first: a corrupted shipped fixture is a data error.
    try:
        data = json.loads(fixture_path().read_text(encoding="utf-8"))
        space = DieudonneSpace.from_json(data)
        fixture_type = classify_type(space, 5)
        if fixture_type != 5:
            raise ClassificationError(
                f"fixture classified as type {fixture_type}, expected 5")
    except (ClassificationError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"fixture ss_sum.json: corrupted ({exc})", file=sys.stderr)
        return EXIT_DATA
    print("fixture ss_sum.json: type 5 ok")
    results = run_all(seed=args.seed)
    failures = [exc for _, exc in results if exc is not None]
    if not failures:
        return EXIT_OK
    if any(isinstance(exc, ClassificationError) for exc in failures):
        return EXIT_DATA
    return EXIT_CERTIFICATE


def _build_parser() -> _Parser:
    parser = _Parser(prog="guhecke",
                     description="Hecke polynomial factorization and unitary "
                                 "Dieudonne classification, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    hecke = sub.add_parser("hecke", help="build and certify the Hecke polynomial")
    hecke.add_argument("--n", type=int, required=True)
    hecke.add_argument("--format", choices=("json", "csv", "pretty"),
                       default="json")
    hecke.set_defaults(func=_cmd_hecke)

    dd = sub.add_parser("dd", help="Dieudonne module toolbox")
    ddsub = dd.add_subparsers(dest="dd_command", required=True)

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
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"guhecke: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonZeroRemainderError as exc:
        print(f"guhecke: factorization certificate FAILED: remainder "
              f"{exc.remainder}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except PairingCertificateError as exc:
        print(f"guhecke: factorization certificate FAILED: {exc}",
              file=sys.stderr)
        return EXIT_CERTIFICATE
    except ClassificationError as exc:
        print(f"guhecke: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"guhecke: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("guhecke: error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
