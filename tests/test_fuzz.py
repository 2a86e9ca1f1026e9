"""A seeded boundary fuzzer for the CLI: every input gets an answer or a
documented exit code, in bounded time.

Two generators share one fixed seed, and both are stdlib only:

* argv over every command and flag, with extreme, negative, wrong-type,
  empty and missing values, and repeated and unknown flags.  ``selftest``
  runs in full once; its other cases are refused by the parser.
* ``dd classify`` documents: seeded base changes of the type-r models,
  mutated with wrong types, shapes and keys, non-field codes and huge
  ints, plus raw texts that are empty, cut short, not UTF-8 or nested
  deeply.  A mutated p is at most 11 or past 47: at p = 47 the field
  tables take 355 MB and about 3 s, a documented bound
  (``finitefield.TABLE_MAX_P``) that this test does not exercise.

Each case runs through ``cli.main`` in-process, under a
``signal.setitimer`` budget.  The oracle: the exit code is 0, 1, 2 or
3; stderr holds no traceback; on exit 0 stdout parses in its format
(one line of JSON, a CSV table, or text), and on any other exit stdout
is empty; the case ends within its budget.  A case that breaks the
oracle is fixed in the program and kept as a named regression test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import signal

import pytest

from guhecke.cli import fixture_path, main
from guhecke.dieudonne import model_space, random_basechange

SEED = 30
ARGV_CASES = 300
DOCUMENT_CASES = 300
BUDGET_S = 5.0
SELFTEST_BUDGET_S = 30.0

VALID_N = ("3", "5", "7", "9", "11", "13")
BAD_INT = ("0", "1", "2", "-1", "-3", "-7", "4", "16", "17", "99", "10" * 20,
           "-" + "9" * 30, "1" * 5000, "abc", "3.5", "1e3", "0x5", "", " ",
           "nan", "None", "true", "--n", "+5", " 7 ")
PRIMES = ("3", "5", "7", "11", "47", "53", "101", "1000003",
          str(2 ** 61 - 1), "3317044064679887385961981")
BAD_P = ("2", "4", "9", "15", "1", "0", "-5", "-3", "10" * 20, "1" * 5000,
         "abc", "3.0", "")
FORMATS = ("json", "csv", "pretty")
BAD_FORMAT = ("xml", "JSON", "", "pretty ", "csv,json")
FLAGS = {
    ("hecke",): ("--n", "--format"),
    ("dd", "models"): ("--n", "--p", "--r", "--format"),
    ("dd", "classify"): ("--input", "--n"),
    ("dd", "slopes"): ("--d", "--p", "--format"),
    ("dd", "isoc"): ("--n", "--r", "--format"),
    ("dd", "strata"): ("--n", "--format"),
}

MAX_INT_DIGITS = 4300  # CPython's default int <-> str digit limit


class OverBudget(BaseException):
    """Raised by the alarm; a BaseException, so no handler in the
    program can take it for an input error."""


def _alarm(signum, frame):
    raise OverBudget


def run_case(argv, budget=BUDGET_S):
    """(exit code, stdout, stderr) of one in-process call; an exception
    that leaves ``main`` is returned in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    except OverBudget:
        code = f"over its {budget} s budget"
    except Exception as exc:  # an escape is a traceback in a real process
        code = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def output_format(argv) -> str:
    if argv[:1] == ["selftest"]:
        return "text"
    if argv[:2] == ["dd", "classify"]:
        return "json"
    fmt = "json"
    for flag, value in zip(argv, argv[1:] + [None]):
        if flag == "--format":
            fmt = value
        elif flag.startswith("--format="):
            fmt = flag[len("--format="):]
    return fmt


def parses(fmt: str, text: str) -> bool:
    if not text.endswith("\n"):
        return False
    if fmt == "json":
        if text.count("\n") != 1:
            return False
        try:
            json.loads(text)
        except ValueError:
            return False
        return True
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return len(rows) >= 2 and len({len(row) for row in rows}) == 1
    return text.strip() != ""


def oracle(argv, result) -> str | None:
    """Why the result breaks the oracle, or None."""
    code, out, err = result
    if code not in (0, 1, 2, 3):
        return f"exit {code!r}"
    if "Traceback" in err:
        return "traceback on stderr"
    if code == 0 and not parses(output_format(argv), out):
        return f"stdout does not parse as {output_format(argv)}: {out[:80]!r}"
    if code and out:
        return f"exit {code} with stdout {out[:80]!r}"
    return None


def check_all(cases):
    """Run (label, argv, budget) cases; assert none breaks the oracle."""
    broken = []
    for label, argv, budget in cases:
        why = oracle(argv, run_case(argv, budget))
        if why:
            broken.append(f"{label} {argv!r}: {why}")
    assert not broken, "\n".join(broken[:20])


def flag_value(rng, flag, inputs, bad):
    """A value for the flag: one it accepts, or, if bad, one that is out
    of range or of the wrong type, or an unusable --input."""
    if flag == "--format":
        return rng.choice(BAD_FORMAT if bad else FORMATS)
    if flag == "--p":
        return rng.choice(BAD_P if bad else PRIMES)
    if flag == "--input":
        return rng.choice(inputs[1:] if bad else inputs[:1])
    if bad:
        return rng.choice(BAD_INT)
    if flag == "--d":
        return rng.choice(("1", "2", "5", "37", "256"))
    if flag == "--r":
        return rng.choice(("1", "2", "3"))
    return rng.choice(VALID_N)


def fuzz_argv(rng, inputs):
    """One argv: a command with its flags, all valid in half the cases,
    else one of them bad or dropped, then at times one structural
    change."""
    command = rng.choice(list(FLAGS))
    flags = FLAGS[command]
    bad = rng.choice(flags) if rng.random() < 0.5 else None
    argv = list(command)
    for flag in flags:
        if flag != bad or rng.random() < 0.8:
            argv += [flag, flag_value(rng, flag, inputs, flag == bad)]
    roll = rng.random()
    if roll < 0.04 and len(argv) > len(command):
        argv.pop()  # a flag left without its value
    elif roll < 0.08:
        argv += [rng.choice(["--bogus", "--n", "--p", "-x", "--", "extra"])]
    elif roll < 0.12:
        flag = rng.choice(flags)
        argv += [flag, flag_value(rng, flag, inputs, rng.random() < 0.5)]
    elif roll < 0.15:
        argv = argv[:rng.randrange(len(argv) + 1)]  # cut anywhere
    elif roll < 0.20:
        argv = argv[:len(command)] + [  # --flag=value
            f"{a}={b}" for a, b in zip(argv[len(command)::2],
                                      argv[len(command) + 1::2])]
    return argv


SELFTEST_REFUSED = (["selftest", "--seed"], ["selftest", "--seed", "abc"],
                    ["selftest", "--seed", "1.5"], ["selftest", "--seed", ""],
                    ["selftest", "--bogus"], ["selftest", "--seed", "1", "x"],
                    ["selftest", "--n", "5"], ["selftest", "--seed=1e3"])
FIXED = ([], ["dd"], ["bogus"], ["hecke"], ["dd", "bogus"], ["--n", "5"],
         ["hecke", "--format", "json"], ["dd", "classify", "--n", "5"])


def test_fuzz_argv(tmp_path):
    rng = random.Random(SEED)
    empty = tmp_path / "empty.json"
    empty.write_text("", encoding="utf-8")
    models = tmp_path / "models.json"
    models.write_text(json.dumps(model_space(5, 3, 3).to_json()),
                      encoding="utf-8")
    inputs = (str(fixture_path()), str(models), str(empty), str(tmp_path),
              str(tmp_path / "missing.json"), "")
    cases = [("fixed", argv, BUDGET_S) for argv in FIXED]
    cases += [("selftest refused", argv, BUDGET_S)
              for argv in SELFTEST_REFUSED]
    cases.append(("selftest", ["selftest", "--seed", str(rng.randrange(100))],
                  SELFTEST_BUDGET_S))
    cases += [(f"argv {i}", fuzz_argv(rng, inputs), BUDGET_S)
              for i in range(ARGV_CASES)]
    check_all(cases)


# -- dd classify documents -----------------------------------------------------

DOC_P = (3, 5, 7, 11)
MUTANT_P = (3, 5, 7, 11, 53, 101, 2, 1, 0, -3, 4, 9, 10 ** 40,
            3317044064679887385961981)
WRONG_TYPES = ("3", 3.0, None, True, False, [], {}, [[]], "", [1, 2, 3])
HUGE = (10 ** 40, -10 ** 40, 10 ** 4000, -1, -(10 ** 6))
MATRICES = ("F_e2ebar", "F_ebar2e", "V_e2ebar", "V_ebar2e", "gram")
KEYS = ("p", "ne", "nebar") + MATRICES


def base_document(rng):
    n = rng.choice((3, 5, 7))
    space = model_space(n, rng.randint(1, n), rng.choice(DOC_P))
    return random_basechange(space, rng.randrange(10 ** 6)).to_json()


def mutate(rng, doc):
    """One mutation of a document, in place."""
    key = rng.choice(KEYS)
    matrix = doc.get(rng.choice(MATRICES))
    rows = [i for i, row in enumerate(matrix) if isinstance(row, list) and row
            ] if isinstance(matrix, list) else []
    if rows:
        kind, i = rng.randrange(9), rng.choice(rows)
        row = matrix[i]
        j = rng.randrange(len(row))
    else:  # an earlier mutation took that matrix apart
        kind = rng.randrange(5)
    if key not in doc and kind in (1, 2):
        kind = 0
    if kind == 0:
        doc[key] = rng.choice(WRONG_TYPES)
    elif kind == 1:
        del doc[key]
    elif kind == 2:
        doc[rng.choice(("P", "extra", "ne ", ""))] = doc.pop(key)
    elif kind == 3:
        doc["p"] = rng.choice(MUTANT_P)
    elif kind == 4:
        doc[rng.choice(("ne", "nebar"))] = rng.choice(
            (1, 2, 3, 4, 5, 7, 0, -1, 10 ** 30, *WRONG_TYPES))
    elif kind == 5:
        row[j] = rng.choice(([rng.choice(HUGE), 0], [0, rng.choice(HUGE)],
                             [1], [1, 2, 3], 5, [1.5, 0], ["1", 0], [True, 0],
                             None))
    elif kind == 6:
        row[j] = [rng.randrange(-50, 50), rng.randrange(-50, 50)]
    elif kind == 7:
        rng.choice((lambda: matrix.pop(i), lambda: row.pop(j),
                    lambda: matrix.append(list(row)),
                    lambda: row.append([0, 0]),
                    lambda: matrix.clear()))()
    else:
        matrix[i] = rng.choice(WRONG_TYPES)


def raw_texts(rng, doc):
    text = json.dumps(doc)
    depth = rng.choice((100, 1000, 100_000))
    return (
        "",
        text[:rng.randrange(len(text))],
        "[" * depth + "]" * depth,
        '{"p": 3, "ne": 3, "nebar": 3, "gram": ' + "[" * depth,
        text.replace('"p": ', '"p": 1' + "0" * (MAX_INT_DIGITS + 10), 1),
        "null", "[]", "3", '"x"', '{"ne": 3}',
    )


def test_fuzz_classify_documents(tmp_path):
    rng = random.Random(SEED)
    cases = []
    for i in range(DOCUMENT_CASES):
        doc = base_document(rng)
        n = str(doc["ne"])
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            mutate(rng, doc)
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cases.append((f"document {i}", ["dd", "classify", "--input", str(path),
                                        "--n", n], BUDGET_S))
    for i, text in enumerate(raw_texts(rng, base_document(rng))):
        path = tmp_path / f"raw{i}.json"
        path.write_text(text, encoding="utf-8")
        cases.append((f"raw text {i}", ["dd", "classify", "--input", str(path),
                                        "--n", "5"], BUDGET_S))
    bad_utf8 = tmp_path / "bytes.json"
    bad_utf8.write_bytes(b'{"p": 3, "ne": \xff\xfe}')
    cases.append(("not UTF-8", ["dd", "classify", "--input", str(bad_utf8),
                                "--n", "3"], BUDGET_S))
    check_all(cases)


@pytest.mark.parametrize("result", (
    (4, "", ""), ("KeyError: 'ne'", "", ""), (0, "", ""), (0, "{}", ""),
    (0, "{}\n{}\n", ""), (1, "{}\n", "guhecke: error: x\n"),
    (1, "", "Traceback (most recent call last):\n"),
    ("over its 5.0 s budget", "", "")))
def test_the_oracle_refuses_a_broken_result(result):
    assert oracle(["hecke", "--n", "3"], result) is not None

