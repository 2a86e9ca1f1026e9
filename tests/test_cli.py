import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path, PurePosixPath

import pytest

import guhecke.acceptance as acceptance
import guhecke.cli as cli_module
from guhecke.cli import fixture_path, main
from guhecke.dieudonne import model_space, random_basechange
from guhecke.finitefield import GFp2, gfp2
from guhecke.laurent import LaurentPoly, TPoly


def src_env():
    """The environment with this checkout's src first on PYTHONPATH, so
    that a child interpreter imports the guhecke under test."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hecke_json(capsys):
    code, out, _ = run_cli(capsys, "hecke", "--n", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 3
    assert report["weyl_invariant"] is True
    assert report["linear_root"] == {"coeff": "1", "q": 2, "x": [2, 1, 1, 1]}
    assert len(report["Hp"]) == 4 and len(report["R"]) == 3


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
GOLDEN_OUTPUTS = json.loads(GOLDEN.read_text(encoding="utf-8"))["outputs"]
HECKE_GOLDEN = {key: entry for key, entry in GOLDEN_OUTPUTS.items()
                if key.startswith("hecke ")}


@pytest.mark.parametrize("key", sorted(HECKE_GOLDEN))
def test_hecke_output_matches_recorded_bytes(capsys, monkeypatch, key):
    # The report is written as text, coefficient by coefficient; no
    # per-term dicts are built on the way.
    def no_term_dicts(self):
        raise AssertionError("the hecke report built term dicts")

    monkeypatch.setattr(LaurentPoly, "to_json", no_term_dicts)
    monkeypatch.setattr(TPoly, "to_json", no_term_dicts)
    code, out, _ = run_cli(capsys, *key.split())
    assert code == HECKE_GOLDEN[key]["exit"]
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == HECKE_GOLDEN[key]["sha256"]


# A child that starts from a small helper reports its own peak resident
# set through wait4, not the high-water mark of the test process.
_PEAK_RSS_HELPER = """
import os, subprocess, sys
for argv in sys.argv[1:]:
    proc = subprocess.Popen([sys.executable, "-m", "guhecke", *argv.split()],
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(proc.returncode, usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_hecke_report_is_written_without_holding_the_document():
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _PEAK_RSS_HELPER,
         "hecke --n 15", "dd isoc --n 3 --r 1"],
        capture_output=True, text=True, env=src_env(), check=True)
    (hecke_code, hecke_kb), (isoc_code, isoc_kb) = (
        map(int, line.split()) for line in proc.stdout.splitlines())
    assert hecke_code == isoc_code == 0
    # Held whole, the 1.4 MB report and its term dicts cost about 15 MB.
    assert hecke_kb <= isoc_kb + 6 * 1024


def test_memory_error_exits_1_without_a_traceback(capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli_module, "hecke_report", out_of_memory)
    monkeypatch.setattr(cli_module, "model_space", out_of_memory)
    for argv in (["hecke", "--n", "5"],
                 ["dd", "models", "--n", "5", "--p", "3", "--r", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "guhecke: error: out of memory\n"


WRITE_FAILED = "guhecke: error: cannot write output: "


def test_a_closed_stdout_pipe_exits_1_with_one_line():
    # The 377 kB report outgrows the pipe, so the child is still writing
    # when the reader goes away after ten bytes.
    proc = subprocess.Popen([sys.executable, "-m", "guhecke", "hecke",
                             "--n", "13"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=src_env())
    assert proc.stdout.read(10) == b'{"n":13,"H'
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == WRITE_FAILED + "[Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ("1", ""))
def test_a_full_device_on_stdout_exits_1_with_one_line(unbuffered):
    # Unbuffered, the write fails; buffered, the flush at the end of main.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "guhecke", "dd", "isoc", "--n", "3",
             "--r", "1"], stdout=full, stderr=subprocess.PIPE, text=True,
            env=dict(src_env(), PYTHONUNBUFFERED=unbuffered))
    assert proc.returncode == 1
    assert proc.stderr == WRITE_FAILED + "[Errno 28] No space left on device\n"


def test_a_failed_stdout_write_exits_1_and_other_os_errors_do_not(
        capsys, monkeypatch):
    class FullDisk:
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def flush(self):
            pass

    full = FullDisk()
    monkeypatch.setattr(sys, "stdout", full)
    assert main(["dd", "isoc", "--n", "3", "--r", "1"]) == 1
    assert sys.stdout is full
    assert capsys.readouterr().err == \
        WRITE_FAILED + f"[Errno 28] {os.strerror(errno.ENOSPC)}\n"

    # An OSError that is not a write to stdout keeps its own course.
    def unreadable(*args):
        raise OSError(errno.EIO, "not a write")

    monkeypatch.setattr(cli_module, "isocrystal_shape", unreadable)
    with pytest.raises(OSError, match="not a write"):
        main(["dd", "isoc", "--n", "3", "--r", "1"])
    assert sys.stdout is full

    # With fd 1 closed at start-up (``>&-``) there is no stdout at all.
    monkeypatch.setattr(sys, "stdout", None)
    for fmt in ("json", "pretty"):
        assert main(["dd", "slopes", "--d", "2", "--p", "3",
                     "--format", fmt]) == 1
        assert capsys.readouterr().err == WRITE_FAILED + "stdout is closed\n"
    assert sys.stdout is None


def test_hecke_rejects_even_n(capsys):
    code, out, err = run_cli(capsys, "hecke", "--n", "4")
    assert code == 1
    assert "n must be odd and >= 3" in err
    assert out == ""


def test_hecke_pretty(capsys):
    code, out, _ = run_cli(capsys, "hecke", "--n", "3", "--format", "pretty")
    assert code == 0
    assert "linear factor: t - q^2*x0^2*x1*x2*x3" in out
    assert "weyl_invariant = True" in out


def test_hecke_csv_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "hecke", "--n", "3", "--format", "csv")
    assert code == 1
    assert "tabular" in err


def test_max_n_cap(capsys, monkeypatch):
    # The cap is a constant: the environment neither raises nor lowers it.
    monkeypatch.setenv("GUHECKE_MAX_N", "99")
    code, out, err = run_cli(capsys, "hecke", "--n", "17")
    assert (code, out) == (1, "")
    assert err == "guhecke: error: n=17 exceeds the cap 15\n"
    monkeypatch.setenv("GUHECKE_MAX_N", "3")
    code, out, _ = run_cli(capsys, "dd", "strata", "--n", "5")
    assert code == 0 and out


def test_selftest_certifies_every_n_that_hecke_answers():
    assert acceptance.FACTOR_NS == tuple(range(3, cli_module.MAX_N + 1, 2))


def test_dd_slopes_exact_output(capsys):
    code, out, _ = run_cli(capsys, "dd", "slopes", "--d", "4", "--p", "5")
    assert code == 0
    assert out == '[{"slope":"1/4","mult":4},{"slope":"3/4","mult":4}]\n'


def test_dd_slopes_csv(capsys):
    code, out, _ = run_cli(capsys, "dd", "slopes", "--d", "2", "--p", "3",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["slope,mult", "0,2", "1,2"]


def test_dd_slopes_bad_prime(capsys):
    code, _, err = run_cli(capsys, "dd", "slopes", "--d", "2", "--p", "4")
    assert code == 1
    assert err == "guhecke: error: p must be an odd prime, got 4\n"


def test_dd_slopes_at_a_large_prime(capsys):
    code, out, _ = run_cli(capsys, "dd", "slopes", "--d", "2",
                           "--p", "1000000000000000003")
    assert code == 0
    assert out == '[{"slope":"0","mult":2},{"slope":"1","mult":2}]\n'
    code, _, err = run_cli(capsys, "dd", "slopes", "--d", "2",
                           "--p", "1000000000000000001")
    assert code == 1 and "odd prime" in err
    code, _, err = run_cli(capsys, "dd", "slopes", "--d", "2",
                           "--p", str(10 ** 25 + 13))
    assert code == 1 and "primality" in err


def test_dd_slopes_answers_at_the_d_cap(capsys):
    cap = cli_module.MAX_D
    assert cap == 256
    code, out, _ = run_cli(capsys, "dd", "slopes", "--d", str(cap),
                           "--p", "3")
    assert code == 0
    assert out == ('[{"slope":"127/256","mult":256},'
                   '{"slope":"129/256","mult":256}]\n')


def test_dd_slopes_bytes_are_unchanged_to_the_d_cap(capsys):
    # sha256 over the exit code and stdout of every call with d = 1..256
    # at p in {3, 5, 1009}, recorded with the dense build of the banded
    # model that the monomial one replaced.
    digest = hashlib.sha256()
    for p in (3, 5, 1009):
        for d in range(1, cli_module.MAX_D + 1):
            code, out, _ = run_cli(capsys, "dd", "slopes", "--d", str(d),
                                   "--p", str(p))
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "c500d23e729825564ff24350d1752c9f8e36c75f80228b04fbea93a41dd73465")


def test_dd_slopes_past_the_d_cap_exits_1(capsys):
    cap = cli_module.MAX_D
    code, out, err = run_cli(capsys, "dd", "slopes", "--d", str(cap + 1),
                             "--p", "3")
    assert code == 1 and out == ""
    assert err == f"guhecke: error: d={cap + 1} exceeds the cap {cap}\n"


def test_field_tables_past_the_bound_exit_1(capsys, tmp_path):
    # The models need no field arithmetic and answer at any p: the JSON
    # space, and the pretty signature and BT1 flag read off the arrows.
    # Classification needs tables.
    code, out, err = run_cli(capsys, "dd", "models", "--n", "3",
                             "--p", "1009", "--r", "1")
    assert (code, err) == (0, "")
    assert json.loads(out) == model_space(3, 1, 1009).to_json()
    code, out, err = run_cli(capsys, "dd", "models", "--n", "3",
                             "--p", "1009", "--r", "1", "--format", "pretty")
    assert (code, out, err) == (0, "r=1: signature=(2, 1) bt1=True\n", "")
    data = json.loads(fixture_path().read_text())
    data["p"] = 1009
    target = tmp_path / "big-p.json"
    target.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "dd", "classify", "--input", str(target),
                             "--n", "5")
    assert (code, out) == (1, "")
    assert err.startswith("guhecke dd classify: malformed input: ")
    assert "p <= 47, got p=1009" in err


def test_dd_models_builds_no_field_table(capsys):
    gfp2.cache_clear()
    for p in ("47", "1009"):
        for fmt in ("json", "pretty"):
            code, _, err = run_cli(capsys, "dd", "models", "--n", "5",
                                   "--p", p, "--format", fmt)
            assert (code, err) == (0, "")
        tables = {"_add", "_mul", "_neg", "_inv", "_frob"}
        assert not tables & vars(gfp2(int(p))).keys(), p


def test_dd_strata_table(capsys):
    code, out, _ = run_cli(capsys, "dd", "strata", "--n", "5")
    assert code == 0
    rows = json.loads(out)
    assert [row["dim"] for row in rows] == [0, 4, 1, 3, 2]
    assert rows[1]["ordinary"] is True
    code, out, _ = run_cli(capsys, "dd", "strata", "--n", "5", "--format", "csv")
    assert out.splitlines()[0] == "r,dim,ordinary,supersingular,slopes"
    assert out.splitlines()[1].startswith("1,0,False,True,")


def test_dd_isoc(capsys):
    code, out, _ = run_cli(capsys, "dd", "isoc", "--n", "5", "--r", "2")
    assert code == 0
    shape = json.loads(out)
    assert shape["slopes"] == [{"slope": "1/4", "mult": 4},
                               {"slope": "1/2", "mult": 2},
                               {"slope": "3/4", "mult": 4}]
    code, _, err = run_cli(capsys, "dd", "isoc", "--n", "5", "--r", "3")
    assert code == 1
    assert err == "guhecke: error: r=3 out of range 0..2\n"


def test_dd_models_single_and_pretty(capsys):
    code, out, _ = run_cli(capsys, "dd", "models", "--n", "3", "--p", "3",
                           "--r", "2")
    assert code == 0
    space = json.loads(out)
    assert space["ne"] == 3 and space["p"] == 3
    code, out, _ = run_cli(capsys, "dd", "models", "--n", "3", "--p", "3",
                           "--format", "pretty")
    assert code == 0
    assert "r=1: signature=(2, 1) bt1=True" in out


def test_dd_classify_fixture(capsys):
    code, out, _ = run_cli(capsys, "dd", "classify",
                           "--input", str(fixture_path()), "--n", "5")
    assert code == 0
    assert out == '{"type":5}\n'


def test_the_selftest_fixture_is_package_data():
    # An installed wheel holds only the files that pyproject.toml lists as
    # the package's data, and selftest exits 3 without its fixture.
    pyproject = (Path(__file__).resolve().parent.parent
                 / "pyproject.toml").read_text(encoding="utf-8")
    globs = re.findall(r'"([^"]+)"', re.search(
        r"\[tool\.setuptools\.package-data\]\s*guhecke = \[([^\]]*)\]",
        pyproject).group(1))
    package = Path(str(resources.files("guhecke")))
    shipped = PurePosixPath(
        Path(str(fixture_path())).relative_to(package).as_posix())
    assert fixture_path().is_file()
    assert any(shipped.match(glob) for glob in globs), (shipped, globs)


def test_dd_classify_roundtrip_via_models(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "dd", "models", "--n", "3", "--p", "5",
                           "--r", "1")
    target = tmp_path / "space.json"
    target.write_text(out)
    code, out, _ = run_cli(capsys, "dd", "classify", "--input", str(target),
                           "--n", "3")
    assert code == 0
    assert json.loads(out) == {"type": 1}


@pytest.mark.parametrize("n,p", [(n, p) for n in (9, 11, 13, 15)
                                 for p in (3, 11)])
def test_dd_classify_large_n_basechanged_models(capsys, tmp_path, n, p):
    for r in (1, 2, (n + 1) // 2, n - 1, n):
        space = random_basechange(model_space(n, r, p), 1000 * n + 10 * p + r)
        target = tmp_path / f"space-{r}.json"
        target.write_text(json.dumps(space.to_json()))
        code, out, _ = run_cli(capsys, "dd", "classify", "--input",
                               str(target), "--n", str(n))
        assert code == 0
        assert out == f'{{"type":{r}}}\n'


def test_dd_classify_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "dd", "classify", "--input", str(bad),
                           "--n", "5")
    assert code == 1
    assert "malformed" in err


@pytest.mark.parametrize("field,value", [
    ("p", 3.5), ("p", 5.0), ("p", "5"), ("p", True), ("ne", "5"),
    ("nebar", 5.0)])
def test_dd_classify_refuses_a_number_that_is_not_an_int(capsys, tmp_path,
                                                          field, value):
    data = json.loads(fixture_path().read_text())
    data[field] = value
    bad = tmp_path / "not-int.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "dd", "classify", "--input", str(bad),
                             "--n", "5")
    assert (code, out) == (1, "")
    assert err.startswith("guhecke dd classify: malformed input: "
                          "p, ne and nebar must be integers, got [")
    assert repr(value) in err


@pytest.mark.parametrize("nebar", (4, 6))
def test_dd_classify_refuses_unequal_pieces(capsys, tmp_path, nebar):
    data = json.loads(fixture_path().read_text())
    data["nebar"] = nebar
    bad = tmp_path / "unequal.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "dd", "classify", "--input", str(bad),
                             "--n", "5")
    assert (code, out) == (1, "")
    assert err == ("guhecke dd classify: malformed input: "
                   "pairing must be nondegenerate\n")


def test_dd_classify_compares_the_dimension_before_decoding(
        capsys, tmp_path, monkeypatch):
    # An all-zero 300 x 300 document (3.6 MB) with --n 5: its degenerate
    # gram and its size do not matter, the dimension decides, and no
    # matrix is decoded.
    zero = [[[0, 0]] * 300 for _ in range(300)]
    data = {"p": 3, "ne": 300, "nebar": 300}
    for name in ("F_e2ebar", "F_ebar2e", "V_e2ebar", "V_ebar2e", "gram"):
        data[name] = zero
    target = tmp_path / "zero-300.json"
    target.write_text(json.dumps(data))
    calls = []
    monkeypatch.setattr(cli_module.DieudonneSpace, "from_json",
                        classmethod(lambda cls, doc: calls.append(doc)))
    code, out, err = run_cli(capsys, "dd", "classify", "--input", str(target),
                             "--n", "5")
    assert (code, out) == (3, "")
    assert err == ("guhecke dd classify: graded dimensions (300, 300) "
                   "!= (5, 5)\n")
    # Not even p is looked at once the dimension is off.
    data = json.loads(fixture_path().read_text())
    data["p"] = "not a prime"
    target.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "dd", "classify", "--input", str(target),
                             "--n", "7")
    assert (code, out) == (3, "")
    assert err == "guhecke dd classify: graded dimensions (5, 5) != (7, 7)\n"
    assert calls == []


@pytest.mark.parametrize("oversized", (
    ("F_e2ebar", "F_ebar2e", "V_e2ebar", "V_ebar2e", "gram"), ("gram",)),
    ids=("all", "gram"))
def test_dd_classify_refuses_a_shape_before_decoding(
        capsys, tmp_path, monkeypatch, oversized):
    # All-zero 300 x 300 matrices under ne = nebar = 5: every matrix's
    # shape is checked before any entry is decoded, so the first bad one
    # is refused with no entry of any matrix decoded.
    data = json.loads(fixture_path().read_text())
    for name in oversized:
        data[name] = [[[0, 0]] * 300 for _ in range(300)]
    target = tmp_path / "zero-300.json"
    target.write_text(json.dumps(data))
    decoded = []
    monkeypatch.setattr(GFp2, "from_pair",
                        lambda self, ab: decoded.append(ab))
    code, out, err = run_cli(capsys, "dd", "classify", "--input", str(target),
                             "--n", "5")
    assert (code, out) == (1, "")
    assert err == (f"guhecke dd classify: malformed input: "
                   f"{oversized[0].lower()} must be 5x5\n")
    assert decoded == []


@pytest.mark.parametrize("ne", ("5", 5.0, True, None))
def test_dd_classify_refuses_an_ne_that_is_not_an_int_before_comparing(
        capsys, tmp_path, ne):
    data = json.loads(fixture_path().read_text())
    data["ne"] = ne
    bad = tmp_path / "ne.json"
    bad.write_text(json.dumps(data))
    for n in ("3", "5"):
        code, out, err = run_cli(capsys, "dd", "classify", "--input",
                                 str(bad), "--n", n)
        assert (code, out) == (1, "")
        assert err.startswith("guhecke dd classify: malformed input: "
                              "p, ne and nebar must be integers, got [")


@pytest.mark.parametrize("entry", [[1.0, 0], [0, 2.5], [True, 0], ["1", 0],
                                   [0, 0, 0], 7])
def test_dd_classify_refuses_an_entry_that_is_not_a_pair_of_ints(
        capsys, tmp_path, entry):
    data = json.loads(fixture_path().read_text())
    data["gram"][0][0] = entry
    bad = tmp_path / "bad-entry.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "dd", "classify", "--input", str(bad),
                             "--n", "5")
    assert (code, out) == (1, "")
    assert err.startswith("guhecke dd classify: malformed input: ")


def test_dd_classify_refuses_deeply_nested_json(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "dd", "classify", "--input", str(deep),
                             "--n", "5")
    assert (code, out) == (1, "")
    assert err.startswith("guhecke dd classify: malformed input: ")
    assert "\n" not in err[:-1]


def test_dd_classify_reduces_out_of_range_entries_mod_p(capsys, tmp_path):
    data = json.loads(fixture_path().read_text())
    p = data["p"]
    data["gram"] = [[[a + 2 * p, b - 3 * p] for a, b in row]
                    for row in data["gram"]]
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "dd", "classify", "--input", str(moved),
                           "--n", "5")
    assert (code, out) == (0, '{"type":5}\n')


def test_dd_classify_corrupted_space(capsys, tmp_path):
    """Structurally valid space that fails the truncation axioms: exit 3."""
    data = json.loads(fixture_path().read_text())
    # zero out V entirely: FV = 0 still holds but Im V = Ker F fails
    zero = [[[0, 0]] * 5 for _ in range(5)]
    data["V_e2ebar"] = zero
    data["V_ebar2e"] = zero
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "dd", "classify", "--input", str(bad),
                           "--n", "5")
    assert code == 3


def test_dd_classify_wrong_n_is_data_error(capsys):
    code, _, err = run_cli(capsys, "dd", "classify",
                           "--input", str(fixture_path()), "--n", "7")
    assert code == 3


def test_missing_subcommand_is_usage_error():
    proc = subprocess.run([sys.executable, "-m", "guhecke"],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 1
    # The parser's own line, not an import failure's exit 1.
    assert "guhecke: error:" in proc.stderr


def test_unknown_flag_is_usage_error():
    proc = subprocess.run([sys.executable, "-m", "guhecke", "hecke", "--bogus"],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 1
    assert "guhecke hecke: error:" in proc.stderr


def test_byte_identical_output_across_runs():
    cmd = [sys.executable, "-m", "guhecke", "hecke", "--n", "5"]
    first = subprocess.run(cmd, capture_output=True, env=src_env()).stdout
    second = subprocess.run(cmd, capture_output=True, env=src_env()).stdout
    assert first and first == second
    cmd = [sys.executable, "-m", "guhecke", "dd", "models", "--n", "5",
           "--p", "3", "--r", "5"]
    emitted = subprocess.run(cmd, capture_output=True,
                             env=src_env()).stdout.decode()
    assert emitted == fixture_path().read_text(encoding="utf-8")


def test_selftest_passes_and_counts_criteria(capsys):
    from guhecke.acceptance import CRITERIA
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "fixture ss_sum.json: type 5 ok" in out
    assert f"{len(CRITERIA)}/{len(CRITERIA)} criteria passed" in out
    assert out.count("PASS") == len(CRITERIA)
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_OUTPUTS["selftest"]["sha256"]


def test_selftest_corrupted_fixture_exits_3(capsys, tmp_path, monkeypatch):
    data = json.loads(fixture_path().read_text())
    zero = [[[0, 0]] * 5 for _ in range(5)]
    data["V_e2ebar"] = zero
    data["V_ebar2e"] = zero
    bad = tmp_path / "ss_sum.json"
    bad.write_text(json.dumps(data))
    monkeypatch.setattr(cli_module, "fixture_path", lambda: bad)
    code, out, err = run_cli(capsys, "selftest")
    assert code == 3
    assert "corrupted" in err
