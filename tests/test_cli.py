import ast
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import pweil
import pweil.cli
from pweil import cyclo, weilgroup
from pweil.arith import ConfigError, is_prime
from pweil.cli import RunConfig, main
from pweil.cyclo import CycloField
from pweil.lattice import DependentRows, EnumerationBudgetExceeded
from pweil.regulators import BasisMismatch
from pweil.splitting import split_prime
from pweil.weilgroup import MinusPartViolation, NotAWeilUnit, jacobi_weil_number


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_5_11_json(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--n", "5", "--p", "11",
        "--format", "json", "--precision", "192", "--bound", "100")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["split"]["g"] == 4
    assert rep["split"]["T"] == ["P0", "P1", "P2", "P3"]
    assert rep["split"]["S"] == ["P0", "P2"]
    assert rep["weil_basis"]["M"] == 1
    assert rep["weil_basis"]["rank"] == 2
    assert rep["closure"]["dimension"] == 2
    assert rep["closure"]["dense"] is True
    assert rep["gross_matrix"]["heuristic_rank"] == 2
    assert rep["argument_independence"]["certificate"]["status"] == "none-up-to-bound"


def test_analyze_5_19_rank_zero(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--n", "5", "--p", "19", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["weil_basis"]["rank"] == 0
    assert rep["split"]["T"] == []
    assert rep["argument_independence"] is None


def test_analyze_a_17_digit_prime(capsys):
    # primality is Miller-Rabin below 3.3e24, not trial division to 10^8
    code, out, _ = run_cli(
        capsys, "analyze", "--n", "4", "--p", "10000000000000061", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["weil_basis"]["rank"] == 1


def test_analyze_ramified_is_config_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "--n", "5", "--p", "5")
    assert code == 2
    assert "ramified" in err


def test_analyze_rejects_bad_conductor(capsys):
    code, _, err = run_cli(capsys, "analyze", "--n", "6", "--p", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "analyze", "--n", "5", "--p", "9")
    assert code == 2


def test_analyze_text_output_symbols(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--n", "5", "--p", "11",
                           "--precision", "192", "--bound", "100")
    assert code == 0
    assert "T (primes with P != P^c)" in out
    assert "S (representatives mod conjugation)" in out
    assert "M = 1" in out
    assert "rank E_p = 2" in out
    assert "PASS" in out


def test_scan_small_grid(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--n-range", "5,8", "--p-max", "30",
        "--precision", "128", "--bound", "100", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,p,f,g,T_size,S_size,rank,M")
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    for row in rows:
        assert int(row["rank"]) * 2 == int(row["T_size"])
        n, p = int(row["n"]), int(row["p"])
        if p % n == 1:
            assert row["dense"] == "True"
    assert any(int(r["rank"]) > 0 for r in rows)


def test_scan_rejects_a_bad_conductor_as_analyze_does(capsys):
    # one conductor check: the message names the conductor to use instead
    for argv in (["scan", "--n-range", "5,6", "--p-max", "10"],
                 ["analyze", "--n", "6", "--p", "5"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "conductor 6 = 2 mod 4: use conductor 3" in err
    code, _, err = run_cli(capsys, "scan", "--n-range", "2,5", "--p-max", "10")
    assert code == 2 and "conductor must be >= 3" in err


def test_scan_caps(capsys):
    code, _, err = run_cli(capsys, "scan", "--n-range", "24", "--p-max", "10")
    assert code == 2 and "cap" in err
    code, _, err = run_cli(capsys, "scan", "--n-range", "5", "--p-max", "5000")
    assert code == 2 and "cap" in err


def test_scan_cache_rerun_identical(capsys, tmp_path):
    args = ["scan", "--n-range", "5", "--p-max", "20", "--precision", "128",
            "--bound", "100", "--format", "csv", "--cache-dir", str(tmp_path)]
    code1, out1, _ = run_cli(capsys, *args)
    assert code1 == 0
    assert any(f.suffix == ".json" for f in tmp_path.iterdir())
    code2, out2, _ = run_cli(capsys, *args)
    assert code2 == 0
    assert out1 == out2


def test_scan_truncated_cache_file_is_a_miss(capsys, tmp_path):
    args = ["scan", "--n-range", "5", "--p-max", "20", "--precision", "128",
            "--bound", "100", "--format", "csv", "--cache-dir", str(tmp_path)]
    code1, out1, _ = run_cli(capsys, *args)
    assert code1 == 0
    victim = sorted(f for f in tmp_path.iterdir() if f.suffix == ".json")[0]
    intact = victim.read_text()
    victim.write_text(intact[: len(intact) // 2])
    code2, out2, _ = run_cli(capsys, *args)
    assert code2 == 0
    assert out2 == out1
    assert json.loads(victim.read_text()) == json.loads(intact)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("junk", ["{}", "[]", '"x"', "other cell"])
def test_scan_cache_entry_of_the_wrong_shape_is_a_miss(capsys, tmp_path, workers, junk):
    # valid JSON that is not a row with this cell's n and p is recomputed
    # and rewritten, never read as the cell's row
    args = ["scan", "--n-range", "5", "--p-max", "11", "--precision", "128", "--bound", "100",
            "--workers", workers, "--format", "csv", "--cache-dir", str(tmp_path)]
    code1, out1, _ = run_cli(capsys, *args)
    assert code1 == 0
    files = sorted(f for f in tmp_path.iterdir() if f.suffix == ".json")
    victim, other = files[0], files[1]
    intact = victim.read_text()
    victim.write_text(other.read_text() if junk == "other cell" else junk)
    code2, out2, err2 = run_cli(capsys, *args)
    assert (code2, out2, err2) == (0, out1, "")
    assert json.loads(victim.read_text()) == json.loads(intact)


@pytest.mark.parametrize("junk", ["{}", "[]", '"x"', "other cell"])
def test_analyze_cache_entry_of_the_wrong_shape_is_a_miss(capsys, tmp_path, junk):
    def args(p):
        return ["analyze", "--n", "5", "--p", p, "--precision", "128", "--bound", "100",
                "--cache-dir", str(tmp_path / p)]

    code1, out1, _ = run_cli(capsys, *args("11"))
    assert code1 == 0
    (victim,) = (tmp_path / "11").iterdir()
    intact = victim.read_text()
    if junk == "other cell":
        assert run_cli(capsys, *args("19"))[0] == 0
        (donor,) = (tmp_path / "19").iterdir()
        junk = donor.read_text()
    victim.write_text(junk)
    code2, out2, err2 = run_cli(capsys, *args("11"))
    assert (code2, out2, err2) == (0, out1, "")
    assert json.loads(victim.read_text()) == json.loads(intact)


@pytest.mark.parametrize("command", [
    ["analyze", "--n", "5", "--p", "11", "--format", "csv"],
    ["scan", "--n-range", "5", "--p-max", "11", "--format", "csv", "--workers", "1"],
])
def test_unreadable_cache_entry_is_a_miss_with_a_warning(capsys, tmp_path, command):
    # an entry whose path is a directory cannot be read: the cell is
    # recomputed and printed as before, and stderr has only warnings, one
    # for the read and one for the write that cannot replace a directory
    argv = command + ["--precision", "128", "--bound", "100", "--cache-dir", str(tmp_path)]
    code1, out1, _ = run_cli(capsys, *argv)
    assert code1 == 0
    victim = sorted(tmp_path.iterdir())[0]
    victim.unlink()
    victim.mkdir()
    code2, out2, err2 = run_cli(capsys, *argv)
    assert (code2, out2) == (code1, out1)
    lines = err2.splitlines()
    assert lines[0].startswith("warning: cache entry not read: ")
    assert all(line.startswith("warning: ") for line in lines) and len(lines) == 2
    assert victim.is_dir()


def test_analyze_cache(capsys, tmp_path):
    args = ["analyze", "--n", "5", "--p", "19", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("command", [
    ["analyze", "--n", "5", "--p", "11"],
    ["scan", "--n-range", "5", "--p-max", "11"],
])
def test_cache_dir_that_is_a_file_is_a_config_error(capsys, tmp_path, command):
    # rejected before any cell is computed: one error line, exit 2, no output
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code, out, err = run_cli(capsys, *command, "--cache-dir", str(blocker))
    assert (code, out) == (2, "")
    assert err.startswith("error: cache dir ") and err.count("\n") == 1
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("command", [
    ["analyze", "--n", "5", "--p", "11", "--format", "csv"],
    ["scan", "--n-range", "5", "--p-max", "11", "--format", "csv", "--workers", "2"],
])
def test_failing_cache_write_warns_and_keeps_the_report(capsys, tmp_path, command):
    # a cache dir below a file cannot be made: every write fails with an
    # OSError, which is one warning on stderr, and the rows are still printed
    common = ["--precision", "128", "--bound", "100"]
    code0, want, _ = run_cli(capsys, *command, *common)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, *command, *common,
                             "--cache-dir", str(blocker / "cache"))
    assert (code, out) == (code0, want) and code == 0
    assert err.startswith("warning: not cached: ") and err.count("\n") == 1


def test_appendix_pass(capsys):
    code, out, _ = run_cli(
        capsys, "appendix", "--n", "5", "--p", "11", "--chars", "1", "1",
        "--precision", "320")
    assert code == 0
    assert "PASS" in out
    assert "reconstructs to" in out


def test_appendix_json(capsys):
    code, out, _ = run_cli(
        capsys, "appendix", "--n", "5", "--p", "11", "--chars", "1", "2",
        "--precision", "320", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["identity"]["ok"] is True
    assert rep["identity"]["rational"] is not None


def test_appendix_invalid_chars(capsys):
    code, _, err = run_cli(capsys, "appendix", "--n", "5", "--p", "11",
                           "--chars", "2", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "appendix", "--n", "5", "--p", "7",
                           "--chars", "1", "1")
    assert code == 2  # 7 != 1 mod 5


def test_appendix_small_bound_fails(capsys):
    code, out, _ = run_cli(
        capsys, "appendix", "--n", "5", "--p", "11", "--chars", "1", "1",
        "--den-bound", "1", "--precision", "320")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("den_bound", ["0", "-3"])
def test_appendix_rejects_den_bound_below_one(capsys, monkeypatch, den_bound):
    # a bad option is a configuration error, found before the basis is built
    def no_split(*args, **kwargs):
        raise AssertionError("split_prime called before the options were checked")

    monkeypatch.setattr(pweil.cli, "split_prime", no_split)
    code, out, err = run_cli(capsys, "appendix", "--n", "5", "--p", "11", "--chars", "1", "1",
                             "--den-bound", den_bound)
    assert (code, out, err) == (2, "", "error: den_bound must be >= 1\n")


ANALYZE = ["analyze", "--n", "5", "--p", "11"]
SCAN = ["scan", "--n-range", "5", "--p-max", "11"]
APPENDIX = ["appendix", "--n", "5", "--p", "11", "--chars", "1", "1"]


@pytest.mark.parametrize("argv", [
    ANALYZE + ["--workers", "2"],
    APPENDIX + ["--workers", "2"],
    SCAN + ["--padic-prec", "50"],
    APPENDIX + ["--padic-prec", "50"],
    APPENDIX + ["--bound", "10"],
    APPENDIX + ["--cache-dir", "DIR"],
    SCAN + ["--format", "text"],
    APPENDIX + ["--format", "csv"],
])
def test_workers_is_a_scan_option_only(capsys, argv):
    # each command takes only the options it reads and the formats it
    # prints: any other is argparse's usage error, exit 2, no stdout
    flag, value = argv[-2:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: pweil %s " % argv[0])
    assert "pweil %s: error: " % argv[0] in err
    if flag == "--format":
        assert "argument --format: invalid choice: '%s'" % value in err
    else:
        assert "unrecognized arguments: %s %s" % (flag, value) in err


def test_padic_precision_is_recorded_in_the_analyze_report(capsys):
    # K sets only the regulator's logarithms; the report records it in its
    # config and in its split section
    code, out, _ = run_cli(capsys, *ANALYZE, "--padic-prec", "20", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["padic_prec"] == rep["split"]["K"] == 20


ANALYZE_DIGESTS = os.path.join(os.path.dirname(__file__), "analyze_digests.json")


def test_analyze_report_bytes_match_recorded_digests(capsys):
    # a report whose schema tag is unchanged stays byte-identical, at the
    # default 256 bits and at the 1024 bits of the certificate workload;
    # (8,5), (13,3), (11,3) and (19,5) pin regulators with f = 2, 3, 5 and 9
    with open(ANALYZE_DIGESTS) as fh:
        digests = json.load(fh)
    checked = 0
    for precision, cells in digests["pweil-analyze/7"].items():
        for cell, want in cells.items():
            n, p = cell.split(",")
            code, out, _ = run_cli(capsys, "analyze", "--n", n, "--p", p,
                                   "--precision", precision, "--format", "json")
            assert code == 0
            assert json.loads(out)["schema"] == "pweil-analyze/7"
            assert hashlib.sha256(out.encode()).hexdigest() == want, (precision, cell)
            checked += 1
    assert checked == 11


GRID_SCAN_SHA256 = "53b2af9c3dd960c27b54d92959ec9cea7f146d1d790b886697ab40d14f3bb36c"


def test_grid_scan_bytes_match_the_recorded_digest(capsys):
    # the 213-cell acceptance grid under pweil-scan/1, as the benchmark runs it
    code, out, err = run_cli(capsys, "scan", "--n-range", "5,7,8,11,12,13,15,16,20",
                             "--p-max", "99", "--format", "json", "--workers", "2")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["rows"]) == 213
    assert hashlib.sha256(out.encode()).hexdigest() == GRID_SCAN_SHA256


def test_grid_scan_rows_equal_the_rows_of_full_reports(monkeypatch):
    # a scan cell builds no p-adic regulator matrix, which its row does not
    # read: on each of the 213 grid cells its row is the row of the full
    # analyze report, and its one report is the full one without the matrix
    cfg = RunConfig()
    real_report, real_matrix = pweil.cli.analyze_report, pweil.cli.gross_matrix
    lean, matrices = [], []

    def recording(n, p, cfg, **kwargs):
        lean.append(real_report(n, p, cfg, **kwargs))
        return lean[-1]

    def counting(*args):
        matrices.append(args)
        return real_matrix(*args)

    monkeypatch.setattr(pweil.cli, "analyze_report", recording)
    monkeypatch.setattr(pweil.cli, "gross_matrix", counting)
    cells = [(n, p) for n in (5, 7, 8, 11, 12, 13, 15, 16, 20) for p in range(2, 100)
             if is_prime(p) and n % p]
    assert len(cells) == 213
    with_s = 0
    for n, p in cells:
        row = pweil.cli._scan_cell((n, p, cfg.precision, cfg.bound))
        assert len(lean) == 1 and len(matrices) == with_s
        full = real_report(n, p, cfg)
        assert row == pweil.cli._row_from_analyze(full), (n, p)
        assert lean.pop() == dict(full, gross_matrix=None), (n, p)
        with_s += full["gross_matrix"] is not None
        assert len(matrices) == with_s
    assert with_s == 128


def test_package_version_matches_pyproject():
    # the scan cache key embeds __version__; a bump must edit both
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject) as fh:
        version = re.search(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE).group(1)
    assert version == pweil.__version__


def test_workers_flag(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "scan", "--n-range", "5", "--p-max", "15", "--precision", "128",
        "--bound", "100", "--format", "csv", "--workers", "2")
    assert code == 0
    assert out.count("\n") >= 4


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_scan_rejects_workers_below_one(capsys, workers):
    code, out, err = run_cli(capsys, "scan", "--n-range", "5", "--p-max", "11",
                             "--workers", workers)
    assert (code, out, err) == (2, "", "error: workers must be >= 1\n")


@pytest.mark.parametrize("workers, cores, p_cached, want", [
    ("64", 8, None, 4), ("64", 2, None, 2), ("3", 8, None, 3), ("64", None, None, None),
    ("64", 8, "7", None),
])
def test_scan_pool_is_no_larger_than_the_cells_and_cores(capsys, monkeypatch, tmp_path, workers,
                                                          cores, p_cached, want):
    # --workers N starts min(N, pending cells, cores) processes, none for one,
    # and the rows do not depend on it; the pool is an in-process stand-in
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(pweil.cli.os, "cpu_count", lambda: cores)
    args = ["scan", "--n-range", "5", "--precision", "128", "--bound", "100", "--format", "csv"]
    code, serial, _ = run_cli(capsys, *args, "--p-max", "11")
    assert code == 0 and sizes == []
    cache = ["--cache-dir", str(tmp_path)]
    if p_cached:  # cells 2, 3 and 7 come from the cache: one cell is pending
        assert run_cli(capsys, *args, *cache, "--p-max", p_cached)[0] == 0
    code, out, _ = run_cli(capsys, *args, *cache, "--p-max", "11", "--workers", workers)
    assert code == 0 and out == serial
    assert sizes == ([want] if want else [])


def test_inconclusive_relation_search_is_one_error_line(capsys, tmp_path):
    # 64 bits cannot decide a bound of 10^9: exit 1 with a message, no
    # traceback; a scan still prints every row and marks the undecided cell
    scan_cached = ["scan", "--n-range", "5", "--p-max", "11", "--workers", "2",
                   "--cache-dir", str(tmp_path)]
    for argv in (["analyze", "--n", "13", "--p", "79"],
                 ["scan", "--n-range", "5", "--p-max", "11"],
                 scan_cached, scan_cached):
        code, out, err = run_cli(capsys, *argv, "--precision", "64", "--bound", "1000000000")
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "inconclusive" in err
        if argv[0] == "analyze":
            assert out == ""
            continue
        assert err.startswith("error: n=5 p=11: ")
        lines = out.strip().split("\n")
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        # cells 2, 3 and 7 have S empty and finish; cell 11 is undecided
        assert [(r["p"], r["S_size"], r["certificate"]) for r in rows] == [
            ("2", "0", "n/a"), ("3", "0", "n/a"), ("7", "0", "n/a"),
            ("11", "n/a", "inconclusive")]
        assert all(v == "n/a" for k, v in rows[3].items() if k not in ("n", "p", "certificate"))


@pytest.mark.parametrize("exc", [
    NotAWeilUnit("alpha is only defined on E_p(k)"),
    MinusPartViolation("pi_M is only defined on the minus part"),
    BasisMismatch("conjugates do not span E_p(k) x Q"),
    DependentRows(3),
    EnumerationBudgetExceeded("enumeration exceeded 10 nodes"),
])
def test_internal_failure_exits_1_not_2(capsys, monkeypatch, exc):
    # an internal failure is not "invalid configuration" (exit 2): every
    # such class is an ArithmeticError, which main maps to exit 1
    assert isinstance(exc, ArithmeticError)

    def broken(split):
        raise exc

    monkeypatch.setattr(pweil.cli, "build_weil_basis", broken)
    code, out, err = run_cli(capsys, "analyze", "--n", "5", "--p", "11")
    assert code == 1
    assert out == ""
    assert err == "error: %s\n" % exc


@pytest.mark.parametrize("command", [
    ["analyze", "--n", "5", "--p", "11"],
    ["appendix", "--n", "5", "--p", "11", "--chars", "1", "1"],
])
@pytest.mark.parametrize("cap, message", [
    ("NODE_BUDGET", "error: enumeration exceeded 10 nodes\n"),
    ("H_CAP", "error: no generator of P0^h found for h <= 0 (class order too large "
              "or search radius exhausted)\n"),
])
def test_generator_search_failure_exits_1_without_traceback(capsys, monkeypatch, command,
                                                            cap, message):
    # an exhausted node budget or class-order cap is one error line and exit 1
    monkeypatch.setattr(weilgroup, cap, {"NODE_BUDGET": 10, "H_CAP": 0}[cap])
    code, out, err = run_cli(capsys, *command)
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_cell_that_raises_is_an_uncached_error_row(capsys, monkeypatch, tmp_path, workers):
    # a cell that raises becomes a row, the others finish, the scan exits 1
    # with one error line, and a rerun computes the cell again
    args = ["scan", "--n-range", "5", "--p-max", "11", "--precision", "128", "--bound", "100",
            "--workers", workers, "--cache-dir", str(tmp_path)]
    real = pweil.cli.analyze_report

    def flaky(n, p, cfg, **kwargs):
        if (n, p) == (5, 11):
            raise RuntimeError("injected fault")
        return real(n, p, cfg, **kwargs)

    monkeypatch.setattr(pweil.cli, "analyze_report", flaky)
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert err == "error: n=5 p=11: RuntimeError: injected fault\n"
    lines = out.strip().split("\n")
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert [(r["p"], r["S_size"], r["certificate"]) for r in rows] == [
        ("2", "0", "n/a"), ("3", "0", "n/a"), ("7", "0", "n/a"), ("11", "n/a", "error")]
    assert all(v == "n/a" for k, v in rows[3].items() if k not in ("n", "p", "certificate"))

    monkeypatch.setattr(pweil.cli, "analyze_report", real)
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    assert out.strip().split("\n")[-1].split(",")[-1] == "none-up-to-bound"


def test_value_error_inside_a_computation_exits_1(capsys, monkeypatch):
    # only ConfigError is "invalid configuration"; a ValueError from a
    # computation is exit 1
    def broken(split):
        raise ValueError("internal value error")

    monkeypatch.setattr(pweil.cli, "build_weil_basis", broken)
    code, out, err = run_cli(capsys, "analyze", "--n", "5", "--p", "11")
    assert code == 1
    assert out == ""
    assert err == "error: internal value error\n"


def test_configuration_errors_are_config_error():
    with pytest.raises(ConfigError):
        RunConfig(precision=32).validate()
    with pytest.raises(ConfigError):
        pweil.cli.analyze_report(6, 5, RunConfig())


CONDUCTOR_6 = "conductor 6 = 2 mod 4: use conductor 3"
CONDUCTOR_2 = "conductor must be >= 3"
NOT_PRIME = "4 is not prime"
RAMIFIED = "p = 5 divides the conductor 5 (ramified)"
BAD_CHARS = "indices a, b, a+b must be nonzero mod n"


@pytest.mark.parametrize("argv, message", [
    ("analyze --n 6 --p 5", CONDUCTOR_6),
    ("analyze --n 2 --p 5", CONDUCTOR_2),
    ("analyze --n 5 --p 4", NOT_PRIME),
    ("analyze --n 5 --p 5", RAMIFIED),
    ("analyze --n 15 --p 3", "p = 3 divides the conductor 15 (ramified)"),
    ("scan --n-range 5,6 --p-max 10", CONDUCTOR_6),
    ("scan --n-range 2,5 --p-max 10", CONDUCTOR_2),
    ("scan --n-range 24 --p-max 10", "scan cap exceeded: conductors must be <= 20"),
    ("scan --n-range 5 --p-max 5000", "scan cap exceeded: p-max must be < 1000"),
    ("appendix --n 6 --p 7 --chars 1 1", CONDUCTOR_6),
    ("appendix --n 2 --p 5 --chars 1 1", CONDUCTOR_2),
    ("appendix --n 5 --p 4 --chars 1 1", NOT_PRIME),
    ("appendix --n 5 --p 5 --chars 1 1", RAMIFIED),
    ("appendix --n 5 --p 13 --chars 1 1",
     "need p = 1 mod n to build character sums (p=13, n=5)"),
    ("appendix --n 5 --p 11 --chars 1 4", BAD_CHARS),
    ("appendix --n 5 --p 11 --chars 0 1", BAD_CHARS),
])
def test_invalid_input_exits_2_with_one_error_line(capsys, argv, message):
    # every invalid input is one ConfigError, raised by the module that
    # uses the input, and main turns it into exit 2 and one line on stderr
    assert run_cli(capsys, *argv.split()) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("call", [
    lambda: CycloField(6),
    lambda: split_prime(CycloField(5), 4),
    lambda: split_prime(CycloField(15), 3),
    lambda: jacobi_weil_number(13, 5, 1, 1),
    lambda: jacobi_weil_number(4, 5, 1, 1),
], ids=["conductor-6", "p-4", "p-3-ramified", "p-13-not-1-mod-5", "jacobi-p-4"])
def test_the_library_raises_config_error_for_invalid_input(call):
    with pytest.raises(ConfigError):
        call()


def test_a_bad_p_is_rejected_before_phi_n_is_built(monkeypatch):
    # split_prime rejects p before anything reads Phi_n or the sparse power
    # rows, so a bad p at a large conductor pays for no field build
    calls = []
    modules = [m for name, m in sys.modules.items() if name.startswith("pweil.")]
    for name in ("_power_rows", "cyclotomic_polynomial"):
        real = getattr(cyclo, name)

        def spy(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, spy)
    with pytest.raises(ConfigError, match=r"^4 is not prime$"):
        pweil.cli.analyze_report(4620, 4, RunConfig())
    assert calls == []
    # the spies do see the reads of a field that is used
    split_prime(CycloField(5), 11).field.zeta(4)
    assert set(calls) == {"_power_rows", "cyclotomic_polynomial"}


# ---------------------------------------------------------------------------
# The process entry point: python -m pweil in a fresh interpreter

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pweil.__file__)))


def run_module(*args):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


def test_module_run_prints_the_in_process_report(capsys):
    argv = ["analyze", "--n", "5", "--p", "11", "--format", "json"]
    proc = run_module("-m", "pweil", *argv)
    code, out, err = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stderr) == (code, err.encode()) == (0, b"")
    assert proc.stdout == out.encode()


def test_module_run_config_error_exits_2_with_one_line():
    proc = run_module("-m", "pweil", "analyze", "--n", "6", "--p", "11")
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_a_wrong_generator_fails_under_python_O():
    # the basis checks raise rather than assert, so they run under -O too:
    # 2 x_P0 lies in P0^h and gives the same xi, but its norm is not p^M
    script = ("import sys; from pweil import cli, weilgroup; real = weilgroup.find_generator; "
              "weilgroup.find_generator = lambda prime, power: 2 * real(prime, power); "
              "sys.exit(cli.main(['analyze', '--n', '5', '--p', '11', '--format', 'json']))")
    proc = run_module("-O", "-c", script)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: generator not integral of norm p^M\n"


def test_the_package_has_no_assert_statements():
    # python -O strips asserts: every exact check in the package raises instead
    found = []
    package = os.path.dirname(os.path.abspath(pweil.__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += ["%s:%d" % (name, node.lineno)
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("module", ["pweil"] + ["pweil." + m for m in (
    "arith", "cyclo", "splitting", "lattice", "weilgroup", "regulators", "cli")])
def test_each_module_imports_alone(module):
    # `import pweil` loads none of its modules, so each module must import
    # all that it needs itself
    proc = run_module("-c", "import sys, %s; print(' '.join(sorted(sys.modules)))" % module)
    assert (proc.returncode, proc.stderr) == (0, b"")
    loaded = [name for name in proc.stdout.decode().split() if name.startswith("pweil.")]
    if module == "pweil":
        assert loaded == []
    else:
        assert module in loaded


def test_cli_import_loads_neither_dataclasses_nor_hashlib():
    # compared with what the interpreter had loaded before, so whatever
    # site loads does not count
    proc = run_module("-c", "import sys; before = set(sys.modules); import pweil.cli; "
                            "print(' '.join(sorted(set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.decode().split())
    assert "pweil.cli" in loaded
    assert not loaded & {"dataclasses", "hashlib"}


def test_an_analyze_run_loads_no_mpmath():
    # the balls are plain ints: an analyze process imports nothing outside
    # the standard library and pweil, compared with what it had before
    script = ("import sys; before = set(sys.modules); import pweil.cli; "
              "code = pweil.cli.main(['analyze', '--n', '5', '--p', '11', '--format', 'json']); "
              "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr); "
              "sys.exit(code)")
    proc = run_module("-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.decode().split())
    assert {"pweil.cli", "pweil.arith"} <= loaded
    assert not [name for name in loaded if name.split(".")[0] == "mpmath"]
