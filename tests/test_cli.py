"""CLI behaviour: determinism, format equivalence, fault injection, exit
codes, big-integer formatting, per-subcommand options, manifests, golden
data-file bytes and the criterion scan script."""

import csv
import hashlib
import json
import os
import random
import runpy
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from mpmath.libmp import from_man_exp

from gammalab import cli, exact, sequences
from gammalab import mpnum as mn


def run(args):
    return cli.main(args)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# --- verify -------------------------------------------------------------------

def test_verify_small(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--n-max", "5", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    report = json.loads(out.read_text())
    assert report["suites"]["integrality_d2n_A"]["checked"] == 5
    assert report["suites"]["L_prime_vector_identity"]["checked"] == 5
    assert os.path.exists(str(out) + ".manifest.json")


def test_verify_fault_injection(monkeypatch, capsys):
    real = exact.stirling1_row

    def corrupted(m):
        row = real(m)
        if m == 4:
            row = list(row)
            row[2] += 1
        return row

    monkeypatch.setattr(exact, "stirling1_row", corrupted)
    code = run(["verify", "--n-max", "10"])
    text = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in text
    assert "stirling" in text.lower()


def test_verify_L_identity_fault_injection(monkeypatch, capsys):
    from gammalab import sequences

    real = sequences.L_vector

    def corrupted(n):
        den, vec = real(n)
        vec = dict(vec)
        if n == 3:
            vec[5] += 1
        return den, vec

    monkeypatch.setattr(sequences, "L_vector", corrupted)
    assert run(["verify", "--n-max", "5"]) == 1
    text = capsys.readouterr().out
    assert "FAIL L_prime_vector_identity" in text and "n=3" in text


def test_verify_integrality_fault_injection(monkeypatch, capsys):
    real = exact.A_exact

    def corrupted(n):
        a = real(n)
        return a + Fraction(1, exact.lcm_upto(2 * n)) if n == 4 else a

    monkeypatch.setattr(exact, "A_exact", corrupted)
    assert run(["verify", "--n-max", "6"]) == 1
    text = capsys.readouterr().out
    assert "FAIL integrality_d2n_A" in text and "n=4" in text


def test_verify_raising_check_fails_its_suite_only(monkeypatch, capsys, tmp_path):
    # an IdentityViolation raised inside a check is that suite's failure;
    # the other suites still run and the report is still written
    real = exact.partial_fraction_coeffs

    def raising(n):
        if n == 4:
            raise exact.IdentityViolation(f"injected at n={n}")
        return real(n)

    monkeypatch.setattr(exact, "partial_fraction_coeffs", raising)
    out = tmp_path / "r.json"
    assert run(["verify", "--n-max", "10", "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    # exact.partial_fraction_residual reads the coefficients too
    failing = ("partial_fraction_structure", "partial_fraction_sampled",
               "scaled_coefficient_coherence")
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL {name}: injected at n=4" for name in failing]
    assert len(lines) == 8
    suites = json.loads(out.read_text())["suites"]
    assert suites["partial_fraction_structure"] == {
        "checked": 4, "failure": "injected at n=4"}
    assert suites["L_prime_vector_identity"] == {"checked": 10, "failure": None}


# --- table ---------------------------------------------------------------------

def test_table_values_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["table", "--n", "1..2", "--format", "csv", "--jobs", "1"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert read_bytes(out1) == read_bytes(out2)
    rows = read_csv(out1)
    assert [r["n"] for r in rows] == ["1", "2"]
    assert rows[0]["a_exact"] == "5/2"
    assert rows[1]["a_exact"] == "131/12"
    assert rows[0]["L_logfact"].startswith("1.386294")
    assert rows[1]["L_logfact"].startswith("7.454719")
    assert rows[0]["l_agree"] == "true" and rows[0]["i_agree"] == "true"
    for r in rows:
        # every float column travels with its error field
        assert r["I_series_err"] != "" and r["q_err"] != ""


def test_table_format_equivalence(tmp_path):
    c = tmp_path / "t.csv"
    j = tmp_path / "t.json"
    base = ["table", "--n", "2..3", "--jobs", "1"]
    assert run(base + ["--format", "csv", "--out", str(c)]) == 0
    assert run(base + ["--format", "json", "--out", str(j)]) == 0
    crows = read_csv(c)
    jrows = json.loads(j.read_text())["rows"]
    assert len(crows) == len(jrows) == 2
    for cr, jr in zip(crows, jrows):
        assert cr == jr


@pytest.mark.parametrize("command", ["table", "criterion"])
def test_reversed_range_is_rejected(command, tmp_path, capsys):
    # a range that ends before it starts is a configuration error, not an
    # empty table
    out = tmp_path / "reversed.csv"
    assert run([command, "--n", "5..3", "--jobs", "1", "--out", str(out)]) == 3
    assert "5..3 ends before it starts" in capsys.readouterr().err
    assert not out.exists()


def test_table_precision_exhaustion_flags_row(tmp_path):
    out = tmp_path / "x.csv"
    code = run(["table", "--n", "1..1", "--tail-eps", "1e-300",
                "--jobs", "1", "--out", str(out)])
    assert code == 2
    rows = read_csv(out)
    assert rows[0]["status"] == "precision_exhausted"
    assert rows[0]["n"] == "1"  # flagged, not dropped


def test_series_past_max_bits_skips_the_cutoff_search(tmp_path, monkeypatch):
    # the series' first precision (about 1,400 bits at eps 1e-400) is past
    # --max-bits, so the row is flagged before any cutoff is searched for
    searched = []
    choose = sequences._choose_cutoff
    monkeypatch.setattr(sequences, "_choose_cutoff",
                        lambda *a: searched.append(a) or choose(*a))
    out = tmp_path / "x.csv"
    code = run(["table", "--n", "1..1", "--tail-eps", "1e-400",
                "--max-bits", "1024", "--jobs", "1", "--out", str(out)])
    assert code == 2
    assert read_csv(out)[0]["status"] == "precision_exhausted"
    assert searched == []


@pytest.mark.parametrize("eps", ["1e+78", "1e+400", "1e+5000"])
def test_table_accepts_a_tail_eps_far_above_the_rows(eps, tmp_path):
    out = tmp_path / "x.csv"
    assert run(["table", "--n", "1..3", "--tail-eps", eps,
                "--jobs", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["status"] for r in rows] == ["ok"] * 3
    assert [r["i_agree"] for r in rows] == ["true"] * 3


def test_table_parallel_matches_serial(tmp_path):
    a = tmp_path / "serial.csv"
    b = tmp_path / "par.csv"
    assert run(["table", "--n", "1..4", "--jobs", "1", "--out", str(a)]) == 0
    assert run(["table", "--n", "1..4", "--jobs", "3", "--out", str(b)]) == 0
    assert read_bytes(a) == read_bytes(b)


@pytest.mark.parametrize("args", [["table", "--n", "1..9", "--jobs", "1"],
                                  ["table", "--n", "1..9", "--jobs", "4"],
                                  ["criterion", "--n", "1..7", "--jobs", "1"],
                                  ["criterion", "--n", "1..7", "--jobs", "3"]])
def test_rows_are_written_in_order_of_n(args, tmp_path):
    # the rows are computed largest n first, and written in order of n
    out = tmp_path / "x.csv"
    assert run(args + ["--out", str(out)]) == 0
    lo, hi = cli._parse_range(args[2])
    assert [r["n"] for r in read_csv(out)] == [str(n) for n in range(lo, hi + 1)]


@pytest.mark.parametrize("args", [["table", "--n", "1..9", "--jobs", "4"],
                                  ["criterion", "--n", "1..7", "--jobs", "3"],
                                  ["criterion", "--n", "1..2", "--jobs", "4"]])
def test_striped_pool_matches_one_process(args, tmp_path):
    # rows handed out one at a time, and more jobs than rows
    one = tmp_path / "one.csv"
    pool = tmp_path / "pool.csv"
    assert run(args[:3] + ["--jobs", "1", "--out", str(one)]) == 0
    assert run(args + ["--out", str(pool)]) == 0
    assert read_bytes(one) == read_bytes(pool)


def _no_child_left():
    # every worker forked by the run has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _planted_criterion(monkeypatch, in_child, in_parent=None):
    """Patch criterion_point, in this process and so in the forked workers:
    a worker runs in_child(n), this process sleeps a little per row (so
    that the workers take some) and then runs in_parent(n)."""
    parent, real = os.getpid(), sequences.criterion_point

    def planted(n, policy):
        if os.getpid() != parent:
            in_child(n)
        else:
            time.sleep(0.02)
            if in_parent:
                in_parent(n)
        return real(n, policy)

    monkeypatch.setattr(sequences, "criterion_point", planted)


def test_identity_violation_in_a_worker_exits_1(monkeypatch, tmp_path, capsys):
    def violate(n):
        if n == 5:
            raise exact.IdentityViolation(f"planted at n={n}")

    _planted_criterion(monkeypatch, violate)
    out = tmp_path / "x.csv"
    assert run(["criterion", "--n", "1..12", "--jobs", "2", "--out", str(out)]) == 1
    assert "identity violation: planted at n=5" in capsys.readouterr().err
    _no_child_left()


def test_a_raising_worker_stops_the_row_hand_out(monkeypatch, tmp_path, capsys):
    def violate(n):
        raise exact.IdentityViolation(f"planted at n={n}")

    rows = []  # the rows this process computes, n = 60 first
    _planted_criterion(monkeypatch, violate, rows.append)
    out = tmp_path / "x.csv"
    assert run(["criterion", "--n", "1..60", "--jobs", "2", "--out", str(out)]) == 1
    assert "identity violation: planted at n=" in capsys.readouterr().err
    assert rows[0] == 60 and len(rows[1:]) <= 2  # at most 2 from the pool
    _no_child_left()


def test_worker_that_dies_before_sending_exits_nonzero(monkeypatch, tmp_path,
                                                       capsys):
    _planted_criterion(monkeypatch, lambda n: os._exit(9))
    out = tmp_path / "x.csv"
    assert run(["criterion", "--n", "1..12", "--jobs", "3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: worker process ")
    assert "ended with status 9 before sending its results" in err
    _no_child_left()


def test_failure_in_the_parents_row_reaps_the_workers(monkeypatch, tmp_path,
                                                      capsys):
    def fail(n):
        if n < 12:  # any row after the first, which has no workers yet
            raise exact.IdentityViolation(f"planted at n={n}")

    _planted_criterion(monkeypatch, lambda n: time.sleep(30), fail)
    t0 = time.perf_counter()
    out = tmp_path / "x.csv"
    assert run(["criterion", "--n", "1..12", "--jobs", "4", "--out", str(out)]) == 1
    assert time.perf_counter() - t0 < 10
    assert "identity violation: planted at n=" in capsys.readouterr().err
    _no_child_left()


@pytest.mark.parametrize("args, builds, splits", [
    (["criterion", "--n", "1..40", "--jobs", "2"], 1, 0),
    (["table", "--n", "1..12", "--jobs", "3"], 1, 1),
])
def test_one_table_build_and_gamma_split_across_processes(args, builds, splits,
                                                          tmp_path, monkeypatch):
    # the parent's first row, the largest n, builds the table and splits
    # gamma; the forked workers inherit both, and the patches, which append
    # to one file from every process
    log = tmp_path / "events.log"
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())

    def logged(event, real):
        def wrapper(*a):
            if event == "split" or a[0] is mn._TABLE:
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{event} {os.getpid()}\n")
            return real(*a)
        return wrapper

    monkeypatch.setattr(mn.PrimeLogTable, "_rebuild",
                        logged("build", mn.PrimeLogTable._rebuild))
    monkeypatch.setattr(mn, "_bm_enclosure", logged("split", mn._bm_enclosure))
    assert run(args + ["--out", str(tmp_path / "x.csv")]) == 0
    events = log.read_text().split()[::2] if log.exists() else []
    assert (events.count("build"), events.count("split")) == (builds, splits)
    _no_child_left()


def test_forked_leaves_print_the_same_bytes(tmp_path, monkeypatch):
    # with the threshold forced low, a one-row run forks its table's leaves
    # on --jobs processes, and prints what one process prints
    forked, fork_map = [], mn.fork_map

    def counted(fn, items, k):
        forked.append(k)
        return fork_map(fn, items, k)

    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    monkeypatch.setattr(mn, "fork_map", counted)
    monkeypatch.setattr(mn, "_FORK_LEAF_BITS", 1)
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    assert run(["criterion", "--n", "300..300", "--jobs", "1", "--out", str(one)]) == 0
    assert forked == []
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    assert run(["criterion", "--n", "300..300", "--jobs", "2", "--out", str(two)]) == 0
    assert forked == [2]
    assert read_bytes(one) == read_bytes(two)
    assert mn.WORKERS == 1
    _no_child_left()


@pytest.mark.parametrize("affinity, jobs", [({0}, 1), ({0, 1, 2}, 3)])
def test_default_jobs_counts_the_cpus_this_process_may_use(affinity, jobs,
                                                           tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                        raising=False)
    asked = []
    monkeypatch.setattr(cli, "fork_map",
                        lambda fn, items, k: asked.append(k) or [fn(x) for x in items])
    assert run(["criterion", "--n", "1..4", "--out", str(tmp_path / "x.csv")]) == 0
    assert asked == [jobs]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cpus() == (os.cpu_count() or 1)


@pytest.mark.parametrize("args", [
    ["criterion", "--n", "1..460"],
    ["table", "--n", "400..401"],
    ["table", "--n", "1..120"],
    # the three options that move the series' working bits
    ["table", "--n", "1..30", "--tail-eps", "1e-120"],
    ["table", "--n", "1..3", "--frac-bits", "400"],
    ["table", "--n", "1..60", "--bits", "1000"],
])
def test_one_table_build_per_run(args, tmp_path, monkeypatch):
    # rows run largest n first, and a row's first request is its widest (in
    # a table row, the series), so the first request sizes the table for
    # the whole run
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    assert run(args + ["--jobs", "1", "--out", str(tmp_path / "x.csv")]) == 0
    assert mn._TABLE.builds == 1


@pytest.mark.parametrize("args, splits", [(["table", "--n", "1..120"], 1),
                                          (["criterion", "--n", "1..30"], 0)])
def test_one_gamma_split_and_no_exact_correction_per_run(args, splits, tmp_path,
                                                         monkeypatch):
    # the first table row, the largest n, asks gamma at the run's largest
    # precision, and every later row reads a floor of that one enclosure;
    # every series correction is rounded from an enclosure; criterion asks
    # for neither
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    counts = {"split": 0, "corr": 0}

    def counted(key, real):
        def wrapper(*a):
            counts[key] += 1
            return real(*a)
        return wrapper

    monkeypatch.setattr(mn, "_bm_enclosure", counted("split", mn._bm_enclosure))
    monkeypatch.setattr(sequences._EMKernel, "em_corr",
                        counted("corr", sequences._EMKernel.em_corr))
    assert run(args + ["--jobs", "1", "--out", str(tmp_path / "x.csv")]) == 0
    assert counts == {"split": splits, "corr": 0}
    assert mn._TABLE.builds == 1


@pytest.mark.parametrize("args, guard", [
    (["criterion", "--n", "1..30", "--max-bits", "256"], mn._DOT_GUARD),
    (["table", "--n", "1..3", "--frac-bits", "800", "--max-bits", "900"],
     mn._BM_GUARD + mn._GAMMA_MARGIN),
])
def test_reservation_stays_under_max_bits(args, guard, tmp_path, monkeypatch):
    # criterion rows from n = 27 on ask for more than 256 bits, and the
    # series of n = 1 at --frac-bits 800 for 921 bits; those rows are
    # flagged before their first dot product, so the table is built once,
    # by the largest row under the cap, or not at all, and holds no more
    # than a row may ask for: the cap plus a guard
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    out = tmp_path / "x.csv"
    assert run(args + ["--jobs", "1", "--out", str(out)]) == 2
    policy = cli._policy(cli.build_parser().parse_args(args + ["--out", str(out)]))
    assert mn._TABLE.prec <= policy.max_bits + guard + mn._FLOOR_MARGIN
    assert mn._TABLE.builds == any(r["status"] == "ok" for r in read_csv(out))


# --- criterion -------------------------------------------------------------------

def test_criterion_rows(tmp_path):
    out = tmp_path / "c.json"
    assert run(["criterion", "--n", "1..2", "--format", "json", "--jobs", "1",
                "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows[0]["q"].startswith("6.18070977")
    assert rows[1]["q"].startswith("19.48328")
    assert rows[0]["dist_threshold"] != "" and rows[0]["dist_zero"] != ""


def test_criterion_digit_stability_across_frac_bits(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["criterion", "--n", "3..3", "--frac-bits", "64",
                "--format", "json", "--jobs", "1", "--out", str(a)]) == 0
    assert run(["criterion", "--n", "3..3", "--frac-bits", "128",
                "--format", "json", "--jobs", "1", "--out", str(b)]) == 0
    qa = json.loads(a.read_text())["rows"][0]["q"]
    qb = json.loads(b.read_text())["rows"][0]["q"]
    # doubling the certified fractional bits must not change printed digits
    # up to the former resolution (first ~19 significant digits here)
    assert qa[:20] == qb[:20]


# --- asym --------------------------------------------------------------------------

def test_asym_rows_and_summary(tmp_path):
    out = tmp_path / "a.json"
    assert run(["asym", "--laws", "central_binom,lcm_growth",
                "--points", "5,10,20", "--format", "json",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    laws = {r["law"] for r in data["rows"]}
    assert laws == {"central_binom", "lcm_growth"}
    assert data["summaries"]["lcm_growth"]["report_only"] is True
    assert data["summaries"]["central_binom"]["improving"] is True
    ratios = [float(r["ratio"]) for r in data["rows"]
              if r["law"] == "central_binom"]
    assert ratios == sorted(ratios)


@pytest.mark.parametrize("command, columns", [
    ("table", cli.TABLE_COLUMNS),
    ("criterion", cli.CRITERION_COLUMNS),
])
def test_row_keys_are_the_column_list(command, columns):
    # JSON output writes a row's keys and never reads the column list, so
    # both an ok row and an exhausted row must carry exactly the columns
    ok = cli._row_task((command, 3, mn.PrecisionPolicy()))
    assert ok["status"] == "ok" and list(ok) == columns
    low = mn.PrecisionPolicy(base_bits=64, max_bits=64)
    exhausted = cli._row_task((command, 3, low))
    assert exhausted["status"] == "precision_exhausted"
    assert list(exhausted) == columns


def test_asym_row_keys_are_the_column_list():
    from gammalab import asymptotics

    for law in ("central_binom", "lcm_growth"):
        report = asymptotics.convergence_report(law, (5, 10))
        for r in report.rows:
            assert list(cli._asym_row(law, r, report.report_only)) == cli.ASYM_COLUMNS


def test_asym_unknown_law(tmp_path):
    assert run(["asym", "--laws", "bogus", "--out", str(tmp_path / "x.csv")]) == 3


# --- gamma --------------------------------------------------------------------------

def test_gamma_digits(capsys, tmp_path):
    assert run(["gamma", "--digits", "20"]) == 0
    assert capsys.readouterr().out.strip() == "0.57721566490153286060"
    out = tmp_path / "g.txt"
    assert run(["gamma", "--digits", "32", "--out", str(out)]) == 0
    assert out.read_text().strip() == "0.57721566490153286060651209008240"
    assert os.path.exists(str(out) + ".manifest.json")


def test_gamma_3000_digits_match_mpmath(capsys):
    mpmath = pytest.importorskip("mpmath")
    assert run(["gamma", "--digits", "3000"]) == 0
    out = capsys.readouterr().out.strip()
    with mpmath.workdps(3040):
        ref = mpmath.nstr(mpmath.mp.euler, 3030, strip_zeros=False)
    assert len(out) == 3002
    assert out == ref[:3002]


def test_gamma_digits_honour_max_bits(capsys, monkeypatch):
    # 20000 digits start at 66,504 bits, past the 65,536-bit default
    # a fresh table, as in a `gamma` process: the shared one holds every
    # prime earlier tests used, and rebuilds them all at the new precision
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    assert run(["gamma", "--digits", "20000"]) == 2
    assert "needs 66504 bits" in capsys.readouterr().err
    assert run(["gamma", "--digits", "20000", "--max-bits", "131072"]) == 0
    out = capsys.readouterr().out.strip()
    # the first 20,002 characters of mpmath 1.3.0's gamma, made by
    #   with mpmath.workdps(20040):
    #       ref = mpmath.nstr(mpmath.mp.euler, 20030, strip_zeros=False)
    #   hashlib.sha256(ref[:20002].encode()).hexdigest()
    # (about 7 s to build, so the test keeps the digest)
    assert len(out) == 20002
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bf78ac83933a9eb479fe7b8451db9bb474ed4ed715fedfa5f84dda54b3f0526d")


def test_decimal_digits_beyond_str_limit():
    # str() of an int with more than 4300 digits raises by default
    assert cli._decimal_digits(10 ** 4999 + 12345, 5000) \
        == "1" + "0" * 4994 + "12345"
    assert cli._decimal_digits(7, 5000) == "0" * 4999 + "7"
    assert cli._decimal_digits(577, 5) == "00577"


def test_decimal_digits_equals_str_for_short_values():
    rng = random.Random(7)
    values = [0, 1, 9, 10, 10 ** 20, 2 ** 3000 - 1, 2 ** 3000, 10 ** 4299]
    values += [rng.getrandbits(b) for b in (10, 2999, 3001, 9000, 14000)]
    for x in values:
        assert cli._decimal_digits(x) == str(x)
        assert cli._decimal_digits(x, 5000) == str(x).rjust(5000, "0")


# 5,000-digit stand-ins; str() of any of them raises by default
_BIG_NUM = 10 ** 4999 + 7  # "1", 4,998 zeros, "7"; coprime to 3
_BIG_NUM_TEXT = "1" + "0" * 4998 + "7"
# about 1.29e4361 with a 14,580-bit mantissa, like log S_n at n = 2950
_BIG_LOG_S = mn.Bounded(from_man_exp(7 * 10 ** 4400 + 1, -132),
                        from_man_exp(1, -132))


def test_table_row_formats_5000_digit_integers():
    rec = sequences.build_record(1)
    rec = rec._replace(a_exact=Fraction(_BIG_NUM, 3), d2n=10 ** 5000 - 1,
                       criterion=rec.criterion._replace(log_s_floor=_BIG_NUM),
                       log_s=_BIG_LOG_S)
    row = cli._table_row(rec)
    assert row["log_s"].startswith("1.2856969462") and row["log_s"].endswith("e+4361")
    assert row["a_exact"] == _BIG_NUM_TEXT + "/3"
    assert row["d2n"] == "9" * 5000
    assert row["log_s_floor"] == _BIG_NUM_TEXT
    whole = cli._table_row(rec._replace(a_exact=Fraction(_BIG_NUM)))
    assert whole["a_exact"] == _BIG_NUM_TEXT


def test_criterion_row_formats_5000_digit_floor():
    cp = sequences.criterion_point(1)._replace(log_s_floor=_BIG_NUM, log_s=_BIG_LOG_S)
    row = cli._criterion_row(cp, 2)
    assert row["log_s_floor"] == _BIG_NUM_TEXT
    assert row["log_s"].endswith("e+4361")


# --- plumbing ----------------------------------------------------------------------

def test_bad_arguments_exit_code():
    assert run(["table", "--n", "oops", "--out", "/dev/null"]) == 3
    assert run(["nonsense"]) == 3


def test_negative_frac_bits_exit_code(capsys, tmp_path):
    for cmd in ("table", "criterion"):
        out = tmp_path / f"{cmd}.csv"
        assert run([cmd, "--n", "1..2", "--frac-bits", "-1", "--out", str(out)]) == 3
        assert "frac_bits" in capsys.readouterr().err
        assert run([cmd, "--n", "1..2", "--frac-bits", "0", "--jobs", "1",
                    "--out", str(out)]) == 0


def test_max_bits_below_base_bits_exit_code(capsys, tmp_path):
    # rejected as configuration, before any row is written as exhausted
    out = tmp_path / "x.csv"
    for cmd in ("table", "criterion"):
        for max_bits in ("0", "-5", "191"):
            assert run([cmd, "--n", "1..2", "--max-bits", max_bits,
                        "--out", str(out)]) == 3
            assert "max_bits must be at least base_bits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [["table", "--n", "1", "--jobs", "0"],
                                  ["criterion", "--n", "1..3", "--jobs", "0"],
                                  ["gamma", "--jobs", "-1"]])
def test_jobs_below_one_exit_code(args, tmp_path, capsys):
    out = tmp_path / "x.out"
    assert run(args + ["--out", str(out)]) == 3
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


_EPS_MESSAGE = "must be a positive decimal number"


@pytest.mark.parametrize("args, message", [
    (["table", "--n", "1", "--tail-eps", "abc"], "'abc' is not a decimal number"),
    (["table", "--n", "1", "--tail-eps", "inf"], _EPS_MESSAGE),
    (["table", "--n", "1", "--tail-eps", "nan"], _EPS_MESSAGE),
    (["table", "--n", "1", "--tail-eps", "0"], _EPS_MESSAGE),
    (["table", "--n", "1", "--tail-eps", "-1"], _EPS_MESSAGE),
    (["asym", "--points", "0"], "points must be positive integers"),
], ids=["eps-abc", "eps-inf", "eps-nan", "eps-0", "eps-neg", "points-0"])
def test_bad_option_text_exit_code(args, message, tmp_path, capsys):
    # a configuration error with the parser's own message, not a traceback
    out = tmp_path / "x.out"
    assert run(args + ["--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_threshold_computed_once_per_run(tmp_path):
    sequences.sondow_threshold.cache_clear()
    out = tmp_path / "c.csv"
    assert run(["criterion", "--n", "1..30", "--jobs", "1", "--out", str(out)]) == 0
    assert sequences.sondow_threshold.cache_info().misses == 1


def _modules_after(code):
    """The names in sys.modules of a fresh interpreter after running code."""
    code += "\nimport sys; sys.stderr.write(' '.join(sorted(sys.modules)))"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stderr.split())


def test_cli_import_loads_only_what_rows_and_gamma_run():
    # no process pool, asymptotics or verify until a subcommand needs them;
    # exact, mpnum and sequences stay eager for the benchmark's tracer
    loaded = _modules_after("import gammalab.cli")
    for name in ("concurrent.futures.process", "multiprocessing",
                 "gammalab.asymptotics", "gammalab.verify"):
        assert name not in loaded, name
    for name in ("gammalab.exact", "gammalab.mpnum", "gammalab.sequences"):
        assert name in loaded, name


def test_cli_starts_without_mpmath_dataclasses_json_or_csv(tmp_path):
    # start-up guard: json and csv are loaded only to write a file, and
    # mpmath never, not even to print a decimal; the row workers are forked
    # by mpnum.fork_map, without concurrent.futures or multiprocessing
    heavy = ("mpmath", "dataclasses", "inspect", "json", "csv")
    loaded = _modules_after("import gammalab.cli")
    assert sorted(m for m in loaded if m.split(".")[0] in heavy) == []
    for args in (["gamma", "--digits", "60"],
                 ["table", "--n", "1..3", "--jobs", "1",
                  "--out", str(tmp_path / "t.csv")],
                 ["criterion", "--n", "1..3", "--jobs", "2",
                  "--out", str(tmp_path / "c.csv")]):
        loaded = _modules_after(f"from gammalab.cli import main; main({args!r})")
        assert sorted(m for m in loaded if m.split(".")[0] == "mpmath") == [], args
        pools = ("concurrent", "multiprocessing", "_multiprocessing")
        assert sorted(m for m in loaded if m.split(".")[0] in pools) == [], args
    src = os.path.join(os.path.dirname(__file__), "..", "src", "gammalab")
    for root, _, names in os.walk(src):
        for name in (n for n in names if n.endswith(".py")):
            with open(os.path.join(root, name), encoding="utf-8") as f:
                lines = [line.strip() for line in f]
            assert not [line for line in lines
                        if line.startswith(("import mpmath", "from mpmath"))], name


def test_asym_reports_compute_without_mpmath():
    # every law at its default points, logs and square roots included,
    # computes and prints with mpnum's own arithmetic
    loaded = _modules_after("from gammalab import asymptotics as a\n"
                            "for law in a.LAWS: a.convergence_report(law)")
    assert "gammalab.asymptotics" in loaded
    assert sorted(m for m in loaded if m.split(".")[0] == "mpmath") == []


# each subcommand with the function that does its first work
_FIRST_WORK = pytest.mark.parametrize("args, module, work", [
    (["table", "--n", "1"], "gammalab.sequences", "build_record"),
    (["criterion", "--n", "1"], "gammalab.sequences", "criterion_point"),
    (["gamma", "--digits", "1"], "gammalab.cli", "euler_gamma"),
    (["asym"], "gammalab.asymptotics", "convergence_report"),
    (["verify", "--n-max", "5"], "gammalab.verify", "run_exact_suite"),
], ids=["table", "criterion", "gamma", "asym", "verify"])


def _record_calls(module, work, monkeypatch):
    import importlib

    calls = []
    monkeypatch.setattr(importlib.import_module(module), work,
                        lambda *a, **k: calls.append(a))
    return calls


@_FIRST_WORK
def test_missing_out_directory_fails_before_any_work(args, module, work, tmp_path,
                                                     capsys, monkeypatch):
    calls = _record_calls(module, work, monkeypatch)
    missing = tmp_path / "missing"
    assert run(args + ["--out", str(missing / "x.out")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(missing) in captured.err
    assert captured.out == ""
    assert calls == [] and not missing.exists()


@_FIRST_WORK
def test_empty_out_fails_before_any_work(args, module, work, tmp_path, capsys,
                                         monkeypatch):
    # an empty --out is checked like any other, so no subcommand computes
    # its rows first and then fails to open ''
    calls = _record_calls(module, work, monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run(args + ["--out", ""]) == 3
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == ("error: --out is empty\n", "")
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_out_naming_a_directory_fails_before_any_row(tmp_path, capsys,
                                                      monkeypatch):
    def no_rows(*a, **k):
        pytest.fail("criterion_point ran before --out was checked")

    monkeypatch.setattr(sequences, "criterion_point", no_rows)
    out = tmp_path / "rows"
    out.mkdir()
    assert run(["criterion", "--n", "1..200", "--jobs", "1",
                "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(out) in captured.err
    assert list(tmp_path.rglob("*")) == [out]


def test_package_serves_asymptotics_names_lazily():
    import gammalab
    import gammalab.asymptotics

    assert gammalab.LAWS is gammalab.asymptotics.LAWS
    assert gammalab.convergence_report is gammalab.asymptotics.convergence_report
    with pytest.raises(AttributeError):
        gammalab.nope


def test_manifest_contents(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["table", "--n", "1..1", "--jobs", "1", "--out", str(out)]) == 0
    man = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert man["tool"] == "gammalab"
    assert man["command"] == "table"
    assert set(man) == {"tool", "version", "command", "argv", "policy",
                        "n_range", "timings", "counts"}
    assert man["policy"] == {"base_bits": 192, "frac_bits": 64, "max_bits": 65536}
    assert man["n_range"] == [1, 1]
    assert "wall_s" in man["timings"]
    assert man["counts"]["rows"] == 1
    rep = tmp_path / "v.json"
    assert run(["verify", "--n-max", "3", "--seed", "5", "--out", str(rep)]) == 0
    man = json.loads((tmp_path / "v.json.manifest.json").read_text())
    assert man["command"] == "verify"
    assert man["seed"] == 5
    assert man["policy"] == {}


def test_each_subcommand_takes_only_the_options_it_reads():
    options = {"--bits", "--frac-bits", "--max-bits", "--seed", "--jobs",
               "--cache-dir"}
    wanted = {
        "verify": {"--seed"},
        "table": {"--bits", "--frac-bits", "--max-bits", "--jobs"},
        "criterion": {"--bits", "--frac-bits", "--max-bits", "--jobs"},
        "asym": {"--bits", "--max-bits"},
        "gamma": {"--max-bits", "--jobs"},
    }
    subparsers = next(a for a in cli.build_parser()._actions
                      if a.dest == "command").choices
    assert set(subparsers) == set(wanted)
    for name, p in subparsers.items():
        flags = {s for a in p._actions for s in a.option_strings}
        assert flags & options == wanted[name], name
    assert run(["gamma", "--digits", "5", "--seed", "0"]) == 3
    assert run(["verify", "--n-max", "3", "--jobs", "1"]) == 3
    assert run(["asym", "--jobs", "1", "--out", "/dev/null"]) == 3


# --- golden bytes ------------------------------------------------------------------

# SHA-256 of each data file.  ROADMAP aim 2 keeps data files byte-identical
# for a given command and policy, so a hash here may change only together
# with a declared change of the rows it produces.
_GOLDEN = {
    "table_1_20.csv": (["table", "--n", "1..20", "--jobs", "1"],
                       "bce5ffbea32000bfcdbfab12aa81f98e44e5704f2491ce67d72b3b1f91fdeaad"),
    "table_1_120.csv": (["table", "--n", "1..120", "--jobs", "1"],
                        "3aa311beed2dfd6634ec001a52c3456fd385b666a0ff2b4689d5c5d16ba183ac"),
    "table_398_399.csv": (["table", "--n", "398..399", "--jobs", "1"],
                          "32fbfbed65506a15ed0e50e77c713e9b6e9dcc8e268e4d0b9c3c9fd43c3f532a"),
    "criterion_1_60.csv": (["criterion", "--n", "1..60", "--jobs", "1"],
                           "7d9d33d1e978541d62afcd24e966a3088006d0d3ebd237dd573e3056898426fd"),
    "criterion_1_460.csv": (["criterion", "--n", "1..460", "--jobs", "1"],
                            "74110e7b16f2e07aa70dcc20c0634ee9aeae0df2d5f6a362d9a5a9ef5a7ee47f"),
    "asym.json": (["asym", "--format", "json"],
                  "fa4375a2aeaa0f3d6e2973e879db550df207ca7c010c81627c2a7adb440854bb"),
    "gamma_60.txt": (["gamma", "--digits", "60", "--jobs", "1"],
                     "5c5f00ab18ed4e240bfcda1d98ec182e6a5b4be4159a23ff347e9908d8b54f43"),
    "verify_1_60.json": (["verify", "--n-max", "60"],
                         "7d1a3e7585c42f0764d21914545f75305807d612042830352744d34e5bdecfdd"),
    "table_900.csv": (["table", "--n", "900..900", "--jobs", "1"],
                      "8e53d1d6ba54382dfc17ab7a1460fb21822bf7e9844b898728e31d8a6046fa02"),
}


def test_data_files_match_golden_hashes(tmp_path):
    for name, (args, digest) in _GOLDEN.items():
        out = tmp_path / name
        assert run(args + ["--out", str(out)]) == 0, name
        assert hashlib.sha256(read_bytes(out)).hexdigest() == digest, name


def test_criterion_scan_script_prints_its_rows(monkeypatch, capsys):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "criterion_scan.py")
    monkeypatch.setattr(sys, "argv", [script, "3", "64"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(script, run_name="__main__")
    assert done.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines if line.split()[0].isdigit()]
    assert [r[0] for r in rows] == ["1", "2", "3"]
