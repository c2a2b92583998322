"""CLI behaviour: determinism, format equivalence, fault injection, exit
codes, big-integer formatting, per-subcommand options, and manifests."""

import csv
import dataclasses
import json
import os
import random
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
        vec = dict(real(n))
        if n == 3:
            vec[5] += 1
        return vec

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


def test_table_empty_range(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["table", "--n", "3..2", "--format", "csv",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows == []
    header = read_bytes(out).decode().splitlines()[0]
    assert header.split(",")[0] == "n"


def test_table_precision_exhaustion_flags_row(tmp_path):
    out = tmp_path / "x.csv"
    code = run(["table", "--n", "1..1", "--tail-eps", "1e-300",
                "--jobs", "1", "--out", str(out)])
    assert code == 2
    rows = read_csv(out)
    assert rows[0]["status"] == "precision_exhausted"
    assert rows[0]["n"] == "1"  # flagged, not dropped


def test_table_parallel_matches_serial(tmp_path):
    a = tmp_path / "serial.csv"
    b = tmp_path / "par.csv"
    assert run(["table", "--n", "1..4", "--jobs", "1", "--out", str(a)]) == 0
    assert run(["table", "--n", "1..4", "--jobs", "3", "--out", str(b)]) == 0
    assert read_bytes(a) == read_bytes(b)


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
    mpmath = pytest.importorskip("mpmath")
    # a fresh table, as in a `gamma` process: the shared one holds every
    # prime earlier tests used, and rebuilds them all at the new precision
    monkeypatch.setattr(mn, "_TABLE", mn.PrimeLogTable())
    assert run(["gamma", "--digits", "20000"]) == 2
    assert "needs 66504 bits" in capsys.readouterr().err
    assert run(["gamma", "--digits", "20000", "--max-bits", "131072"]) == 0
    out = capsys.readouterr().out.strip()
    with mpmath.workdps(20040):
        ref = mpmath.nstr(mpmath.mp.euler, 20030, strip_zeros=False)
    assert len(out) == 20002
    assert out == ref[:20002]


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
    rec = dataclasses.replace(sequences.build_record(1),
                              a_exact=Fraction(_BIG_NUM, 3),
                              d2n=10 ** 5000 - 1, log_s_floor=_BIG_NUM,
                              log_s=_BIG_LOG_S)
    row = cli._table_row(rec)
    assert row["log_s"].startswith("1.2856969462") and row["log_s"].endswith("e+4361")
    assert row["a_exact"] == _BIG_NUM_TEXT + "/3"
    assert row["d2n"] == "9" * 5000
    assert row["log_s_floor"] == _BIG_NUM_TEXT
    whole = cli._table_row(dataclasses.replace(rec, a_exact=Fraction(_BIG_NUM)))
    assert whole["a_exact"] == _BIG_NUM_TEXT


def test_criterion_row_formats_5000_digit_floor():
    cp = dataclasses.replace(sequences.criterion_point(1, 64),
                             log_s_floor=_BIG_NUM, log_s=_BIG_LOG_S)
    row = cli._criterion_row(cp, 2)
    assert row["log_s_floor"] == _BIG_NUM_TEXT
    assert row["log_s"].endswith("e+4361")


# --- plumbing ----------------------------------------------------------------------

def test_bad_arguments_exit_code():
    assert run(["table", "--n", "oops", "--out", "/dev/null"]) == 3
    assert run(["nonsense"]) == 3


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
        "verify": {"--seed", "--jobs"},
        "table": {"--bits", "--frac-bits", "--max-bits", "--jobs"},
        "criterion": {"--bits", "--frac-bits", "--max-bits", "--jobs"},
        "asym": {"--bits", "--max-bits", "--jobs"},
        "gamma": {"--max-bits", "--jobs"},
    }
    subparsers = next(a for a in cli.build_parser()._actions
                      if a.dest == "command").choices
    assert set(subparsers) == set(wanted)
    for name, p in subparsers.items():
        flags = {s for a in p._actions for s in a.option_strings}
        assert flags & options == wanted[name], name
    assert run(["gamma", "--digits", "5", "--seed", "0"]) == 3
