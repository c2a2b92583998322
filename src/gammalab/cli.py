"""Command-line front end.

Subcommands::

    gammalab verify     run the exact-identity suites
    gammalab table      per-n table of all decomposition quantities
    gammalab criterion  certified Q_n = (16^n n / d_2n) {log S_n} rows
    gammalab asym       ratio-to-model convergence reports
    gammalab gamma      Euler's constant to a requested digit count

Data files are CSV (RFC 4180, '.' decimal separator) or JSON (one object
per n; big integers as strings).  Every float value travels with an
explicit error field.  A run manifest is written as JSON beside every
``--out`` file.  Runs are deterministic: same command, config and seed
produce byte-identical data files (timings live only in the manifest).

Exit codes: 0 ok, 1 verification failure, 2 precision exhaustion,
3 I/O or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from mpmath.libmp import to_str

from . import __version__, asymptotics, exact, sequences, verify
from .mpnum import (
    Bounded,
    PrecisionExhausted,
    PrecisionInsufficient,
    PrecisionPolicy,
    euler_gamma,
    _fraction_to_raw_up,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PRECISION = 2
EXIT_IO = 3

_VALUE_DPS = 40
_ERR_DPS = 4


def _parse_range(text: str) -> Tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo < 1:
        raise ValueError("range must start at 1 or above")
    return lo, hi


def _parse_points(text: str) -> List[int]:
    pts = sorted({int(t) for t in text.split(",") if t.strip()})
    if not pts or pts[0] < 1:
        raise ValueError("points must be positive integers")
    return pts


def _parse_eps(text: str) -> Fraction:
    v = Fraction(Decimal(text))
    if v <= 0:
        raise ValueError("--tail-eps must be positive")
    return v


def _policy_fields(args) -> Dict[str, int]:
    """The PrecisionPolicy fields this subcommand has options for."""
    return {f: getattr(args, f) for f in ("base_bits", "frac_bits", "max_bits")
            if hasattr(args, f)}


def _policy(args) -> PrecisionPolicy:
    return PrecisionPolicy(tail_eps=getattr(args, "tail_eps", None),
                           **_policy_fields(args))


def _val(b: Bounded) -> str:
    return b.decimal(_VALUE_DPS)


def _err(b: Bounded) -> str:
    return b.err_decimal(_ERR_DPS)


def _decimal_digits(x: int, width: int = 0) -> str:
    """x >= 0 in decimal, zero-padded to at least `width` digits.

    Equals str(x).rjust(width, "0") for short x.  str() refuses integers
    longer than sys.get_int_max_str_digits() (4300 by default), so long
    ones are split in halves first.
    """
    if x.bit_length() <= 3000:
        return str(x).rjust(width, "0")
    # k is about half of x's digit count (or of width), so hi > 0 or is padded
    k = max(width, int(x.bit_length() * 0.30103)) // 2
    hi, lo = divmod(x, 10 ** k)
    return _decimal_digits(hi, width - k) + _decimal_digits(lo, k)


def _frac_str(q: Fraction) -> str:
    num = _decimal_digits(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_decimal_digits(q.denominator)}"


TABLE_COLUMNS = [
    "n", "status", "precision_bits", "a_exact", "d2n",
    "L_logfact", "L_logfact_err", "L_product", "L_product_err", "l_agree",
    "log_s", "log_s_err",
    "I_closed", "I_closed_err", "I_series", "I_series_err",
    "i_agree", "i_positive", "tail_cutoff", "tail_em_terms", "tail_remainder",
    "log_s_floor", "frac_log_s", "frac_log_s_err",
    "q", "q_err", "q_dist_zero", "q_dist_zero_err",
    "q_dist_threshold", "q_dist_threshold_err", "q_precision_bits",
]

CRITERION_COLUMNS = [
    "n", "status", "precision_bits", "d2n_bits",
    "log_s", "log_s_err", "log_s_floor",
    "frac_log_s", "frac_log_s_err", "q", "q_err",
    "dist_zero", "dist_zero_err", "dist_threshold", "dist_threshold_err",
]

ASYM_COLUMNS = [
    "law", "n", "measured", "measured_err", "model", "model_err",
    "ratio", "residual", "report_only",
]


def _table_row(rec: sequences.SeqRecord) -> Dict[str, str]:
    return {
        "n": str(rec.n),
        "status": "ok",
        "precision_bits": str(rec.precision_bits),
        "a_exact": _frac_str(rec.a_exact),
        "d2n": _decimal_digits(rec.d2n),
        "L_logfact": _val(rec.L_logfact),
        "L_logfact_err": _err(rec.L_logfact),
        "L_product": _val(rec.L_product),
        "L_product_err": _err(rec.L_product),
        "l_agree": str(rec.l_agree).lower(),
        "log_s": _val(rec.log_s),
        "log_s_err": _err(rec.log_s),
        "I_closed": _val(rec.I_closed),
        "I_closed_err": _err(rec.I_closed),
        "I_series": _val(rec.I_series),
        "I_series_err": _err(rec.I_series),
        "i_agree": str(rec.i_agree).lower(),
        "i_positive": str(rec.i_positive).lower(),
        "tail_cutoff": str(rec.tail.cutoff),
        "tail_em_terms": str(rec.tail.em_terms),
        "tail_remainder": to_str(_fraction_to_raw_up(rec.tail.remainder), _ERR_DPS),
        "log_s_floor": _decimal_digits(rec.log_s_floor),
        "frac_log_s": _val(rec.frac_log_s),
        "frac_log_s_err": _err(rec.frac_log_s),
        "q": _val(rec.q),
        "q_err": _err(rec.q),
        "q_dist_zero": _val(rec.q_dist_zero),
        "q_dist_zero_err": _err(rec.q_dist_zero),
        "q_dist_threshold": _val(rec.q_dist_threshold),
        "q_dist_threshold_err": _err(rec.q_dist_threshold),
        "q_precision_bits": str(rec.q_precision_bits),
    }


def _failed_row(columns: Sequence[str], n: int, reason: str) -> Dict[str, str]:
    row = {c: "" for c in columns}
    row["n"] = str(n)
    row["status"] = reason
    return row


def _criterion_row(cp: sequences.CriterionPoint, d2n_bits: int) -> Dict[str, str]:
    return {
        "n": str(cp.n),
        "status": "ok",
        "precision_bits": str(cp.precision_bits),
        "d2n_bits": str(d2n_bits),
        "log_s": _val(cp.log_s),
        "log_s_err": _err(cp.log_s),
        "log_s_floor": _decimal_digits(cp.log_s_floor),
        "frac_log_s": _val(cp.frac),
        "frac_log_s_err": _err(cp.frac),
        "q": _val(cp.q),
        "q_err": _err(cp.q),
        "dist_zero": _val(cp.dist_zero),
        "dist_zero_err": _err(cp.dist_zero),
        "dist_threshold": _val(cp.dist_threshold),
        "dist_threshold_err": _err(cp.dist_threshold),
    }


def _table_task(task) -> Tuple[int, Dict[str, str]]:
    n, policy = task
    try:
        return n, _table_row(sequences.build_record(n, policy))
    except (PrecisionExhausted, PrecisionInsufficient):
        return n, _failed_row(TABLE_COLUMNS, n, "precision_exhausted")


def _criterion_task(task) -> Tuple[int, Dict[str, str]]:
    n, frac_bits, policy = task
    try:
        cp = sequences.criterion_point(n, frac_bits, policy)
        return n, _criterion_row(cp, exact.lcm_upto(2 * n).bit_length())
    except (PrecisionExhausted, PrecisionInsufficient):
        return n, _failed_row(CRITERION_COLUMNS, n, "precision_exhausted")


def _run_tasks(worker, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        results = [worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(worker, tasks))
    return [row for _, row in sorted(results, key=lambda item: item[0])]


def _write_rows(path: str, fmt: str, columns: Sequence[str],
                rows: List[Dict[str, str]]) -> None:
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=list(columns))
            w.writeheader()
            w.writerows(rows)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows}, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_manifest(out_path: str, args, extra: Dict) -> None:
    manifest = {
        "tool": "gammalab",
        "version": __version__,
        "command": args.command,
        "argv": list(getattr(args, "_argv", [])),
        "policy": _policy_fields(args),
    }
    if hasattr(args, "seed"):
        manifest["seed"] = args.seed
    manifest.update(extra)
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    suites = verify.run_exact_suite(args.n_max, args.seed)
    lines = []
    counts = {}
    failed = False
    for s in suites:
        if s.passed:
            lines.append(f"PASS {s.name} (checked {s.checked})")
        else:
            lines.append(f"FAIL {s.name}: {s.failure}")
            failed = True
        counts[s.name] = {"checked": s.checked, "failure": s.failure}
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"suites": counts}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(args.out, args, {
            "n_range": [1, args.n_max],
            "timings": {"wall_s": time.perf_counter() - t0},
            "counts": counts,
        })
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _cmd_table(args) -> int:
    t0 = time.perf_counter()
    lo, hi = args.n
    ns = list(range(lo, hi + 1))
    policy = _policy(args)
    rows = _run_tasks(_table_task, [(n, policy) for n in ns], args.jobs)
    _write_rows(args.out, args.format, TABLE_COLUMNS, rows)
    bad = sum(1 for r in rows if r["status"] != "ok")
    _write_manifest(args.out, args, {
        "n_range": [lo, hi],
        "timings": {"wall_s": time.perf_counter() - t0},
        "counts": {"rows": len(rows), "precision_failures": bad},
    })
    return EXIT_PRECISION if bad else EXIT_OK


def _cmd_criterion(args) -> int:
    t0 = time.perf_counter()
    lo, hi = args.n
    policy = _policy(args)
    tasks = [(n, args.frac_bits, policy) for n in range(lo, hi + 1)]
    rows = _run_tasks(_criterion_task, tasks, args.jobs)
    _write_rows(args.out, args.format, CRITERION_COLUMNS, rows)
    bad = sum(1 for r in rows if r["status"] != "ok")
    _write_manifest(args.out, args, {
        "n_range": [lo, hi],
        "timings": {"wall_s": time.perf_counter() - t0},
        "counts": {"rows": len(rows), "precision_failures": bad},
    })
    return EXIT_PRECISION if bad else EXIT_OK


def _cmd_asym(args) -> int:
    t0 = time.perf_counter()
    law_ids = args.laws.split(",") if args.laws else list(asymptotics.LAWS)
    for law in law_ids:
        if law not in asymptotics.LAWS:
            raise ValueError(
                f"unknown law {law!r}; available: {', '.join(asymptotics.LAWS)}")
    policy = _policy(args)
    rows: List[Dict[str, str]] = []
    summaries: Dict[str, Dict] = {}
    for law in law_ids:
        report = asymptotics.convergence_report(law, args.points, policy)
        for r in report.rows:
            rows.append({
                "law": law,
                "n": str(r.n),
                "measured": _val(r.measured),
                "measured_err": _err(r.measured),
                "model": _val(r.model),
                "model_err": _err(r.model),
                "ratio": repr(r.ratio),
                "residual": repr(r.residual),
                "report_only": str(report.report_only).lower(),
            })
        summaries[law] = {
            "description": report.description,
            "improving": report.improving,
            "aitken": repr(report.aitken),
            "aitken_degenerate": report.aitken_degenerate,
            "report_only": report.report_only,
        }
    if args.format == "csv":
        _write_rows(args.out, "csv", ASYM_COLUMNS, rows)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows, "summaries": summaries}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    _write_manifest(args.out, args, {
        "laws": law_ids,
        "points": args.points,
        "timings": {"wall_s": time.perf_counter() - t0},
        "counts": {"rows": len(rows)},
    })
    return EXIT_OK


def _truncated_gamma_digits(digits: int, max_bits: int) -> str:
    """Euler's constant truncated (not rounded) to `digits` decimals,
    certified: the enclosing interval must agree on every printed digit."""
    if digits < 1:
        raise ValueError("--digits must be at least 1")
    p = int(digits * 3.322) + 64
    if p > max_bits:
        raise PrecisionExhausted(
            f"gamma --digits {digits} needs {p} bits, ceiling is {max_bits}")
    while True:
        g = euler_gamma(p)
        scale = 10 ** digits
        lo = (g.value_fraction() - g.err_fraction()) * scale
        hi = (g.value_fraction() + g.err_fraction()) * scale
        if math.floor(lo) == math.floor(hi):
            return "0." + _decimal_digits(math.floor(lo), digits)
        if 2 * p > max_bits:
            raise PrecisionExhausted(f"gamma digits need more than {max_bits} bits")
        p *= 2


def _cmd_gamma(args) -> int:
    t0 = time.perf_counter()
    text = _truncated_gamma_digits(args.digits, args.max_bits)
    sys.stdout.write(text + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _write_manifest(args.out, args, {
            "digits": args.digits,
            "timings": {"wall_s": time.perf_counter() - t0},
            "counts": {},
        })
    return EXIT_OK


_OPTIONS = {
    "--bits": dict(type=int, dest="base_bits", metavar="BITS",
                   default=PrecisionPolicy.base_bits,
                   help="base working precision in bits (default %(default)s)"),
    "--frac-bits": dict(type=int, default=PrecisionPolicy.frac_bits,
                        help="certified fractional-part bits (default %(default)s)"),
    "--max-bits": dict(type=int, default=PrecisionPolicy.max_bits,
                       help="escalation ceiling in bits (default %(default)s)"),
    "--seed": dict(type=int, default=0,
                   help="seed of the sampled rational points (default %(default)s)"),
    "--jobs": dict(type=int, default=os.cpu_count() or 1,
                   help="parallel workers (default: cpu count)"),
}


def _add_options(p: argparse.ArgumentParser, *flags: str) -> None:
    """Register the named shared options; each subcommand takes only the
    ones it reads, plus --jobs everywhere."""
    for flag in flags + ("--jobs",):
        p.add_argument(flag, **_OPTIONS[flag])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gammalab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--version", action="version", version=f"gammalab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the exact-identity suites")
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--out", help="optional JSON report path")
    _add_options(p, "--seed")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("table", help="per-n decomposition table")
    p.add_argument("--n", type=_parse_range, required=True, metavar="A..B")
    p.add_argument("--tail-eps", type=_parse_eps, default=None,
                   help="absolute series budget (decimal string)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    _add_options(p, "--bits", "--frac-bits", "--max-bits")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("criterion", help="irrationality-criterion probe rows")
    p.add_argument("--n", type=_parse_range, required=True, metavar="A..B")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    _add_options(p, "--bits", "--frac-bits", "--max-bits")
    p.set_defaults(fn=_cmd_criterion)

    p = sub.add_parser("asym", help="asymptotic-law convergence reports")
    p.add_argument("--laws", default=None,
                   help=f"comma list of {', '.join(asymptotics.LAWS)} (default all)")
    p.add_argument("--points", type=_parse_points, default=None,
                   help="comma list of n values (default per-law grid)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    _add_options(p, "--bits", "--max-bits")
    p.set_defaults(fn=_cmd_asym)

    p = sub.add_parser("gamma", help="Euler's constant, truncated digits")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--out", default=None)
    _add_options(p, "--max-bits")
    p.set_defaults(fn=_cmd_gamma)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse uses exit code 2 for usage errors; that slot is taken
        return EXIT_OK if e.code in (0, None) else EXIT_IO
    args._argv = argv
    try:
        return args.fn(args)
    except (PrecisionExhausted, PrecisionInsufficient) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_PRECISION
    except exact.IdentityViolation as e:
        sys.stderr.write(f"identity violation: {e}\n")
        return EXIT_VERIFY_FAILED
    except (OSError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
