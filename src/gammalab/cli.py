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
import os
import sys
import time
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__, exact, mpnum, sequences
from .mpnum import (
    Bounded,
    PrecisionExhausted,
    PrecisionInsufficient,
    PrecisionPolicy,
    escalation,
    fork_map,
    to_str,
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
        raise argparse.ArgumentTypeError("range must start at 1 or above")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"range {text} ends before it starts")
    return lo, hi


def _parse_jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return jobs


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    keeps one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _parse_points(text: str) -> List[int]:
    try:
        pts = sorted({int(t) for t in text.split(",") if t.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma list of integers") from None
    if not pts or pts[0] < 1:
        raise argparse.ArgumentTypeError("points must be positive integers")
    return pts


def _parse_eps(text: str) -> Fraction:
    try:
        v = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a decimal number") from None
    if not v.is_finite() or v <= 0:
        raise argparse.ArgumentTypeError("must be a positive decimal number")
    return Fraction(v)


def _policy_fields(args) -> Dict[str, int]:
    """The PrecisionPolicy fields this subcommand has options for."""
    return {f: getattr(args, f) for f in ("base_bits", "frac_bits", "max_bits")
            if hasattr(args, f)}


def _policy(args) -> PrecisionPolicy:
    return PrecisionPolicy(tail_eps=getattr(args, "tail_eps", None),
                           **_policy_fields(args))


def _cells(**bounded: Bounded) -> Dict[str, str]:
    """The value cell and the `_err` cell of each named enclosure."""
    cells = {}
    for name, b in bounded.items():
        cells[name] = b.decimal(_VALUE_DPS)
        cells[name + "_err"] = b.err_decimal(_ERR_DPS)
    return cells


def _decimal_digits(x: int, width: int = 0) -> str:
    """str(x).rjust(width, "0") for x >= 0, also past the digits str()
    refuses (sys.get_int_max_str_digits(), at least 640): from 250 digits,
    an estimate never below the true count, x is split in halves."""
    size = int(x.bit_length() * 0.30103) + 1
    if size < 250:
        return str(x).rjust(width, "0")
    half = (size + 1) // 2
    hi, lo = divmod(x, 10 ** half)
    return (_decimal_digits(hi) + _decimal_digits(lo, half)).rjust(width, "0")


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
    cp = rec.criterion
    return {
        "n": str(rec.n),
        "status": "ok",
        "precision_bits": str(rec.precision_bits),
        "a_exact": _frac_str(rec.a_exact),
        "d2n": _decimal_digits(rec.d2n),
        **_cells(L_logfact=rec.L_logfact, L_product=rec.L_product),
        "l_agree": str(rec.l_agree).lower(),
        **_cells(log_s=rec.log_s, I_closed=rec.I_closed, I_series=rec.I_series),
        "i_agree": str(rec.i_agree).lower(),
        "i_positive": str(rec.i_positive).lower(),
        "tail_cutoff": str(rec.tail.cutoff),
        "tail_em_terms": str(rec.tail.em_terms),
        "tail_remainder": to_str(_fraction_to_raw_up(rec.tail.remainder), _ERR_DPS),
        "log_s_floor": _decimal_digits(cp.log_s_floor),
        **_cells(frac_log_s=cp.frac, q=cp.q, q_dist_zero=cp.dist_zero,
                 q_dist_threshold=cp.dist_threshold),
        "q_precision_bits": str(cp.precision_bits),
    }


def _criterion_row(cp: sequences.CriterionPoint, d2n_bits: int) -> Dict[str, str]:
    return {
        "n": str(cp.n),
        "status": "ok",
        "precision_bits": str(cp.precision_bits),
        "d2n_bits": str(d2n_bits),
        **_cells(log_s=cp.log_s),
        "log_s_floor": _decimal_digits(cp.log_s_floor),
        **_cells(frac_log_s=cp.frac, q=cp.q, dist_zero=cp.dist_zero,
                 dist_threshold=cp.dist_threshold),
    }


def _asym_row(law: str, r, report_only: bool) -> Dict[str, str]:
    return {
        "law": law,
        "n": str(r.n),
        **_cells(measured=r.measured, model=r.model),
        "ratio": repr(r.ratio),
        "residual": repr(r.residual),
        "report_only": str(report_only).lower(),
    }


def _table_cells(n: int, policy: PrecisionPolicy) -> Dict[str, str]:
    return _table_row(sequences.build_record(n, policy))


def _criterion_cells(n: int, policy: PrecisionPolicy) -> Dict[str, str]:
    return _criterion_row(sequences.criterion_point(n, policy),
                          exact.lcm_upto(2 * n).bit_length())


# the row subcommands: their columns and their "n, policy -> row" function
_ROW_COMMANDS = {
    "table": (TABLE_COLUMNS, _table_cells),
    "criterion": (CRITERION_COLUMNS, _criterion_cells),
}


def _row_task(task) -> Dict[str, str]:
    command, n, policy = task
    columns, cells = _ROW_COMMANDS[command]
    try:
        return cells(n, policy)
    except (PrecisionExhausted, PrecisionInsufficient):
        row = dict.fromkeys(columns, "")
        row.update(n=str(n), status="precision_exhausted")
        return row


def _write_json(path: str, obj: Dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(path: str, fmt: str, columns: Sequence[str],
                rows: List[Dict[str, str]]) -> None:
    if fmt == "csv":
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=list(columns))
            w.writeheader()
            w.writerows(rows)
    else:
        _write_json(path, {"rows": rows})


def _write_manifest(out_path: str, args, extra: Dict) -> None:
    """Write the run manifest beside out_path; its wall time runs from the
    start of main."""
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
    manifest["timings"] = {"wall_s": time.perf_counter() - args._t0}
    _write_json(out_path + ".manifest.json", manifest)


def _check_out_dir(path: str) -> None:
    """Raise OSError unless path is not empty, neither it nor its manifest
    names a directory, and it lies in a writable directory, so that a bad
    --out fails before any work."""
    if not path:
        raise OSError("--out is empty")
    for f in (path, path + ".manifest.json"):
        if os.path.isdir(f):
            raise OSError(f"--out {f} is a directory")
    d = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(d):
        raise OSError(f"--out directory {d} does not exist")
    if not os.access(d, os.W_OK):
        raise OSError(f"--out directory {d} is not writable")


def _cmd_verify(args) -> int:
    from . import verify

    suites = verify.run_exact_suite(args.n_max, args.seed)
    for s in suites:
        sys.stdout.write(f"PASS {s.name} (checked {s.checked})\n" if s.passed
                         else f"FAIL {s.name}: {s.failure}\n")
    counts = {s.name: {"checked": s.checked, "failure": s.failure} for s in suites}
    failed = not all(s.passed for s in suites)
    if args.out:
        _write_json(args.out, {"suites": counts})
        _write_manifest(args.out, args, {
            "n_range": [1, args.n_max],
            "counts": counts,
        })
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _cmd_rows(args) -> int:
    lo, hi = args.n
    policy = _policy(args)
    columns, _ = _ROW_COMMANDS[args.command]
    # largest n first, in this process: a row's requests of the prime-log
    # table and of gamma grow with n, so this row sizes both for the run,
    # and the workers forked for the other rows inherit them
    tasks = [(args.command, n, policy) for n in range(hi, lo - 1, -1)]
    jobs = args.jobs or _usable_cpus()
    saved, mpnum.WORKERS = mpnum.WORKERS, jobs
    try:
        rows = [_row_task(tasks[0])] + fork_map(_row_task, tasks[1:], jobs)
    finally:
        mpnum.WORKERS = saved
    rows.reverse()
    _write_rows(args.out, args.format, columns, rows)
    bad = sum(1 for r in rows if r["status"] != "ok")
    _write_manifest(args.out, args, {
        "n_range": [lo, hi],
        "counts": {"rows": len(rows), "precision_failures": bad},
    })
    return EXIT_PRECISION if bad else EXIT_OK


def _cmd_asym(args) -> int:
    from . import asymptotics

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
        rows.extend(_asym_row(law, r, report.report_only) for r in report.rows)
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
        _write_json(args.out, {"rows": rows, "summaries": summaries})
    _write_manifest(args.out, args, {
        "laws": law_ids,
        "points": args.points,
        "counts": {"rows": len(rows)},
    })
    return EXIT_OK


def _truncated_gamma_digits(digits: int, max_bits: int) -> str:
    """Euler's constant truncated (not rounded) to `digits` decimals,
    certified: f = floor(2^w gamma) puts 10^digits gamma in
    [f 10^digits / 2^w, (f + 1) 10^digits / 2^w), open at the top, as gamma
    is irrational, so its floor is (f 10^digits) >> w once that equals
    ((f + 1) 10^digits - 1) >> w."""
    if digits < 1:
        raise ValueError("--digits must be at least 1")
    scale = 10 ** digits
    for p in escalation(f"gamma --digits {digits}", int(digits * 3.322) + 64,
                        max_bits):
        w = p + mpnum._BM_GUARD
        f = mpnum._TABLE.floor_gamma(w)
        lo = (f * scale) >> w
        if lo == ((f + 1) * scale - 1) >> w:
            return "0." + _decimal_digits(lo, digits)


def _cmd_gamma(args) -> int:
    saved, mpnum.WORKERS = mpnum.WORKERS, args.jobs or _usable_cpus()
    try:
        text = _truncated_gamma_digits(args.digits, args.max_bits)
    finally:
        mpnum.WORKERS = saved
    sys.stdout.write(text + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _write_manifest(args.out, args, {
            "digits": args.digits,
            "counts": {},
        })
    return EXIT_OK


_DEFAULTS = PrecisionPolicy()

_OPTIONS = {
    "--bits": dict(type=int, dest="base_bits", metavar="BITS",
                   default=_DEFAULTS.base_bits,
                   help="base working precision in bits (default %(default)s)"),
    "--frac-bits": dict(type=int, default=_DEFAULTS.frac_bits,
                        help="certified fractional-part bits (default %(default)s)"),
    "--max-bits": dict(type=int, default=_DEFAULTS.max_bits,
                       help="escalation ceiling in bits (default %(default)s)"),
    "--seed": dict(type=int, default=0,
                   help="seed of the sampled rational points (default %(default)s)"),
    "--jobs": dict(type=_parse_jobs, default=None,
                   help="worker processes (default: the CPUs this process "
                        "may run on)"),
}


def _add_options(p: argparse.ArgumentParser, *flags: str) -> None:
    """Register the named shared options; each subcommand takes only the
    ones it reads."""
    for flag in flags:
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
    _add_options(p, "--bits", "--frac-bits", "--max-bits", "--jobs")
    p.set_defaults(fn=_cmd_rows)

    p = sub.add_parser("criterion", help="irrationality-criterion probe rows")
    p.add_argument("--n", type=_parse_range, required=True, metavar="A..B")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    _add_options(p, "--bits", "--frac-bits", "--max-bits", "--jobs")
    p.set_defaults(fn=_cmd_rows)

    p = sub.add_parser("asym", help="asymptotic-law convergence reports")
    p.add_argument("--laws", default=None,
                   help="comma list of law ids (default all)")
    p.add_argument("--points", type=_parse_points, default=None,
                   help="comma list of n values (default per-law grid)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    _add_options(p, "--bits", "--max-bits")
    p.set_defaults(fn=_cmd_asym)

    p = sub.add_parser("gamma", help="Euler's constant, truncated digits")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--out", default=None)
    _add_options(p, "--max-bits", "--jobs")
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
    args._t0 = time.perf_counter()
    try:
        if args.out is not None:
            _check_out_dir(args.out)
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
