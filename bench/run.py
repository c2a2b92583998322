"""Benchmark of the gammalab command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gammalab checkout; the package is imported from
its `src/`.  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the line before
it records the environment, the inputs and every sample.

`--trace 0` runs the CLI in a fresh process, again and again until
`--seconds` would be exceeded, and reports the end-to-end metrics (see
BENCHMARK.json and README.md): the median invocation's wall time, CPU
time and peak memory, and the median of the cold `import gammalab.cli`
processes timed between invocations for `setup_s`.

`--trace 1` makes one untraced and one traced in-process run at
`--jobs 1` (tracer.py) and reports per-layer self times and counts, the
tracing overhead and, on `criterion`, the efficiency of the process
pool.  The spans are kept in `.bench_out/trace-<workload>.json`.  A
metric that the run does not reach reads 0 and is named on stderr.

Every output row is checked by oracle.py.  A row flagged
`precision_exhausted` counts as failed, and so does every row of a run
that timed out or exited non-zero for any other reason; a row whose
values are wrong also makes `correct` false.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import oracle

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")

CLI_TIMEOUT_S = 50.0
EXIT_PRECISION = 2  # gammalab.cli.EXIT_PRECISION
SETUP_IMPORTS_PER_INVOCATION = 2
ENTRY = "import sys; from gammalab.cli import main; sys.exit(main(sys.argv[1:]))"


END_TO_END_METRICS = {  # metric: unit
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

LAYER_METRICS = {
    "exact.harmonic.self_s": "s",
    "exact.harmonic.calls": "count",
    "exact.bernoulli.self_s": "s",
    "exact.A_exact.self_s": "s",
    "mpnum.ln_int.self_s": "s",
    "mpnum.ln_int.calls": "count",
    "mpnum.ln_int.hit_ratio": "ratio",
    "mpnum.log_factorial.self_s": "s",
    "mpnum.log_factorial.calls": "count",
    "mpnum.euler_gamma.self_s": "s",
    "mpnum.frac_part_certified.calls": "count",
    "mpnum.frac_part_certified.retries": "count",
    "sequences.log_S.self_s": "s",
    "sequences.criterion_point.self_s": "s",
    "sequences.L_from_factorial_logs.self_s": "s",
    "sequences.L_from_factorial_logs.calls": "count",
    "sequences.I_series.self_s": "s",
    "sequences.I_series.rounds": "rounds",
    "sequences.series_term.self_s": "s",
    "sequences.I_closed_form.self_s": "s",
    "sequences.build_record.self_s": "s",
    "cli.main.self_s": "s",
    "cli.pool.efficiency": "ratio",
    "trace.overhead_s": "s",
}


# Each workload maps an offset picker r(low, high) to its CLI inputs:
# (command, n range or digit count, --jobs).  Seed 0 picks offset 0
# everywhere (the documented inputs); other seeds pick offsets uniformly
# from small bands of similar cost.  table-low and criterion move only the
# cheap low end of their window: the last rows cost the most, and on the
# pool they decide when the run ends.  The table-high band stays above
# mpmath's 2,500-bit switch from Taylor series to AGM logs (n >= 385) and
# below n = 403, whose row takes 2.5 MB more peak memory; the gamma band
# stays inside one step of `_em_gamma_params` (N = 2^18 for 1482..1602
# digits).
def _table_low(r):
    return "table", (1 + r(0, 4), 120), 1


def _table_high(r):
    lo = 400 + r(-2, 1)
    return "table", (lo, lo + 1), 1


def _criterion(r):
    return "criterion", (1 + r(0, 29), 460), 2


def _gamma(r):
    return "gamma", 1500 + r(-12, 15), None


WORKLOADS: Dict[str, Callable] = {
    "table-low": _table_low,
    "table-high": _table_high,
    "criterion": _criterion,
    "gamma": _gamma,
}


def workload_inputs(name: str, seed: int):
    """(command, n range or digit count, jobs) of a workload for a seed."""
    if seed == 0:
        return WORKLOADS[name](lambda low, high: 0)
    return WORKLOADS[name](random.Random(f"{name}/{seed}").randint)


def cli_argv(command: str, arg, jobs: Optional[int], out: str) -> List[str]:
    if command == "gamma":
        argv = ["gamma", "--digits", str(arg)]
    else:
        argv = [command, "--n", f"{arg[0]}..{arg[1]}", "--out", out]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    return argv


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("GAMMALAB_CACHE", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# --- child processes -------------------------------------------------------


def _reap_orphans() -> None:
    # descendants killed with their process group are re-parented to this
    # process (a child subreaper); wait until every one has ended
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_child(argv: List[str], out_dir: str, tag: str,
              timeout: float = CLI_TIMEOUT_S) -> Dict:
    """Run `python argv` in its own process group; time it with wait4.

    CPU time and peak RSS come from the rusage of the child, which
    includes every descendant it waited for (the pool workers).
    """
    stdout_path = os.path.join(out_dir, f"{tag}.stdout")
    with open(stdout_path, "wb") as out, \
            open(os.path.join(out_dir, f"{tag}.stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, env=child_env(),
                                cwd=ROOT, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # ended just as the timer fired
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # e.g. SystemExit from SIGTERM: stop the child
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            _reap_orphans()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        _reap_orphans()
    with open(stdout_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "status": "timeout" if timed_out.is_set() else proc.returncode,
        "stdout": stdout,
    }


class Checker:
    """Checks each CLI run of one workload and tallies rows and problems."""

    def __init__(self, command: str, arg):
        self.command = command
        self.ns = [arg] if command == "gamma" else range(arg[0], arg[1] + 1)
        self.reference = oracle.load_reference()
        self.gamma = oracle.gamma_digits(arg) if command == "gamma" else None
        self.attempted = self.failed = 0
        self.problems: List[str] = []

    def check(self, run: Dict, out: Optional[str]) -> None:
        failed, problems = self._check(run, out)
        self.attempted += len(self.ns)
        self.failed += failed
        self.problems += problems

    def _check(self, run, out):
        status = run["status"]
        if self.command == "gamma":
            if status != 0:
                return len(self.ns), []
            return oracle.check_gamma(run["stdout"], self.gamma)
        # `table` and `criterion` write every row, then exit with
        # EXIT_PRECISION if any row is precision_exhausted: those rows fail
        # one by one and the others are still checked.  Any other non-zero
        # exit, or EXIT_PRECISION without such a row, fails every row.
        if status != 0 and not (status == EXIT_PRECISION and os.path.exists(out)):
            return len(self.ns), []
        try:
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as e:
            return len(self.ns), [f"{self.command}: no output file ({e})"]
        failed, problems = oracle.check_rows(self.command, rows, self.ns,
                                             self.reference)
        if status != 0 and not failed:
            return len(self.ns), problems
        return failed, problems


# --- the two kinds of run --------------------------------------------------


def measure(name: str, seed: int, seconds: float, out_dir: str):
    command, arg, jobs = workload_inputs(name, seed)
    checker = Checker(command, arg)
    out = os.path.join(out_dir, f"{command}.csv")
    argv = ["-c", ENTRY] + cli_argv(command, arg, jobs, out)

    samples, setup, statuses = [], [], []
    start = last = time.perf_counter()
    longest = 0.0
    while True:
        for _ in range(SETUP_IMPORTS_PER_INVOCATION):
            setup.append(import_time(out_dir))
        if os.path.exists(out):
            os.remove(out)
        run = run_child(argv, out_dir, "cli")
        checker.check(run, out)
        statuses.append(run.pop("status"))
        run.pop("stdout")
        samples.append(run)
        now = time.perf_counter()
        longest, last = max(longest, now - last), now
        if now - start + longest > seconds:
            break

    # Medians over the run: one invocation that lands in a slow phase of a
    # shared host does not move them.  README.md ("Spread") gives the spreads.
    values = {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
    }
    metrics = {m: (values[m], unit) for m, unit in END_TO_END_METRICS.items()}
    detail = {"argv": argv[2:], "samples": samples, "statuses": statuses,
              "setup_samples": setup}
    return checker, metrics, detail


def import_time(out_dir: str) -> float:
    """Wall time of a cold `import gammalab.cli` process."""
    run = run_child(["-c", "import gammalab.cli"], out_dir, "import")
    if run["status"] != 0:
        raise SystemExit("error: `import gammalab.cli` failed in this checkout")
    return run["wall_s"]


def check_import(out_dir: str) -> None:
    """Fail unless the package comes from this checkout's src/."""
    run = run_child(["-c", "import gammalab.cli as c; print(c.__file__)"],
                    out_dir, "where")
    src = os.path.join(ROOT, "src", "gammalab", "")
    if run["status"] != 0 or not run["stdout"].strip().startswith(src):
        raise SystemExit(f"error: gammalab is not imported from {src}")


def layer_metrics(trace: Dict) -> Dict[str, float]:
    """Self times, call counts and ratios from the spans of a traced run.

    A span's self time is its duration minus the durations of its direct
    children; spans nest because the traced run is single-threaded.
    """
    names, spans = trace["names"], trace["spans"]
    covered = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    self_s: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    insufficient: Counter = Counter()
    nested: Counter = Counter()
    for i, (idx, t0, t1, parent, exc) in enumerate(spans):
        name = names[idx]
        self_s[name] += t1 - t0 - covered[i]
        calls[name] += 1
        if exc == "PrecisionInsufficient":
            insufficient[name] += 1
        if parent >= 0:
            nested[(names[spans[parent][0]], name)] += 1
    out = {}
    for name in calls:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    if calls["mpnum.frac_part_certified"]:
        out["mpnum.frac_part_certified.retries"] = \
            insufficient["mpnum.frac_part_certified"]
    if calls["sequences.I_series"]:
        out["sequences.I_series.rounds"] = (
            nested[("sequences.I_series", "sequences.series_term")]
            / calls["sequences.I_series"])
    hits, misses = trace["caches"].get("mpnum.ln_int", (0, 0))
    if hits + misses:
        out["mpnum.ln_int.hit_ratio"] = hits / (hits + misses)
    return out


def traced(name: str, seed: int, out_dir: str):
    command, arg, jobs = workload_inputs(name, seed)
    checker = Checker(command, arg)
    tracer = os.path.join(BENCH_DIR, "tracer.py")
    trace_path = os.path.join(OUT_DIR, f"trace-{name}.json")
    statuses, results, values = {}, {}, {}
    for tag, path, flags in (("untraced", os.path.join(out_dir, "off.json"), ["--off"]),
                             ("traced", trace_path, [])):
        out = os.path.join(out_dir, f"{tag}.csv")
        run = run_child([tracer, path] + flags + ["--"]
                        + cli_argv(command, arg, 1, out), out_dir, tag)
        checker.check(run, out)
        statuses[tag] = run["status"]
        if run["status"] == 0:
            with open(path, encoding="utf-8") as fh:
                results[tag] = json.load(fh)
    walls = {tag: r["wall_s"] for tag, r in results.items()}
    if "traced" in results:
        values.update(layer_metrics(results["traced"]))
    if len(walls) == 2:
        values["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    if jobs and jobs > 1:
        out = os.path.join(out_dir, "pool.csv")
        run = run_child(["-c", ENTRY] + cli_argv(command, arg, jobs, out),
                        out_dir, "pool")
        checker.check(run, out)
        statuses["pool"] = run["status"]
        if run["status"] == 0:
            values["cli.pool.efficiency"] = run["cpu_s"] / (jobs * run["wall_s"])

    # The result must carry every per-layer metric as a number, so a metric
    # whose function is gone, or that this workload never reaches, reads 0.
    # That 0 means "absent", not a measured gain or loss: such metrics are
    # named under `not_exercised` (and their functions under
    # `absent_functions`) on the line before the result and on stderr.
    metrics = {m: (values.get(m, 0), unit) for m, unit in LAYER_METRICS.items()}
    missing = sorted(m for m in LAYER_METRICS if m not in values)
    if missing:
        sys.stderr.write(f"{name}: reported as 0, not measured: {', '.join(missing)}\n")
    detail = {"argv": cli_argv(command, arg, 1, "OUT"), "statuses": statuses,
              "in_process_wall_s": walls,
              "absent_functions": results.get("traced", {}).get("absent"),
              "not_exercised": missing,
              "spans": trace_path if "traced" in results else None}
    return checker, metrics, detail


# --- entry point -----------------------------------------------------------


def environment() -> Dict:
    import mpmath
    import mpmath.libmp

    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "loadavg": os.getloadavg()}


def become_subreaper() -> None:
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=33.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gammalab", "cli.py")):
        sys.stderr.write("error: run from the root of a gammalab checkout "
                         "(src/gammalab/cli.py not found)\n")
        return 2
    become_subreaper()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    out_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        check_import(out_dir)  # also fills __pycache__ before any sample
        if args.trace:
            result = traced(args.workload, args.seed, out_dir)
        else:
            result = measure(args.workload, args.seed, args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    checker, metrics, detail = result
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": env, "problems": checker.problems[:20],
                      **detail}))
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
