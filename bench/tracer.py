"""Run the gammalab CLI in this process, optionally tracing its layers.

    python bench/tracer.py OUT.json [--off] -- CLI-ARGS...

With tracing on, each public function in TARGETS is replaced by a wrapper
that records a span (name, start, end, parent span, exception raised) in
memory.  The wrapper is installed in every gammalab module namespace that
binds the function, because `sequences`, `asymptotics` and `cli` import
several of them by name.  Names that no longer exist are reported as
absent instead of failing.  Spans are written to OUT.json when the CLI
returns, together with its exit code, its wall time and the hit counts of
any function that exposes `cache_info()`.

With `--off` nothing is wrapped; the wall time of that run is the
baseline for the tracing overhead.  Run with `--jobs 1`: spans are only
collected in this process.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TARGETS = (
    "exact.harmonic",
    "exact.bernoulli",
    "exact.A_exact",
    "mpnum.ln_int",
    "mpnum.log_factorial",
    "mpnum.euler_gamma",
    "mpnum.frac_part_certified",
    "sequences.log_S",
    "sequences.criterion_point",
    "sequences.L_from_factorial_logs",
    "sequences.I_series",
    "sequences.series_term",
    "sequences.I_closed_form",
    "sequences.build_record",
    "cli.main",
)


class Tracer:
    """Collects the spans of wrapped functions in memory."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent index, exception]
        self._stack = [-1]

    def wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            span = [idx, clock(), 0.0, stack[-1], None]
            spans.append(span)
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                span[4] = type(e).__name__
                raise
            finally:
                stack.pop()
                span[2] = clock()

        return traced


def install(tracer):
    """Wrap every target that exists; return (absent names, originals)."""
    modules = [m for name, m in sys.modules.items()
               if name == "gammalab" or name.startswith("gammalab.")]
    absent, originals = [], {}
    for target in TARGETS:
        mod_name, attr = target.split(".")
        original = getattr(sys.modules.get(f"gammalab.{mod_name}"), attr, None)
        if original is None:
            absent.append(target)
            continue
        originals[target] = original
        wrapper = tracer.wrap(target, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return absent, originals


def main(argv):
    out_path, rest = argv[0], argv[1:]
    trace = rest[0] != "--off"
    cli_args = rest[rest.index("--") + 1:]

    import gammalab.cli as cli

    tracer = Tracer()
    absent, originals = install(tracer) if trace else ([], {})
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    wall = time.perf_counter() - t0

    caches = {}
    for name, fn in originals.items():
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "wall_s": wall, "traced": trace,
                   "absent": absent, "caches": caches,
                   "names": tracer.names, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
