"""Benchmark of the multiccs checker: time to a verdict, and states per
second, on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `multiccs` from
`src/` and reads `corpus/`.  The inputs come from the seed (see
`inputs.py`).  A pass imports the library afresh, so its module-level
caches start empty as they do for one CLI call, then runs every input of
the workload once.  Passes repeat until the next one would end after S
seconds (at least one pass, two when tracing).  Pass k draws its inputs
from the seed string "N/k", so a run averages over several input sets
while the same seed still gives the same inputs.

Times are reported in reference seconds: wall time scaled by how fast
the host ran a fixed pure-Python loop during the run (the median of the
loop's times after every set-up and every pass).  On a shared host the
speed of one core drifts by a third from one minute to the next (a
semi-counter pass took 1.8 s or 3.0 s), and the loop slows down with it,
so the scaled times of two runs compare the library rather than the
neighbours.

Every verdict is checked against a known answer (`workloads.py`); any
mismatch or error is counted in `failed` and makes the exit code 1.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of the traced passes with `--trace 1`.
A traced run alternates untraced and traced passes, prints one row per
input and writes its spans to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# decided_share counts the inputs that get a correct verdict within this
# many seconds each; BENCHMARK.json names the limit in the metric's unit
INPUT_LIMIT_S = 20
# no input starts later than this after the first pass began, so that even
# a pathologically slow library ends the run well within three minutes;
# inputs left out count as undecided, at the per-input limit
RUN_LIMIT_S = 120
MIN_SETUPS = 5
# time of reference_loop() at the reference speed; a host this fast gives
# reference seconds equal to wall seconds
REFERENCE_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "states_per_s": "1/s",
    "verdict_p50_s": "s",
    "verdict_p90_s": "s",
    "decided_share": "share_in_%ds" % INPUT_LIMIT_S,
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if "share" in name or name.endswith("_gmean"):
        return "ratio"
    return "count"


class InputTimeout(Exception):
    """The per-input limit ran out."""


def _alarm(signum, frame):
    raise InputTimeout()


@dataclass
class Row:
    inp: inputs.Input
    out: workloads.Outcome | None   # None: out of time, or not started
    seconds: float


@dataclass
class Pass:
    batch: int
    rows: list
    tracer: spans.Tracer | None

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.rows)


def reference_loop() -> float:
    """Wall time of a fixed piece of pure-Python work of the kind the
    library does: tuple keys, dictionary updates, string formatting and a
    keyed sort."""
    t0 = perf_counter()
    counts: dict = {}
    for i in range(60000):
        key = ("x%d" % (i % 997), i % 13)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts, key=lambda k: (k[1], k[0]))
    return perf_counter() - t0


def fresh_library():
    """Import multiccs anew, so that module-level caches start empty."""
    for name in [m for m in sys.modules
                 if m == "multiccs" or m.startswith("multiccs.")]:
        del sys.modules[name]
    return importlib.import_module("multiccs")


def run_pass(lib, batch: int, items, tracer, deadline: float) -> Pass:
    rows: list = []
    for inp in items:
        if perf_counter() > deadline:
            rows.append(Row(inp, None, INPUT_LIMIT_S))
            continue
        if tracer is not None:
            tracer.input_id = "%s/%d" % (inp.family, inp.index)
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, INPUT_LIMIT_S)
            try:
                out = workloads.decide(lib, inp)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except InputTimeout:
            out = None
        except Exception:
            out = workloads.Outcome(False, "error", reason=traceback.format_exc())
        rows.append(Row(inp, out, perf_counter() - t0))
    return Pass(batch, rows, tracer)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * q
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def measure(workload: str, seed: int, seconds: float, traced: bool,
            smoke: bool):
    """Set-up times and passes, both in wall seconds, and the scale that
    turns wall seconds into reference seconds."""
    make = inputs.WORKLOADS[workload]
    setups: list = []
    refs: list = []

    def setup(batch: int):
        t0 = perf_counter()
        lib = fresh_library()
        items = make("%d/%d" % (seed, batch), smoke)
        setups.append(perf_counter() - t0)
        refs.append(reference_loop())
        return lib, items

    for _ in range(MIN_SETUPS - 1):
        setup(0)
    signal.signal(signal.SIGALRM, _alarm)
    passes: list = []
    spent: list = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        # a traced run gives each batch to an untraced, then a traced pass
        batch, tracing = divmod(len(passes), 2) if traced else (len(passes), 0)
        lib, items = setup(batch)
        tracer = spans.Tracer(lib) if tracing else None
        gc.collect()
        passes.append(run_pass(lib, batch, items, tracer, start + RUN_LIMIT_S))
        refs.append(reference_loop())
        spent.append(perf_counter() - t0)
        if (len(passes) >= (2 if traced else 1)
                and perf_counter() - start + max(spent[-2:]) > seconds):
            break
    return setups, passes, REFERENCE_S / statistics.median(refs)


def end_to_end(setups: list, passes: list, scale: float) -> dict:
    rows = [r for p in passes for r in p.rows]
    times = [r.seconds * scale for r in rows]
    # the per-input limit is a user's wait, so it applies to wall time
    decided = sum(1 for r in rows if r.out is not None and r.out.ok
                  and r.seconds <= INPUT_LIMIT_S)
    return {
        "setup_s": statistics.median(setups) * scale,
        "run_s": statistics.median(p.seconds for p in passes) * scale,
        "states_per_s": statistics.median(
            sum(r.out.states for r in p.rows if r.out is not None) / p.seconds
            for p in passes) / scale,
        "verdict_p50_s": percentile(times, 0.5),
        "verdict_p90_s": percentile(times, 0.9),
        "decided_share": decided / len(rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes: list, scale: float, workload: str, seed: int) -> dict:
    plain = [p for p in passes if p.tracer is None]
    traced = [p for p in passes if p.tracer is not None]
    layers = [spans.layer_metrics(p.tracer.spans, p.seconds) for p in traced]
    out = {k: statistics.median(m[k] for m in layers)
           * (scale if layer_unit(k) == "s" else 1) for k in layers[0]}

    def per_input(group):
        times: dict = {}
        for p in group:
            for r in p.rows:
                key = (p.batch, r.inp.family, r.inp.index)
                times.setdefault(key, []).append(r.seconds * scale)
        return {k: statistics.median(v) for k, v in times.items()}

    base, slow = per_input(plain), per_input(traced)
    ratios = [slow[k] / base[k] for k in slow if base[k] > 0]
    rows = [r for p in passes for r in p.rows]
    out["trace.run_s"] = statistics.median(p.seconds for p in traced) * scale
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.median(
        p.seconds for p in plain) * scale
    out["trace.overhead_gmean"] = statistics.geometric_mean(ratios)
    out["failed_share"] = sum(
        1 for r in rows if r.out is not None and not r.out.ok) / len(rows)

    print("%-12s %5s %5s  %-34s %10s %10s %6s" % (
        "family", "index", "size", "verdict", "untraced_s", "traced_s", "ratio"))
    for r in traced[0].rows:
        k = (0, r.inp.family, r.inp.index)
        print("%-12s %5d %5d  %-34s %10.4f %10.4f %6.2f" % (
            r.inp.family, r.inp.index, r.inp.size,
            "out of time" if r.out is None else r.out.verdict,
            base[k], slow[k], slow[k] / base[k] if base[k] > 0 else math.nan))
    print("geometric mean of traced/untraced time over %d inputs: %.3f"
          % (len(ratios), out["trace.overhead_gmean"]))

    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-seed%d.jsonl" % (workload, seed))
    with open(path, "w") as fh:
        for k, p in enumerate(traced):
            p.tracer.write(fh, k)
    print("spans written to %s" % path.relative_to(HERE.parent))
    if traced[0].tracer.missing:
        print("not traced, the library has no %s"
              % ", ".join(traced[0].tracer.missing), file=sys.stderr)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measurement time; 0 runs the fewest passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for testing the harness itself")
    args = ap.parse_args(argv)
    if not (SRC / "multiccs" / "__init__.py").is_file() or not inputs.CORPUS.is_dir():
        print("run.py: needs src/multiccs and corpus/ of a multiccs checkout "
              "next to perfbench/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups, passes, scale = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.smoke)
    rows = [r for p in passes for r in p.rows]
    failed = 0
    for r in rows:
        if r.out is not None and not r.out.ok:
            failed += 1
            print("FAILED %s/%d: %s: %s" % (r.inp.family, r.inp.index,
                                            r.out.verdict, r.out.reason),
                  file=sys.stderr)
    if args.trace:
        values = per_layer(passes, scale, args.workload, args.seed)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = end_to_end(setups, passes, scale)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(rows),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
