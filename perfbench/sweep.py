"""Growth curves of the scalable families, with self time per module.

    python3 perfbench/sweep.py

Run it from the root of a source checkout.  It times four operations at
three sizes each: `build_lts` of the semi-counter capped at 100, 200 and
400 states; `translate` of a ring of 8, 10 and 12 philosophers, and
`build_net` of that translation; and the strict-mode `build_lts` of the
translated two-philosopher net capped at 20, 40 and 60 states.  Every
point runs once untraced, for its wall time, and once traced, for the
self time of each library module, each time in a freshly imported
library.
The table gives each time as a ratio to the previous size and the
geometric mean of those ratios; the numbers also go to
`perfbench/out/sweep.json`.  It takes about two minutes and is separate
from the per-check runs of `run.py`.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import inputs
import run
import spans


def _semicounter(lib, n):
    prog = lib.parse_program(inputs.corpus_text("semicounter.mccs"))
    return lambda: lib.build_lts(prog, budget=lib.Budget(max_states=n))


def _ring_translate(lib, n):
    net = lib.parse_pnet(inputs.ring_text(n))
    return lambda: lib.translate(net)


def _ring_build(lib, n):
    prog = lib.translate(lib.parse_pnet(inputs.ring_text(n)))
    return lambda: lib.build_net(prog, mode=lib.SyncMode.FINITE_NET)


def _phils_strict(lib, n):
    prog = lib.translate(lib.parse_pnet(inputs.corpus_text("phils.pnet")))
    return lambda: lib.build_lts(prog, budget=lib.Budget(max_states=n),
                                 strict=True)


FAMILIES = [
    ("semicounter", _semicounter, (100, 200, 400)),
    ("ring_translate", _ring_translate, (8, 10, 12)),
    ("ring_build_net", _ring_build, (8, 10, 12)),
    ("phils_strict", _phils_strict, (20, 40, 60)),
]


def point(prepare, n) -> dict:
    op = prepare(run.fresh_library(), n)
    t0 = perf_counter()
    op()
    seconds = perf_counter() - t0
    lib = run.fresh_library()
    op = prepare(lib, n)
    tracer = spans.Tracer(lib)
    op()
    return {"seconds": seconds,
            "self_s": spans.module_self_times(tracer.spans)}


def main() -> int:
    if not (run.SRC / "multiccs" / "__init__.py").is_file():
        print("sweep.py: needs src/multiccs of a multiccs checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    results = []
    print("%-15s %5s %9s %6s  %s" % ("family", "n", "seconds", "ratio",
                                     "self time per module (traced)"))
    for family, prepare, sizes in FAMILIES:
        ratios = []
        prev = None
        for n in sizes:
            r = point(prepare, n)
            ratio = r["seconds"] / prev if prev else None
            if ratio:
                ratios.append(ratio)
            prev = r["seconds"]
            layers = sorted(r["self_s"].items(), key=lambda kv: -kv[1])
            print("%-15s %5d %9.3f %6s  %s" % (
                family, n, r["seconds"], "%.2f" % ratio if ratio else "-",
                " ".join("%s %.3f" % kv for kv in layers if kv[1] >= 0.001)))
            results.append({"family": family, "n": n, **r})
        print("%-15s geometric mean ratio per step: %.2f"
              % (family, statistics.geometric_mean(ratios)))
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "sweep.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print("written to %s" % path.relative_to(run.HERE.parent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
