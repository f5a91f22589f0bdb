"""Spans around calls into the library, recorded from outside it.

A `Tracer` replaces each traced function at the attribute its caller looks
up (the package namespace for the benchmark's own calls, a module global
or a class attribute for calls inside the library) with a wrapper that
records one span per call: name, start, end, parent span and input id.
Spans stay in memory; `layer_metrics` turns them into per-layer numbers.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# span name -> the attributes it wraps, as (path from the package, name).
# An empty path is the package namespace, where the benchmark looks up its
# entry points; the others are where library code finds its callees.
TRACED = {
    "parser.program": [("", "parse_program")],
    "parser.pnet": [("", "parse_pnet")],
    "terms.check": [("", "check_wellformed")],
    "lts.build": [("", "build_lts")],
    "lts.moves": [("lts.StepEngine", "term_moves")],
    "normalform": [("lts", "normalize")],
    "sync": [("lts", "sync_outcomes"), ("nets", "sync_outcomes")],
    "nets.build": [("", "build_net"), ("nets", "build_net")],
    "nets.derive": [("nets.NetBuilder", "derive_items")],
    "nets.place_moves": [("nets.NetBuilder", "place_moves")],
    "nets.graph": [("", "marking_graph")],
    "net2term": [("", "translate")],
    "equiv.iso": [("", "isomorphic"), ("equiv", "isomorphic")],
    "equiv.verify": [("", "verify_isomorphism")],
    "equiv.bisim": [("", "bisimilar")],
}

# spans whose call arguments or result the metrics need
_KEEP_ARG = {"lts.moves": 1, "nets.derive": 1}
_KEEP_RESULT = {"lts.build", "nets.build", "nets.graph", "nets.derive",
                "equiv.iso"}


def _resolve(lib, path: str):
    obj = lib
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    """Installs span-recording wrappers on one imported library.

    A site the library no longer has is left out and listed in `missing`,
    so that a restructured library still runs traced, with zeros for the
    layers it lost."""

    def __init__(self, lib):
        # a span: [name, start, end, parent index, input id, payload]
        self.spans: list = []
        self.input_id = None
        self.missing: list = []
        self._stack: list = []
        for name, sites in TRACED.items():
            wrapped = None
            for path, attr in sites:
                owner = _resolve(lib, path)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append("%s.%s" % (path or "multiccs", attr))
                    continue
                if wrapped is None:
                    wrapped = self._wrap(name, fn)
                setattr(owner, attr, wrapped)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        arg_at = _KEEP_ARG.get(name)
        keep_result = name in _KEEP_RESULT

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self.input_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if arg_at is not None:
                rec[5] = (args[arg_at], result) if keep_result else args[arg_at]
            elif keep_result:
                rec[5] = result
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, fh, pass_no: int) -> None:
        """The spans as JSON lines, payloads left out; `parent` indexes the
        spans of the same pass."""
        for name, start, end, parent, input_id, _ in self.spans:
            fh.write(json.dumps({"pass": pass_no, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "input": input_id}) + "\n")


def _self_times(spans: list) -> dict:
    """Self time per span name: duration minus that of the child spans."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict = defaultdict(float)
    for i, rec in enumerate(spans):
        out[rec[0]] += rec[2] - rec[1] - child[i]
    return out


def module_self_times(spans: list) -> dict:
    """Self time per library module (the span name up to its first dot)."""
    out: dict = defaultdict(float)
    for name, s in _self_times(spans).items():
        out[name.split(".")[0]] += s
    return dict(out)


def layer_metrics(spans: list, pass_s: float) -> dict:
    """Per-layer numbers of one traced pass that took pass_s seconds.

    `.s` is inclusive time (a recursive call inside a span of the same name
    is not counted twice), `.self_s` excludes every child span."""
    self_s = _self_times(spans)
    modules = module_self_times(spans)
    calls: dict = defaultdict(int)
    incl: dict = defaultdict(float)
    longest: dict = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        dur = end - start
        calls[name] += 1
        longest[name] = max(longest[name], dur)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += dur

    def payloads(name):
        return [rec[5] for rec in spans if rec[0] == name]

    lts = payloads("lts.build")
    nets = payloads("nets.build")
    derived = payloads("nets.derive")
    items = sum(len(result) for _, result in derived)
    net_transitions = sum(len(net.transitions) for net in nets)

    # the rebuild inside translate: its build_net and isomorphic children
    rebuild_s = 0.0
    missed = set()
    for rec in spans:
        if rec[0] in ("nets.build", "equiv.iso") and rec[3] >= 0 \
                and spans[rec[3]][0] == "net2term":
            rebuild_s += rec[2] - rec[1]
            ok = rec[5].complete if rec[0] == "nets.build" else rec[5].found
            if not ok:
                missed.add(rec[3])

    return {
        "normalform.s": incl["normalform"],
        "normalform.calls": calls["normalform"],
        "sync.s": incl["sync"],
        "sync.calls": calls["sync"],
        "lts.moves.self_s": self_s["lts.moves"],
        "lts.moves.calls": calls["lts.moves"],
        "lts.moves.distinct": len(set(payloads("lts.moves"))),
        "lts.build.self_s": self_s["lts.build"],
        "lts.states": sum(len(r.states) for r in lts),
        "lts.transitions": sum(len(r.transitions) for r in lts),
        "nets.derive.self_s": self_s["nets.derive"],
        "nets.derive.calls": calls["nets.derive"],
        "nets.derive.distinct_seeds": len({frozenset(seed.items())
                                           for seed, _ in derived}),
        "nets.derive.items": items,
        "nets.derive.visible_share": net_transitions / items if items else 0.0,
        "nets.place_moves.self_s": self_s["nets.place_moves"],
        "nets.build.self_s": self_s["nets.build"],
        "nets.places": sum(len(r.place_names) for r in nets),
        "nets.transitions": net_transitions,
        "nets.graph.s": incl["nets.graph"],
        "nets.markings": sum(len(r.states) for r in payloads("nets.graph")),
        "net2term.self_s": self_s["net2term"],
        "net2term.rebuild_s": rebuild_s,
        "net2term.rebuild_misses": len(missed),
        "equiv.iso.s": incl["equiv.iso"],
        "equiv.iso.calls": calls["equiv.iso"],
        "equiv.iso.max_s": longest["equiv.iso"],
        "equiv.bisim.s": incl["equiv.bisim"],
        "equiv.bisim.calls": calls["equiv.bisim"],
        "parser.s": incl["parser.program"] + incl["parser.pnet"],
        "parser.calls": calls["parser.program"] + calls["parser.pnet"],
        "terms.check.s": incl["terms.check"],
        "share.lts_normalform_sync": sum(
            modules.get(m, 0.0) for m in ("lts", "normalform", "sync")) / pass_s,
        "share.nets_net2term": sum(
            modules.get(m, 0.0) for m in ("nets", "net2term")) / pass_s,
    }
