"""The pipeline behind each input kind, and the check of its verdict.

`decide(lib, inp)` runs one input through the library `lib` (a freshly
imported `multiccs` package) and compares what comes back with the
answer the generator attached.  The answers come from closed forms, the
paper's theorems and hand-set values; iso witnesses are checked again by
`witness_ok`, which shares no code with the library's own checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass
class Outcome:
    ok: bool          # the verdict matches the known answer
    verdict: str      # short description of what the library answered
    states: int = 0   # LTS states plus reachability markings produced
    reason: str = ""  # why ok is False


def witness_ok(n1, n2, place_map) -> bool:
    """Does place_map carry n1 onto n2: a bijection on places that maps the
    initial marking and the multiset of transitions exactly?"""
    n = len(n1.place_names)
    if len(n2.place_names) != n or sorted(place_map) != list(range(n)):
        return False

    def shape(net, perm):
        marking = {perm[s]: c for s, c in net.initial.items() if c}
        trans = Counter(
            (frozenset((perm[s], w) for s, w in pre.items() if w),
             tuple(str(a) for a in label),
             frozenset((perm[s], w) for s, w in post.items() if w))
            for pre, label, post in net.transitions)
        return marking, trans

    return shape(n1, place_map) == shape(n2, list(range(n)))


def _iso_verdict(lib, n1, n2, expect: bool) -> Outcome:
    iso = lib.isomorphic(n1, n2)
    if iso.found != expect:
        return Outcome(False, "iso=%s" % iso.found, reason="iso verdict")
    if iso.found and not (lib.verify_isomorphism(n1, n2, iso.place_map)
                          and witness_ok(n1, n2, iso.place_map)):
        return Outcome(False, "iso=True", reason="witness rejected")
    return Outcome(True, "iso=%s" % iso.found)


def _bisim_program(lib, inp) -> Outcome:
    # claim 1: in the finite-net fragment the interleaving LTS is bisimilar
    # to the marking graph of the net
    prog = lib.parse_program(inp.texts[0], name="p%d" % inp.index)
    if not lib.check_wellformed(prog).ok:
        return Outcome(False, "ill-formed", reason="guarded by construction")
    mode = lib.SyncMode.FINITE_NET
    lts = lib.build_lts(prog, mode=mode)
    net = lib.build_net(prog, mode=mode)
    graph = lib.marking_graph(net)
    states = len(lts.states) + len(graph.states)
    if not (lts.complete and net.complete and graph.complete):
        return Outcome(False, "truncated", states, "finite by construction")
    eq = lib.bisimilar(lts, graph).equivalent
    if eq != inp.expect["equivalent"]:
        return Outcome(False, "bisim=%s" % eq, states, "bisim verdict")
    return Outcome(True, "bisim=%s" % eq, states)


def _roundtrip(lib, inp) -> Outcome:
    # claim 3: net -> term -> net gives back an isomorphic net
    net = lib.parse_pnet(inp.texts[0])
    rebuilt = lib.build_net(lib.translate(net), mode=lib.SyncMode.FINITE_NET)
    if not rebuilt.complete:
        return Outcome(False, "truncated", reason="bounded by construction")
    return _iso_verdict(lib, net, rebuilt, inp.expect["isomorphic"])


def _iso(lib, inp) -> Outcome:
    n1, n2 = (lib.parse_pnet(t) for t in inp.texts)
    return _iso_verdict(lib, n1, n2, inp.expect["isomorphic"])


def _bisim_nets(lib, inp) -> Outcome:
    g1, g2 = (lib.marking_graph(lib.parse_pnet(t)) for t in inp.texts)
    states = len(g1.states) + len(g2.states)
    if not (g1.complete and g2.complete):
        return Outcome(False, "truncated", states, "finite corpus nets")
    eq = lib.bisimilar(g1, g2).equivalent
    if eq != inp.expect["equivalent"]:
        return Outcome(False, "bisim=%s" % eq, states, "bisim verdict")
    return Outcome(True, "bisim=%s" % eq, states)


def _semicounter(lib, inp) -> Outcome:
    prog = lib.parse_program(inp.texts[0], name="semicounter")
    lts = lib.build_lts(prog, budget=lib.Budget(max_states=inp.size))
    got = (len(lts.states), len(lts.transitions), lts.complete)
    want = (inp.expect["states"], inp.expect["transitions"], False)
    verdict = "%d states, %d transitions, %s" % (
        got[0], got[1], "complete" if got[2] else "truncated")
    if got != want:
        return Outcome(False, verdict, got[0], "closed form")
    return Outcome(True, verdict, got[0])


def _ring(lib, inp) -> Outcome:
    net = lib.parse_pnet(inp.texts[0])
    rebuilt = lib.build_net(lib.translate(net), mode=lib.SyncMode.FINITE_NET)
    shape = (len(rebuilt.place_names), len(rebuilt.transitions), rebuilt.complete)
    if shape != (inp.expect["places"], inp.expect["transitions"], True):
        return Outcome(False, "rebuilt %d places, %d transitions" % shape[:2],
                       reason="closed form")
    iso = _iso_verdict(lib, net, rebuilt, True)
    if not iso.ok:
        return iso
    g1, g2 = lib.marking_graph(net), lib.marking_graph(rebuilt)
    states = len(g1.states) + len(g2.states)
    want = inp.expect["markings"]
    if (len(g1.states), len(g2.states)) != (want, want) or not (
            g1.complete and g2.complete):
        return Outcome(False, "%d/%d markings" % (len(g1.states), len(g2.states)),
                       states, "closed form")
    if not lib.bisimilar(g1, g2).equivalent:
        return Outcome(False, "bisim=False", states, "isomorphic nets")
    return Outcome(True, "iso, %d markings" % want, states)


def _phils(lib, inp) -> Outcome:
    net = lib.parse_pnet(inp.texts[0])
    prog = lib.translate(net)
    cap = inp.expect["strict_states"]
    strict = lib.build_lts(prog, budget=lib.Budget(max_states=cap), strict=True)
    lax = lib.build_lts(prog)
    graph = lib.marking_graph(net)
    states = len(strict.states) + len(lax.states) + len(graph.states)
    if (len(strict.states), strict.complete) != (cap, False):
        return Outcome(False, "strict %s" % strict.summary(), states,
                       "inert stubs pile up without bound")
    if (len(lax.states), lax.complete, graph.complete) != (
            inp.expect["states"], True, True):
        return Outcome(False, "lax %s" % lax.summary(), states, "hand-set")
    if not lib.bisimilar(lax, graph).equivalent:
        return Outcome(False, "bisim=False", states, "claim 1")
    return Outcome(True, "strict truncated at %d, lax bisim" % cap, states)


_KINDS = {
    "bisim_program": _bisim_program,
    "roundtrip": _roundtrip,
    "iso": _iso,
    "bisim_nets": _bisim_nets,
    "semicounter": _semicounter,
    "ring": _ring,
    "phils": _phils,
}


def decide(lib, inp) -> Outcome:
    return _KINDS[inp.kind](lib, inp)
