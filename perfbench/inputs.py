"""Seeded input generators and the answers each input must get.

Everything here is plain text and plain arithmetic: no generator calls the
library under test, so the input set depends on the seed alone and the
cost of making it never counts as library time.  Every family is finite by
construction, so no sample needs the library to reject it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# Each scalable family runs at several sizes in one pass, in equal numbers,
# so that the median and the 90th percentile of the per-input times fall
# inside the middle and the largest size, not between two of them.
SEMICOUNTER_STATES = (40, 80, 120, 160, 200)
RING_SIZES = (6, 7, 8, 9, 10)
PHILS_STRICT_STATES = (8, 10, 12)
MIX_PROGRAMS = 60
MIX_NETS = 60
MIX_SYMMETRIC = 20
SYMMETRIC_RING = 4


@dataclass
class Input:
    """One verdict to reach: `kind` selects the pipeline, `texts` are the
    program or net sources handed to the library, `expect` the answer."""
    family: str
    index: int
    size: int
    kind: str
    texts: tuple
    expect: dict = field(default_factory=dict)


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text()


def lucas(n: int) -> int:
    """L_n, the number of independent vertex sets of an n-cycle, which is
    the number of reachable markings of a ring of n philosophers."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# rings of dining philosophers as P/T nets


def ring_text(n: int, rng: random.Random | None = None,
              shared: bool = False) -> str:
    """A ring of n philosophers: thinking, eating and fork places (3n),
    take and put transitions (2n).  With `shared`, every take is labelled
    eat and every put think, so the net is fully rotation-symmetric.  With
    `rng`, places and transitions are declared in a seeded order."""
    places = ([("t%d" % i, 1) for i in range(n)]
              + [("e%d" % i, 0) for i in range(n)]
              + [("f%d" % i, 1) for i in range(n)])
    trans = []
    for i in range(n):
        j = (i + 1) % n
        forks = "f%d:1 f%d:1" % (i, j)
        trans.append("trans a%d label %s in t%d:1 %s out e%d:1"
                     % (i, "eat" if shared else "take%d" % i, i, forks, i))
        trans.append("trans b%d label %s in e%d:1 out t%d:1 %s"
                     % (i, "think" if shared else "put%d" % i, i, i, forks))
    if rng is not None:
        rng.shuffle(places)
        rng.shuffle(trans)
    lines = ["net ring%d" % n]
    lines += ["place %s init %d" % p for p in places]
    lines += trans
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# finite-net programs (claim 1: the LTS is bisimilar to the marking graph)
#
# Constant bodies are sums of prefix chains ending in a constant or 0, with
# no parallel composition anywhere below a prefix, so every component stays
# one sequential term and the state space is a product of finitely many
# local states.  Restrictions sit only at the top of main.

_NAMES = ("a", "b", "c")
# Bands for the product of the components' local state counts, a bound on
# the state space.  Program i of a batch is drawn within band i % 4, so
# every batch has the same spread of sizes and no one large sample
# outweighs the rest.
PRODUCT_BANDS = ((1, 8), (9, 24), (25, 44), (45, 64))


def _local_states(term, defs) -> int:
    """How many sequential terms a component can become: every prefix
    body and every constant it can reach, 0 included."""
    seen = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        if t[0] == "pre":
            stack.append(t[2])
        elif t[0] == "const":
            stack.extend(summand[2] for summand in defs[t[1]])
    return len(seen)


def _render(t) -> str:
    if t[0] == "nil":
        return "0"
    if t[0] == "const":
        return t[1]
    return "%s.%s" % (t[1], _render(t[2]))


def program_text(rng: random.Random, band: tuple) -> str:
    while True:
        consts = ["K%d" % (i + 1) for i in range(rng.randint(1, 2))]

        def act() -> str:
            name = rng.choice(_NAMES)
            return "~" + name if rng.random() < 0.45 else name

        def end():
            return ("const", rng.choice(consts)) if rng.random() < 0.65 else ("nil",)

        def chain(depth: int):
            if depth <= 0 or rng.random() < 0.35:
                return end()
            head = "<%s>" % act() if rng.random() < 0.3 else act()
            return ("pre", head, chain(depth - 1))

        # a normal prefix first keeps every recursion guarded
        defs = {c: [("pre", act(), chain(rng.randint(1, 2)))
                    for _ in range(rng.randint(1, 2))]
                for c in consts}
        pieces = []
        for _ in range(3):
            if rng.random() < 0.7:
                pieces.append(("const", rng.choice(consts)))
            else:
                head = "<%s>" % act() if rng.random() < 0.25 else act()
                pieces.append(("pre", head, ("pre", act(), end())))
        bound = [n for n in _NAMES if rng.random() < 0.4]
        product = 1
        for piece in pieces:
            product *= _local_states(piece, defs)
        if band[0] <= product <= band[1]:
            break

    lines = ["%s = %s;" % (c, " + ".join(_render(t) for t in defs[c]))
             for c in consts]
    main = " | ".join(_render(t) for t in pieces)
    if bound:
        main = "new(%s)(%s)" % (", ".join(bound), main)
    lines.append("main = %s;" % main)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reduced nets (claim 3: net -> term -> net is an isomorphism)
#
# The net is grown along one firing sequence: each new transition takes its
# preset from the marking the sequence has reached, so it is enabled there,
# and hands back at most the tokens it took, so the net stays bounded.  A
# place the sequence never marks gets an initial token, which only adds
# tokens and so keeps every transition enabled where it was.  Labels are
# tau or single inputs: no complementary pair can close inside the rebuilt
# term.

_NET_LABELS = ("a", "b", "c", "d", "e", "f")


def reduced_net_text(rng: random.Random, index: int) -> str:
    """Net `index` of a batch: the place count and the length of the firing
    sequence walk a 4 x 4 grid with the index, so every batch has the same
    spread of sizes."""
    n_places = 2 + index % 4
    initial = [rng.randint(1, 2) if rng.random() < 0.5 else 0
               for _ in range(n_places)]
    if not any(initial):
        initial[rng.randrange(n_places)] = rng.randint(1, 2)
    marked = {p for p in range(n_places) if initial[p]}
    current = list(initial)
    transitions: dict = {}
    for _ in range(2 + index // 4 % 4):
        pre = [0] * n_places
        for _ in range(rng.choice((1, 1, 1, 2, 2, 3))):
            spare = [p for p in range(n_places) if current[p] > pre[p]]
            if not spare:
                break
            pre[rng.choice(spare)] += 1
        if not any(pre):
            break
        post = [0] * n_places
        for _ in range(rng.randint(0, sum(pre))):
            post[rng.randrange(n_places)] += 1
        label = "tau" if rng.random() < 0.2 else rng.choice(_NET_LABELS)
        transitions.setdefault((tuple(pre), label, tuple(post)), None)
        current = [m - a + b for m, a, b in zip(current, pre, post)]
        marked |= {p for p in range(n_places) if current[p]}
    for p in range(n_places):
        if p not in marked:
            initial[p] = 1

    def arcs(vec) -> str:
        return " ".join("s%d:%d" % (p + 1, w) for p, w in enumerate(vec) if w)

    lines = ["net r%d" % index]
    lines += ["place s%d init %d" % (p + 1, initial[p]) for p in range(n_places)]
    for k, (pre, label, post) in enumerate(transitions):
        out = arcs(post)
        lines.append("trans t%d label %s in %s out%s"
                     % (k + 1, label, arcs(pre), " " + out if out else ""))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads
#
# Each takes a seed (anything random.Random accepts) and returns the inputs
# of one pass.


def lts_semicounter(seed, smoke: bool = False) -> list:
    """The semi-counter capped at N states: N states, 2N-2 transitions,
    truncated.  The seed does not change these inputs."""
    text = corpus_text("semicounter.mccs")
    return [Input("semicounter", k, n, "semicounter", (text,),
                  {"states": n, "transitions": 2 * n - 2})
            for k, n in enumerate((10,) if smoke else SEMICOUNTER_STATES)]


def ring_roundtrip(seed, smoke: bool = False) -> list:
    """The rebuilt net has 3N places and 2N transitions, is isomorphic to
    the input, and both marking graphs have L_N markings.  The seed does
    not change these inputs: the declaration order alone moves the time of
    ring-10 by up to 30%, and a pass holds too few rings to average that
    out."""
    return [Input("ring", k, n, "ring", (ring_text(n),),
                  {"places": 3 * n, "transitions": 2 * n,
                   "markings": lucas(n)})
            for k, n in enumerate((4,) if smoke else RING_SIZES)]


def lts_symmetric(seed, smoke: bool = False) -> list:
    """The translated two-philosopher net: its strict state space reaches
    each cap, its default one has 3 states and matches the marking graph.
    The seed does not change these inputs."""
    text = corpus_text("phils.pnet")
    return [Input("phils", k, cap, "phils", (text,),
                  {"strict_states": cap, "states": 3})
            for k, cap in enumerate((5,) if smoke else PHILS_STRICT_STATES)]


def verdict_mix(seed, smoke: bool = False) -> list:
    """Many small verdicts with known answers, families interleaved in a
    seeded order.

    The shared-label rings stay on purpose: `isomorphic` prunes no partial
    place assignment and compares transitions only at the leaves, so a
    fully symmetric net costs a walk through many of the (N!)^3 place maps
    of its three place classes.  Ring-4 takes 0.01-0.1 s against a
    permuted copy, against 0.001 s with distinct labels.  Ring-5 is past
    the cliff (14.0 s, 26.6 s and 1.6 s on seeds 1-3), which is why the
    workload uses ring-4: today's code decides every input.

    The ring-4 permutations come from a fixed seed, not from `seed`: the
    time of one iso varies sevenfold with the permutation, so twenty
    freshly drawn ones would move run_s and verdict_p90_s by more than
    the benchmark's bounds from one seed to the next."""
    rng = random.Random(seed)
    counts = (1, 1, 1) if smoke else (MIX_PROGRAMS, MIX_NETS, MIX_SYMMETRIC)
    out = []
    for i in range(counts[0]):
        text = program_text(rng, PRODUCT_BANDS[i % len(PRODUCT_BANDS)])
        # size: the number of prefixes in the program
        out.append(Input("claim1", i, text.count("."), "bisim_program",
                         (text,), {"equivalent": True}))
    for i in range(counts[1]):
        text = reduced_net_text(rng, i)
        # size: places plus transitions
        out.append(Input("claim3", i, text.count("\n") - 1, "roundtrip",
                         (text,), {"isomorphic": True}))
    base = ring_text(SYMMETRIC_RING, shared=True)
    fixed = random.Random("symmetric")
    for i in range(counts[2]):
        out.append(Input("symmetric", i, 3 * SYMMETRIC_RING, "iso",
                         (base, ring_text(SYMMETRIC_RING, fixed, shared=True)),
                         {"isomorphic": True}))
    pair = (corpus_text("loop_a.pnet"), corpus_text("cycle_a.pnet"))
    out.append(Input("corpus", 0, 3, "bisim_nets", pair, {"equivalent": True}))
    out.append(Input("corpus", 1, 3, "iso", pair, {"isomorphic": False}))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "lts_semicounter": lts_semicounter,
    "ring_roundtrip": ring_roundtrip,
    "lts_symmetric": lts_symmetric,
    "verdict_mix": verdict_mix,
}
