"""Equivalence checking: strong bisimilarity of labelled transition
systems (with distinguishing-formula counterexamples) and isomorphism of
place/transition nets (with an explicit witness).

Bisimilarity runs signature-based partition refinement over the disjoint
union of the two systems.  The refinement history doubles as a proof
recorder: when the initial states end up in different blocks, the stage
at which any two states first separated drives the construction of a
modal formula that holds in one system and fails in the other.

Isomorphism refines the places of both nets together with the signature
refinement loop of `normalform` (`_refine`), starting from the initial
tokens: a place's signature is the multiset of transitions, coloured by
label and by the colours of their presets and postsets, that it feeds and
is fed by.  A backtracker then maps each place only to places of the
other net with its colour.

`bisimilar` and `isomorphic` refuse truncated input, raising
`IncompleteLtsError` before they compare: a system cut short by a budget
proves nothing about the states it never explored, nor a net about the
places it never built.  Nets reach `bisimilar` through
`nets.marking_graph`, whose graph of a truncated net is itself truncated,
so this one check covers both semantics.
"""

from collections import defaultdict
from dataclasses import dataclass

from .lts import Lts
from .nets import PTNet, marking_key
from .normalform import _refine
from .terms import MccsError, format_sequence, label_key

__all__ = [
    "IncompleteLtsError", "Formula", "FTrue", "Diamond", "FAnd", "FNot",
    "render_formula", "formula_holds", "BisimResult", "bisimilar",
    "is_bisimulation_partition",
    "IsoResult", "isomorphic", "verify_isomorphism",
]


class IncompleteLtsError(MccsError):
    """Raised when a semantic comparison is attempted on truncated input."""


# ---------------------------------------------------------------------------
# modal formulas (diamond / conjunction / negation / truth)


class Formula:
    pass


@dataclass(frozen=True)
class FTrue(Formula):
    pass


@dataclass(frozen=True)
class Diamond(Formula):
    label: tuple
    sub: Formula


@dataclass(frozen=True)
class FAnd(Formula):
    subs: tuple


@dataclass(frozen=True)
class FNot(Formula):
    sub: Formula


TRUE = FTrue()


def render_formula(f: Formula) -> str:
    # off a stack of formulas and literal text, so that the depth of a
    # formula is no recursion depth
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        elif isinstance(g, (Diamond, FNot)):
            out.append("not " if isinstance(g, FNot)
                       else "<%s>" % format_sequence(g.label))
            stack.append(g.sub)
        elif isinstance(g, FAnd) and g.subs:
            out.append("(")
            stack.append(")")
            for k in range(len(g.subs) - 1, 0, -1):
                stack += [g.subs[k], " and "]
            stack.append(g.subs[0])
        elif isinstance(g, (FTrue, FAnd)):
            out.append("true")
        else:
            raise TypeError(g)
    return "".join(out)


def _successors(*systems):
    """(side, state) -> label -> successor nodes, side indexing systems."""
    succ = defaultdict(lambda: defaultdict(set))
    for side, lts in enumerate(systems):
        for i, lab, j in lts.transitions:
            succ[side, i][lab].add((side, j))
    return succ


def formula_holds(lts: Lts, state: int, f: Formula) -> bool:
    """Model check a formula at a state of one system (used to replay
    counterexamples independently of the refiner).  Each subformula is
    decided once per state, after what it needs, off an explicit stack."""
    succ = _successors(lts)
    value: dict = {}     # (id of subformula, node) -> truth
    stack = [(f, (0, state))]
    while stack:
        g, node = stack[-1]
        if isinstance(g, Diamond):
            kids = [(g.sub, m) for m in succ[node].get(g.label, ())]
        elif isinstance(g, (FAnd, FNot)):
            kids = [(sub, node) for sub in
                    (g.subs if isinstance(g, FAnd) else (g.sub,))]
        elif isinstance(g, FTrue):
            kids = []
        else:
            raise TypeError(g)
        todo = [k for k in kids if (id(k[0]), k[1]) not in value]
        if todo:
            stack += todo
            continue
        stack.pop()
        truths = [value[id(sub), m] for sub, m in kids]
        value[id(g), node] = (not truths[0] if isinstance(g, FNot)
                              else any(truths) if isinstance(g, Diamond)
                              else all(truths))
    return value[id(f), (0, state)]


# ---------------------------------------------------------------------------
# bisimilarity


@dataclass
class BisimResult:
    equivalent: bool
    blocks: dict            # (side, state) -> final block id
    formula: Formula | None

    def counterexample(self) -> str | None:
        return None if self.formula is None else render_formula(self.formula)


def _refuse_truncated(a, b, kind: str, relation: str) -> None:
    for tag, x in (("first", a), ("second", b)):
        if not x.complete:
            raise IncompleteLtsError(
                "the %s %s was truncated by a budget; "
                "%s over it would be unsound" % (tag, kind, relation))


def bisimilar(a: Lts, b: Lts) -> BisimResult:
    """Strong bisimilarity of the initial states of two systems."""
    _refuse_truncated(a, b, "system", "bisimilarity")

    nodes = ([(0, i) for i in range(len(a.states))]
             + [(1, j) for j in range(len(b.states))])
    succ = _successors(a, b)

    block = {n: 0 for n in nodes}
    history = [block]
    while True:
        ids: dict = {}
        nxt = {}
        for n in nodes:
            sig = (block[n],
                   frozenset((lab, block[m])
                             for lab, ms in succ[n].items() for m in ms))
            if sig not in ids:
                ids[sig] = len(ids)
            nxt[n] = ids[sig]
        if len(ids) == len(set(block.values())):
            break
        block = nxt
        history.append(block)

    na, nb = (0, a.initial), (1, b.initial)
    if block[na] == block[nb]:
        return BisimResult(True, block, None)
    return BisimResult(False, block, _distinguish(na, nb, history, succ))


def _distinguish(s, t, history, succ) -> Formula:
    """A formula holding at s and failing at t, for any pair the
    refinement separated.  Built bottom-up off an explicit stack, one memo
    entry per pair: a pair first separated in round k needs its swap,
    separated in round k too, or pairs separated in round k - 1."""
    plans: dict = {}    # pair -> (label, or None for a negation; sub-pairs)
    done: dict = {}     # pair -> formula
    stack = [(s, t)]
    while stack:
        pair = u, v = stack[-1]
        if pair not in plans:
            k = next(i for i, blk in enumerate(history) if blk[u] != blk[v])
            prev = history[k - 1]
            diff = {(lab, prev[m]) for lab, ms in succ[u].items() for m in ms}
            diff -= {(lab, prev[m]) for lab, ms in succ[v].items() for m in ms}
            if not diff:
                plans[pair] = None, [(v, u)]
            else:
                lab, blk = min(diff, key=lambda p: (label_key(p[0]), p[1]))
                u2 = min(m for m in succ[u][lab] if prev[m] == blk)
                plans[pair] = lab, [(u2, v2)
                                    for v2 in sorted(succ[v].get(lab, ()))]
        lab, subs = plans[pair]
        todo = [p for p in subs if p not in done]
        if todo:
            stack += todo
            continue
        stack.pop()
        fs = [done[p] for p in subs]
        done[pair] = FNot(fs[0]) if lab is None else Diamond(lab, (
            fs[0] if len(fs) == 1 else FAnd(tuple(fs)) if fs else TRUE))
    return done[s, t]


def is_bisimulation_partition(a: Lts, b: Lts, blocks: dict) -> bool:
    """Replay check, independent of the refiner: the block relation is a
    bisimulation containing the pair of initial states."""
    if blocks[(0, a.initial)] != blocks[(1, b.initial)]:
        return False
    succ = _successors(a, b)
    # related states must match each other's moves into related states:
    # all members of a block reach the same (label, block) pairs
    reach: dict = {}
    for n, bid in blocks.items():
        moves = {(lab, blocks[m]) for lab, ms in succ[n].items() for m in ms}
        if reach.setdefault(bid, moves) != moves:
            return False
    return True


# ---------------------------------------------------------------------------
# net isomorphism


@dataclass
class IsoResult:
    found: bool
    place_map: list | None   # index into n1.place_names -> index into n2's

    def mapping(self, n1: PTNet, n2: PTNet) -> dict | None:
        if self.place_map is None:
            return None
        return {n1.place_names[i]: n2.place_names[j]
                for i, j in enumerate(self.place_map)}


def _canon_transitions(net: PTNet, perm=None):
    out = []
    for pre, lab, post in net.transitions:
        if perm is not None:
            pre = {perm[s]: n for s, n in pre.items()}
            post = {perm[s]: n for s, n in post.items()}
        out.append((marking_key(pre), label_key(lab), marking_key(post)))
    out.sort()
    return out


def isomorphic(n1: PTNet, n2: PTNet) -> IsoResult:
    """Exact isomorphism check: a place bijection preserving the initial
    marking and mapping the transition set onto the other's.  A colour
    means the same in both nets, so a place is tried only against the
    other net's places of its colour."""
    _refuse_truncated(n1, n2, "net", "isomorphism")
    if (len(n1.place_names) != len(n2.place_names)
            or len(n1.transitions) != len(n2.transitions)):
        return IsoResult(False, None)

    def signatures(colors):
        # keyed (side, place): the coloured transitions a place feeds and
        # is fed by, with the arc weights
        arcs: dict = {p: ([], []) for p in colors}
        for side, net in enumerate((n1, n2)):
            for pre, lab, post in net.transitions:
                ends = [[(s, w) for s, w in m.items() if w]
                        for m in (pre, post)]
                tcol = (label_key(lab),) + tuple(
                    tuple(sorted((colors[side, s], w) for s, w in end))
                    for end in ends)
                for k, end in enumerate(ends):
                    for s, w in end:
                        arcs[side, s][k].append((tcol, w))
        return {p: tuple(tuple(sorted(a)) for a in arcs[p]) for p in colors}

    colors = _refine({(side, s): net.initial.get(s, 0)
                      for side, net in enumerate((n1, n2))
                      for s in range(len(net.place_names))}, signatures)
    classes: dict = defaultdict(lambda: ([], []))
    for (side, s), c in colors.items():
        classes[c][side].append(s)
    if any(len(a) != len(b) for a, b in classes.values()):
        return IsoResult(False, None)

    target = _canon_transitions(n2)
    candidates = {s: classes[colors[0, s]][1]
                  for s in range(len(n1.place_names))}
    order = sorted(candidates, key=lambda s: len(candidates[s]))
    used: set = set()
    perm: dict = {}

    def assign() -> bool:
        # depth first over order, off a stack of the candidates each
        # assigned place has left, so the net's size is no recursion depth
        left = [iter(candidates[order[0]])] if order else []
        while left:
            i = len(left) - 1
            s = order[i]
            if s in perm:
                used.discard(perm.pop(s))
            for t in left[i]:
                if t not in used:
                    break
            else:
                left.pop()
                continue
            perm[s] = t
            used.add(t)
            if i + 1 < len(order):
                left.append(iter(candidates[order[i + 1]]))
            elif _canon_transitions(n1, perm) == target:
                return True
        # with no places, the empty map is the one candidate
        return not order and _canon_transitions(n1, perm) == target

    if assign():
        return IsoResult(True, [perm[s] for s in range(len(n1.place_names))])
    return IsoResult(False, None)


def verify_isomorphism(n1: PTNet, n2: PTNet, place_map: list) -> bool:
    """Independent witness check for an isomorphism candidate."""
    n = len(n1.place_names)
    if (len(place_map) != n or len(n2.place_names) != n
            or sorted(place_map) != list(range(n))):
        return False
    perm = dict(enumerate(place_map))
    if {perm[s]: c for s, c in n1.initial.items() if c} != \
            {s: c for s, c in n2.initial.items() if c}:
        return False
    return _canon_transitions(n1, perm) == _canon_transitions(n2)
