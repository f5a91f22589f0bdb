"""Reverse translation: finite place/transition nets into process programs.

One recursive constant per place, one handshake channel per transition,
one probe channel per place.  A transition consuming w tokens overall is
re-enacted by a single "collector" token that gathers the other w-1
tokens with strong prefixes on the transition's channel and then performs
the transition's label; every other consumed token merely offers the
channel once.  The collector lives on the preset place with the smallest
arc weight (ties: smallest place index).  All handshake and probe
channels are restricted at the outermost level, so only the original
labels remain observable and the net of the result mirrors the input.

Silent transitions with w >= 2 drop one strong prefix and let the final
handshake itself produce the silent step; in particular nets whose
transitions consume one token, or two tokens silently, translate to
terms without any strong prefix at all.

A single channel per transition leaves the collector free to gather its
tokens from ANY places that offer that channel, so when two offering
places can simultaneously hold more tokens than the transition consumes
from them, the rebuilt net gains synchronizations the input never had.
Translate keeps the shared channel when a token game over the input net
shows that this cannot happen, as follows.  For a transition t with
collector place l, let g(s) = pre_t(s) - [s = l] be the tokens the
collector gathers from each offering place s (`_sources`), and call t
multi-source when it has two or more.  Suppose no reachable marking m
has m(s) > pre_t(s) on an offering place s of a multi-source t; on l the
count includes the collector's own token, which cannot also offer.  Then
a collector at m finds at most m(s) - [s = l] <= g(s) offers on each s
and must gather sum g(s) of them, so it takes exactly g(s) from each:
it consumes exactly pre_t, and only where t is enabled.  A collector of
a single-source transition has one place to gather from, so it too
consumes exactly its preset.  By induction over firing sequences, the
rebuilt net reaches the images of the net's reachable markings, where
the bound holds again, and fires exactly the net's transitions there,
so it is isomorphic to the net.  The bound is checked by a breadth-first
search of the reachable markings that stops at the first marking
breaking it (`_offers_are_bounded`).  When that search stops early or
runs out of its state budget, translate decides by rebuilding the net
of the shared program and testing it for isomorphism, and if that fails
it switches to one channel per (transition, offering place), which pins
every gathered token to its place and restores the exact rebuild at the
cost of a less economical term.
"""

import re
from collections import Counter

from .lts import DEFAULT_BUDGET
from .nets import PTNet, _explore
from .terms import (
    Const,
    Env,
    MccsError,
    NIL,
    Prefix,
    Program,
    Restrict,
    StrongPrefix,
    Sum,
    Term,
    act_in,
    act_out,
    par_fold,
)

__all__ = ["TranslationError", "translate", "is_ccs_net"]


class TranslationError(MccsError):
    """The net lies outside the translatable class."""


def _fresh_prefix(base: str, taken) -> str:
    # shortest base, basebase, ... such that no name in `taken` looks like
    # an indexed member of the family
    prefix = base
    while any(re.fullmatch(re.escape(prefix) + r"[0-9]+", n) for n in taken):
        prefix += base
    return prefix


def _sum(parts: list) -> Term:
    t = parts[0]
    for p in parts[1:]:
        t = Sum(t, p)
    return t


def leader_place(pre: Counter) -> int:
    """The preset place acting as collector: minimal arc weight, then
    minimal index."""
    return min(pre, key=lambda i: (pre[i], i))


def _sources(pre: Counter) -> list:
    """Places that offer the handshake, collector's own place first."""
    leader = leader_place(pre)
    out = [i for i in sorted(pre) if i != leader]
    if pre[leader] > 1:
        out.insert(0, leader)
    return out


def _assemble(net: PTNet, chan: dict, restricted: list, ys, consts,
              name) -> Program:
    def continuation(post: Counter) -> Term:
        return par_fold([Const(consts[i])
                         for i in sorted(post) for _ in range(post[i])])

    env = Env()
    for i in range(len(net.place_names)):
        summands = []
        for j, (pre, label, post) in enumerate(net.transitions):
            d = pre.get(i, 0)
            if not d:
                continue
            if i == leader_place(pre):
                # one gathering input per token the other offerers supply
                gather = [chan[j, s]
                          for s in _sources(pre)
                          for _ in range(pre[s] - (1 if s == i else 0))]
                a = label[0]
                if a.is_tau and gather and d == 1:
                    # the last handshake itself produces the silent step,
                    # saving one strong prefix (only when the collector's
                    # own place contributes a single token)
                    chain = Prefix(act_in(gather[-1]), continuation(post))
                    gather = gather[:-1]
                else:
                    chain = Prefix(a, continuation(post))
                for nm in reversed(gather):
                    chain = StrongPrefix(act_in(nm), chain)
                if d > 1:
                    # the collector's own place also supplies plain tokens
                    summands.append(Prefix(act_out(chan[j, i]), NIL))
                summands.append(chain)
            else:
                summands.append(Prefix(act_out(chan[j, i]), NIL))
        summands.append(Prefix(act_in(ys[i]), NIL))
        env.define(consts[i], _sum(summands))

    tokens = [Const(consts[i])
              for i in sorted(net.initial) for _ in range(net.initial[i])]
    body = par_fold(tokens)
    for nm in reversed(restricted + list(ys)):
        body = Restrict(nm, body)
    return Program(env, body, name)


def _encode(net: PTNet, name: str, pinned: bool) -> Program:
    """The program of `net` with one channel per transition, or with
    `pinned`, one per (transition, offering place)."""
    visible = {label[0].name for _, label, _ in net.transitions
               if not label[0].is_tau}
    xbase = _fresh_prefix("x", visible)
    ybase = _fresh_prefix("y", visible)
    xs = [xbase + str(j + 1) for j in range(len(net.transitions))]
    ys = [ybase + str(i + 1) for i in range(len(net.place_names))]
    consts = ["C" + str(i + 1) for i in range(len(net.place_names))]
    chan: dict = {}
    extra: list = []
    for j, (pre, _, _) in enumerate(net.transitions):
        for k, s in enumerate(_sources(pre)):
            if k == 0 or not pinned:
                chan[j, s] = xs[j]
            else:
                extra.append(xbase + str(len(xs) + len(extra) + 1))
                chan[j, s] = extra[-1]
    return _assemble(net, chan, xs + extra, ys, consts, name)


def _offers_are_bounded(net: PTNet) -> bool:
    """Whether no reachable marking puts more tokens on an offering place
    of a multi-source transition than that transition consumes from it
    (see the module docstring).  False also when the marking search runs
    out of its state budget."""
    bound: dict = {}
    for pre, _, _ in net.transitions:
        sources = _sources(pre)
        if len(sources) >= 2:
            for s in sources:
                bound[s] = min(bound.get(s, pre[s]), pre[s])
    if not bound:
        return True
    limits = sorted(bound.items())
    result = _explore(net, DEFAULT_BUDGET,
                      lambda m, kept: any(m[s] > b for s, b in limits))
    return result is not None and result[2]


def _rebuilds_exactly(net: PTNet, prog: Program) -> bool:
    from .equiv import isomorphic
    from .nets import build_net
    from .sync import SyncMode
    rebuilt = build_net(prog, mode=SyncMode.FINITE_NET)
    return rebuilt.complete and isomorphic(net, rebuilt).found


def translate(net: PTNet, name: str | None = None) -> Program:
    """A finite-net program whose net is isomorphic to `net`, provided the
    net is reduced and its label alphabet is free of complementary pairs."""
    for tn, (pre, label, _) in zip(net.trans_names, net.transitions):
        if len(label) != 1:
            raise TranslationError(
                "transition %s carries a %d-action label; only single-action"
                " labels translate" % (tn, len(label)))
        if label[0].is_restricted:
            raise TranslationError(
                "transition %s carries a restricted action" % tn)
        if not pre:
            raise TranslationError("transition %s has an empty preset" % tn)

    name = name if name is not None else net.name
    prog = _encode(net, name, pinned=False)
    if not _offers_are_bounded(net) and not _rebuilds_exactly(net, prog):
        # gathering went astray: pin every gathered token to its place
        prog = _encode(net, name, pinned=True)
    return prog


def is_ccs_net(net: PTNet) -> bool:
    """Whether the translation needs no strong prefix: every transition
    has one weight-1 input arc, or two weight-1 input arcs on distinct
    places and a silent label."""
    for pre, label, _ in net.transitions:
        if len(label) != 1 or not pre:
            return False
        if sum(pre.values()) == 1:
            continue
        if (len(pre) == 2 and set(pre.values()) == {1}
                and label[0].is_tau):
            continue
        return False
    return True
