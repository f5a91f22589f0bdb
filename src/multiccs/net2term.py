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
tokens from ANY places that offer that channel, so when an offering place
holds more tokens than the transition consumes from it, the net of the
program may gain synchronizations the input never had.  Translate keeps
the shared channel when a token game over the input net shows that this
cannot happen, as follows.  For a transition t with collector place l,
let g(s) = pre_t(s) - [s = l] be the tokens the collector gathers from
each offering place s (`_sources`; l offers only when pre_t(l) >= 2),
and call t multi-source when it has two or more.  A collector of t lives
on l, so it can act only at markings m with m(l) >= 1; call such an m a
hazard for t when some offering place s has m(s) > pre_t(s).  Suppose no
reachable marking is a hazard for any multi-source t.  A collector of t
at m then finds at most m(s) - [s = l] <= g(s) offers on each offering
place s (on l its own token cannot also offer) and must gather sum g(s)
of them, so it takes exactly g(s) from each: it consumes exactly pre_t,
and only where t is enabled.  A collector of a single-source transition
has one place to gather from, so it too consumes exactly its preset.  By
induction over firing sequences, the net of the program reaches the
images of the input's reachable markings, where no hazard arises again,
and fires exactly the input's transitions there, so it is the input net
up to a renaming of places.  A breadth-first search of the reachable
markings checks this (`_offers_are_bounded`); it stops at the first
hazard and at the first marking beyond its state budget, and either
stop makes translate switch to one channel per (transition, offering
place).  Each of those channels is offered by one place only, so a
collector gathers exactly g(s) tokens from each s at any marking: the
pinned program reproduces the input whatever its markings, at the cost
of a less economical term.
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
    """Whether no reachable marking is a hazard for a multi-source
    transition: its collector place marked and one of its offering places
    holding more tokens than it consumes there (see the module
    docstring).  False also when the marking search exceeds its state
    budget."""
    hazards = [(s, pre[s], leader_place(pre))
               for pre, _, _ in net.transitions if len(_sources(pre)) >= 2
               for s in _sources(pre)]
    if not hazards:
        return True
    # the search stops at the first hazard or the first marking over budget
    return _explore(net, DEFAULT_BUDGET, lambda m, kept: not kept or any(
        m[s] > b and m[l] for s, b, l in hazards)) is not None


def translate(net: PTNet, name: str | None = None) -> Program:
    """A finite-net program whose net is `net` up to a renaming of places,
    provided the net is reduced; a label alphabet holding a complementary
    pair is refused."""
    carrier: dict = {}    # action -> first transition carrying it
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
        a = label[0]
        if not a.is_tau and a.complement() in carrier:
            # tokens offering a and ~a would synchronize silently
            raise TranslationError(
                "transitions %s and %s carry the complementary labels %s"
                " and %s" % (carrier[a.complement()], tn, a.complement(), a))
        carrier.setdefault(a, tn)

    name = name if name is not None else net.name
    return _encode(net, name, pinned=not _offers_are_bounded(net))


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
