"""The tools' text formats, read through one tokenizer and one action
reader (`_act`): programs, nets, and label sequences as `format_sequence`
prints them and `multiccs sync` reads them ("a ~b tau").

    program   ::= { DEF } "main" "=" term ";"
    DEF       ::= UCIDENT "=" term ";"
    term      ::= "new" "(" name { "," name } ")" term | par
    par       ::= sum { "|" sum }
    sum       ::= seq { "+" seq }
    seq       ::= "0" | prefix "." seq | "(" term ")" | UCIDENT
    prefix    ::= act | "<" act ">"
    act       ::= "tau" | name | "~" name

    net       ::= "net" IDENT { placedecl } { transdecl }
    placedecl ::= "place" IDENT "init" NAT
    transdecl ::= "trans" IDENT "label" label "in" { IDENT ":" NAT }
                                              "out" { IDENT ":" NAT }
    label     ::= act { "." act }

    sequence  ::= act { act }

Prefixing binds tighter than +, which binds tighter than |; "new" scopes
maximally to the right.  Strong prefixes are written in angle brackets,
outputs with a leading "~".  A net IDENT is a word other than a net keyword
(net place init trans label in out).  Every transition needs a non-empty
preset; weights are positive.  A text whose first word is "net" is a net.
"#" starts a comment running to end of line; whitespace is insignificant
but separates the actions of a sequence.  The words in `RESERVED` (new,
main, tau and the net keywords) are no action name and no restricted
name, so every program and net the tools write reads back.
"""

from __future__ import annotations

import re
from collections import Counter

from .nets import PTNet, marking_key
from .terms import (
    NIL, Action, Const, Env, MccsError, Par, Prefix, Program, Restrict,
    StrongPrefix, Sum, Term, TAU_ACT, act_in, act_out, format_term,
)

_NET_KEYWORDS = {"net", "place", "init", "trans", "label", "in", "out"}
RESERVED = {"new", "main", "tau"} | _NET_KEYWORDS

_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<name>[a-z][a-z0-9_]*)
    | (?P<ucname>[A-Z][A-Za-z0-9_]*)
    | (?P<nat>\d+)
    | (?P<punct>[()|+.~<>=;:,])
    | (?P<bad>.)
""", re.VERBOSE)


class ParseError(MccsError):
    def __init__(self, msg, text, pos):
        # line and column of offset pos, counted only when an error needs them
        self.line = text.count("\n", 0, pos) + 1
        self.col = pos - text.rfind("\n", 0, pos)
        super().__init__("%d:%d: %s" % (self.line, self.col, msg))


class _Tokens:
    """The tokens of a text, as (kind, value, offset) triples with kind in
    name/ucname/nat/punct/eof, and a cursor over them."""

    def __init__(self, text):
        self.text = text
        self.toks = []
        self.i = 0
        for m in _TOKEN_RE.finditer(text):
            if m.lastgroup == "bad":
                raise ParseError("unexpected character %r" % m.group(), text,
                                 m.start())
            if m.lastgroup != "ws":
                self.toks.append((m.lastgroup, m.group(), m.start()))
        self.toks.append(("eof", "", len(text)))

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def error(self, msg):
        _, value, pos = self.peek()
        shown = value if value else "end of input"
        raise ParseError("%s (found %r)" % (msg, shown), self.text, pos)

    def expect(self, kind, value=None):
        k, v, _ = self.peek()
        if k != kind or (value is not None and v != value):
            self.error("expected %s" % (value if value is not None else kind))
        return self.next()

    def at(self, value) -> bool:
        # a token's text tells its kind
        return self.toks[self.i][1] == value


def looks_like_net(text: str) -> bool:
    """Whether text is a net rather than a program: its first token is the
    word net, with which no program starts."""
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup != "ws":
            return m.group() == "net"
    return False


# ---------------------------------------------------------------------------
# programs


def parse_program(text: str, name: str = "main") -> Program:
    ts = _Tokens(text)
    env = Env()
    while ts.peek()[0] == "ucname":
        cname = ts.next()[1]
        if cname in env.defs:
            ts.error("constant %s defined twice" % cname)
        ts.expect("punct", "=")
        env.define(cname, _term(ts))
        ts.expect("punct", ";")
    ts.expect("name", "main")
    ts.expect("punct", "=")
    main = _term(ts)
    ts.expect("punct", ";")
    ts.expect("eof")
    return Program(env, main, name)


def parse_term(text: str) -> Term:
    """A bare term; its constants stay names until the caller resolves
    them in an environment of its own."""
    ts = _Tokens(text)
    t = _term(ts)
    ts.expect("eof")
    return t


def _term(ts) -> Term:
    if ts.at("new"):
        ts.next()
        ts.expect("punct", "(")
        names = [_action_name(ts)]
        while ts.at(","):
            ts.next()
            names.append(_action_name(ts))
        ts.expect("punct", ")")
        body = _term(ts)
        for n in reversed(names):
            body = Restrict(n, body)
        return body
    return _par(ts)


def _par(ts) -> Term:
    t = _sum(ts)
    while ts.at("|"):
        ts.next()
        t = Par(t, _sum(ts))
    return t


def _sum(ts) -> Term:
    t = _seq(ts)
    while ts.at("+"):
        ts.next()
        t = Sum(t, _seq(ts))
    return t


def _seq(ts) -> Term:
    # a chain of prefixes is read in a loop, then folded onto the process
    # that ends it, so a long chain does not recurse once per prefix
    prefixes = []
    while True:
        k, v, _ = ts.peek()
        if k == "punct" and v == "<":
            ts.next()
            prefixes.append((StrongPrefix, _act(ts)))
            ts.expect("punct", ">")
        elif k == "name" or (k == "punct" and v == "~"):
            prefixes.append((Prefix, _act(ts)))
        else:
            break
        ts.expect("punct", ".")
    if k == "nat" and v == "0":
        ts.next()
        t = NIL
    elif k == "punct" and v == "(":
        ts.next()
        t = _term(ts)
        ts.expect("punct", ")")
    elif k == "ucname":
        t = Const(ts.next()[1])
    else:
        ts.error("expected a process")
    for kind, act in reversed(prefixes):
        t = kind(act, t)
    return t


def _act(ts) -> Action:
    """The one action reader: of prefixes, net labels and sequences."""
    if ts.at("~"):
        ts.next()
        return act_out(_action_name(ts))
    if ts.at("tau"):
        ts.next()
        return TAU_ACT
    if ts.peek()[0] != "name":
        ts.error("expected an action")
    return act_in(_action_name(ts))


def _action_name(ts) -> str:
    """An action or restricted name: a lower-case word, not reserved."""
    k, v, _ = ts.peek()
    if k != "name" or v in RESERVED:
        ts.error("expected an action name")
    return ts.next()[1]


def format_program(p: Program) -> str:
    lines = ["%s = %s;" % (n, format_term(b)) for n, b in p.env.defs.items()]
    lines.append("main = %s;" % format_term(p.main))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# label sequences


def parse_sequence(text: str) -> tuple:
    """A label sequence in the notation `format_sequence` prints."""
    ts = _Tokens(text)
    acts = [_act(ts)]
    while ts.peek()[0] != "eof":
        acts.append(_act(ts))
    return tuple(acts)


# ---------------------------------------------------------------------------
# nets


def parse_pnet(text: str) -> PTNet:
    ts = _Tokens(text)
    ts.expect("name", "net")
    kind, value, _ = ts.peek()
    if kind not in ("name", "ucname"):
        ts.error("expected a net name")
    name = ts.next()[1]
    place_names, initial, index = [], Counter(), {}
    while ts.at("place"):
        ts.next()
        pname = _net_ident(ts)
        if pname in index:
            ts.error("place %s declared twice" % pname)
        ts.expect("name", "init")
        tokens = ts.expect("nat")
        index[pname] = len(place_names)
        if int(tokens[1]):
            initial[len(place_names)] = int(tokens[1])
        place_names.append(pname)
    transitions, trans_names, seen_triples = [], [], set()
    while ts.at("trans"):
        ts.next()
        tname = _net_ident(ts)
        if tname in trans_names:
            ts.error("transition %s declared twice" % tname)
        ts.expect("name", "label")
        label = [_act(ts)]
        while ts.at("."):
            ts.next()
            label.append(_act(ts))
        ts.expect("name", "in")
        pre = _arc_list(ts, index)
        ts.expect("name", "out")
        post = _arc_list(ts, index)
        if not pre:
            ts.error("transition %s has an empty preset" % tname)
        triple = (marking_key(pre), tuple(label), marking_key(post))
        if triple in seen_triples:
            ts.error("transition %s duplicates another transition" % tname)
        seen_triples.add(triple)
        transitions.append((pre, tuple(label), post))
        trans_names.append(tname)
    ts.expect("eof")
    return PTNet(name, place_names, initial, transitions, trans_names)


def _at_ident(ts) -> bool:
    kind, value, _ = ts.peek()
    return kind in ("name", "ucname") and value not in _NET_KEYWORDS


def _net_ident(ts) -> str:
    if not _at_ident(ts):
        ts.error("expected an identifier")
    return ts.next()[1]


def _arc_list(ts, index) -> Counter:
    arcs = Counter()
    while _at_ident(ts):
        pname = ts.next()[1]
        if pname not in index:
            ts.error("unknown place %s" % pname)
        ts.expect("punct", ":")
        weight = int(ts.expect("nat")[1])
        if weight < 1:
            ts.error("arc weight must be positive")
        if index[pname] in arcs:
            ts.error("place %s repeated in arc list" % pname)
        arcs[index[pname]] = weight
    return arcs


def format_pnet(net: PTNet) -> str:
    # the header must reparse as an identifier whatever the net was named
    name = "".join(c if c.isalnum() or c == "_" else "_" for c in net.name)
    if not name or not name[0].isalpha():
        name = "n_" + name if name else "net1"
    lines = ["net %s" % name]
    for i, pname in enumerate(net.place_names):
        lines.append("place %s init %d" % (pname, net.initial.get(i, 0)))
    for i, (pre, label, post) in enumerate(net.transitions):
        tname = net.trans_names[i]
        lbl = ".".join(str(a) for a in label)
        pres = " ".join("%s:%d" % (net.place_names[s], n)
                        for s, n in sorted(pre.items()))
        posts = " ".join("%s:%d" % (net.place_names[s], n)
                         for s, n in sorted(post.items()))
        lines.append("trans %s label %s in %s out%s" %
                     (tname, lbl, pres, (" " + posts) if posts else ""))
    return "\n".join(lines) + "\n"
