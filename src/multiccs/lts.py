"""Labeled transition system semantics.

Moves are computed over a component multiset: every component contributes
base moves (prefix, strong prefix, summand selection, constant unfolding),
composed moves come from synchronizing disjoint sub-multisets pairwise,
and a move escapes a restriction scope only if its label does not mention
a bound name.  Because components live in one flattened multiset, all
parallel association orders are covered without rewriting terms.  The
pairwise closure (`closure`) is the one place where moves combine, for
this semantics and for the net semantics in `nets`: it yields each move as
the components it uses, its label and the continuations it produces.  The
term-level `step` assembles a target term from them and normalizes it.

`build_lts` explores a state as its top-level restricted names plus the
counted multiset of its canonical components, (component, count) pairs in
normal-form order.  In a state without restricted names a move rewrites
only what it consumes: the successor is the state minus the used
components plus the canonical components of the continuations, and each
continuation is normalized once per build.  Binder naming is global to a
state, so a state with top-level restrictions, and a move whose
continuation extrudes a restriction, normalize the whole target term.

A strong prefix contributes the head of an atomic sequence: the rest of
the label comes from a move of its body, so a strong prefix whose body
cannot move is a dead end.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import groupby

from .normalform import NormalForm, component_order, normalize
from .sync import SyncMode, sync_outcomes
from .terms import (
    Const, Env, GuardednessError, MccsError, Nil, Par, Prefix, Program,
    Restrict, StrongPrefix, Sum, Term, format_sequence, format_term,
    free_names, label_key, par_fold, sequence_names, substitute, term_key,
)


@dataclass(frozen=True)
class Budget:
    max_states: int = 10000
    max_places: int = 5000
    max_transitions: int = 20000
    max_seq_len: int = 16


DEFAULT_BUDGET = Budget()

# cap on the pairwise closure at a single state; reaching it truncates
_MAX_ITEMS = 200000


def freeze(m: Counter) -> tuple:
    """A hashable key of a multiset of terms, independent of insertion
    order."""
    return tuple(sorted(((term_key(s), s, n) for s, n in m.items() if n),
                        key=lambda kv: kv[0]))


def _acts(label) -> frozenset:
    return frozenset(a.key() for a in label if not a.is_tau)


def _coacts(label) -> frozenset:
    return frozenset(a.complement().key() for a in label if not a.is_tau)


def closure(bound: Counter, base, mode: SyncMode, max_seq_len: int,
            cap: int) -> tuple:
    """The pairwise synchronization closure over the multiset `bound`.

    base(component) gives the (label, produced) moves of one component,
    `produced` a Counter.  The result is (items, truncated): items are
    (used, label, produced) triples with `used` below `bound`, in discovery
    order -- the base moves of the components in `term_key` order, then
    every synchronization of two items that fit in `bound` together.
    Restriction is not applied here.  `truncated` is set when a
    general-mode synchronization longer than max_seq_len was dropped, or
    when the closure reached `cap` items and stopped.
    """
    items: dict = {}
    queue = deque()
    truncated = False

    def add(used, label, produced) -> bool:
        """Record an item; False, with the queue cleared, at the cap."""
        key = (freeze(used), label, freeze(produced))
        if key in items:
            return True
        if len(items) >= cap:
            queue.clear()
            return False
        items[key] = (used, label, produced, _acts(label), _coacts(label))
        queue.append(key)
        return True

    for c in sorted(bound, key=term_key):
        for label, produced in base(c):
            if not add(Counter({c: 1}), label, produced):
                truncated = True

    while queue:
        used1, lab1, prod1, _, co1 = items[queue.popleft()]
        for used2, lab2, prod2, acts2, _ in list(items.values()):
            if not co1 & acts2:
                # every synchronization cancels at least one
                # complementary pair of actions
                continue
            merged = used1 + used2
            if any(merged[s] > bound[s] for s in merged):
                continue
            for lab3 in sorted(sync_outcomes(lab1, lab2, mode), key=label_key):
                if mode is SyncMode.GENERAL and len(lab3) > max_seq_len:
                    truncated = True
                elif not add(merged, lab3, prod1 + prod2):
                    return [item[:3] for item in items.values()], True
    return [item[:3] for item in items.values()], truncated


@dataclass
class Lts:
    # printed normal forms (`NormalForm.key()`), index 0 is the initial
    # state; a state without restricted names prints as its components
    # joined with " | " in normal-form order, or "0" when it has none
    states: list
    transitions: list     # (source index, label sequence, target index)
    initial: int = 0
    complete: bool = True
    kind: str = "term"    # "term" or "marking"

    def labels(self) -> set:
        return {label for _, label, _ in self.transitions}

    def successors(self, i: int):
        return [(label, j) for src, label, j in self.transitions if src == i]

    def summary(self) -> str:
        return "%d states, %d transitions, %s" % (
            len(self.states), len(self.transitions),
            "complete" if self.complete else "truncated")


class StepEngine:
    """Move computation with per-term caches.

    Caches are only filled with finished results; re-entering a term that
    is still being computed means constant unfolding does not pass a
    normal prefix, i.e. the input violates guardedness.  `truncated` is
    set once a budget (the closure cap, or `max_seq_len` in general mode)
    has cut some closure short; it stays set, as cached results may carry
    the cut.
    """

    def __init__(self, env: Env, mode: SyncMode = SyncMode.GENERAL,
                 max_seq_len: int = 16, strict: bool = False):
        self.env = env
        self.mode = mode
        self.max_seq_len = max_seq_len
        self.strict = strict
        self.truncated = False
        self._seq_cache: dict = {}
        self._term_cache: dict = {}
        self._busy: set = set()
        self._placeholders = 0

    # -- base moves of a sequential or constant component ------------------

    def seq_moves(self, t: Term) -> tuple:
        hit = self._seq_cache.get(t)
        if hit is not None:
            return hit
        if isinstance(t, Nil):
            moves = ()
        elif isinstance(t, Prefix):
            moves = (((t.action,), t.body),)
        elif isinstance(t, StrongPrefix):
            moves = tuple(((t.action,) + label, cont)
                          for label, cont in self.term_moves(t.body))
        elif isinstance(t, Sum):
            seen = dict.fromkeys(self.seq_moves(t.left))
            seen.update(dict.fromkeys(self.seq_moves(t.right)))
            moves = tuple(seen)
        elif isinstance(t, Const):
            moves = self.term_moves(self.env.body_of(t))
        else:
            raise MccsError("component is not sequential: %s" % t)
        self._seq_cache[t] = moves
        return moves

    # -- moves of an arbitrary term ----------------------------------------

    def term_moves(self, t: Term) -> tuple:
        hit = self._term_cache.get(t)
        if hit is not None:
            return hit
        if t in self._busy:
            raise GuardednessError(
                "constant unfolding does not reach a normal prefix in %s" % t)
        self._busy.add(t)
        try:
            binders, comps = self._flatten(t)
            moves = self._compose(binders, comps)
        finally:
            self._busy.discard(t)
        self._term_cache[t] = moves
        return moves

    def _flatten(self, t: Term):
        binders: list = []
        comps: Counter = Counter()

        def walk(u):
            if isinstance(u, Par):
                walk(u.left)
                walk(u.right)
            elif isinstance(u, Restrict):
                if not self.strict and u.name not in free_names(u.body, self.env):
                    walk(u.body)
                    return
                # globally unique placeholder: nested flattenings (strong
                # prefix bodies) must never shadow an enclosing binder
                self._placeholders += 1
                ph = "?%d" % self._placeholders
                binders.append(ph)
                walk(substitute(u.body, u.name, ph, self.env))
            elif isinstance(u, Nil):
                if self.strict:
                    comps[u] += 1
            else:
                comps[u] += 1

        walk(t)
        return binders, comps

    def closure(self, comps: Counter) -> list:
        """The pairwise closure over a component multiset: (used, label,
        produced) items, `produced` counting continuation terms."""
        items, truncated = closure(
            comps,
            lambda c: [(label, Counter({cont: 1}))
                       for label, cont in self.seq_moves(c)],
            self.mode, self.max_seq_len, _MAX_ITEMS)
        self.truncated = self.truncated or truncated
        return items

    @staticmethod
    def assemble(binders: list, comps: Counter, used: Counter,
                 produced: Counter) -> Term:
        """The target term of a closure item of new(binders)(comps)."""
        target = par_fold(sorted((comps - used + produced).elements(),
                                 key=term_key))
        for name in reversed(binders):
            target = Restrict(name, target)
        return target

    def _compose(self, binders: list, comps: Counter) -> tuple:
        """All (label, continuation term) moves of new(binders)(comps)."""
        blocked = set(binders)
        moves = {}
        for used, label, produced in self.closure(comps):
            if sequence_names(label) & blocked:
                continue
            moves[(label, self.assemble(binders, comps, used, produced))] = None
        return tuple(moves)


def step(state, env: Env, mode: SyncMode = SyncMode.GENERAL,
         budget: Budget = DEFAULT_BUDGET, strict: bool = False,
         engine: StepEngine | None = None):
    """Moves of a term or normal form: a sorted tuple of
    (label, target NormalForm) pairs."""
    if engine is None:
        engine = StepEngine(env, mode, budget.max_seq_len, strict)
    t = state.to_term() if isinstance(state, NormalForm) else state
    out = {}
    for label, target in engine.term_moves(t):
        out[(label, normalize(target, env, strict))] = None
    return tuple(sorted(out, key=lambda m: (label_key(m[0]), m[1].key())))


def _counted(nf: NormalForm):
    """The exploration state of a normal form: (restricted names,
    (component, count) pairs in normal-form order)."""
    return nf.restricted, tuple((c, len(list(run)))
                                for c, run in groupby(nf.components))


def _expand(counted) -> tuple:
    return tuple(c for c, n in counted for _ in range(n))


def build_lts(program: Program, mode: SyncMode = SyncMode.GENERAL,
              budget: Budget = DEFAULT_BUDGET, strict: bool = False) -> Lts:
    """Breadth-first state space construction from the main term."""
    env = program.env
    engine = StepEngine(env, mode, budget.max_seq_len, strict)
    order: dict = {}      # component -> normal-form sort key
    printed: dict = {}    # component -> its text
    conts_nf: dict = {}   # continuation -> counted components, or None
                          # when it extrudes a restriction

    def show(state) -> str:
        restricted, comps = state
        if restricted:
            return NormalForm(restricted, _expand(comps)).key()
        parts = []
        for c, n in comps:
            text = printed.get(c)
            if text is None:
                text = printed[c] = format_term(c)
            parts.extend([text] * n)
        return " | ".join(parts) if parts else "0"

    def rank(kv):
        c = kv[0]
        key = order.get(c)
        if key is None:
            key = order[c] = component_order(c, env, strict)
        return key

    def canon(cont):
        if cont not in conts_nf:
            nf = normalize(cont, env, strict)
            conts_nf[cont] = None if nf.restricted else _counted(nf)[1]
        return conts_nf[cont]

    def successor(comps: Counter, used: Counter, produced: Counter):
        nxt = comps - used
        for cont, n in produced.items():
            parts = canon(cont)
            if parts is None:
                # binder naming is global to the state
                target = StepEngine.assemble([], comps, used, produced)
                return _counted(normalize(target, env, strict))
            for c, m in parts:
                nxt[c] += n * m
        return (), tuple(sorted(nxt.items(), key=rank))

    def moves(state) -> dict:
        restricted, counted = state
        if restricted:
            nf = NormalForm(restricted, _expand(counted))
            return {(label, _counted(target)): None for label, target
                    in step(nf, env, mode, budget, strict, engine)}
        comps = Counter(dict(counted))
        return {(label, successor(comps, used, produced)): None
                for used, label, produced in engine.closure(comps)}

    init = _counted(normalize(program.main, env, strict))
    keys = [show(init)]
    index = {init: 0}
    frontier = deque([init])
    transitions = []
    complete = True
    while frontier:
        state = frontier.popleft()
        src = index[state]
        found = []
        fresh: dict = {}
        for label, nxt in moves(state):
            j = index.get(nxt)
            if j is not None:
                text = keys[j]
            elif len(keys) >= budget.max_states:
                complete = False
                continue
            else:
                text = fresh.get(nxt)
                if text is None:
                    text = fresh[nxt] = show(nxt)
            found.append((label_key(label), text, label, nxt))
        found.sort(key=lambda f: f[:2])
        for _, text, label, nxt in found:
            j = index.get(nxt)
            if j is None:
                if len(keys) >= budget.max_states:
                    complete = False
                    continue
                j = len(keys)
                index[nxt] = j
                keys.append(text)
                frontier.append(nxt)
            transitions.append((src, label, j))
    return Lts(keys, transitions, 0, complete and not engine.truncated, "term")


def format_label(label) -> str:
    return format_sequence(label)
