"""Labeled transition system semantics.

Moves are computed over a component multiset: every component contributes
base moves by the rules of `Moves`, which `nets` shares (prefix, strong
prefix, summand selection, constant unfolding), composed moves come from
synchronizing disjoint sub-multisets pairwise,
and a move escapes a restriction scope only if its label does not mention
a bound name.  Because components live in one flattened multiset, all
parallel association orders are covered without rewriting terms.  The
pairwise closure (`Moves.closure`) is the one place where moves combine,
for this semantics and for the net semantics in `nets`: it yields each
move as the components it uses, its label and the continuations it
produces, and it keeps its engine's synchronization memo, item cap and
truncation flag.  `StepEngine.step`, the term-level step, assembles a
target term from them and normalizes it.

`build_lts` explores a state as its top-level restricted names plus the
counted multiset of its canonical components, (component, count) pairs in
normal-form order.  Every state takes its moves from the closure over its
counted components, minus the moves whose label mentions one of its
restricted names; `StepEngine.step` stays as an independent oracle and is
never run on a state.  In a state without restricted names a move
rewrites only what it consumes: the successor is the state minus the
used components plus the canonical components of the continuations.
Binder naming is global to a state, so a move of a state with restricted
names, or one whose continuation extrudes a restriction, normalizes its
whole target term.
One memo normalizes each continuation and whole target once per build.
`explore` is the one breadth-first search, here and for the marking graph
analyses in `nets`.

A strong prefix contributes the head of an atomic sequence: the rest of
the label comes from a move of its body, so a strong prefix whose body
cannot move is a dead end.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import groupby

from .normalform import (
    NormalForm, component_order, context, format_state, normalize,
    split_region,
)
from .sync import SyncMode, sync_outcomes
from .terms import (
    Const, Env, GuardednessError, MccsError, Nil, Prefix, Program,
    StrongPrefix, Sum, Term, format_term, label_key, sequence_names,
    term_key,
)


@dataclass(frozen=True)
class Budget:
    """A bound that trips marks its result truncated.  `max_states` bounds
    the kept states of one `explore`, which always keeps the initial state;
    in a net build, each Karp-Miller tree (per round, not per build), each
    backward coverability basis and, at max(512, 4 * max_states) items,
    the fallback's closure over the omega-seed.  `max_places` and
    `max_transitions` bound a built net, whose closure's item cap is
    max(512, 4 * max_transitions).  `max_seq_len` bounds synchronized
    labels in general mode only.  The LTS closure's item cap is
    `_MAX_ITEMS`, not a field here."""
    max_states: int = 10000
    max_places: int = 5000
    max_transitions: int = 20000
    max_seq_len: int = 16


DEFAULT_BUDGET = Budget()

# cap on the pairwise closure at a single state; reaching it truncates
_MAX_ITEMS = 200000


def _item_key(used: Counter, label, produced: Counter) -> tuple:
    """The identity of a closure item: its preset, label and postset."""
    return frozenset(used.items()), label, frozenset(produced.items())


@dataclass
class Lts:
    # printed normal forms (`NormalForm.key()`); index 0 is the initial state
    states: list
    transitions: list     # (source index, label sequence, target index)
    initial: int = 0
    complete: bool = True

    def summary(self) -> str:
        return "%d states, %d transitions, %s" % (
            len(self.states), len(self.transitions),
            "complete" if self.complete else "truncated")


class Moves:
    """The move rules of a place (a sequential process or a constant),
    for both semantics: `place_moves` gives its memoized (label, produced
    Counter) moves, each once.  A prefix moves to `open(body)`; a strong
    prefix puts its action before each label of its body's `body_moves`;
    a constant moves as its body, a sum as its summands left to right.
    `_busy` holds the bodies being unfolded: re-entering one violates
    guardedness.  `truncated` sticks once a budget (the item cap, or
    `max_seq_len` in general mode) has cut a closure, as memoized moves
    may carry the cut."""

    def __init__(self, env: Env, mode: SyncMode, max_seq_len: int,
                 item_cap: int):
        self.env = env
        self.mode = mode
        self.max_seq_len = max_seq_len
        self.item_cap = item_cap
        self.truncated = False
        self._moves: dict = {}
        self._sync: dict = {}     # label pairs' synchronizations
        self._busy: set = set()

    def _body_moves(self, t: Term):
        if t in self._busy:
            raise GuardednessError(
                "constant unfolding does not reach a normal prefix in %s" % t)
        self._busy.add(t)
        try:
            return self.body_moves(t)
        finally:
            self._busy.discard(t)

    def place_moves(self, p: Term) -> tuple:
        hit = self._moves.get(p)
        if hit is not None:
            return hit
        moves: dict = {}
        stack = [p]     # a sum's left spine, walked in a loop
        while stack:
            t = stack.pop()
            found = ()
            if isinstance(t, Sum):
                stack += (t.right, t.left)
            elif t is not p:     # a summand: one memo, one set of names
                found = self.place_moves(t)
            elif isinstance(t, Prefix):
                found = (((t.action,), self.open(t.body)),)
            elif isinstance(t, StrongPrefix):
                found = [((t.action,) + label, produced)
                         for label, produced in self._body_moves(t.body)]
            elif isinstance(t, Const):
                found = self._body_moves(self.env.body_of(t))
            elif not isinstance(t, Nil):
                raise MccsError("not a place: %s" % format_term(t))
            for label, produced in found:
                # a repeat keeps the first position and takes the last
                # Counter, whose order numbers a net's new places
                moves[label, frozenset(produced.items())] = label, produced
        moves = self._moves[p] = tuple(moves.values())
        return moves

    def closure(self, bound: Counter, seeds: list | None = None,
                cap: int | None = None) -> list:
        """The pairwise synchronization closure over the multiset `bound`,
        up to `cap` (or `item_cap`) items.

        Items are (used, label, produced) triples with `used` below
        `bound`, in discovery order -- the `place_moves` of the components
        in `term_key` order, then every synchronization of two items that
        fit in `bound` together.  Restriction is not applied here.
        `truncated` is set when a general-mode synchronization longer than
        `max_seq_len` was dropped, or when the closure reached the cap and
        stopped.

        With `seeds`, a list of multisets whose join is `bound`, two items
        merge only if the merged preset lies below some seed -- not merely
        below `bound`, which would pair components no seed holds together --
        and every item gets a fourth field, the seeds it lies below as a
        bitmask (bit i for seeds[i]).  A merge below a seed has both halves
        below it, so the items below seeds[i] are, in order, exactly the
        closure over seeds[i] alone, and it is truncated if one of those
        would be.  Place moves may allocate names (`nets`), so the places
        with no memoized moves are met seed by seed, each seed's in
        `term_key` order, as one closure per seed would meet them.  The
        cap bounds the one shared closure, so it can stop a closure over
        seeds none of which would reach it alone.  `_sync` maps label
        pairs to their synchronizations under `mode`, sorted by
        `label_key`."""
        moves, memo, mode = self.place_moves, self._sync, self.mode
        cap = self.item_cap if cap is None else cap
        max_seq_len = self.max_seq_len
        items: dict = {}
        queue = deque()
        truncated = False
        covers: dict = {}
        held: dict = {}     # component -> (count, seed bit) of each seed
        if seeds is not None:
            unmet = {p for p in bound if p not in self._moves}
            for i, seed in enumerate(seeds):
                here = [p for p in seed if p in unmet]
                for p in sorted(here, key=term_key):
                    moves(p)
                unmet.difference_update(here)
                for s, n in seed.items():
                    held.setdefault(s, []).append((n, 1 << i))

        def cover(s, n) -> int:
            """The seeds that hold n copies of s, as a bitmask."""
            if seeds is None:
                return 1 if bound[s] >= n else 0
            hit = covers.get((s, n))
            if hit is None:
                hit = covers[s, n] = sum(bit for m, bit in held.get(s, ())
                                         if m >= n)
            return hit

        def add(used, label, produced, below) -> bool:
            """Record an item; False, with the queue cleared, at the cap."""
            key = _item_key(used, label, produced)
            if key in items:
                return True
            if len(items) >= cap:
                queue.clear()
                return False
            acts = [a for a in label if not a.is_tau]
            items[key] = (used, label, produced,
                          frozenset(a.key() for a in acts),
                          frozenset(a.complement().key() for a in acts),
                          below)
            queue.append(key)
            return True

        def result(cut: bool) -> list:
            if cut:
                self.truncated = True
            if seeds is None:
                return [item[:3] for item in items.values()]
            return [item[:3] + item[5:] for item in items.values()]

        for c in sorted(bound, key=term_key):
            for label, produced in moves(c):
                if not add(Counter({c: 1}), label, produced, cover(c, 1)):
                    truncated = True

        while queue:
            used1, lab1, prod1, _, co1, below1 = items[queue.popleft()]
            for used2, lab2, prod2, acts2, _, below2 in list(items.values()):
                if not co1 & acts2:
                    # every synchronization cancels at least one
                    # complementary pair of actions
                    continue
                # each half lies below the seeds in its mask; only the
                # components both halves use can overflow a seed
                below = below1 & below2
                for s in used1:
                    if not below:
                        break
                    if s in used2:
                        below &= cover(s, used1[s] + used2[s])
                if not below:
                    continue
                merged = used1 + used2
                outs = memo.get((lab1, lab2))
                if outs is None:
                    outs = memo[lab1, lab2] = sorted(
                        sync_outcomes(lab1, lab2, mode), key=label_key)
                for lab3 in outs:
                    if mode is SyncMode.GENERAL and len(lab3) > max_seq_len:
                        truncated = True
                    elif not add(merged, lab3, prod1 + prod2, below):
                        return result(True)
        return result(truncated)


def _escaping(items: list, restricted) -> list:
    """The closure items whose label mentions no restricted name."""
    blocked = set(restricted)
    return [item for item in items
            if not sequence_names(item[1]) & blocked] if blocked else items


class StepEngine(Moves):
    """Moves over terms: `term_moves` and, normalized, `step`."""

    def __init__(self, env: Env, mode: SyncMode = SyncMode.GENERAL,
                 max_seq_len: int = DEFAULT_BUDGET.max_seq_len,
                 strict: bool = False):
        super().__init__(env, mode, max_seq_len, _MAX_ITEMS)
        self.strict = strict

    def open(self, body: Term) -> Counter:
        return Counter({body: 1})

    def body_moves(self, t: Term) -> list:
        return [(label, Counter({target: 1}))
                for label, target in self.term_moves(t)]

    def term_moves(self, t: Term) -> tuple:
        binders, comps = split_region(t, context(self.env, self.strict))
        comps = Counter(comps)
        return tuple(dict.fromkeys(
            (label, self.assemble(binders, comps, used, produced))
            for used, label, produced in _escaping(self.closure(comps),
                                                   binders)))

    def step(self, state) -> tuple:
        """Moves of a term or normal form: a sorted tuple of
        (label, target NormalForm) pairs."""
        t = state.to_term() if isinstance(state, NormalForm) else state
        out = dict.fromkeys((label, normalize(target, self.env, self.strict))
                            for label, target in self.term_moves(t))
        return tuple(sorted(out, key=lambda m: (label_key(m[0]), m[1].key())))

    @staticmethod
    def assemble(binders, comps: Counter, used: Counter,
                 produced: Counter) -> Term:
        """The target term of a closure item of new(binders)(comps)."""
        return NormalForm(tuple(binders), tuple(sorted(
            (comps - used + produced).elements(), key=term_key))).to_term()


def _counted(nf: NormalForm):
    """The exploration state of a normal form: (restricted names,
    (component, count) pairs in normal-form order)."""
    return nf.restricted, tuple((c, len(list(run)))
                                for c, run in groupby(nf.components))


def explore(init, successors, max_states: int, visit=None):
    """Breadth-first search from the hashable state `init`.

    successors(state) gives the state's (label, state) moves, in the order
    new states get their indices.  The result is (states, edges, complete):
    the kept states in discovery order and the (i, label, j) edges between
    them, each once.  A new state beyond max_states is dropped and clears
    `complete`.  visit(state, kept) sees `init` and every new state a move
    reaches, dropped ones included; when it returns true the search stops
    and the result is None.  A search with `visit` records no edges: its
    callers read only what the hook sees and `complete`."""
    if visit is not None and visit(init, True):
        return None
    states = [init]
    index = {init: 0}
    edges: dict = {}
    keep_edges = visit is None
    complete = True
    i = 0
    while i < len(states):
        for label, nxt in successors(states[i]):
            j = index.get(nxt)
            if j is None:
                kept = len(states) < max_states
                if visit is not None and visit(nxt, kept):
                    return None
                if not kept:
                    complete = False
                    continue
                j = index[nxt] = len(states)
                states.append(nxt)
            if keep_edges:
                edges[(i, label, j)] = None
        i += 1
    return states, list(edges), complete


def build_lts(program: Program, mode: SyncMode = SyncMode.GENERAL,
              budget: Budget = DEFAULT_BUDGET, strict: bool = False) -> Lts:
    """Breadth-first state space construction from the main term."""
    env = program.env
    engine = StepEngine(env, mode, budget.max_seq_len, strict)
    order: dict = {}      # component -> normal-form sort key
    printed: dict = {}    # component -> its text
    texts: dict = {}      # state -> its text
    normal: dict = {}     # continuation or whole target -> its state

    def show(state) -> str:
        text = texts.get(state)
        if text is None:
            restricted, comps = state
            parts = []
            for c, n in comps:
                if c not in printed:
                    printed[c] = format_term(c)
                parts += [printed[c]] * n
            text = texts[state] = format_state(restricted, parts)
        return text

    def rank(kv):
        c = kv[0]
        key = order.get(c)
        if key is None:
            key = order[c] = component_order(c, env, strict)
        return key

    def canon(t):
        state = normal.get(t)
        if state is None:
            state = normal[t] = _counted(normalize(t, env, strict))
        return state

    def successor(restricted, comps: Counter, used: Counter,
                  produced: Counter):
        if not restricted:
            nxt = comps - used
            for cont, n in produced.items():
                extruded, parts = canon(cont)
                if extruded:
                    break
                for c, m in parts:
                    nxt[c] += n * m
            else:
                return (), tuple(sorted(nxt.items(), key=rank))
        # binder naming is global to the state
        return canon(StepEngine.assemble(restricted, comps, used, produced))

    def successors(state) -> list:
        restricted, counted = state
        comps = Counter(dict(counted))
        moves = dict.fromkeys(
            (label, successor(restricted, comps, used, produced))
            for used, label, produced in _escaping(engine.closure(comps),
                                                   restricted))
        return sorted(moves, key=lambda m: (label_key(m[0]), show(m[1])))

    init = _counted(normalize(program.main, env, strict))
    states, edges, complete = explore(init, successors, budget.max_states)
    return Lts([show(s) for s in states], edges, 0,
               complete and not engine.truncated)
