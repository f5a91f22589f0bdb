"""Place/transition net semantics.

A term decomposes into a finite multiset of sequential processes (the
initial marking); the places and transitions of its net are produced by a
least fixpoint that alternates coverability analysis with transition
derivation.  Transition derivation runs the pairwise closure of the
transition-system semantics (`lts.Moves.closure`) over the places of a
marking, with its move rules (`lts.Moves`): a place's move produces the
marking that `dec` gives its continuation.  There, restricted names (the
'#' name family, which `dec` substitutes for restriction binders on its
`terms.region` walk) take the place of bound names: moves labeled with
restricted actions may take part in synchronizations but never surface as
net transitions.

Each round of the fixpoint computes the maximal coverable markings with a
Karp-Miller tree over the transitions discovered so far, so transitions
are admitted exactly when their preset is covered by some reachable
marking, which keeps the net reduced and also handles unbounded nets such
as the semi-counter.  While the net is bounded, that is, while the last
round's tree was complete and met no acceleration, the round extends that
tree: its markings fire only the transitions admitted since, and the
markings they reach fire all of them.  An extension that accelerates or
trips the budget gives way to a fresh tree, so every round gets the
maximal markings of a fresh tree.  The round then runs one closure over
all of these markings (the seeds): two items merge only if the merged
preset lies below some seed, never merely below the join of the seeds,
which would pair places that are never marked together.  The items
below a seed are exactly the closure over that seed alone, in the same
order, so the round emits, seed by seed in marking order, what one closure
per seed would: places are numbered and restricted names allocated as in
that reading.  The item cap (`NetBuilder.item_cap`) bounds the one closure
of a round, so a round may trip it where no single seed would.  A round
whose seeds are those of the round before it ends the fixpoint: it would
derive the same items, and that round admitted them all.  Seeds are
compared, and ordered, as sparse vectors over place numbers; only the
seeds of a round that goes on become multisets of terms.

Places are numbered once, when the construction first meets them, and
each transition is compiled once, when it is admitted, into a
`firing_rule` over those numbers.  Every search of the token game fires
such rules over tuples of token counts: the Karp-Miller tree of each
round, and the marking graph and the reducedness and safety checks,
which run on `lts.explore`, the search of the transition-system
semantics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter, le

from .lts import Budget, DEFAULT_BUDGET, Lts, Moves, _item_key, explore
from .sync import SyncMode, auto_mode
from .terms import (
    Const, Env, FreshAllocator, GuardednessError, Nil, Program, Term,
    label_key, region, term_key,
)

OMEGA = float("inf")


# ---------------------------------------------------------------------------
# markings

def marking_key(m: Counter) -> tuple:
    """A marking over place ids as sorted (place, count) pairs."""
    return tuple(sorted((s, n) for s, n in m.items() if n))


def firing_rule(pre: Counter, post: Counter) -> tuple:
    """A transition over place ids as one sparse firing rule: its preset
    and its non-zero effect, each as sorted (place, count) pairs."""
    effect = Counter(post)
    effect.subtract(pre)
    return (tuple(sorted(pre.items())),
            tuple(sorted((i, d) for i, d in effect.items() if d)))


def _enabled(pre, m) -> bool:
    # a loop, not all(): this is the innermost test of every marking search
    for i, c in pre:
        if m[i] < c:
            return False
    return True


def antichain(vectors) -> list:
    """The maximal ones among equal-length (omega-)vectors.

    Vectors are ranked most omegas first, then largest finite sum first,
    so a vector can only be covered by one of an earlier rank.  A vector
    is kept unless some kept vector of an earlier rank covers it, found
    through per-place bitmasks of the kept vectors holding each value
    there."""
    ranked = sorted(
        (((-v.count(OMEGA), -sum(x for x in v if x != OMEGA)) if OMEGA in v
          else (0, -sum(v)), v) for v in dict.fromkeys(vectors)),
        key=itemgetter(0))
    keep: list = []
    held: list = [{} for _ in ranked[0][1]] if ranked else []
    last = None
    for rank, v in ranked:
        if rank != last:
            last, earlier = rank, (1 << len(keep)) - 1
        above = earlier
        for i, x in enumerate(v):
            if not above:
                break
            if x:
                cover = 0
                for y, mask in held[i].items():
                    if y >= x:
                        cover |= mask
                above &= cover
        if above:
            continue
        bit = 1 << len(keep)
        for i, x in enumerate(v):
            if x:
                held[i][x] = held[i].get(x, 0) | bit
        keep.append(v)
    return keep


def format_marking(m: Counter, names: list) -> str:
    """A marking over place ids, written with the places' names."""
    if not m:
        return "(empty)"
    return " + ".join(names[s] if n == 1 else "%d*%s" % (n, names[s])
                      for s, n in sorted(m.items()))


# ---------------------------------------------------------------------------
# nets


@dataclass
class PTNet:
    name: str
    place_names: list                 # display names, index order
    initial: Counter                  # Counter[int]
    transitions: list                 # (Counter[int] pre, label, Counter[int] post)
    trans_names: list = field(default_factory=list)
    complete: bool = True
    place_terms: list | None = None   # for built nets: the sequential terms

    def __post_init__(self):
        # an unnamed net gets t1..tn, in transition order
        if not self.trans_names:
            self.trans_names = ["t%d" % (i + 1)
                                for i in range(len(self.transitions))]
        elif len(self.trans_names) != len(self.transitions):
            raise ValueError("%d transition names for %d transitions" % (
                len(self.trans_names), len(self.transitions)))

    def summary(self) -> str:
        return "%d places, %d transitions, %s" % (
            len(self.place_names), len(self.transitions),
            "complete" if self.complete else "truncated")


def dec(t: Term, env: Env, alloc: FreshAllocator | None = None) -> Counter:
    """Decomposition of a term into a marking of sequential places.

    0 vanishes, parallel composition is multiset union, a restriction is
    opened by substituting a fresh restricted name (`terms.region` walks
    both), constants unfold."""
    alloc = alloc or FreshAllocator()
    fresh = lambda name, body: alloc.fresh(name)
    out: Counter = Counter()
    # each walk with the constants unfolded on the way to it
    walks = [(region(t, env, fresh), frozenset())]
    while walks:
        walk, path = walks[-1]
        u = next(walk, None)
        if u is None:
            walks.pop()
        elif isinstance(u, Const):
            if u in path:
                raise GuardednessError(
                    "unguarded constant %s in decomposition" % u.display_name())
            walks.append((region(env.body_of(u), env, fresh), path | {u}))
        elif not isinstance(u, Nil):
            out[u] += 1
    return out


def _label_visible(label) -> bool:
    return all(not a.is_restricted for a in label)


class NetBuilder(Moves):
    """Least-fixpoint net construction; a place's move produces a marking."""

    def __init__(self, env: Env, mode: SyncMode, budget: Budget = DEFAULT_BUDGET):
        super().__init__(env, mode, budget.max_seq_len,
                         max(512, 4 * budget.max_transitions))
        self.budget = budget
        self.alloc = FreshAllocator()
        # the last Karp-Miller tree, while a later search may extend it
        self._tree = None

    # -- the moves of a place (labels may contain restricted actions) --------

    def open(self, body: Term) -> Counter:
        return dec(body, self.env, self.alloc)

    def body_moves(self, t: Term) -> list:
        """The closure over dec(t), each item with the rest of dec(t)."""
        marking = self.open(t)
        return [(label, marking - used + produced)
                for used, label, produced in self.derive_items(marking)]

    # -- transitions derivable inside a marking ------------------------------

    # `Moves.closure` under the name the builder calls it by, so that a
    # tracer can wrap the builder's calls alone.  No closure is memoized:
    # a strong-prefix body is met once, through its place's memo, no two
    # rounds have the same seeds (`build` stops at the first repeat), and
    # each omega seed of `_backward_closure` outgrows the last.
    derive_items = Moves.closure

    def _round_items(self, seeds: list, join: Counter) -> list:
        """The visible items of one fixpoint round, whose seeds have the
        join `join`: for each seed in turn, the items below it in closure
        order, each at its first seed only."""
        visible = [item for item in self.derive_items(join, seeds)
                   if _label_visible(item[1])]
        # the lowest bit of an item's mask is the first seed it lies below
        visible.sort(key=lambda item: (item[3] & -item[3]).bit_length())
        return [item[:3] for item in visible]

    # -- the fixpoint --------------------------------------------------------

    def build(self, main: Term, name: str = "net") -> PTNet:
        m0 = dec(main, self.env, self.alloc)
        place_index: dict = {}
        order: list = []

        def register(p) -> bool:
            if p in place_index:
                return True
            if len(order) >= self.budget.max_places:
                return False
            place_index[p] = len(order)
            order.append(p)
            return True

        def admit(table: dict, key, used, label, produced) -> bool:
            """Register a transition's places and store it in table over
            place ids, as (firing rule, (pre, label, post)); False if a
            place does not fit."""
            if not all(register(p) for p in list(used) + list(produced)):
                return False
            pre = Counter({place_index[s]: n for s, n in used.items()})
            post = Counter({place_index[s]: n for s, n in produced.items()})
            table[key] = (firing_rule(pre, post), (pre, label, post))
            return True

        # register every initial place that fits; if one does not, the net
        # is truncated to those places with nothing explored
        fits = all([register(p) for p in m0])
        complete = fits
        transitions: dict = {}
        self.truncated = False
        last_seeds = None

        while fits:
            # ranking the places by `term_key` orders the rules' presets and
            # the seeds as `term_key` orders their multisets of terms
            rank = {i: r for r, i in enumerate(sorted(
                range(len(order)), key=lambda i: term_key(order[i])))}

            def by_rank(pairs) -> list:
                return sorted((rank[i], c) for i, c in pairs)

            ranked = sorted(transitions.values(), key=lambda entry: (
                by_rank(entry[0][0]), label_key(entry[1][1])))
            maximal, km_complete = self._coverability(
                tuple(m0[p] for p in order), [rule for rule, _ in ranked])
            complete = complete and km_complete
            # the seeds as sparse place-id vectors, compared as a set
            seeds = frozenset(tuple(compress(enumerate(v), v))
                              for v in maximal)
            known_places = len(order)
            if seeds == last_seeds:
                # the last round's seeds derive the last round's items, and
                # a round only ends without a cut when it admitted them all
                break
            last_seeds = seeds
            ordered = sorted(seeds, key=by_rank)
            top = [max(counts) for counts in zip(*maximal)]
            grew = False
            for used, label, produced in self._round_items(
                    [Counter({order[i]: c for i, c in seed})
                     for seed in ordered],
                    Counter({order[i]: c for i, c in enumerate(top) if c})):
                key = _item_key(used, label, produced)
                if key in transitions:
                    continue
                if len(transitions) >= self.budget.max_transitions:
                    complete = False
                    continue
                if not admit(transitions, key, used, label, produced):
                    complete = False
                    continue
                grew = True
            complete = complete and not self.truncated
            if not grew or not complete:
                break

        if (fits and not km_complete and len(order) == known_places
                and not self.truncated):
            # the structure stopped growing before the marking search could
            # saturate: decide enabledness exactly instead.  After a cut by
            # a place or transition cap alone the tree was complete, and
            # the fallback would meet the item that did not fit again
            fixed = self._backward_closure(m0, transitions, admit, order)
            if fixed is not None:
                transitions = fixed
                complete = True

        trans = sorted((t for _, t in transitions.values()),
                       key=lambda t: (marking_key(t[0]), label_key(t[1]),
                                      marking_key(t[2])))
        return PTNet(
            name=name,
            place_names=["s%d" % (i + 1) for i in range(len(order))],
            initial=Counter({place_index[s]: n for s, n in m0.items()
                             if s in place_index}),
            transitions=trans,
            complete=complete,
            place_terms=list(order),
        )

    def _coverability(self, vm0: tuple, rules: list) -> tuple:
        """Karp-Miller over place ids: the maximal (omega-)vectors coverable
        from vm0 under the firing rules, and whether the tree stayed within
        budget.  The rules' order is the tree's depth-first order, which
        decides what a budget cut keeps.

        A tree that completed without an acceleration holds exactly the
        markings reachable under its rules; it is kept for the next call.
        When vm0 extends its initial marking by zeros for the places
        registered since, and its rules are among these, that call extends
        it: its markings, padded with the same zeros, are the roots of the
        search and fire only the new rules, and the markings they reach
        fire all of them.  An extension that completes without an
        acceleration has reached exactly the markings reachable from vm0,
        as a fresh tree would.  One that accelerates (the new rules pump)
        or outgrows the budget is dropped for a fresh tree, whose maximal
        markings alone are canonical.  An extension that reaches no new
        marking confirms the kept tree in one enabledness test per marking
        and new rule.
        """
        n = len(vm0)
        fired = set(rules)
        last, self._tree = self._tree, None
        roots = {vm0: sum(1 << i for i, x in enumerate(vm0) if x)}
        fire, maximal = rules, [vm0]
        if last is not None:
            old_vm0, old_rules, markings, old_maximal = last
            pad = (0,) * (n - len(old_vm0))
            if vm0 == old_vm0 + pad and old_rules <= fired:
                # zeros for the new places leave each support as it was
                roots = {m + pad: marked for m, marked in markings.items()}
                maximal = [v + pad for v in old_maximal]
                fire = [rule for rule in rules if rule not in old_rules]
        # a kept tree over no rules is extended as a fresh tree is built
        extending = len(fire) < len(rules)
        # Nodes with equal (omega-)markings are merged globally, not only
        # along the current branch: the first occurrence explores every
        # continuation, and a pump loop that would have accelerated against
        # the merged-away ancestry re-fires concretely one level deeper and
        # accelerates there.  Without the merge, wide diamonds of
        # independent firings blow the tree up exponentially.  On bounded
        # nets no acceleration can fire, so this degenerates to an exact
        # reachability search.
        # A node is (marking, support, parent): the support bitmask of the
        # marked places rules out most ancestors without a full comparison.
        # The stack holds each node with the rules it has yet to fire; the
        # roots of an extension have no parent, so it sees fewer ancestors
        # than a fresh tree and may accelerate later, never wrongly.
        stack = [((m, marked, None), fire) for m, marked in roots.items()]
        seen = dict(roots)
        complete = exact = True
        while stack and (exact or not extending):
            if len(seen) > self.budget.max_states:
                complete = False
                break
            node, fire = stack.pop()
            marking, marked, _ = node
            for pre, delta in fire:
                if not _enabled(pre, marking):
                    continue
                nxt = list(marking)
                nmarked = marked
                for i, d in delta:
                    nxt[i] += d
                    if nxt[i]:
                        nmarked |= 1 << i
                    else:
                        nmarked &= ~(1 << i)
                # accelerate to a fixpoint against every ancestor
                changed = True
                while changed:
                    changed = False
                    anc = node
                    while anc is not None:
                        a = anc[0]
                        if not anc[1] & ~nmarked and all(map(le, a, nxt)):
                            for i in range(n):
                                if nxt[i] > a[i] and nxt[i] != OMEGA:
                                    nxt[i] = OMEGA
                                    changed = True
                                    exact = False
                        anc = anc[2]
                nxt = tuple(nxt)
                if nxt in seen:
                    continue
                seen[nxt] = nmarked
                stack.append(((nxt, nmarked, node), rules))
        if extending and not (complete and exact):
            return self._coverability(vm0, rules)
        if len(seen) > len(roots):
            # the roots' maximal markings cover every root
            maximal = antichain(maximal + list(seen)[len(roots):])
        if complete and exact:
            self._tree = (vm0, fired, seen, maximal)
        return maximal, complete

    def _backward_closure(self, m0: Counter, transitions: dict, admit,
                          order: list):
        """Exact enabledness for nets whose marking space defeats the
        forward search.

        Re-derives every candidate item against an unbounded seed, then
        keeps exactly those whose consumption is coverable from the initial
        marking.  Coverability is decided backwards -- pred-basis saturation
        terminates whether or not the net is bounded -- and iterated to a
        least fixpoint, since each kept transition unlocks markings that may
        enable further candidates.  Returns the new transition table, or
        None when a budget trips (the truncated forward result then stands).
        """
        known = dict.fromkeys(order)     # the places, in order
        cand: list = []
        # the state budget stopped the forward search; it bounds the
        # closure over the omega-seed too, which may otherwise run to the
        # item cap of the transition budget
        item_cap = min(self.item_cap, max(512, 4 * self.budget.max_states))
        for _ in range(64):
            seed = Counter({p: OMEGA for p in known})
            cand = [it for it in self.derive_items(seed, cap=item_cap)
                    if _label_visible(it[1])]
            if self.truncated:
                return None
            fresh = dict.fromkeys(p for _, _, produced in cand
                                  for p in sorted(produced, key=term_key)
                                  if p not in known)
            if not fresh:
                break
            if len(known) + len(fresh) > self.budget.max_places:
                return None
            known.update(fresh)
        else:
            return None

        def vec(m: Counter) -> tuple:
            return tuple(m[p] for p in known)

        vm0 = vec(m0)
        cap = self.budget.max_states

        def coverable(target, vt):
            if all(x <= y for x, y in zip(target, vm0)):
                return True
            basis = [target]
            queue = [target]
            adds = 0
            while queue:
                b = queue.pop()
                for pre, post in vt:
                    pb = tuple(p + (x - q if x > q else 0)
                               for p, x, q in zip(pre, b, post))
                    if any(all(x <= y for x, y in zip(o, pb))
                           for o in basis):
                        continue
                    if all(x <= y for x, y in zip(pb, vm0)):
                        return True
                    basis = [o for o in basis
                             if not all(x <= y for x, y in zip(pb, o))]
                    basis.append(pb)
                    queue.append(pb)
                    adds += 1
                    if adds > cap:
                        return None
            return False

        kept: dict = {}
        pending = cand
        while pending:
            vt = [(vec(used), vec(produced))
                  for used, _, produced in kept.values()]
            rest = []
            for used, label, produced in pending:
                verdict = coverable(vec(used), vt)
                if verdict is None:
                    return None
                if verdict:
                    kept[_item_key(used, label, produced)] = (
                        used, label, produced)
                else:
                    rest.append((used, label, produced))
            if len(rest) == len(pending):
                break
            pending = rest

        if len(kept) > self.budget.max_transitions:
            return None
        if any(key not in kept for key in transitions):
            # the forward search saw a transition the filter rejected; do
            # not emit a net missing observed behaviour
            return None
        table: dict = {}
        for key, (used, label, produced) in kept.items():
            if not admit(table, key, used, label, produced):
                return None
        return table


def build_net(program: Program, mode: SyncMode | None = None,
              budget: Budget = DEFAULT_BUDGET) -> PTNet:
    """The net of a program.  mode=None selects finite-net synchronization
    when the program lies in the finite-net fragment, general otherwise."""
    if mode is None:
        mode = auto_mode(program)
    return NetBuilder(program.env, mode, budget).build(program.main, program.name)


# ---------------------------------------------------------------------------
# net analyses


def _explore(net: PTNet, budget: Budget, visit=None):
    """`lts.explore` over the reachable markings of net, each a tuple of
    token counts in place order; visit(m, kept) sees them as such."""
    rules = [(firing_rule(pre, post), label)
             for pre, label, post in net.transitions]

    def successors(m: tuple) -> list:
        out = []
        for (pre, effect), label in rules:
            # `_enabled` inlined: the call, made for every rule at every
            # marking, costs more than the test
            for i, c in pre:
                if m[i] < c:
                    break
            else:
                nxt = list(m)
                for i, d in effect:
                    nxt[i] += d
                out.append((label, tuple(nxt)))
        return out

    m0 = tuple(net.initial.get(i, 0) for i in range(len(net.place_names)))
    return explore(m0, successors, budget.max_states, visit)


def marking_graph(net: PTNet, budget: Budget = DEFAULT_BUDGET) -> Lts:
    """Reachability graph: states are markings, edges are transition labels.
    It is complete only if its search and the net are: the graph of a
    truncated net lacks what the cut transitions reach."""
    keys, edges, complete = _explore(net, budget)
    states = [format_marking({i: n for i, n in enumerate(m) if n},
                             net.place_names) for m in keys]
    return Lts(states, edges, 0, complete and net.complete)


def is_reduced(net: PTNet, budget: Budget = DEFAULT_BUDGET) -> str:
    """'yes' / 'no' / 'unknown': every place marked in some reachable
    marking and every transition enabled at some reachable marking.  A
    truncated net may lack both places and transitions: 'unknown'."""
    if not net.complete:
        return "unknown"
    if any(not pre for pre, _, _ in net.transitions):
        return "no"
    places_left = set(range(len(net.place_names)))
    trans_left = set(range(len(net.transitions)))

    def visit(m, kept) -> bool:
        if kept:
            places_left.difference_update(i for i, n in enumerate(m) if n)
            trans_left.difference_update(
                [j for j in trans_left
                 if _enabled(net.transitions[j][0].items(), m)])
        return not places_left and not trans_left

    result = _explore(net, budget, visit)
    if result is None:
        return "yes"
    return "no" if result[2] else "unknown"


def is_safe(net: PTNet, budget: Budget = DEFAULT_BUDGET) -> str:
    """'yes' / 'no' / 'unknown': no reachable marking puts 2 tokens on a
    place.  A truncated net never answers 'yes': its cut may reach one."""
    result = _explore(net, budget, lambda m, kept: any(n > 1 for n in m))
    if result is None:
        return "no"
    return "yes" if result[2] and net.complete else "unknown"
