"""Independent reference implementations used only by the tests.

These are deliberately written in a different style from the library code
(tabulation instead of recursion, greatest-fixpoint shrinking instead of
partition refinement, exhaustive search instead of colour refinement) so
that agreement between the two is meaningful.
"""

from collections import Counter
from itertools import permutations

from multiccs import normalform
from multiccs.equiv import isomorphic
from multiccs.lts import DEFAULT_BUDGET, Lts
from multiccs.net2term import _encode, _sources
from multiccs.nets import OMEGA, NetBuilder, build_net, format_marking
from multiccs.sync import SyncMode, auto_mode
from multiccs.terms import (
    TAU_ACT, Const, Nil, Par, Prefix, Restrict, StrongPrefix, Sum,
)


def oracle_sync(s1, s2):
    """Every sequence the pair may synchronize to, tabulated over suffix
    pairs by a direct reading of the inference rules, one block per rule."""
    s1, s2 = tuple(s1), tuple(s2)
    n1, n2 = len(s1), len(s2)
    table = {}
    for i in range(n1, -1, -1):
        for j in range(n2, -1, -1):
            u, v = s1[i:], s2[j:]
            out = set()
            if u and v:
                a, b = u[0], v[0]
                heads_complement = (
                    not a.is_tau and not b.is_tau and a.complement() == b
                )
                # two complementary visible actions, alone, become silent
                if heads_complement and len(u) == 1 and len(v) == 1:
                    out.add((TAU_ACT,))
                # a singleton cancels the other operand's head, leaving the
                # (non-empty) continuation of that operand
                if heads_complement and len(v) == 1 and len(u) > 1:
                    out.add(u[1:])
                if heads_complement and len(u) == 1 and len(v) > 1:
                    out.add(v[1:])
                # both heads cancel and the continuations synchronize
                if heads_complement:
                    out |= table[i + 1, j + 1]
                # a visible head may instead be kept in front of a result
                if not a.is_tau:
                    out |= {(a,) + r for r in table[i + 1, j]}
                if not b.is_tau:
                    out |= {(b,) + r for r in table[i, j + 1]}
                # a leading silent action is dropped
                if a.is_tau:
                    out |= table[i + 1, j]
                if b.is_tau:
                    out |= table[i, j + 1]
            table[i, j] = frozenset(out)
    return table[0, 0]


def naive_bisimilar(lts1, lts2) -> bool:
    """Greatest-fixpoint bisimilarity: start from the full relation and
    delete pairs that violate the transfer property until stable.

    Quadratic in the state count; only for small graphs.
    """
    succ1 = _succ(lts1)
    succ2 = _succ(lts2)
    rel = {(s, t) for s in range(len(lts1.states)) for t in range(len(lts2.states))}
    changed = True
    while changed:
        changed = False
        for s, t in list(rel):
            if not _transfers(succ1[s], succ2[t], rel, False) or not _transfers(
                succ2[t], succ1[s], rel, True
            ):
                rel.discard((s, t))
                changed = True
    return (lts1.initial, lts2.initial) in rel


def _succ(lts):
    table = {i: [] for i in range(len(lts.states))}
    for src, label, dst in lts.transitions:
        table[src].append((label, dst))
    return table


def _transfers(moves_a, moves_b, rel, flipped):
    for label, dst_a in moves_a:
        for lab_b, dst_b in moves_b:
            if lab_b == label:
                pair = (dst_b, dst_a) if flipped else (dst_a, dst_b)
                if pair in rel:
                    break
        else:
            return False
    return True


def brute_isomorphic(n1, n2) -> bool:
    """Net isomorphism by trying every place bijection: one must carry the
    initial marking and the multiset of transitions of n1 onto n2's.

    Factorial in the place count; only for nets of at most 6 places.
    """
    n = len(n1.place_names)
    if n != len(n2.place_names) or len(n1.transitions) != len(n2.transitions):
        return False
    assert n <= 6, "brute_isomorphic is for small nets"

    def shape(net, perm):
        def moved(m):
            return frozenset((perm[s], w) for s, w in m.items() if w)
        return moved(net.initial), Counter(
            (moved(pre), tuple(str(a) for a in lab), moved(post))
            for pre, lab, post in net.transitions)

    goal = shape(n2, range(n))
    return any(shape(n1, perm) == goal for perm in permutations(range(n)))


def brute_antichain(vectors) -> set:
    """The maximal vectors, each checked against every other one."""
    vs = set(vectors)
    return {v for v in vs
            if not any(o != v and all(x <= y for x, y in zip(v, o))
                       for o in vs)}


class PerSeedNetBuilder(NetBuilder):
    """The net fixpoint with one closure per maximal marking (the shared
    round closure must emit exactly what these per-seed closures emit),
    over a dense Karp-Miller tree whose maximal markings come from a
    pairwise scan."""

    def _round_items(self, seeds, join):
        out = []
        for seed in seeds:
            for used, label, produced in self.derive_items(seed):
                if not any(a.is_restricted for a in label):
                    out.append((used, label, produced))
        return out

    def _coverability(self, vm0, rules):
        n = len(vm0)

        def dense(pairs):
            v = [0] * n
            for i, c in pairs:
                v[i] = c
            return v

        vtlist = []
        for pre, effect in rules:
            vpre = dense(pre)
            vtlist.append((vpre, [p + d for p, d in zip(vpre, dense(effect))]))
        complete = True
        seen = {vm0}
        order = [vm0]
        stack = [(vm0, None)]
        while stack:
            if len(seen) > self.budget.max_states:
                complete = False
                break
            marking, parent = stack.pop()
            for pre, post in vtlist:
                if any(p > m for p, m in zip(pre, marking)):
                    continue
                nxt = [m - p + q for m, p, q in zip(marking, pre, post)]
                changed = True
                while changed:
                    changed = False
                    anc = (marking, parent)
                    while anc is not None:
                        a = anc[0]
                        if all(x <= y for x, y in zip(a, nxt)):
                            for i in range(n):
                                if nxt[i] > a[i] and nxt[i] != OMEGA:
                                    nxt[i] = OMEGA
                                    changed = True
                        anc = anc[1]
                nxt = tuple(nxt)
                if nxt in seen:
                    continue
                seen.add(nxt)
                order.append(nxt)
                stack.append((nxt, (marking, parent)))
        return list(brute_antichain(order)), complete


def karp_miller_tree(net, max_nodes: int):
    """The maximal (omega-)markings of the classic Karp-Miller tree of a
    net, or None when the tree grows past max_nodes nodes.

    Nothing is merged across branches: a node is a leaf exactly when an
    ancestor on its own branch carries the same marking.  A new marking
    strictly above an ancestor on its branch takes omega wherever it
    exceeds that ancestor, in one pass over the branch from the root."""
    n = len(net.place_names)
    arcs = [([pre.get(i, 0) for i in range(n)],
             [post.get(i, 0) for i in range(n)])
            for pre, _, post in net.transitions]
    root = tuple(net.initial.get(i, 0) for i in range(n))
    labels = [root]
    stack = [(root,)]   # the branch from the root to a node
    while stack:
        branch = stack.pop()
        marking = branch[-1]
        if marking in branch[:-1]:
            continue
        for pre, post in arcs:
            if any(p > m for p, m in zip(pre, marking)):
                continue
            nxt = tuple(m - p + q for m, p, q in zip(marking, pre, post))
            for anc in branch:
                if anc != nxt and all(a <= x for a, x in zip(anc, nxt)):
                    nxt = tuple(OMEGA if x > a else x
                                for a, x in zip(anc, nxt))
            labels.append(nxt)
            if len(labels) > max_nodes:
                return None
            stack.append(branch + (nxt,))
    return brute_antichain(labels)


def per_seed_build_net(program, mode=None, budget=DEFAULT_BUDGET):
    """`build_net` through `PerSeedNetBuilder`."""
    if mode is None:
        mode = auto_mode(program)
    builder = PerSeedNetBuilder(program.env, mode, budget)
    return builder.build(program.main, program.name)


def multi_source(net) -> bool:
    """Whether some transition of `net` has two or more offering places."""
    return any(len(_sources(pre)) >= 2 for pre, _, _ in net.transitions)


def _rebuilds_exactly(net, prog) -> bool:
    """Whether the net of `prog` is complete and isomorphic to `net`."""
    rebuilt = build_net(prog, mode=SyncMode.FINITE_NET)
    return rebuilt.complete and isomorphic(net, rebuilt).found


def rebuild_translate(net, name=None):
    """`translate` choosing its channel encoding by rebuilding alone: the
    shared channel, unless some transition has two offering places and
    the net of the shared program is not isomorphic to `net`."""
    name = name if name is not None else net.name
    prog = _encode(net, name, pinned=False)
    if multi_source(net) and not _rebuilds_exactly(net, prog):
        prog = _encode(net, name, pinned=True)
    return prog


def full_render_assign(binders, comps, scope, depth, gen) -> dict:
    """The binder colouring of one region, every rendering in full: a
    binder's signature renders every component of the region with that
    binder as ("t",) and the others as their colours, and the swap test
    of individualization renders the whole region twice.
    `normalform._assign` must give the same colouring by re-rendering only
    the components each binder mentions.  The oracle refines with its own
    loop, which confirms every fixpoint with one more round, so a wrong
    early stop in `normalform._refine` shows as a difference."""
    def render(tokens):
        return normalform._render(tokens, comps, scope, depth, gen)

    def signatures(colors):
        return {b: render({b2: ("v", depth, ("t",) if b2 == b
                                else ("c", colors[b2])) for b2 in binders})
                for b in binders}

    def resolve(colors):
        classes = {}
        for b in binders:
            classes.setdefault(colors[b], []).append(b)
        ambiguous = [c for c in sorted(classes) if len(classes[c]) > 1]
        if not ambiguous:
            return colors
        ids = {b: ("v", depth, ("u", i)) for i, b in enumerate(binders)}
        plain = render(ids)
        fresh = max(colors.values()) + 1
        best = best_key = None
        tried = []
        for b in classes[ambiguous[0]]:
            if any(render({**ids, a: ids[b], b: ids[a]}) == plain
                   for a in tried):
                continue
            tried.append(b)
            cand = resolve(refine({**colors, b: fresh}))
            key = render({b2: ("v", depth, ("c", cand[b2]))
                          for b2 in binders})
            if best_key is None or key < best_key:
                best, best_key = cand, key
        return best

    def refine(colors):
        # rank by (colour, signature) until a round changes no rank
        while True:
            sigs = signatures(colors)
            pairs = sorted(set((colors[b], sigs[b]) for b in binders))
            new = {b: pairs.index((colors[b], sigs[b])) for b in binders}
            if new == colors:
                return colors
            colors = new

    return resolve(refine({b: 0 for b in binders}))


def full_scan_marking_graph(net, budget=DEFAULT_BUDGET) -> Lts:
    """The marking graph by a plain breadth-first search that tests every
    transition, in transition order, at every marking."""
    n = len(net.place_names)
    start = tuple(net.initial.get(i, 0) for i in range(n))
    index = {start: 0}
    frontier = [start]
    edges = {}
    complete = True
    while frontier:
        later = []
        for m in frontier:
            for pre, label, post in net.transitions:
                if any(m[i] < c for i, c in pre.items()):
                    continue
                nxt = tuple(m[i] - pre.get(i, 0) + post.get(i, 0)
                            for i in range(n))
                if nxt not in index:
                    if len(index) >= budget.max_states:
                        complete = False
                        continue
                    index[nxt] = len(index)
                    later.append(nxt)
                edges[index[m], label, index[nxt]] = None
        frontier = later
    states = [format_marking({i: c for i, c in enumerate(m) if c},
                             net.place_names) for m in index]
    return Lts(states, list(edges), 0, complete)


def recursive_free(t, env) -> frozenset:
    """The free names of t by structural recursion; the free names of the
    constants are tabulated first, by re-reading every definition until no
    entry grows (the least fixpoint)."""
    table = {name: frozenset() for name in env.defs}
    grown = True
    while grown:
        grown = False
        for name, body in env.defs.items():
            names = _recursive_free(body, table)
            if names != table[name]:
                table[name], grown = names, True
    return _recursive_free(t, table)


def _recursive_free(t, table) -> frozenset:
    if isinstance(t, Nil):
        return frozenset()
    if isinstance(t, (Prefix, StrongPrefix)):
        own = frozenset() if t.action.is_tau else {t.action.name}
        return _recursive_free(t.body, table) | own
    if isinstance(t, (Sum, Par)):
        return _recursive_free(t.left, table) | _recursive_free(t.right, table)
    if isinstance(t, Restrict):
        return _recursive_free(t.body, table) - {t.name}
    assert isinstance(t, Const)
    renaming = dict(t.renaming)
    return frozenset(renaming.get(n, n) for n in table[t.name])
