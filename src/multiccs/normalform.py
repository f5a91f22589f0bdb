"""Canonical parallel normal forms.

A normal form is  new(r1, ..., rk) (c1 | ... | cn)  where the ci are
sequential processes or constant occurrences and the ri are canonically
numbered bound names.  Terms that differ by parallel associativity or
commutativity, by restriction scope, or by renaming of bound names map to
the same normal form, which is what makes normal forms usable as state
keys.  The quotient applies at every depth: a prefix body is canonicalized
the same way as the whole term, it just cannot extrude its restrictions
past the prefix.

By default 0 components and restrictions of unused names are dropped as
well; all of the above changes the term at most up to strong bisimilarity.
strict=True keeps dead components and unused restrictions.

Name families (all disjoint from parseable names):
  "a#%d"  unique temporaries of a program's normalization context, drawn
          from the generated family of `terms.FreshAllocator`: while
          canonicalizing, and the binders of the target terms a
          `lts.StepEngine` assembles (never in a normal form;
          substitution alpha-converts any clash between the two),
  "ν%d"   canonical names bound at the top of a normal form, which a
          state's split keeps (`split_region`) where they capture nothing,
  "β%d"   canonical bound names inside a component.

Binder naming may not depend on the order in which binders are written
(scope manipulation permutes it), so each region names its binders by
iterated signature refinement over the region's component multiset;
remaining symmetric groups are split by individualization, keeping the
assignment that renders the least skeleton.  Individualization skips a
candidate when swapping it with an already tried one maps the region onto
itself: that swap is an automorphism, so both branches render the same
skeletons.

A binder's signature is the sorted skeletons of all of the region's
components, with that binder read as a token of its own.  Only the
components that mention the binder depend on it, so each region keeps a
touched index from binder to those components: a refinement round renders
every component once under the colours, and each signature patches that
sorted rendering (delete and re-insert) at the binder's own components.
The signature is still the whole sorted tuple; narrowing it to the
touched components would reorder colours.  The swap test likewise
re-renders only the components that mention one of the two binders.
A region is opened by `terms.region`, the walk `nets.dec` takes too.

Refinement and individualization stop where nothing can change.  A
binder that no component mentions (only strict mode keeps one) is inert:
all inert binders share one signature, so they never split from one
another.  Refinement returns once every class is a singleton or inert
only, without the round that would confirm the fixpoint.  A tied class
of inert binders takes fresh colours in class order in one level, as
one level per binder would give them; and a level of the search that
tries one candidate does not render it.  The colours, and so the keys,
are those of the unpruned search.

A program's `Env` keeps one `NameGen` per mode (`context`), which
`normalize`, `component_order` and `lts.StepEngine` read: each region is
canonicalized once per program and mode.  Its skeleton depends only on
its unopened body, depth and the tokens of its free names; `_skel`
memoizes it under those before opening the body (once per context, so
nested regions stay the same terms).  It holds every binder's final
colour, so `normalize` reads the canonical term off the whole term's
skeleton (`_term_of`) instead of renaming and sorting each region again.
`equiv` colours net places with `_refine`.  `equiv.bisimilar` keeps its
own refinement loop: it records every round's blocks for its
distinguishing formulas, and numbers blocks in first-seen order rather
than sorting every state's signature.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import count
from weakref import ref

from .terms import (
    NIL, TAU_ACT, Const, Env, FreshAllocator, Nil, Prefix, Restrict,
    StrongPrefix, Sum, Term, act_in, act_out, format_term, free_names,
    par_fold, region,
)

NU = "ν"
BETA = "β"


@dataclass(frozen=True)
class NormalForm:
    restricted: tuple
    components: tuple

    def to_term(self) -> Term:
        body = par_fold(self.components)
        for name in reversed(self.restricted):
            body = Restrict(name, body)
        return body

    def key(self) -> str:
        return format_state(self.restricted, map(format_term, self.components))

    def __str__(self):
        return self.key()


def format_state(restricted, texts) -> str:
    """`format_term(nf.to_term())` from the printed components of nf: a
    component prints the same at the top as under |."""
    body = " | ".join(texts) or "0"
    return "new(%s) %s" % (", ".join(restricted), body) if restricted else body


class NameGen(FreshAllocator):
    """Temporary names; free-name, split and skeleton memos of one env."""

    def __init__(self, env: Env, strict: bool):
        super().__init__()
        self.env = ref(env)     # weak: env keeps its contexts (`context`)
        self.strict = strict
        self.memo: dict = {}
        self._fns: dict = {}
        self.splits: dict = {}

    def fns(self, t: Term) -> tuple:
        """The free names of t, sorted."""
        hit = self._fns.get(t)
        if hit is None:
            hit = self._fns[t] = tuple(sorted(free_names(t, self.env())))
        return hit


def context(env: Env, strict: bool) -> NameGen:
    """The one normalization context of env in mode strict, kept by env."""
    if strict not in env._contexts:
        env._contexts[strict] = NameGen(env, strict)
    return env._contexts[strict]


def normalize(t: Term, env: Env, strict: bool = False) -> NormalForm:
    _, n, skels = _skel_region(t, {}, 0, context(env, strict))
    names = tuple(NU + str(k + 1) for k in range(n))
    tokens = {("v", 0, ("c", k)): name for k, name in enumerate(names)}
    return NormalForm(names, tuple(_term_of(c, tokens, 1, count(1))
                                   for c in skels))


def component_order(c: Term, env: Env, strict: bool = False):
    """Sort key of a component at the top of a normal form without
    restrictions: `normalize` lists such components in increasing order
    of it, and distinct canonical components have distinct keys."""
    return _skel(c, {}, 1, context(env, strict))


# ---------------------------------------------------------------------------
# region handling
#
# A region is a maximal parallel composition with its restrictions, not
# crossing any prefix.  Splitting renames every binder to a unique
# temporary so no shadowing survives into later passes; a `ν` binder that
# can keep its name without shadowing or capturing one keeps it.


def split_region(t: Term, gen: NameGen):
    """The binders and components of the region t, walked by
    `terms.region`: restrictions are opened with fresh temporaries,
    parallel compositions flattened, and (unless gen.strict) 0 components
    and unused restrictions dropped; once per gen.  A `ν` binder keeps its
    name if no earlier binder of the region has it and it is not free in
    t, so a state's own binders are not substituted through its body."""
    if t in gen.splits:
        return gen.splits[t]

    def fresh(name, body):
        if not gen.strict and name not in gen.fns(body):
            return None
        keep = name.startswith(NU) and name not in binders
        return name if keep and name not in gen.fns(t) else gen.fresh(name)

    binders: list = []
    comps = [u for u in region(t, gen.env(), fresh, binders)
             if gen.strict or not isinstance(u, Nil)]
    hit = gen.splits[t] = binders, comps
    return hit


# ---------------------------------------------------------------------------
# skeletons: complete structural descriptions with names translated to
# scope tokens, so that equal skeletons mean equal canonical terms


def _slot(name: str, scope: dict):
    return scope.get(name, ("f", name))


def _skel(t: Term, scope: dict, depth: int, gen: NameGen):
    if isinstance(t, Nil):
        return (0,)
    if isinstance(t, (Prefix, StrongPrefix)):
        tag = 1 if isinstance(t, Prefix) else 2
        a = t.action
        if a.is_tau:
            akey = (0, ("f", ""))
        else:
            akey = (1 if a.kind == "in" else 2, _slot(a.name, scope))
        key = (t.body, depth,
               tuple((n, scope[n]) for n in gen.fns(t.body) if n in scope))
        body = gen.memo.get(key)
        if body is None:
            body = gen.memo[key] = _skel_region(t.body, scope, depth, gen)
        return (tag, akey, body)
    if isinstance(t, Sum):     # the left spine in a loop, nested as written
        rights = []
        while isinstance(t, Sum):
            rights.append(t.right)
            t = t.left
        skel = _skel(t, scope, depth, gen)
        for u in reversed(rights):
            skel = (3, skel, _skel(u, scope, depth, gen))
        return skel
    if isinstance(t, Const):
        pairs = tuple(sorted((old, _slot(new, scope))
                             for old, new in t.renaming))
        return (6, t.name, pairs)
    raise TypeError("not a region component: %r" % (t,))


def _term_of(skel: tuple, tokens: dict, depth: int, counter) -> Term:
    """The canonical component a skeleton at `depth` describes.  tokens
    names the binder tokens in scope; counter numbers the β binders of
    one top-level component: a region numbers its binders in colour order,
    then its components in skeleton order, a sum left before right."""
    tag = skel[0]
    if tag == 0:
        return NIL
    if tag == 3:
        rights = []
        while skel[0] == 3:
            rights.append(skel[2])
            skel = skel[1]
        t = _term_of(skel, tokens, depth, counter)
        for u in reversed(rights):
            t = Sum(t, _term_of(u, tokens, depth, counter))
        return t
    if tag == 6:
        return Const(skel[1], tuple((old, _name(slot, tokens))
                                    for old, slot in skel[2]))
    _, (kind, slot), (_, n, comps) = skel
    names = tuple(BETA + str(next(counter)) for _ in range(n))
    inner = dict(tokens)
    inner.update({("v", depth, ("c", k)): b for k, b in enumerate(names)})
    body = NormalForm(names, tuple(_term_of(c, inner, depth + 1, counter)
                                   for c in comps)).to_term()
    action = (TAU_ACT if kind == 0 else
              (act_in if kind == 1 else act_out)(_name(slot, tokens)))
    return (Prefix if tag == 1 else StrongPrefix)(action, body)


def _name(slot: tuple, tokens: dict) -> str:
    return slot[1] if slot[0] == "f" else tokens[slot]


def _skel_region(t: Term, scope: dict, depth: int, gen: NameGen):
    """(7, binder count, sorted component skeletons) of the region t.
    scope maps every enclosing bound name to its token; depth is the
    region's nesting level, so tokens of different levels never collide."""
    binders, comps = split_region(t, gen)
    if binders:
        coloring = _assign(binders, comps, scope, depth, gen)
        scope = dict(scope)
        for b in binders:
            scope[b] = ("v", depth, ("c", coloring[b]))
    return (7, len(binders),
            tuple(sorted(_skel(c, scope, depth + 1, gen) for c in comps)))


# ---------------------------------------------------------------------------
# canonical binder coloring within one region


def _assign(binders: list, comps: list, scope: dict, depth: int,
            gen: NameGen) -> dict:
    # touched[b]: the indices of the components that mention binder b;
    # no other component's skeleton depends on b's token
    touched: dict = {b: [] for b in binders}
    for i, c in enumerate(comps):
        for n in gen.fns(c):
            if n in touched:
                touched[n].append(i)

    def signatures(colors):
        # a binder's signature is every component rendered with the binder
        # as ("t",) and the others as their colours, sorted: patch the
        # all-colours rendering at the components the binder touches
        tokens = {b: ("v", depth, ("c", colors[b])) for b in binders}
        trial = {**scope, **tokens}
        base = [_skel(c, trial, depth + 1, gen) for c in comps]
        ordered = sorted(base)
        sigs = {}
        for b in binders:
            trial[b] = ("v", depth, ("t",))
            sig = list(ordered)
            for i in touched[b]:
                del sig[bisect_left(sig, base[i])]
                insort(sig, _skel(comps[i], trial, depth + 1, gen))
            trial[b] = tokens[b]
            sigs[b] = tuple(sig)
        return sigs

    # binders no component mentions: refinement never splits them
    inert = {b for b in binders if not touched[b]}

    def refine(colors):
        return _refine(colors, signatures, inert)

    return _resolve(refine({b: 0 for b in binders}), refine, touched, comps,
                    scope, depth, gen)


def _render(tokens: dict, comps: list, scope: dict, depth: int,
            gen: NameGen) -> tuple:
    """Sorted skeletons of comps with the region's binders read as tokens."""
    trial = dict(scope)
    trial.update(tokens)
    return tuple(sorted(_skel(c, trial, depth + 1, gen) for c in comps))


def _refine(colors: dict, signatures, inert=frozenset()) -> dict:
    """Iterated signature refinement, shared with `equiv`: rank every
    member by (colour, signature) in sorted order until the ranks repeat.
    signatures(colors) gives every member's signature under colors.
    inert members all have one signature under any colours.  Once the
    colours are dense ranks and every class is a singleton or inert only,
    the next round would rank every member by its colour alone, so the
    loop returns without that confirming round."""
    while not _settled(colors, inert):
        sigs = signatures(colors)
        ordered = sorted({(colors[m], sigs[m]) for m in colors})
        rank = {cs: i for i, cs in enumerate(ordered)}
        new = {m: rank[(colors[m], sigs[m])] for m in colors}
        if new == colors:
            return colors
        colors = new
    return colors


def _settled(colors: dict, inert) -> bool:
    """Whether colors are the ranks 0..n-1 and every class of two or more
    members holds inert members only."""
    only_inert: dict = {}
    for m, c in colors.items():
        if c in only_inert:
            if not (only_inert[c] and m in inert):
                return False
        else:
            only_inert[c] = m in inert
    return only_inert.keys() == set(range(len(only_inert)))


def _resolve(colors: dict, refine, touched: dict, comps: list,
             scope: dict, depth: int, gen: NameGen) -> dict:
    """Individualize the first tied class of binders, keeping the colouring
    that renders the least skeleton.  refine refines a colouring; touched
    maps each binder to the indices of the components that mention it.
    A level that tries one candidate only returns its colouring without
    rendering it."""
    binders = list(touched)
    classes: dict = {}
    for b in binders:
        classes.setdefault(colors[b], []).append(b)
    ambiguous = [c for c in sorted(classes) if len(classes[c]) > 1]
    if not ambiguous:
        return colors
    first = classes[ambiguous[0]]
    fresh = max(colors.values()) + 1
    if not any(touched[b] for b in first):
        # any two inert binders swap automorphically, so each level would
        # try only its first member, at the next fresh colour
        colors = dict(colors)
        colors.update((b, fresh + i) for i, b in enumerate(first[:-1]))
        return _resolve(refine(colors), refine, touched, comps, scope, depth,
                        gen)
    # Swapping two binders of one class that maps the components onto
    # themselves is an automorphism fixing the colouring: both branches
    # render the same keys, so only the first is searched.  The swap
    # changes only the components that mention a or b.
    trial = {**scope}
    trial.update((b, ("v", depth, ("u", i))) for i, b in enumerate(binders))

    def automorphic(a, b) -> bool:
        near = set(touched[a]).union(touched[b])
        plain = sorted(_skel(comps[i], trial, depth + 1, gen) for i in near)
        trial[a], trial[b] = trial[b], trial[a]
        swapped = sorted(_skel(comps[i], trial, depth + 1, gen) for i in near)
        trial[a], trial[b] = trial[b], trial[a]
        return swapped == plain

    tried: list = []
    for b in first:
        if not any(automorphic(a, b) for a in tried):
            tried.append(b)
    cands = [_resolve(refine({**colors, b: fresh}), refine, touched, comps,
                      scope, depth, gen) for b in tried]
    if len(cands) == 1:
        return cands[0]
    return min(cands, key=lambda cand: _render(
        {b: ("v", depth, ("c", cand[b])) for b in binders},
        comps, scope, depth, gen))
