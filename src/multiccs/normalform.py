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
  "§%d"  unique temporaries of one `NameGen`: while canonicalizing, and
         the binders of the target terms a `lts.StepEngine` assembles
         (never in a normal form; substitution alpha-converts any clash
         between the two),
  "ν%d"  canonical names bound at the top of a normal form,
  "β%d"  canonical bound names inside a component.

Binder naming may not depend on the order in which binders are written
(scope manipulation permutes it), so each region names its binders by
iterated signature refinement over the region's component multiset;
remaining symmetric groups are split by individualization, keeping the
assignment that renders the least skeleton.  Individualization skips a
candidate when swapping it with an already tried one maps the region onto
itself: that swap is an automorphism, so both branches render the same
skeletons.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    Const, Env, Nil, Par, Prefix, Restrict, StrongPrefix, Sum,
    Term, format_term, free_names, par_fold, subst_map, substitute,
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
        return format_term(self.to_term())

    def __str__(self):
        return self.key()


class NameGen:
    """Temporary names, free-name and skeleton memos: one per
    normalization, or one for the lifetime of a `lts.StepEngine`."""

    def __init__(self, env: Env, strict: bool):
        self.env = env
        self.strict = strict
        self.n = 0
        self.memo: dict = {}
        self._fns: dict = {}

    def fresh(self) -> str:
        self.n += 1
        return "§%d" % self.n

    def fns(self, t: Term) -> frozenset:
        hit = self._fns.get(t)
        if hit is None:
            hit = free_names(t, self.env)
            self._fns[t] = hit
        return hit


def normalize(t: Term, env: Env, strict: bool = False) -> NormalForm:
    gen = NameGen(env, strict)
    names, comps = _canon_region(t, {}, 0, gen, top=True)
    return NormalForm(tuple(names), tuple(comps))


def component_order(c: Term, env: Env, strict: bool = False):
    """Sort key of a component at the top of a normal form without
    restrictions: `normalize` lists such components in increasing order
    of it, and distinct canonical components have distinct keys."""
    return _skel(c, {}, 1, NameGen(env, strict))


# ---------------------------------------------------------------------------
# region handling
#
# A region is a maximal parallel composition with its restrictions, not
# crossing any prefix.  Splitting renames every binder to a unique
# temporary so no shadowing survives into later passes.


def split_region(t: Term, gen: NameGen):
    """The binders and components of the region t: restrictions are opened
    with fresh temporaries, parallel compositions flattened, and (unless
    gen.strict) 0 components and unused restrictions dropped."""
    binders: list = []
    comps: list = []

    def walk(u: Term):
        if isinstance(u, Par):
            walk(u.left)
            walk(u.right)
        elif isinstance(u, Restrict):
            if not gen.strict and u.name not in gen.fns(u.body):
                walk(u.body)
                return
            tmp = gen.fresh()
            binders.append(tmp)
            walk(substitute(u.body, u.name, tmp, gen.env))
        elif isinstance(u, Nil):
            if gen.strict:
                comps.append(u)
        else:
            comps.append(u)

    walk(t)
    return binders, comps


def _canon_region(t: Term, scope: dict, depth: int, gen: NameGen,
                  top: bool = False, counter=None):
    """Canonical (binder names, component terms) of one region.

    scope maps every enclosing bound name to its canonical token; depth
    is the region nesting level (tokens from different levels must not
    collide)."""
    binders, comps = split_region(t, gen)
    names: list = []
    if binders:
        coloring = _assign(binders, comps, scope, depth, gen)
        order = sorted(binders, key=lambda b: coloring[b])
        scope = dict(scope)
        mapping = {}
        for i, b in enumerate(order):
            name = NU + str(i + 1) if top else BETA + str(counter.next())
            names.append(name)
            mapping[b] = name
            scope[name] = ("v", depth, ("c", coloring[b]))
        comps = [subst_map(c, mapping, gen.env) for c in comps]
    keyed = sorted(
        ((_skel(c, scope, depth + 1, gen), i) for i, c in enumerate(comps)))
    out = []
    for _, i in keyed:
        c = comps[i]
        ctr = _Counter() if top else counter
        out.append(_canon_component(c, scope, depth + 1, gen, ctr))
    return names, out


def _canon_component(t: Term, scope: dict, depth: int, gen: NameGen, counter):
    if isinstance(t, (Nil, Const)):
        return t
    if isinstance(t, (Prefix, StrongPrefix)):
        return type(t)(t.action,
                       _region_term(t.body, scope, depth, gen, counter))
    if isinstance(t, Sum):
        return Sum(_canon_component(t.left, scope, depth, gen, counter),
                   _canon_component(t.right, scope, depth, gen, counter))
    raise TypeError("not a region component: %r" % (t,))


def _region_term(t: Term, scope: dict, depth: int, gen: NameGen,
                 counter) -> Term:
    names, comps = _canon_region(t, scope, depth, gen, counter=counter)
    return NormalForm(tuple(names), tuple(comps)).to_term()


class _Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def next(self) -> int:
        self.n += 1
        return self.n


# ---------------------------------------------------------------------------
# skeletons: complete structural descriptions with names translated to
# scope tokens, so that equal skeletons mean equal canonical terms


def _slot(name: str, scope: dict):
    return scope.get(name, ("f", name))


def _skel(t: Term, scope: dict, depth: int, gen: NameGen):
    key = (t, depth,
           tuple(sorted((n, v) for n, v in scope.items() if n in gen.fns(t))))
    hit = gen.memo.get(key)
    if hit is None:
        hit = _skel_raw(t, scope, depth, gen)
        gen.memo[key] = hit
    return hit


def _skel_raw(t: Term, scope: dict, depth: int, gen: NameGen):
    if isinstance(t, Nil):
        return (0,)
    if isinstance(t, (Prefix, StrongPrefix)):
        tag = 1 if isinstance(t, Prefix) else 2
        a = t.action
        if a.is_tau:
            akey = (0, ("f", ""))
        else:
            akey = (1 if a.kind == "in" else 2, _slot(a.name, scope))
        return (tag, akey, _skel_region(t.body, scope, depth, gen))
    if isinstance(t, Sum):
        return (3, _skel(t.left, scope, depth, gen),
                _skel(t.right, scope, depth, gen))
    if isinstance(t, Const):
        pairs = tuple(sorted((old, _slot(new, scope))
                             for old, new in t.renaming))
        return (6, t.name, pairs)
    raise TypeError("not a region component: %r" % (t,))


def _skel_region(t: Term, scope: dict, depth: int, gen: NameGen):
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
    colors = _refine({b: 0 for b in binders}, binders, comps, scope, depth, gen)
    return _resolve(colors, binders, comps, scope, depth, gen)


def _render(tokens: dict, comps: list, scope: dict, depth: int,
            gen: NameGen) -> tuple:
    """Sorted skeletons of comps with the region's binders read as tokens."""
    trial = dict(scope)
    trial.update(tokens)
    return tuple(sorted(_skel(c, trial, depth + 1, gen) for c in comps))


def _sig(b: str, colors: dict, binders: list, comps: list, scope: dict,
         depth: int, gen: NameGen):
    return _render({b2: ("v", depth, ("t",) if b2 == b else ("c", colors[b2]))
                    for b2 in binders}, comps, scope, depth, gen)


def _refine(colors: dict, binders: list, comps: list, scope: dict,
            depth: int, gen: NameGen) -> dict:
    while True:
        sigs = {b: _sig(b, colors, binders, comps, scope, depth, gen)
                for b in binders}
        ordered = sorted({(colors[b], sigs[b]) for b in binders})
        rank = {cs: i for i, cs in enumerate(ordered)}
        new = {b: rank[(colors[b], sigs[b])] for b in binders}
        if new == colors:
            return colors
        colors = new


def _resolve(colors: dict, binders: list, comps: list, scope: dict,
             depth: int, gen: NameGen) -> dict:
    classes: dict = {}
    for b in binders:
        classes.setdefault(colors[b], []).append(b)
    ambiguous = [c for c in sorted(classes) if len(classes[c]) > 1]
    if not ambiguous:
        return colors
    # Swapping two binders of one class that maps the components onto
    # themselves is an automorphism fixing the colouring: both branches
    # render the same keys, so only the first is searched.
    ids = {b: ("v", depth, ("u", i)) for i, b in enumerate(binders)}
    plain = _render(ids, comps, scope, depth, gen)
    fresh = max(colors.values()) + 1
    best = best_key = None
    tried: list = []
    for b in classes[ambiguous[0]]:
        if any(_render({**ids, a: ids[b], b: ids[a]}, comps, scope, depth,
                       gen) == plain for a in tried):
            continue
        tried.append(b)
        trial = dict(colors)
        trial[b] = fresh
        cand = _resolve(_refine(trial, binders, comps, scope, depth, gen),
                        binders, comps, scope, depth, gen)
        key = _render({b2: ("v", depth, ("c", cand[b2])) for b2 in binders},
                      comps, scope, depth, gen)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best
