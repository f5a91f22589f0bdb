"""Core syntax of Multi-CCS: actions, terms, constant environments.

Terms are immutable and hashable.  A process is a pair (Env, Term): the
environment maps constant names to defining bodies, the term is the main
process.  Action names live in two disjoint namespaces: user-written names
(lowercase identifiers) and generated names, which contain '#' and come
from one `FreshAllocator`: the net decomposition opens a restriction with
one (a restricted name), and region splitting in `normalform` renames a
binder to one (a temporary), both through one walk, `region`.
Substitution's capture-avoiding rename picks a name of the same form.  The
canonical bound names of normal forms form a third family of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class MccsError(Exception):
    pass


class UndefinedConstantError(MccsError):
    pass


class GuardednessError(MccsError):
    """Raised when constant unfolding fails to reach a normal prefix."""


# ---------------------------------------------------------------------------
# actions

IN = "in"
OUT = "out"
TAU = "tau"

_KIND_RANK = {TAU: 0, IN: 1, OUT: 2}


@dataclass(frozen=True)
class Action:
    kind: str
    name: str = ""

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError("bad action kind %r" % (self.kind,))
        if (self.kind == TAU) != (self.name == ""):
            raise ValueError("tau carries no name, visible actions need one")

    @property
    def is_tau(self) -> bool:
        return self.kind == TAU

    @property
    def is_restricted(self) -> bool:
        return "#" in self.name

    def complement(self) -> "Action":
        if self.kind == TAU:
            raise ValueError("tau has no complement")
        return Action(OUT if self.kind == IN else IN, self.name)

    def key(self):
        return (_KIND_RANK[self.kind], self.name)

    def __str__(self) -> str:
        if self.kind == TAU:
            return "tau"
        return "~" + self.name if self.kind == OUT else self.name


TAU_ACT = Action(TAU)


def act_in(name: str) -> Action:
    return Action(IN, name)


def act_out(name: str) -> Action:
    return Action(OUT, name)


# A transition label is a non-empty tuple of actions.
def format_sequence(seq) -> str:
    return " ".join(str(a) for a in seq)


def label_key(seq) -> tuple:
    """The sort key of a label sequence."""
    return tuple(a.key() for a in seq)


def sequence_names(seq) -> frozenset:
    return frozenset(a.name for a in seq if not a.is_tau)


# ---------------------------------------------------------------------------
# terms


class Term:
    """A process term.  Every node hashes its fields when it is built, its
    children having done so before it, so no hash walks a subtree."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__hash__ = Term.__hash__  # explicit, so `dataclass` keeps it

    def __post_init__(self):
        fields = tuple(getattr(self, f) for f in self.__dataclass_fields__)
        object.__setattr__(self, "_h", hash((type(self).__name__,) + fields))

    def __hash__(self):
        return self._h

    def __str__(self):
        return format_term(self)


@dataclass(frozen=True)
class Nil(Term):
    pass


@dataclass(frozen=True)
class Prefix(Term):
    action: Action
    body: Term


@dataclass(frozen=True)
class StrongPrefix(Term):
    """Atomic prefix: the action fuses with the first move of the body."""

    action: Action
    body: Term


@dataclass(frozen=True)
class Sum(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Par(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Restrict(Term):
    name: str
    body: Term


@dataclass(frozen=True)
class Const(Term):
    """Constant occurrence under a finite renaming of its free names.

    `renaming` is a canonical map (sorted tuple of (old, new) pairs, no
    identity pairs) over the free names of the base definition.  Renamed
    occurrences behave like derived constants with a substituted body.
    """

    name: str
    renaming: tuple = ()

    def display_name(self) -> str:
        if not self.renaming:
            return self.name
        inner = ",".join("%s/%s" % (new, old) for old, new in self.renaming)
        return "%s{%s}" % (self.name, inner)


NIL = Nil()


def term_key(t: Term):
    """Total structural order on terms, kept on each node; no recursion."""
    try:
        return t._k
    except AttributeError:
        todo, stack = [], [t]     # unkeyed nodes, each before its children
    while stack:
        u = stack.pop()
        if "_k" not in u.__dict__:
            todo.append(u)
            stack += filter(None, map(u.__dict__.get,
                                      ("left", "right", "body")))
    for u in reversed(todo):
        object.__setattr__(u, "_k", _term_key(u))
    return t._k


def _term_key(t: Term):
    if isinstance(t, Nil):
        return (0,)
    if isinstance(t, (Prefix, StrongPrefix)):
        return (1 if isinstance(t, Prefix) else 2, t.action.key(), t.body._k)
    if isinstance(t, (Sum, Par)):
        return (3 if isinstance(t, Sum) else 4, t.left._k, t.right._k)
    if isinstance(t, Restrict):
        return (5, t.name, t.body._k)
    if isinstance(t, Const):
        return (6, t.name, t.renaming)
    raise TypeError("not a term: %r" % (t,))


def iter_subterms(t: Term):
    """Every subterm of t in pre-order, a left operand before its right."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, (Prefix, StrongPrefix, Restrict)):
            stack.append(t.body)
        elif isinstance(t, (Sum, Par)):
            stack += (t.right, t.left)


# ---------------------------------------------------------------------------
# printing
#
# Binding strength: prefix > + > |.  "new" scopes maximally to the right.
# The printer emits the minimal parenthesisation that reparses to the same
# tree; sums and parallels are printed left-nested without parentheses, so
# right-nested trees keep explicit parentheses.


def par_fold(parts) -> Term:
    """Parallel composition of a list, shaped as a balanced tree: wide
    states (thousands of components) must not overflow the structural
    recursion in keys."""
    parts = list(parts)
    if not parts:
        return NIL
    while len(parts) > 1:
        parts = [Par(parts[i], parts[i + 1]) if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    return parts[0]


# context levels: 0 = term, 1 = par operand, 2 = sum operand, 3 = prefix body
def format_term(t: Term, level: int = 0) -> str:
    if isinstance(t, Nil):
        return "0"
    if isinstance(t, Const):
        return t.display_name()
    if isinstance(t, (Prefix, StrongPrefix)):
        act = str(t.action)
        if isinstance(t, StrongPrefix):
            act = "<%s>" % act
        return "%s.%s" % (act, format_term(t.body, 3))
    if isinstance(t, Sum):
        # the left spine in a loop: a left operand prints unbracketed
        rights = []
        while isinstance(t, Sum):
            rights.append(format_term(t.right, 3))
            t = t.left
        rights.append(format_term(t, 2))
        s = " + ".join(reversed(rights))
        return "(%s)" % s if level >= 3 else s
    if isinstance(t, Par):
        parts = []
        stack = [t]
        while stack:
            u = stack.pop()
            if isinstance(u, Par):
                stack.append(u.right)
                stack.append(u.left)
            else:
                parts.append(format_term(u, 2))
        s = " | ".join(parts)
        return "(%s)" % s if level >= 2 else s
    if isinstance(t, Restrict):
        names = [t.name]
        body = t.body
        while isinstance(body, Restrict):
            names.append(body.name)
            body = body.body
        s = "new(%s) %s" % (", ".join(names), format_term(body, 0))
        return "(%s)" % s if level >= 1 else s
    raise TypeError("not a term: %r" % (t,))


# ---------------------------------------------------------------------------
# environments


@dataclass
class Env:
    """Constant definitions plus caches of facts derived from them."""

    defs: dict = field(default_factory=dict)
    _bodies: dict = field(default_factory=dict, repr=False, compare=False)
    _base_free: dict = field(default_factory=dict, repr=False, compare=False)
    _contexts: dict = field(default_factory=dict, repr=False, compare=False)

    def define(self, name: str, body: Term):
        self.defs[name] = body
        for cache in (self._bodies, self._base_free, self._contexts):
            cache.clear()

    def base_body(self, name: str) -> Term:
        try:
            return self.defs[name]
        except KeyError:
            raise UndefinedConstantError("constant %s is not defined" % name) from None

    def body_of(self, c: Const) -> Term:
        """Defining body of a (possibly renamed) constant occurrence."""
        if not c.renaming:
            return self.base_body(c.name)
        key = (c.name, c.renaming)
        hit = self._bodies.get(key)
        if hit is None:
            hit = subst_map(self.base_body(c.name), dict(c.renaming), self)
            self._bodies[key] = hit
        return hit

    def const_free(self, name: str) -> frozenset:
        """Free names of a base constant, solved by fixpoint over the
        constant dependency graph (definitions may be mutually recursive)."""
        hit = self._base_free.get(name)
        if hit is not None:
            return hit
        group = {name}
        stack = [name]
        while stack:
            for s in iter_subterms(self.base_body(stack.pop())):
                if isinstance(s, Const) and s.name not in group:
                    group.add(s.name)
                    stack.append(s.name)
        table = {n: frozenset() for n in group}
        lookup = lambda n: self._base_free.get(n, table.get(n, frozenset()))
        changed = True
        while changed:
            changed = False
            for n in group:
                s = _free(self.defs[n], lookup)
                if s != table[n]:
                    table[n] = s
                    changed = True
        self._base_free.update(table)
        return table[name]


def _free(t: Term, lookup) -> frozenset:
    """The free names of t, lookup giving a base constant's, in one pass
    that expands each (constant occurrence, bound names) pair once."""
    out: set = set()
    expanded: set = set()
    stack = [(t, frozenset())]
    while stack:
        t, bound = stack.pop()
        if isinstance(t, (Prefix, StrongPrefix)):
            if not t.action.is_tau and t.action.name not in bound:
                out.add(t.action.name)
            stack.append((t.body, bound))
        elif isinstance(t, (Sum, Par)):
            stack += ((t.right, bound), (t.left, bound))
        elif isinstance(t, Restrict):
            stack.append((t.body, bound | {t.name}))
        elif isinstance(t, Const) and (t, bound) not in expanded:
            expanded.add((t, bound))
            ren = dict(t.renaming)
            out.update({ren.get(n, n) for n in lookup(t.name)} - bound)
        elif not isinstance(t, (Nil, Const)):
            raise TypeError("not a term: %r" % (t,))
    return frozenset(out)


def free_names(t: Term, env: Env) -> frozenset:
    """All free action names of t, unfolding constants through env."""
    return _free(t, env.const_free)


# ---------------------------------------------------------------------------
# substitution
#
# Substitution follows the convention that a renaming applied to a
# restriction whose binder is being renamed converts the bound name as well:
# (new(a) q){b/a} = new(b) (q{b/a}), provided b is not free in q.  This way
# a renaming always reaches the constants inside, where it is recorded in
# the occurrence's renaming map.  Callers must substitute towards fresh
# names; clashes with other binders are resolved by alpha-converting the
# inner binder.


class FreshAllocator:
    """Deterministic source of generated names: a#1, b#2, ... in
    allocation order, the counter global to one allocator.  A '#' name
    keeps only the base of the name it replaces, so names never stack."""

    def __init__(self):
        self.n = 0

    def fresh(self, base: str) -> str:
        self.n += 1
        return "%s#%d" % (base.split("#")[0], self.n)


def subst_map(t: Term, mapping: dict, env: Env) -> Term:
    mapping = {old: new for old, new in mapping.items() if old != new}
    if not mapping:
        return t
    return _subst(t, mapping, env)


def _subst(t: Term, m: dict, env: Env) -> Term:
    # a left spine of sums and parallels is walked in a loop, so a wide
    # body recurses into its right operands only; unchanged nodes are kept
    spine = []
    while isinstance(t, (Sum, Par)):
        spine.append(t)
        t = t.left
    if isinstance(t, (Prefix, StrongPrefix)):
        a = t.action
        if not a.is_tau and a.name in m:
            a = Action(a.kind, m[a.name])
        body = _subst(t.body, m, env)
        if a is not t.action or body is not t.body:
            t = type(t)(a, body)
    elif isinstance(t, Restrict):
        if t.name in m:
            # bound name converted together with the free occurrences
            t = Restrict(m[t.name], _subst(t.body, m, env))
        elif t.name in m.values():
            # the binder would capture an incoming name: alpha-convert first
            fresh = _fresh_binder(t.name, t.body, m, env)
            body = _subst(t.body, {t.name: fresh}, env)
            t = Restrict(fresh, _subst(body, m, env))
        else:
            body = _subst(t.body, m, env)
            if body is not t.body:
                t = Restrict(t.name, body)
    elif isinstance(t, Const):
        ren = dict(t.renaming)
        pairs = []
        for base_name in env.const_free(t.name):
            img = ren.get(base_name, base_name)
            img = m.get(img, img)
            if img != base_name:
                pairs.append((base_name, img))
        new_ren = tuple(sorted(pairs))
        if new_ren != t.renaming:
            t = Const(t.name, new_ren)
    elif not isinstance(t, Nil):
        raise TypeError("not a term: %r" % (t,))
    for node in reversed(spine):
        right = _subst(node.right, m, env)
        if t is not node.left or right is not node.right:
            node = type(node)(t, right)
        t = node
    return t


def _fresh_binder(base: str, body: Term, m: dict, env: Env) -> str:
    """A generated name base#k, free in neither body nor m."""
    taken = set(free_names(body, env)) | set(m) | set(m.values())
    base, i = base.split("#")[0], 1
    while "%s#%d" % (base, i) in taken:
        i += 1
    return "%s#%d" % (base, i)


def region(t: Term, env: Env, fresh, binders: list | None = None):
    """The components of the region t, depth first from the left: the
    subterms reached through parallel compositions and restrictions that
    are neither.  fresh(name, body) gives a binder's new name, or None to
    drop the binder unrenamed; binders collects the new names.  A run of
    directly nested binders opens in one substitution pass (a repeated
    name ends the run) when the walk reaches it, so names drawn in fresh
    follow the order the components are consumed in."""
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Par):
            stack += (u.right, u.left)
        elif isinstance(u, Restrict):
            opened: dict = {}
            while isinstance(u, Restrict) and u.name not in opened:
                new = fresh(u.name, u.body)
                if new is not None:
                    opened[u.name] = new
                    if binders is not None:
                        binders.append(new)
                u = u.body
            stack.append(subst_map(u, opened, env))
        else:
            yield u


# ---------------------------------------------------------------------------
# programs and well-formedness


@dataclass
class Program:
    env: Env
    main: Term
    name: str = "main"


@dataclass(frozen=True)
class WfIssue:
    code: str
    where: str
    detail: str

    def __str__(self):
        return "[%s] %s: %s" % (self.code, self.where, self.detail)


@dataclass
class WfReport:
    issues: list

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self):
        if self.ok:
            return "well-formed"
        return "\n".join(str(i) for i in self.issues)


def check_wellformed(program: Program) -> WfReport:
    """Closedness, guardedness, and sequential sum operands, in one walk
    of each scope: its undefined-constant and sum-operand issues in
    pre-order, then its unguarded ones.

    - every constant mentioned anywhere must be defined;
    - inside definition bodies, every constant occurrence must sit under at
      least one normal prefix (strong prefixes do not guard);
    - both operands of + must be sequential: 0, a prefix, or a + whose
      operands are checked in turn, so each one is reported once.
    """
    env, issues = program.env, []
    scopes = [("main", program.main, False)] + [
        ("def %s" % n, b, True) for n, b in sorted(env.defs.items())
    ]
    for where, body, need_guard in scopes:
        unguarded = []
        stack = [(body, not need_guard)]
        while stack:
            t, guarded = stack.pop()
            if isinstance(t, Const):
                if t.name not in env.defs:
                    issues.append(WfIssue("undefined", where, "constant %s has no definition" % t.name))
                if not guarded:
                    unguarded.append(WfIssue(
                        "unguarded", where,
                        "constant %s not under a normal prefix" % t.display_name()))
            elif isinstance(t, (Prefix, StrongPrefix, Restrict)):
                stack.append((t.body, guarded or isinstance(t, Prefix)))
            elif isinstance(t, (Sum, Par)):
                stack += ((t.right, guarded), (t.left, guarded))
            if isinstance(t, Sum):
                for side, operand in (("left", t.left), ("right", t.right)):
                    if not isinstance(operand, (Nil, Prefix, StrongPrefix, Sum)):
                        issues.append(WfIssue(
                            "sum-operand", where,
                            "%s operand of + is not sequential: %s" % (side, format_term(operand))))
        issues += unguarded
    return WfReport(issues)


def classify_finite_net(program: Program):
    """Does the program lie in the finite-net fragment?

    In that fragment restriction may appear only at the outermost level of
    the main term (above parallel composition), never under a prefix and
    never inside a definition body.  Returns (flag, reason); reason points
    at the first offending restriction when the answer is False.
    """
    env = program.env
    scopes = [("def %s contains restriction" % name, [body])
              for name, body in sorted(env.defs.items())]
    scopes.append(("main has a nested restriction:",
                   region(program.main, env, lambda name, body: None)))
    for what, comps in scopes:
        for comp in comps:
            for sub in iter_subterms(comp):
                if isinstance(sub, Restrict):
                    return False, "%s %s" % (what, format_term(sub))
    return True, "finite-net"
