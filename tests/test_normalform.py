"""Canonical state representation: laws, idempotence, and stability under
single rewrites with the term equations (parallel re-association, scope
enlargement, renaming of a bound name)."""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

import multiccs.normalform as normalform
import multiccs.terms as terms
from multiccs.lts import Budget, StepEngine, build_lts
from multiccs.net2term import translate
from multiccs.normalform import NormalForm, normalize
from multiccs.parser import parse_program, parse_term
from multiccs.terms import (
    Const, Env, NIL, Par, Prefix, Restrict, StrongPrefix, Sum, TAU_ACT,
    act_in, act_out, format_sequence, format_term, free_names, subst_map,
)

from conftest import CORPUS, LINK_KINDS, binder_link, load_net, load_program
from oracles import full_render_assign
from test_golden_lts import cases, modes


@pytest.fixture
def env():
    e = Env()
    e.define("K1", parse_term("a.0"))
    e.define("K2", parse_term("b.K1"))
    return e


def key_of(text, env, strict=False):
    return normalize(parse_term(text), env, strict=strict).key()


def same(env, *texts, strict=False):
    keys = {key_of(t, env, strict) for t in texts}
    assert len(keys) == 1, keys


def differ(env, t1, t2, strict=False):
    assert key_of(t1, env, strict) != key_of(t2, env, strict)


class TestLaws:
    def test_par_commutative_and_associative(self, env):
        same(env, "a.0 | b.0", "b.0 | a.0")
        same(env, "(a.0 | b.0) | c.0", "a.0 | (b.0 | c.0)", "c.0 | (a.0 | b.0)")

    def test_nil_identity(self, env):
        same(env, "a.0 | 0", "a.0", "0 | a.0")
        same(env, "0 | 0", "0")

    def test_alpha_conversion(self, env):
        same(env, "new(a) a.0", "new(z) z.0")
        same(env, "new(a, b)(a.b.0)", "new(x, y)(x.y.0)")

    def test_binder_order_irrelevant(self, env):
        same(env, "new(a, b)(a.0 | b.0)", "new(b, a)(a.0 | b.0)")

    def test_vacuous_binder_dropped(self, env):
        same(env, "new(x)(a.0)", "a.0")

    def test_scope_enlargement(self, env):
        same(env, "new(a)(b.0 | a.0)", "b.0 | (new(a) a.0)")
        same(env, "new(a)(a.0 | b.0)", "(new(a) a.0) | b.0")

    def test_laws_apply_under_prefixes(self, env):
        same(env, "c.(new(a)(b.0 | a.0))", "c.(b.0 | (new(a) a.0))")
        same(env, "<c>.(a.0 | b.0)", "<c>.(b.0 | a.0)")
        same(env, "d.(a.0 | 0)", "d.a.0")

    def test_laws_apply_inside_sums(self, env):
        same(env, "a.(b.0 | c.0) + d.0", "a.(c.0 | b.0) + d.0")

    def test_sum_operand_order_is_kept(self, env):
        # the term equations say nothing about +, and derivations never
        # build new sums, so operand order is not canonicalized
        differ(env, "a.0 + b.0", "b.0 + a.0")

    def test_alpha_on_constants_composes_renaming(self, env):
        # K1 has a free, so a genuine alpha-variant renames it inside the
        # constant; the variant with K1 left untouched is a different term
        t = parse_term("new(a)(a.0 | K1)")
        variant = Restrict("z", subst_map(t.body, {"a": "z"}, env))
        assert normalize(t, env).key() == normalize(variant, env).key()
        differ(env, "new(a)(a.0 | K1)", "new(z)(z.0 | K1)")

    def test_distinct_terms_stay_distinct(self, env):
        differ(env, "a.0", "b.0")
        differ(env, "a.0 | a.0", "a.0")
        differ(env, "a.b.0", "b.a.0")
        differ(env, "<a>.b.0", "a.b.0")
        differ(env, "new(a) a.0", "new(a) tau.0")
        differ(env, "a.0 + b.0", "a.0 | b.0")

    def test_restriction_identity_tracked_across_components(self, env):
        # both components mention the same bound name: that link must
        # survive canonical renaming
        differ(env, "new(a, b)(a.0 | ~a.0)", "new(a, b)(a.0 | ~b.0)")
        same(env, "new(a, b)(a.0 | ~b.0)", "new(a, b)(b.0 | ~a.0)")

    def test_symmetric_components_under_shared_binder(self, env):
        same(env,
             "new(x)(x.a.0 | x.a.0 | ~x.0)",
             "new(y)(~y.0 | y.a.0 | y.a.0)")


class TestStrictMode:
    def test_strict_keeps_nil(self, env):
        assert key_of("a.0 | 0", env, strict=True) != key_of("a.0", env, strict=True)

    def test_strict_keeps_vacuous_binder(self, env):
        assert key_of("new(x) a.0", env, strict=True) != key_of("a.0", env, strict=True)

    def test_strict_still_quotients_equations(self, env):
        same(env, "a.0 | b.0", "b.0 | a.0", strict=True)
        same(env, "new(a)(b.0 | a.0)", "b.0 | (new(a) a.0)", strict=True)
        same(env, "new(a) a.0", "new(z) z.0", strict=True)


# -- property: the equations never change the normal form --------------------

_names = st.sampled_from(["a", "b", "c"])
_actions = st.one_of(
    st.just(TAU_ACT), st.builds(act_in, _names), st.builds(act_out, _names))


def _terms(depth):
    if depth == 0:
        return st.one_of(
            st.just(NIL), st.builds(Const, st.sampled_from(["K1", "K2"])))
    sub = _terms(depth - 1)
    return st.one_of(
        st.just(NIL),
        st.builds(Const, st.sampled_from(["K1", "K2"])),
        st.builds(Prefix, _actions, sub),
        st.builds(StrongPrefix, _actions, sub),
        st.builds(Par, sub, sub),
        st.builds(Restrict, _names, sub),
        st.builds(Sum,
                  st.builds(Prefix, _actions, sub),
                  st.builds(Prefix, _actions, sub)),
    )


def rewrites(t, env):
    """All terms reachable from t by one application of one equation,
    at any position."""
    if isinstance(t, Par):
        if isinstance(t.left, Par):
            yield Par(t.left.left, Par(t.left.right, t.right))
        if isinstance(t.right, Par):
            yield Par(Par(t.left, t.right.left), t.right.right)
        if isinstance(t.right, Restrict):
            a = t.right.name
            if a not in free_names(t.left, env):
                yield Restrict(a, Par(t.left, t.right.body))
        for r in rewrites(t.left, env):
            yield Par(r, t.right)
        for r in rewrites(t.right, env):
            yield Par(t.left, r)
    elif isinstance(t, Restrict):
        if isinstance(t.body, Par):
            p, q = t.body.left, t.body.right
            if t.name not in free_names(p, env):
                yield Par(p, Restrict(t.name, q))
        for b in ("u", "w"):
            if b != t.name and b not in free_names(t.body, env):
                yield Restrict(b, subst_map(t.body, {t.name: b}, env))
                break
        for r in rewrites(t.body, env):
            yield Restrict(t.name, r)
    elif isinstance(t, (Prefix, StrongPrefix)):
        for r in rewrites(t.body, env):
            yield type(t)(t.action, r)
    elif isinstance(t, Sum):
        for r in rewrites(t.left, env):
            yield Sum(r, t.right)
        for r in rewrites(t.right, env):
            yield Sum(t.left, r)


def _env():
    e = Env()
    e.define("K1", parse_term("a.0"))
    e.define("K2", parse_term("b.K1"))
    return e


@given(_terms(4))
@settings(max_examples=400, deadline=None)
def test_equations_preserve_normal_form(t):
    env = _env()
    base = normalize(t, env).key()
    for variant in rewrites(t, env):
        assert normalize(variant, env).key() == base, variant


@given(_terms(4))
@settings(max_examples=400, deadline=None)
def test_equations_preserve_strict_normal_form(t):
    env = _env()
    base = normalize(t, env, strict=True).key()
    for variant in rewrites(t, env):
        assert normalize(variant, env, strict=True).key() == base, variant


@given(_terms(4))
@settings(max_examples=300, deadline=None)
def test_idempotent(t):
    env = _env()
    nf = normalize(t, env)
    again = normalize(nf.to_term(), env)
    assert again.key() == nf.key()


@given(_terms(3))
@settings(max_examples=200, deadline=None)
def test_strict_refines_lax(t):
    # terms with equal strict forms also have equal lax forms
    env = _env()
    u = Par(t, NIL)
    assert normalize(u, env).key() == normalize(t, env).key()


@pytest.mark.parametrize("strict", [False, True])
def test_keys_print_the_term_of_the_normal_form(strict):
    # the state printer joins the printed components; the whole term
    # prints the same, for every pinned program's initial state and
    # its one-step successors
    nfs = [NormalForm((), ()), NormalForm(("ν1", "ν2"), ())]
    for _, prog, _ in cases():
        init = normalize(prog.main, prog.env, strict)
        nfs.append(init)
        engine = StepEngine(prog.env, modes(prog)["auto"], strict=strict)
        nfs += [target for _, target in engine.step(init)]
    assert [nf.key() for nf in nfs[:2]] == ["0", "new(ν1, ν2) 0"]
    assert any(nf.restricted for nf in nfs[2:])
    for nf in nfs:
        assert nf.key() == format_term(nf.to_term())


# -- symmetric binder regions --------------------------------------------------
#
# The strategy above draws binders from a, b, c only, so it almost never
# builds a class of three or more binders that refinement cannot split.
# These regions have 3-6 binders and are built to be symmetric, and up
# to three more binders that no component mentions: strict mode keeps
# these inert binders, and refinement never splits them.

_POOL = ["n%d" % i for i in range(12)]


@st.composite
def _symmetric_regions(draw):
    """(binder count, links (kind, i, j, label) over binder indices, inert
    binder count): each drawn pattern is applied at every binder, so most
    regions have large tied classes, and a few stray links break some of
    the symmetry."""
    k = draw(st.integers(3, 6))
    links = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(LINK_KINDS))
        label = draw(st.sampled_from("xy"))
        pattern = draw(st.sampled_from(["rotate", "each", "all"]))
        if pattern == "rotate":
            d = draw(st.integers(1, k - 1))
            links += [(kind, i, (i + d) % k, label) for i in range(k)]
        elif pattern == "each":
            links += [(kind, i, i, label) for i in range(k)]
        else:
            links += [(kind, i, j, label)
                      for i in range(k) for j in range(i + 1, k)]
    for _ in range(draw(st.integers(0, 2))):
        links.append((draw(st.sampled_from(LINK_KINDS)),
                      draw(st.integers(0, k - 1)),
                      draw(st.integers(0, k - 1)), "x"))
    return k, links, draw(st.integers(0, 3))


def _fold(parts, rnd):
    if len(parts) == 1:
        return parts[0]
    cut = rnd.randint(1, len(parts) - 1)
    return "(%s | %s)" % (_fold(parts[:cut], rnd), _fold(parts[cut:], rnd))


def _region_text(k, links, rnd=None, inert=0):
    """The region in plain form, or, given rnd, with the bound names
    renamed, the declarations permuted and split into nested restrictions,
    and the components shuffled and re-associated.  The last `inert` of
    the region's k + inert binders occur in no link."""
    n = k + inert
    names = ["v%d" % i for i in range(n)] if rnd is None else \
        rnd.sample(_POOL, n)
    comps = [binder_link(kind, names[i], names[j], label)
             for kind, i, j, label in links]
    if rnd is None:
        return "new(%s)(%s)" % (", ".join(names), " | ".join(comps))
    rnd.shuffle(comps)
    body = _fold(comps, rnd)
    decl = rnd.sample(names, n)
    cut = rnd.randint(1, n)
    if cut < n:
        body = "new(%s)(%s)" % (", ".join(decl[cut:]), body)
    return "new(%s)(%s)" % (", ".join(decl[:cut]), body)


@given(_symmetric_regions(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_symmetric_region_keys_ignore_presentation(region, rnd):
    # the variant also permutes the inert binders among the others
    k, links, inert = region
    env = _env()
    base = parse_term(_region_text(k, links, inert=inert))
    variant = parse_term(_region_text(k, links, rnd, inert))
    for strict in (False, True):
        assert (normalize(variant, env, strict).key()
                == normalize(base, env, strict).key())
    # lax mode drops the inert binders
    assert (normalize(base, env).key()
            == normalize(parse_term(_region_text(k, links)), env).key())


def test_symmetric_binders_are_individualized_once_per_orbit(monkeypatch):
    # each strict state of the translated philosophers holds a 12-binder
    # region with tied classes of 4, 3 and 2 binders; trying every member
    # of each class made 1025 refinements over 12 states
    calls = []
    real = normalform._refine

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(normalform, "_refine", counting)
    lts = build_lts(translate(load_net("phils")),
                    budget=Budget(max_states=12), strict=True)
    assert len(lts.states) == 12
    assert len(calls) <= 150


def _nested(levels, rnd=None, mention=False):
    """a.N with N nested `levels` deep: each level is the region
    new(x, y, z)(x.~y.N' | y.~z.N' | z.~x.N') over the next level N'.
    Given rnd, each level declares its binders in a shuffled order; with
    mention, each inner level's components start with the enclosing
    level's x."""
    body = "0"
    for k in range(levels):
        x, y, z = ("%s%d" % (v, k) for v in "xyz")
        outer = "x%d." % (k + 1) if mention and k + 1 < levels else ""
        decl = [x, y, z]
        if rnd is not None:
            rnd.shuffle(decl)
        body = "new(%s)(%s)" % (", ".join(decl), " | ".join(
            "%s.~%s.%s(%s)" % (a, b, outer, body)
            for a, b in ((x, y), (y, z), (z, x))))
    return parse_term("a.(%s)" % body)


@pytest.mark.parametrize("mention, most", [(False, 100), (True, 400)])
def test_nested_regions_are_canonicalized_once(monkeypatch, env, mention,
                                                most):
    # each region's skeleton is memoized under its unopened body and the
    # tokens of its free names; without that memo every rendering of the
    # enclosing component re-canonicalizes every region below it, 583,442
    # region calls at four plain levels
    calls = []
    real = normalform._skel_region

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(normalform, "_skel_region", counting)
    key = normalize(_nested(4, mention=mention), env).key()
    assert len(calls) <= most
    rnd = random.Random(4)
    for _ in range(3):
        assert normalize(_nested(4, rnd, mention), env).key() == key


def test_strict_phils_regions_take_one_signature_round(monkeypatch):
    # each 12-binder region ties only binders that no component mentions
    # after its first round, so refinement stops there, and individualizing
    # those binders takes no round; a loop that confirms every fixpoint
    # makes five rounds per region here
    rounds, regions = [], []
    real_refine, real_assign = normalform._refine, normalform._assign

    def refine(colors, signatures, *rest):
        def counted(c):
            rounds.append(None)
            return signatures(c)
        return real_refine(colors, counted, *rest)

    def assign(binders, *rest):
        regions.append(len(binders))
        return real_assign(binders, *rest)

    monkeypatch.setattr(normalform, "_refine", refine)
    monkeypatch.setattr(normalform, "_assign", assign)
    lts = build_lts(translate(load_net("phils")),
                    budget=Budget(max_states=12), strict=True)
    assert len(lts.states) == 12
    assert regions and len(rounds) == len(regions)


def test_inert_binders_are_individualized_in_one_level(monkeypatch):
    # each strict phils region ties only inert binders after refinement:
    # one level gives all of them their fresh colours, and the next finds
    # no tie left (one level per inert binder made 484 calls here)
    calls, regions = [], []
    real_resolve, real_assign = normalform._resolve, normalform._assign

    def resolve(*args):
        calls.append(None)
        return real_resolve(*args)

    def assign(binders, *rest):
        regions.append(len(binders))
        return real_assign(binders, *rest)

    monkeypatch.setattr(normalform, "_resolve", resolve)
    monkeypatch.setattr(normalform, "_assign", assign)
    lts = build_lts(translate(load_net("phils")),
                    budget=Budget(max_states=60), strict=True)
    assert len(lts.states) == 60
    assert (len(regions), len(calls)) == (121, 242)


@contextmanager
def _assign_checked_by_oracle():
    """Check every colouring `normalform._assign` makes against the
    full-render oracle; yields the binder counts of the checked regions in
    the order their colourings were made."""
    checked = []
    real = normalform._assign

    def checking(binders, comps, scope, depth, gen):
        colors = real(binders, comps, scope, depth, gen)
        assert colors == full_render_assign(binders, comps, scope, depth,
                                            gen)
        checked.append(len(binders))
        return colors

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalform, "_assign", checking)
        yield checked


@given(_symmetric_regions(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_patched_signatures_match_full_renders_on_symmetric_regions(
        region, rnd):
    k, links, inert = region
    env = _env()
    variant = parse_term(_region_text(k, links, rnd, inert))
    for strict in (False, True):
        with _assign_checked_by_oracle() as checked:
            normalize(variant, env, strict)
        # a region that settles without a signature round renders its
        # components, and so colours its inner regions, after its own
        assert (k + inert if strict else k) in checked


def test_tied_binders_of_two_orbits_are_both_tried():
    # directed cycles of 3 and 4 binders: refinement ties all seven, but
    # they form two orbits, so skipping a candidate is sound only within
    # one orbit
    links = ([("arc", i, (i + 1) % 3, "x") for i in range(3)]
             + [("arc", 3 + i, 3 + (i + 1) % 4, "x") for i in range(4)])
    env = _env()
    base = normalize(parse_term(_region_text(7, links)), env).key()
    for seed in range(20):
        variant = parse_term(_region_text(7, links, random.Random(seed)))
        with _assign_checked_by_oracle():
            assert normalize(variant, env).key() == base


def _corpus_cases():
    out = [(p.name, load_program(p.name))
           for p in sorted(CORPUS.glob("*.mccs")) if p.name != "illegal.mccs"]
    return out + [(p.name, translate(load_net(p.name)))
                  for p in sorted(CORPUS.glob("*.pnet"))]


@pytest.mark.parametrize("name, prog", _corpus_cases(),
                         ids=[name for name, _ in _corpus_cases()])
def test_patched_signatures_match_full_renders_on_corpus_regions(name, prog):
    for strict in (False, True):
        budget = Budget(max_states=10 if strict and name.endswith(".pnet")
                        else 30)
        with _assign_checked_by_oracle():
            lts = build_lts(prog, budget=budget, strict=strict)
        plain = build_lts(prog, budget=budget, strict=strict)
        assert (lts.states, lts.transitions) == (plain.states,
                                                 plain.transitions)


def test_patched_signatures_match_full_renders_on_strict_phils():
    prog = translate(load_net("phils"))
    budget = Budget(max_states=12)
    with _assign_checked_by_oracle() as checked:
        lts = build_lts(prog, budget=budget, strict=True)
    plain = build_lts(prog, budget=budget, strict=True)
    assert 12 in checked
    assert (lts.states, lts.transitions) == (plain.states, plain.transitions)


def _split(text, env, strict):
    gen = normalform.NameGen(env, strict)
    binders, comps = normalform.split_region(parse_term(text), gen)
    return binders, sorted(format_term(c) for c in comps)


@pytest.mark.parametrize("strict, expected", [
    # the outer a is vacuous: the inner binder takes every occurrence
    (False, (["a#1"], ["a#1.0", "~a#1.b.0"])),
    (True, (["a#1", "a#2"], ["a#2.0", "~a#2.b.0"])),
])
def test_split_region_opens_a_shadowed_run(env, strict, expected):
    assert _split("new(a) new(a) (a.0 | ~a.b.0)", env, strict) == expected


@pytest.mark.parametrize("strict, expected", [
    (False, (["a#1", "b#2"], ["a#1.~b#2.0", "b#2.0"])),
    (True, (["a#1", "x#2", "b#3"], ["a#1.~b#3.0", "b#3.0"])),
])
def test_split_region_skips_a_vacuous_binder_inside_a_run(env, strict,
                                                          expected):
    assert _split("new(a) new(x) new(b) (a.~b.0 | b.0)", env,
                  strict) == expected


def test_split_region_opens_runs_in_walk_order(env):
    # a run ends at a parallel composition; the restrictions under it are
    # opened left to right, after the run above them
    assert _split("new(a) new(b) ((new(c) a.c.0) | (new(d)(b.~d.0 | ~d.0)))",
                  env, False) == (["a#1", "b#2", "c#3", "d#4"],
                                  ["a#1.c#3.0", "b#2.~d#4.0", "~d#4.0"])


def test_region_temporaries_are_generated_names(env):
    # binders are opened with the '#' family of `terms.FreshAllocator`,
    # which no parsed name can take, and never reach a normal form
    gen = normalform.NameGen(env, False)
    binders, _ = normalform.split_region(
        parse_term("new(a) new(b) (a.~b.0 | ~a.0 | b.K1)"), gen)
    assert binders == ["a#1", "b#2"]
    assert "#" not in key_of("new(a) new(b) (a.~b.0 | ~a.0 | b.K1)", env)


def test_a_program_normalizes_through_one_context_per_mode(env):
    # `normalize`, `component_order` and the engines all read the context
    # env keeps for each mode; redefining a constant clears it, since the
    # memos hold free names that unfold constants
    assert normalform.context(env, False) is normalform.context(env, False)
    assert normalform.context(env, False) is not normalform.context(env, True)
    term = parse_term("new(x) K3")
    env.define("K3", parse_term("a.0"))
    assert key_of("new(x) K3", env) == "K3"
    env.define("K3", parse_term("x.0"))
    fresh = Env(dict(env.defs))
    assert key_of("new(x) K3", env) == normalize(term, fresh).key() != "K3"


@pytest.mark.parametrize("text, states, transitions", [
    # the inner binder of K is renamed with K's free a, to the state's ν1
    ("K = a.0 | (new(a) a.0); main = new(a) (K | ~a.0);",
     ["new(ν1) ~ν1.0 | K{ν1/a}", "new(ν1) ν1.0"], [(0, "tau", 1)]),
    ("K = a.b.0 | (new(a) (a.0 | ~a.c.0)); main = new(a) (K | ~a.0);",
     ["new(ν1) ~ν1.0 | K{ν1/a}", "new(ν1) b.0 | ν1.0 | ~ν1.c.0",
      "new(ν1) c.0 | ν1.b.0 | ~ν1.0", "b.0 | c.0", "new(ν1) ν1.0 | ~ν1.c.0",
      "new(ν1) ν1.b.0 | ~ν1.0", "c.0", "b.0", "0"],
     [(0, "tau", 1), (0, "tau", 2), (1, "tau", 3), (1, "b", 4),
      (2, "tau", 3), (2, "c", 5), (3, "b", 6), (3, "c", 7), (4, "tau", 6),
      (5, "tau", 7), (6, "c", 8), (7, "b", 8)]),
])
def test_a_kept_binder_captures_no_free_name(text, states, transitions):
    # a state's ν binder keeps its name only where that name is not free
    # in the region: an unfolded constant may bind ν1 inside and mention
    # the state's ν1 outside
    lts = build_lts(parse_program(text))
    assert lts.states == states
    assert [(i, format_sequence(label), j)
            for i, label, j in lts.transitions] == transitions
    strict = build_lts(parse_program(text), strict=True)
    assert len(strict.states) == len(states)
    assert len(strict.transitions) == len(transitions)


def test_a_state_keeps_its_own_binders(monkeypatch):
    # splitting a state opens its ν binders under their own names, so a
    # move substitutes nothing through the state and its regions' splits
    # and skeletons are met again; renaming every binder to a fresh
    # temporary made 3,587 region skeletons and 1,439 substitutions here
    regions, substs = [], []
    real_region, real_subst = normalform._skel_region, terms._subst

    def region(*args):
        regions.append(None)
        return real_region(*args)

    def subst(*args):
        substs.append(None)
        return real_subst(*args)

    monkeypatch.setattr(normalform, "_skel_region", region)
    monkeypatch.setattr(terms, "_subst", subst)
    budget = Budget(max_states=40)
    assert len(build_lts(load_program("counter"), budget=budget).states) == 40
    assert len(regions) <= 600
    del substs[:]
    phils = translate(load_net("phils"))
    assert len(build_lts(phils, budget=budget, strict=True).states) == 40
    assert len(substs) <= 100
