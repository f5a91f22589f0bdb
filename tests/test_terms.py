"""Term construction, naming, substitution, and well-formedness."""

import pytest
from hypothesis import given, strategies as st

from multiccs.parser import ParseError, format_program, parse_program, parse_term
from multiccs.terms import (
    Action, Const, Env, NIL, Par, Prefix, Program, Restrict, StrongPrefix,
    Sum, TAU_ACT, Term, FreshAllocator, act_in, act_out, check_wellformed,
    classify_finite_net, format_sequence, format_term, free_names,
    iter_subterms, par_fold, region, sequence_names, subst_map,
    term_key,
)

from oracles import recursive_free


def T(text):
    return parse_term(text)


class TestActions:
    def test_kinds(self):
        assert act_in("a").complement() == act_out("a")
        assert act_out("a").complement() == act_in("a")
        assert TAU_ACT.is_tau and not act_in("a").is_tau
        with pytest.raises(ValueError):
            TAU_ACT.complement()

    def test_tau_carries_no_name(self):
        with pytest.raises(ValueError):
            Action("tau", "x")
        with pytest.raises(ValueError):
            Action("in", "")

    def test_restricted_marker(self):
        assert act_in("a#3").is_restricted
        assert not act_in("a").is_restricted

    def test_sequence_text(self):
        seq = (act_in("a"), act_out("b"), TAU_ACT)
        assert format_sequence(seq) == "a ~b tau"
        assert sequence_names(seq) == {"a", "b"}


class TestFreeNames:
    def test_prefixes_and_binding(self):
        env = Env()
        assert free_names(T("a.~b.0"), env) == {"a", "b"}
        assert free_names(T("new(a)(a.b.0)"), env) == {"b"}
        assert free_names(T("<a>.0 + tau.c.0"), env) == {"a", "c"}

    def test_constant_free_names_through_renaming(self):
        prog = parse_program("K = a.b.K; main = K;")
        env = prog.env
        assert free_names(Const("K"), env) == {"a", "b"}
        renamed = subst_map(Const("K"), {"a": "z"}, env)
        assert renamed == Const("K", (("a", "z"),))
        assert free_names(renamed, env) == {"z", "b"}

    def test_mutually_recursive_constants(self):
        prog = parse_program("P = a.Q; Q = b.P; main = P;")
        assert free_names(Const("P"), prog.env) == {"a", "b"}


class TestSubstitution:
    def test_plain(self):
        env = Env()
        assert subst_map(T("a.~a.0"), {"a": "b"}, env) == T("b.~b.0")

    def test_binder_is_converted_with_the_free_occurrences(self):
        # substitution renames a restriction binder rather than stopping
        # at it; the new name is expected to be fresh for the body
        env = Env()
        t = T("new(a)(a.0 | b.0)")
        assert subst_map(t, {"a": "c"}, env) == T("new(c)(c.0 | b.0)")

    def test_capture_is_avoided(self):
        env = Env()
        t = T("new(b)(a.b.0)")
        out = subst_map(t, {"a": "b"}, env)
        assert isinstance(out, Restrict)
        assert out.name != "b"
        assert free_names(out, env) == {"b"}

    def test_simultaneous_swap(self):
        env = Env()
        t = T("a.~b.0")
        assert subst_map(t, {"a": "b", "b": "a"}, env) == T("b.~a.0")

    def test_tau_untouched(self):
        env = Env()
        assert subst_map(T("tau.a.0"), {"a": "b"}, env) == T("tau.b.0")

    def test_a_capturing_binder_takes_a_generated_name(self):
        # the new binder is base#k with base stripped of its own #k, free
        # in neither the body nor the substitution
        env = Env()
        out = subst_map(T("new(b) a.b.0"), {"a": "b"}, env)
        assert format_term(out) == "new(b#1) b.b#1.0"
        taken = Par(T("a.b.0"), Prefix(act_in("b#1"), NIL))
        out = subst_map(Restrict("b", taken), {"a": "b"}, env)
        assert out.name == "b#2"
        body = Prefix(act_in("a"), Prefix(act_in("b#3"), NIL))
        assert subst_map(Restrict("b#3", body), {"a": "b#3"}, env).name == "b#1"


class TestWellFormedness:
    def test_good_program(self):
        p = parse_program("A = a.(b.0 | A); main = A;")
        assert check_wellformed(p).ok

    def test_undefined_constant(self):
        p = parse_program("main = K;")
        rep = check_wellformed(p)
        assert not rep.ok
        assert any(i.code == "undefined" for i in rep.issues)

    def test_sum_needs_sequential_operands(self):
        p = parse_program("main = (a.0 | b.0) + c.0;")
        rep = check_wellformed(p)
        assert not rep.ok
        assert any(i.code == "sum-operand" for i in rep.issues)

    def test_a_non_sequential_operand_is_reported_once(self):
        # at the sum that holds it; the outer sum's operand is itself a sum
        p = parse_program("main = (a.0 | b.0) + c.0 + d.0;")
        assert [str(i) for i in check_wellformed(p).issues] == [
            "[sum-operand] main: left operand of + is not sequential: "
            "a.0 | b.0"]

    def test_issues_in_preorder_then_unguarded(self):
        p = parse_program("K = (a.0 | L) + K; main = K;")
        assert [(i.code, i.detail.split(":")[0])
                for i in check_wellformed(p).issues] == [
            ("sum-operand", "left operand of + is not sequential"),
            ("sum-operand", "right operand of + is not sequential"),
            ("undefined", "constant L has no definition"),
            ("unguarded", "constant L not under a normal prefix"),
            ("unguarded", "constant K not under a normal prefix")]

    def test_strong_prefix_does_not_guard(self):
        p = parse_program("A = <a>.A + b.0; main = A;")
        rep = check_wellformed(p)
        assert not rep.ok
        assert any(i.code == "unguarded" for i in rep.issues)

    def test_normal_prefix_guards(self):
        p = parse_program("A = a.<b>.c.A; main = A;")
        assert check_wellformed(p).ok

    def test_mutual_recursion_guarded(self):
        p = parse_program("P = a.Q; Q = b.P; main = P;")
        assert check_wellformed(p).ok
        bad = parse_program("P = Q + a.0; Q = P + b.0; main = P;")
        assert not check_wellformed(bad).ok


class TestFiniteNetFragment:
    def test_no_restriction_at_all(self):
        p = parse_program("A = a.(b.0 | A); main = A | A;")
        assert classify_finite_net(p)[0]

    def test_top_level_restriction_is_fine(self):
        p = parse_program("A = a.A; main = new(x)(A | x.0);")
        assert classify_finite_net(p)[0]

    def test_restriction_in_definition_excludes(self):
        p = parse_program("A = a.(new(x)(x.0 | A)); main = A;")
        flag, reason = classify_finite_net(p)
        assert not flag and "A" in reason

    def test_restriction_under_prefix_in_main_excludes(self):
        p = parse_program("main = a.(new(x) x.0);")
        assert not classify_finite_net(p)[0]

    def test_restriction_under_top_parallel_is_fine(self):
        p = parse_program("main = a.0 | (new(x) x.b.0);")
        assert classify_finite_net(p)[0]


class TestRegion:
    def walk(self, text, fresh):
        binders = []
        comps = [format_term(c) for c in region(T(text), Env(), fresh,
                                                binders)]
        return binders, comps

    def test_components_in_walk_order(self):
        alloc = FreshAllocator()
        assert self.walk("a.0 | (new(x)(x.0 | 0) | b.0 + c.0)",
                         lambda name, body: alloc.fresh(name)) == (
            ["x#1"], ["a.0", "x#1.0", "0", "b.0 + c.0"])

    def test_a_run_opens_up_to_a_repeated_name(self):
        alloc = FreshAllocator()
        assert self.walk("new(a, b, a)(a.b.0)",
                         lambda name, body: alloc.fresh(name)) == (
            ["a#1", "b#2", "a#3"], ["a#3.b#2.0"])

    def test_a_closed_binder_is_dropped_without_renaming(self):
        assert self.walk("new(a, b)(a.b.0 | (new(c) c.0))",
                         lambda name, body: "z" if name == "b" else None) == (
            ["z"], ["a.z.0", "c.0"])

    def test_binders_open_as_the_walk_reaches_them(self):
        alloc = FreshAllocator()
        walk = region(T("a.0 | (new(x) x.0)"), Env(),
                      lambda name, body: alloc.fresh(name))
        assert format_term(next(walk)) == "a.0" and alloc.n == 0
        assert format_term(next(walk)) == "x#1.0" and alloc.n == 1


def _preorder(t):
    # reference: the recursive pre-order the iterative walks must keep
    yield t
    for child in ((t.body,) if isinstance(t, (Prefix, StrongPrefix, Restrict))
                  else (t.left, t.right) if isinstance(t, (Sum, Par))
                  else ()):
        yield from _preorder(child)


def _nested_restrict(t, top):
    # reference: the first restriction outside the outermost region
    if isinstance(t, Restrict):
        return t if not top else _nested_restrict(t.body, True)
    if isinstance(t, Par):
        return _nested_restrict(t.left, top) or _nested_restrict(t.right, top)
    if isinstance(t, Sum):
        return (_nested_restrict(t.left, False)
                or _nested_restrict(t.right, False))
    if isinstance(t, (Prefix, StrongPrefix)):
        return _nested_restrict(t.body, False)
    return None


class TestStructure:
    def test_par_fold_balanced_depth(self):
        parts = [T("a.0") for _ in range(4096)]
        t = par_fold(parts)
        depth = 0
        while isinstance(t, Par):
            t = t.left
            depth += 1
        assert depth <= 13   # ceil(log2(4096)) + 1

    def test_par_fold_empty(self):
        assert par_fold([]) == NIL

    def test_term_key_total_order(self):
        ts = [T(s) for s in ["0", "a.0", "<a>.0", "a.0 + b.0", "a.0 | b.0",
                             "new(a) a.0", "a.b.0"]]
        keys = [term_key(t) for t in ts]
        assert len(set(keys)) == len(keys)
        sorted(keys)   # keys must be mutually comparable

    def test_hash_equals_for_equal_terms(self):
        a = Par(Prefix(act_in("a"), NIL), Prefix(act_out("b"), NIL))
        b = Par(Prefix(act_in("a"), NIL), Prefix(act_out("b"), NIL))
        assert a == b and hash(a) == hash(b)

    def test_every_term_prints_in_program_syntax(self):
        terms = [NIL, T("a.0"), T("<~a>.b.0"), T("a.0 + tau.0"),
                 T("a.0 | b.0"), T("new(a, b) (a.0 | ~b.0)"),
                 Const("K", (("a", "b"),))]
        assert {type(t) for t in terms} == set(Term.__subclasses__())
        for t in terms:
            assert str(t) == format_term(t)
        assert str(terms[-1]) == "K{b/a}"


# -- parsing and printing ----------------------------------------------------


class TestParser:
    def test_precedence(self):
        t = T("a.0 + b.0 | c.0")
        assert isinstance(t, Par) and isinstance(t.left, Sum)

    def test_prefix_binds_tightest(self):
        t = T("a.b.0 + c.0")
        assert isinstance(t, Sum) and isinstance(t.left, Prefix)

    def test_strong_prefix(self):
        t = T("<a>.~b.0")
        assert isinstance(t, StrongPrefix) and isinstance(t.body, Prefix)

    def test_restriction_scopes_right(self):
        t = T("new(a, b) a.0 | b.0")
        assert isinstance(t, Restrict) and isinstance(t.body, Restrict)
        assert isinstance(t.body.body, Par)

    def test_parenthesized_restriction_operand(self):
        t = T("a.0 | (new(b) b.0)")
        assert isinstance(t, Par) and isinstance(t.right, Restrict)

    def test_constants_are_uppercase(self):
        p = parse_program("Worker = go.Worker; main = Worker;")
        assert "Worker" in p.env.defs

    def test_comments_and_layout(self):
        p = parse_program("# header\nA = a.A; # trailing\nmain = A;\n")
        assert check_wellformed(p).ok

    @pytest.mark.parametrize("bad", [
        "main = ;",
        "main = a.0",          # missing semicolon
        "main = new() a.0;",
        "main = a.0 | ;",
        "A = a.0;",            # no main
        "main = a.0 $;",       # unexpected character
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_program(bad)

    def test_tau_strong_prefix_is_legal_syntax(self):
        t = T("<tau>.a.0")
        assert isinstance(t, StrongPrefix) and t.action.is_tau

    def test_duplicate_definition_rejected(self):
        with pytest.raises(ParseError):
            parse_program("A = a.0; A = b.0; main = A;")

    def test_keywords_are_not_names(self):
        with pytest.raises(ParseError):
            parse_program("main = new.0;")


TERM_TEXTS = [
    "0",
    "a.0",
    "~a.0",
    "tau.0",
    "<a>.b.0",
    "a.0 + b.0",
    "a.0 | b.0",
    "new(a) a.0",
    "a.(b.0 | c.0)",
    "new(a, b)(a.0 | (b.0 + tau.0))",
    "<a>.(b.0 | c.0) + tau.0",
    "a.b.c.0 | (new(x)(x.0 | ~x.0))",
]


@pytest.mark.parametrize("text", TERM_TEXTS)
def test_print_parse_roundtrip(text):
    t = parse_term(text)
    assert parse_term(format_term(t)) == t


# random terms: printing then reparsing is the identity
_names = st.sampled_from(["a", "b", "c"])
_actions = st.one_of(
    st.just(TAU_ACT),
    st.builds(act_in, _names),
    st.builds(act_out, _names),
)


_plain_consts = st.builds(Const, st.sampled_from(["K1", "K2"]))


def _terms(depth, consts=_plain_consts):
    if depth == 0:
        return st.one_of(st.just(NIL), consts)
    sub = _terms(depth - 1, consts)
    return st.one_of(
        st.just(NIL),
        consts,
        st.builds(Prefix, _actions, sub),
        st.builds(StrongPrefix, _actions, sub),
        st.builds(Par, sub, sub),
        st.builds(Restrict, _names, sub),
        st.builds(Sum,
                  st.builds(Prefix, _actions, sub),
                  st.builds(Prefix, _actions, sub)),
    )


def _assoc(t):
    # printing shows parallel compositions flat, so reparsing may
    # re-associate them; compare modulo that
    if isinstance(t, Par):
        out = []
        stack = [t]
        while stack:
            x = stack.pop()
            if isinstance(x, Par):
                stack.append(x.right)
                stack.append(x.left)
            else:
                out.append(_assoc(x))
        return ("par", tuple(out))
    if isinstance(t, (Prefix, StrongPrefix)):
        return (type(t).__name__, t.action, _assoc(t.body))
    if isinstance(t, Sum):
        return ("sum", _assoc(t.left), _assoc(t.right))
    if isinstance(t, Restrict):
        return ("new", t.name, _assoc(t.body))
    return t


@given(_terms(4))
def test_print_parse_roundtrip_random(t):
    assert _assoc(parse_term(format_term(t))) == _assoc(t)


@given(_terms(4))
def test_program_print_parse_roundtrip(t):
    env = Env()
    env.define("K1", Prefix(act_in("a"), NIL))
    env.define("K2", Prefix(act_in("b"), Const("K1")))
    prog = Program(env, t)
    text = format_program(prog)
    again = parse_program(text)
    assert _assoc(again.main) == _assoc(t)
    assert again.env.defs == env.defs


@given(_terms(4))
def test_walks_keep_the_recursive_order(t):
    assert list(iter_subterms(t)) == list(_preorder(t))
    env = Env()
    env.define("K1", Prefix(act_in("a"), NIL))
    env.define("K2", Prefix(act_in("b"), Const("K1")))
    offender = _nested_restrict(t, True)
    assert classify_finite_net(Program(env, t)) == (
        (True, "finite-net") if offender is None else
        (False, "main has a nested restriction: %s" % format_term(offender)))


# free names: the one-pass walk against a recursive reference, over
# shadowing binders (three names only) and renamed constants whose
# definitions refer to each other
_renamings = st.dictionaries(_names, st.sampled_from("abcd"), max_size=2).map(
    lambda m: tuple(sorted((o, n) for o, n in m.items() if o != n)))
_renamed_consts = st.builds(Const, st.sampled_from(["K1", "K2"]), _renamings)


@given(_terms(4, _renamed_consts), _terms(3, _renamed_consts),
       _terms(3, _renamed_consts))
def test_free_names_match_the_recursive_reference(t, k1, k2):
    env = Env()
    env.define("K1", k1)
    env.define("K2", k2)
    assert free_names(t, env) == recursive_free(t, env)
    assert free_names(Const("K1"), env) == recursive_free(Const("K1"), env)


# substitution: over shadowing binders, a renaming whose keys bind nowhere
# in the term maps its free names to exactly their image; a binder that
# would capture a target is renamed apart
_maps = st.dictionaries(st.sampled_from("abcd"), st.sampled_from("abcde"),
                        max_size=3)


@given(_terms(4, _renamed_consts), _maps, _terms(3, _renamed_consts),
       _terms(3, _renamed_consts))
def test_a_renaming_maps_free_names_to_their_image(t, m, k1, k2):
    env = Env()
    env.define("K1", k1)
    env.define("K2", k2)
    bound = {s.name for s in iter_subterms(t) if isinstance(s, Restrict)}
    m = {old: new for old, new in m.items() if old not in bound}
    assert free_names(subst_map(t, m, env), env) == {
        m.get(n, n) for n in free_names(t, env)}
