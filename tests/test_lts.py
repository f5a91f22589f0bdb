"""Transition-system semantics: base moves, composed moves, restriction,
atomic sequences, budgets."""

import random
from collections import deque

import pytest

import multiccs.lts as lts_module
import multiccs.terms as terms_module
from multiccs.lts import Budget, StepEngine, build_lts
from multiccs.normalform import normalize
from multiccs.parser import format_program, parse_program, parse_term
from multiccs.sync import SyncMode
from multiccs.terms import (
    GuardednessError, TAU_ACT, act_in, act_out, check_wellformed,
)

from conftest import CORPUS, load_program, random_finite_net_program

TAU = (TAU_ACT,)


def lts_of(text, **kw):
    return build_lts(parse_program(text), **kw)


def shape(lts):
    return len(lts.states), len(lts.transitions)


def init_labels(lts):
    return sorted(
        (tuple(str(a) for a in lab) for s, lab, _ in lts.transitions if s == lts.initial))


class TestBaseMoves:
    def test_nil_is_stuck(self):
        assert shape(lts_of("main = 0;")) == (1, 0)

    def test_prefix(self):
        l = lts_of("main = a.0;")
        assert shape(l) == (2, 1)
        assert l.transitions == [(0, (act_in("a"),), 1)]

    def test_sum_offers_both(self):
        l = lts_of("main = a.0 + b.0;")
        assert shape(l) == (2, 2)
        assert init_labels(l) == [("a",), ("b",)]

    def test_sum_deduplicates_identical_summands(self):
        l = lts_of("main = a.0 + a.0;")
        assert shape(l) == (2, 1)

    def test_constant_unfolds(self):
        l = lts_of("K = a.K; main = K;")
        assert shape(l) == (1, 1)   # self loop

    def test_unguarded_recursion_is_reported(self):
        with pytest.raises(GuardednessError):
            lts_of("P = Q + a.0; Q = P + b.0; main = P;")

    def test_guardedness_error_shows_the_term_as_written(self):
        with pytest.raises(GuardednessError, match=r"prefix in Q \+ a\.0$"):
            lts_of("P = Q + a.0; Q = P + b.0; main = P;")

    def test_strong_prefix_needs_a_continuation(self):
        # an atomic head whose body cannot move is a dead end
        assert shape(lts_of("main = <a>.0;")) == (1, 0)

    def test_strong_prefix_builds_sequence(self):
        l = lts_of("main = <a>.b.0;")
        assert shape(l) == (2, 1)
        assert l.transitions[0][1] == (act_in("a"), act_in("b"))


class TestComposition:
    def test_interleaving_diamond(self):
        assert shape(lts_of("main = a.0 | b.0;")) == (4, 4)

    def test_handshake_adds_tau(self):
        l = lts_of("main = a.0 | ~a.0;")
        assert shape(l) == (4, 5)
        assert ("tau",) in init_labels(l)

    def test_restriction_forces_the_handshake(self):
        l = lts_of("main = new(a)(a.0 | ~a.0);")
        assert shape(l) == (2, 1)
        assert init_labels(l) == [("tau",)]

    def test_restriction_blocks_a_lone_offer(self):
        assert shape(lts_of("main = new(a) a.0;")) == (1, 0)

    def test_restriction_does_not_reach_outside_its_scope(self):
        l = lts_of("main = (new(a) a.0) | ~a.0;")
        assert shape(l) == (2, 1)
        assert init_labels(l) == [("~a",)]

    def test_bound_and_free_copies_of_a_name_stay_apart(self):
        l = lts_of("main = (new(a) a.0) | a.0;")
        assert shape(l) == (2, 1)
        assert init_labels(l) == [("a",)]

    def test_atomic_sequence_closes_against_an_offer(self):
        # the pair a/~a cancels inside the sequence, leaving b
        l = lts_of("main = <a>.b.0 | ~a.0;")
        assert shape(l) == (4, 5)
        assert ("b",) in init_labels(l)

    def test_three_components_all_orders_covered(self):
        l = lts_of("main = a.0 | (b.0 | c.0);")
        r = lts_of("main = (a.0 | b.0) | c.0;")
        assert l.states == r.states and l.transitions == r.transitions
        assert shape(l) == (8, 12)

    def test_a_sync_cut_by_max_seq_len_truncates(self):
        text = "main = <a>.b.0 | <c>.~a.0;"
        full = lts_of(text, mode=SyncMode.GENERAL,
                      budget=Budget(max_seq_len=16))
        cut = lts_of(text, mode=SyncMode.GENERAL,
                     budget=Budget(max_seq_len=1))
        assert full.complete and shape(full) == (4, 5)
        assert ("c", "b") not in init_labels(cut)
        assert not cut.complete and shape(cut) == (4, 4)

    def test_closure_cap_truncates(self, monkeypatch):
        monkeypatch.setattr(lts_module, "_MAX_ITEMS", 2)
        l = lts_of("main = a.0 | b.0 | c.0;")
        assert not l.complete
        assert len(init_labels(l)) == 2

    def test_finite_net_mode_drops_transactional_merges(self):
        gen = lts_of("main = <a>.b.0 | <c>.~a.0;", mode=SyncMode.GENERAL)
        fn = lts_of("main = <a>.b.0 | <c>.~a.0;", mode=SyncMode.FINITE_NET)
        assert ("c", "b") in init_labels(gen)
        assert ("c", "b") not in init_labels(fn)
        assert len(init_labels(fn)) == 2


class TestNamedSystems:
    def test_multiway_association_is_one_tau(self):
        l = build_lts(load_program("multiway"))
        assert shape(l) == (9, 13)
        assert init_labels(l) == [("tau",)]

    def test_dining_philosophers(self):
        l = build_lts(load_program("dining"))
        assert shape(l) == (5, 11)
        labels = {tuple(str(a) for a in lab) for _, lab, _ in l.transitions}
        # fork handshakes are restricted away: only thinking, eating and
        # the atomic grab/release remain visible
        assert labels == {("think",), ("eat",), ("tau",)}

    def test_dining_philosophers_cannot_deadlock(self):
        l = build_lts(load_program("dining"))
        out_degree = {i: 0 for i in range(len(l.states))}
        for s, _, _ in l.transitions:
            out_degree[s] += 1
        assert all(n > 0 for n in out_degree.values())

    def test_semi_counter_is_infinite_state(self):
        l = build_lts(load_program("semicounter"), budget=Budget(max_states=8))
        assert not l.complete
        assert len(l.states) == 8

    def test_semi_counter_wide_states(self):
        # states grow one parallel component per up-step; a few hundred of
        # them must not break hashing, printing, or normalization
        l = build_lts(load_program("semicounter"), budget=Budget(max_states=300))
        assert not l.complete
        assert len(l.states) == 300
        assert all(0 <= s < 300 and 0 <= d < 300 for s, _, d in l.transitions)


    def test_normalize_calls_do_not_grow_with_the_state_space(
            self, monkeypatch):
        # a step normalizes only continuations it has not seen before, not
        # its whole target
        calls = []
        real = lts_module.normalize

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(lts_module, "normalize", counting)
        counts = []
        for cap in (100, 400):
            calls.clear()
            l = build_lts(load_program("semicounter"),
                          budget=Budget(max_states=cap))
            assert len(l.states) == cap
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 4

    def test_a_chain_walks_each_level_for_its_free_names_once(
            self, monkeypatch):
        # every normalization of a program reads one context, which keeps
        # the free names of each level; a context per call walked every
        # level below each state again, 40,000 walks at 200 actions
        calls = []
        real = terms_module._free

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(terms_module, "_free", counting)
        l = lts_of("main = %s0;" % ("a." * 200))
        assert (len(l.states), l.complete) == (201, True)
        assert len(calls) <= 400


def bfs_over_step(program, mode, budget, strict):
    """Reference exploration: the term-level `StepEngine.step` on whole
    normal forms, every target normalized whole and indexed by its printed
    form."""
    env = program.env
    engine = StepEngine(env, mode, budget.max_seq_len, strict)
    init = normalize(program.main, env, strict)
    keys = [init.key()]
    index = {keys[0]: 0}
    frontier = deque([init])
    transitions = []
    complete = True
    while frontier:
        nf = frontier.popleft()
        src = index[nf.key()]
        for label, target in engine.step(nf):
            k = target.key()
            j = index.get(k)
            if j is None:
                if len(keys) >= budget.max_states:
                    complete = False
                    continue
                j = len(keys)
                index[k] = j
                keys.append(k)
                frontier.append(target)
            transitions.append((src, label, j))
    return keys, transitions, complete and not engine.truncated


DIFF_BUDGET = Budget(max_states=40)
WELL_FORMED_CORPUS = [
    p.name for p in sorted(CORPUS.glob("*.mccs"))
    if check_wellformed(load_program(p.name)).ok]


def seeded_programs(count):
    rng = random.Random(6433)
    out = []
    while len(out) < count:
        prog = random_finite_net_program(rng)
        if check_wellformed(prog).ok:
            out.append(prog)
    return out


def assert_same_as_step_bfs(program, mode, strict):
    l = build_lts(program, mode, DIFF_BUDGET, strict)
    assert (l.states, l.transitions, l.complete) == bfs_over_step(
        program, mode, DIFF_BUDGET, strict)


@pytest.mark.parametrize("strict", [False, True], ids=["lax", "strict"])
@pytest.mark.parametrize("mode", list(SyncMode), ids=lambda m: m.value)
class TestAgainstStepOracle:
    @pytest.mark.parametrize("name", WELL_FORMED_CORPUS)
    def test_corpus(self, name, mode, strict):
        assert_same_as_step_bfs(load_program(name), mode, strict)

    def test_seeded_programs(self, mode, strict):
        for prog in seeded_programs(30):
            assert_same_as_step_bfs(prog, mode, strict)


@pytest.mark.parametrize("strict", [False, True], ids=["lax", "strict"])
@pytest.mark.parametrize("name", WELL_FORMED_CORPUS + ["seeded"])
def test_a_warm_context_changes_no_system(name, strict):
    # a program's normalizations share one context per mode, kept by its
    # Env: a second build reads the first one's memos, a parsed copy
    # starts from none, and all three give the same system
    progs = (seeded_programs(20) if name == "seeded"
             else [load_program(name)])
    for prog in progs:
        builds = [build_lts(p, budget=DIFF_BUDGET, strict=strict) for p in
                  (prog, prog, parse_program(format_program(prog)))]
        assert len({(tuple(l.states), tuple(l.transitions))
                    for l in builds}) == 1


class TestStepAndDeterminism:
    def test_step_on_a_raw_term(self):
        env = parse_program("main = 0;").env
        moves = StepEngine(env).step(parse_term("a.0 | ~a.0"))
        assert len(moves) == 3
        labels = [lab for lab, _ in moves]
        assert TAU in labels

    def test_step_results_are_sorted_and_stable(self):
        env = parse_program("main = 0;").env
        t = parse_term("b.0 + a.0 | ~a.c.0")
        assert StepEngine(env).step(t) == StepEngine(env).step(t)

    def test_building_twice_gives_identical_systems(self):
        a = build_lts(load_program("dining"))
        b = build_lts(load_program("dining"))
        assert a.states == b.states and a.transitions == b.transitions

    def test_engine_reuse_matches_fresh_engines(self):
        env = parse_program("main = 0;").env
        engine = StepEngine(env)
        t1, t2 = parse_term("a.0 | ~a.0"), parse_term("a.b.0 | c.0")
        fresh = [StepEngine(env).step(t) for t in (t1, t2)]
        shared = [engine.step(t) for t in (t1, t2)]
        assert fresh == shared

    def test_an_engine_splits_and_normalizes_in_one_mode(self):
        env = parse_program("main = 0;").env
        t = parse_term("new(a)(b.0 | 0)")
        targets = [[nf.key() for _, nf in StepEngine(env, strict=s).step(t)]
                   for s in (False, True)]
        assert targets == [["0"], ["new(ν1) 0 | 0"]]

    def test_strict_mode_keeps_inert_components(self):
        lax = lts_of("main = a.0 | 0;")
        strict = lts_of("main = a.0 | 0;", strict=True)
        assert lax.states != strict.states
        assert shape(lax) == shape(strict) == (2, 1)


def test_a_visit_search_keeps_no_edges():
    def ring(i):
        return [("a", (i + 1) % 5), ("b", i)]

    seen = []
    states, edges, complete = lts_module.explore(
        0, ring, 10, lambda s, kept: seen.append(s))
    assert states == seen == [0, 1, 2, 3, 4] and complete and edges == []
    # the same search without a hook keeps all ten edges
    assert len(lts_module.explore(0, ring, 10)[1]) == 10


class TestLtsHelpers:
    def test_labels(self):
        l = lts_of("main = a.b.0;")
        assert {label for _, label, _ in l.transitions} == {
            (act_in("a"),), (act_in("b"),)}

    def test_summary_mentions_truncation(self):
        l = lts_of("main = a.0;")
        assert "complete" in l.summary()
        t = build_lts(load_program("semicounter"), budget=Budget(max_states=3))
        assert "truncated" in t.summary()
