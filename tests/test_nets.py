"""Net semantics: decomposition, net construction, token game, analyses,
and the net text format."""

import random
from collections import Counter

import pytest

import multiccs.lts
import multiccs.nets
from multiccs.equiv import isomorphic
from multiccs.lts import Budget, build_lts
from multiccs.net2term import translate
from multiccs.nets import (
    NetBuilder, PTNet, build_net, dec, format_marking, is_reduced, is_safe,
    marking_graph,
)
from multiccs.parser import (
    ParseError, format_pnet, parse_pnet, parse_program, parse_term,
)
from multiccs.sync import SyncMode, sync_outcomes
from multiccs.terms import (
    FreshAllocator, GuardednessError, Par, Restrict, act_in, act_out,
    classify_finite_net, format_sequence, subst_map,
)

from conftest import (
    load_net, load_program, philosophers_ring, random_reduced_nets,
)
from oracles import full_scan_marking_graph


def places(marking, net):
    return format_marking(marking, net.place_names)


class TestDecomposition:
    def dec_of(self, text, defs=""):
        prog = parse_program(defs + "main = %s;" % text)
        return dec(prog.main, prog.env, FreshAllocator())

    def test_nil_vanishes(self):
        assert self.dec_of("0") == Counter()
        assert self.dec_of("a.0 | 0") == Counter({parse_term("a.0"): 1})

    def test_parallel_is_multiset_union(self):
        m = self.dec_of("a.0 | (b.0 | a.0)")
        assert m[parse_term("a.0")] == 2 and m[parse_term("b.0")] == 1

    def test_sequential_terms_are_single_places(self):
        for text in ["a.0", "<a>.b.0", "a.0 + b.0", "tau.0"]:
            m = self.dec_of(text)
            assert sum(m.values()) == 1

    def test_restriction_opens_to_a_fresh_restricted_name(self):
        m = self.dec_of("new(a)(a.0 | ~a.0)")
        names = {p.action.name for p in m}
        assert names == {"a#1"}
        assert all(p.action.is_restricted for p in m)

    def test_nested_restrictions_get_distinct_names(self):
        m = self.dec_of("new(a)(a.0 | (new(a) a.0))")
        assert {p.action.name for p in m} == {"a#1", "a#2"}

    @pytest.mark.parametrize("text", [
        "new(a, b)(a.~b.0 | b.K)",
        "new(a, b, a)(a.b.0 | ~a.c.K)",
        "new(a)((new(a) a.0) | (new(c) new(a) c.a.0))",
    ])
    def test_a_run_of_binders_opens_as_one_binder_at_a_time(self, text):
        # reference: one substitution pass per binder, outermost first
        prog = parse_program("K = a.K + b.0; main = %s;" % text)
        alloc = FreshAllocator()

        def one_at_a_time(t):
            if isinstance(t, Restrict):
                fresh = alloc.fresh(t.name)
                return one_at_a_time(subst_map(t.body, {t.name: fresh},
                                               prog.env))
            if isinstance(t, Par):
                return one_at_a_time(t.left) + one_at_a_time(t.right)
            return Counter({t: 1})

        assert dec(prog.main, prog.env, FreshAllocator()) \
            == one_at_a_time(prog.main)

    def test_constant_unfolds_through_parallel(self):
        m = self.dec_of("K", defs="K = a.0 | b.K; ")
        assert m == Counter({parse_term("a.0"): 1, parse_term("b.K"): 1})

    def test_unguarded_constant_is_reported(self):
        with pytest.raises(GuardednessError):
            self.dec_of("K", defs="K = K | a.0; ")


@pytest.mark.parametrize("text", [
    "K = <a>.K; main = K;",
    "K = <a>.(K | b.0); main = K;",
    "K = <a>.K + c.0; main = b.K;",
    # ill-formed: neither constant reaches a prefix
    "P = Q + a.0; Q = P + b.0; main = P;",
])
@pytest.mark.parametrize("semantics", [build_lts, build_net],
                         ids=["lts", "net"])
def test_unguarded_recursion_is_refused_by_both_semantics(semantics, text):
    # both take their moves from `lts.Moves`, whose guard refuses to
    # re-enter a body it is unfolding
    with pytest.raises(GuardednessError, match="does not reach a normal"):
        semantics(parse_program(text))


def test_a_repeated_move_keeps_the_marking_of_its_last_occurrence():
    # both summands move by a to b.0 | c.0, which is kept once, with the
    # marking of the last summand: its order numbers the new places
    net = build_net(parse_program("main = a.(b.0 | c.0) + a.(c.0 | b.0);"))
    assert [str(t) for t in net.place_terms[1:]] == ["c.0", "b.0"]


class TestTokenGame:
    def test_weighted_arcs(self):
        net = load_net("weighted")
        g = marking_graph(net)
        assert (len(g.states), len(g.transitions)) == (8, 8)
        assert g.states[0] == "3*s1 + 2*s2"

    def test_graph_deduplicates_edges(self):
        # two enabled ways to fire the same transition into the same
        # marking appear once
        net = PTNet("twin", ["s1"], Counter({0: 2}),
                    [(Counter({0: 1}), (act_in("a"),), Counter({0: 1}))])
        g = marking_graph(net)
        assert (len(g.states), len(g.transitions)) == (1, 1)

    def test_graph_truncation(self):
        net = load_net("weighted")
        g = marking_graph(net, Budget(max_states=3))
        assert not g.complete and len(g.states) == 3


class TestBuiltNets:
    def test_semi_counter(self):
        net = build_net(load_program("semicounter"))
        assert net.summary() == "2 places, 2 transitions, complete"
        shapes = {(places(pre, net), format_sequence(lab), places(post, net))
                  for pre, lab, post in net.transitions}
        assert shapes == {("s1", "up", "s1 + s2"), ("s2", "down", "(empty)")}
        assert is_safe(net) == "no"       # s2 is unbounded
        assert is_reduced(net) == "yes"

    def test_dining_philosophers(self):
        net = build_net(load_program("dining"))
        assert net.summary() == "10 places, 8 transitions, complete"
        taus = [(pre, post) for pre, lab, post in net.transitions
                if lab == (parse_term("tau.0").action,)]
        # grabbing and releasing both forks are three-party atomic steps
        assert len(taus) == 4
        assert all(sum(pre.values()) == 3 and sum(post.values()) == 3
                   for pre, post in taus)
        assert is_safe(net) == "yes"

    def test_readers_writers(self):
        net = build_net(load_program("readers_writers"))
        assert net.summary() == "8 places, 6 transitions, complete"
        assert places(net.initial, net) == "4*s1 + 2*s2 + 3*s3"
        pre_sizes = sorted(sum(pre.values()) for pre, lab, post in net.transitions
                           if lab == (parse_term("tau.0").action,))
        # a reader takes one lock token, a writer takes all three at once
        assert pre_sizes == [2, 2, 4, 4]
        g = marking_graph(net)
        assert (len(g.states), len(g.transitions)) == (12, 21)

    def test_multiway(self):
        net = build_net(load_program("multiway"))
        assert net.summary() == "6 places, 4 transitions, complete"
        labels = sorted(format_sequence(lab) for _, lab, _ in net.transitions)
        assert labels == ["cp", "cq", "cr", "tau"]
        tau_pre = [pre for pre, lab, _ in net.transitions
                   if format_sequence(lab) == "tau"]
        assert len(tau_pre) == 1 and sum(tau_pre[0].values()) == 3

    def test_counter_is_infinite_and_monotone_under_budget(self):
        prog = load_program("counter")
        small = build_net(prog, budget=Budget(max_states=30))
        large = build_net(prog, budget=Budget(max_states=60))
        assert not small.complete and not large.complete
        assert len(small.place_names) < len(large.place_names)
        assert len(large.place_names) == 96

    def test_duplicator_contrast(self):
        prog = load_program("duplicator")
        fn = build_net(prog, mode=SyncMode.FINITE_NET)
        assert fn.complete and len(fn.transitions) == 1
        pre, lab, post = fn.transitions[0]
        assert format_sequence(lab) == "a ~a"
        assert (places(pre, fn), places(post, fn)) == ("s1", "2*s1")
        gen = build_net(prog, mode=SyncMode.GENERAL,
                        budget=Budget(max_transitions=5))
        assert not gen.complete
        shapes = {(places(pre, gen), places(post, gen))
                  for pre, _, post in gen.transitions}
        assert ("s1", "2*s1") in shapes and ("2*s1", "4*s1") in shapes

    def test_a_sync_cut_by_max_seq_len_truncates(self):
        prog = parse_program("main = <a>.b.0 | <c>.~a.0;")
        full = build_net(prog, mode=SyncMode.GENERAL,
                         budget=Budget(max_seq_len=16))
        cut = build_net(prog, mode=SyncMode.GENERAL,
                        budget=Budget(max_seq_len=1))
        assert full.complete and len(full.transitions) == 3
        assert not cut.complete and len(cut.transitions) == 2

    def test_closure_stops_at_its_item_cap(self, monkeypatch):
        # general-mode duplicator: k tokens enable a k-fold joint step, so
        # the closure at a large seed grows past item_cap; it must stop
        # pairing there instead of running the remaining queue
        calls = []

        def counting(*args):
            calls.append(None)
            return sync_outcomes(*args)

        monkeypatch.setattr(multiccs.lts, "sync_outcomes", counting)
        monkeypatch.setattr(multiccs.nets, "sync_outcomes", counting,
                            raising=False)
        net = build_net(load_program("duplicator"), mode=SyncMode.GENERAL,
                        budget=Budget(max_transitions=120))
        assert not net.complete
        assert 0 < len(calls) < 20000

    @pytest.mark.parametrize("text, cap", [("main = a.0 | b.0;", 1),
                                           ("main = a.0;", 0)])
    def test_initial_marking_over_the_place_cap_truncates(self, text, cap):
        # the places that fit make a truncated net; no KeyError from the
        # initial places that did not
        net = build_net(parse_program(text), budget=Budget(max_places=cap))
        assert not net.complete
        assert len(net.place_names) == cap
        assert set(net.initial) == set(range(cap))
        assert format_pnet(net)

    def test_derive_items_before_build(self):
        prog = parse_program("main = a.0 | ~a.0;")
        builder = multiccs.nets.NetBuilder(prog.env, SyncMode.GENERAL)
        items = builder.derive_items(dec(prog.main, prog.env))
        assert sorted(format_sequence(label) for _, label, _ in items) \
            == ["a", "tau", "~a"]
        assert not builder.truncated

    def fallback_build(self, monkeypatch, budget):
        # four independent two-step sequences: 81 reachable markings, far
        # more than the Karp-Miller tree may hold under max_states=4
        prog = parse_program("main = a.b.0 | c.d.0 | e.f.0 | g.h.0;")
        results = []
        real = NetBuilder._backward_closure

        def spy(self, *args):
            results.append(real(self, *args))
            return results[-1]

        monkeypatch.setattr(NetBuilder, "_backward_closure", spy)
        return prog, build_net(prog, budget=budget), results

    def test_backward_fallback_completes_a_truncated_search(self, monkeypatch):
        prog, net, results = self.fallback_build(
            monkeypatch, Budget(max_states=4))
        assert len(results) == 1 and results[0] is not None
        assert net.complete
        assert format_pnet(net) == format_pnet(build_net(prog))

    def test_backward_fallback_rebuilds_a_translated_ring(self, monkeypatch):
        # the Karp-Miller tree of a translated ring of 8 (47 reachable
        # markings) is cut at 20 and not kept; the backward closure
        # completes a net isomorphic to the ring it came from
        trees, results = [], []
        coverability = NetBuilder._coverability
        backward = NetBuilder._backward_closure

        def spy_tree(self, *args):
            maximal, complete = coverability(self, *args)
            trees.append((complete, self._tree))
            return maximal, complete

        def spy_fallback(self, *args):
            results.append(backward(self, *args))
            return results[-1]

        monkeypatch.setattr(NetBuilder, "_coverability", spy_tree)
        monkeypatch.setattr(NetBuilder, "_backward_closure", spy_fallback)
        ring = philosophers_ring(8)
        net = build_net(translate(ring), budget=Budget(max_states=20))
        assert trees[-1] == (False, None)
        assert len(results) == 1 and results[0] is not None
        assert net.complete and len(net.place_names) == 24
        assert len(net.transitions) == 16
        assert isomorphic(net, ring).found

    def test_backward_fallback_over_budget_leaves_the_net_truncated(
            self, monkeypatch):
        _, net, results = self.fallback_build(
            monkeypatch, Budget(max_states=4, max_transitions=6))
        assert results == [None]
        assert not net.complete
        assert len(net.transitions) == 6

    @pytest.mark.parametrize("max_states", [4, 50])
    def test_backward_fallback_closure_is_bounded_by_the_state_budget(
            self, max_states):
        # complete within 0.005 s at the default budget; under a small
        # state cap the fallback's closure over the omega-seed used to run
        # towards the item cap of the transition budget, for minutes
        prog = parse_program("K1 = b.<~b>.c.K1 + b.b.0; K2 = ~c.<a>.b.0;"
                             " main = <c>.~c.K2 | a.~b.0 | K2 | ~b.b.0;")
        assert build_net(prog).complete
        assert not build_net(prog, budget=Budget(max_states=max_states)
                             ).complete

    def test_no_backward_fallback_after_a_transition_cap_alone(
            self, monkeypatch):
        # the Karp-Miller tree of counter is complete here; only the
        # transition cap cut the build, and the fallback would meet the
        # transition that did not fit again
        calls = []
        real = NetBuilder._backward_closure

        def spy(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(NetBuilder, "_backward_closure", spy)
        net = build_net(load_program("counter"),
                        budget=Budget(max_transitions=2))
        assert calls == [] and not net.complete
        assert format_pnet(net) == (
            "net counter\n"
            "place s1 init 1\nplace s2 init 0\nplace s3 init 0\n"
            "trans t1 label up in s1:1 out s2:1 s3:1\n"
            "trans t2 label zero in s1:1 out s1:1\n")

    def test_mode_defaults_to_the_fragment_check(self):
        sc = load_program("semicounter")
        assert classify_finite_net(sc)[0]
        counter = load_program("counter")
        assert not classify_finite_net(counter)[0]
        # same outcome as forcing the mode explicitly
        auto = build_net(sc)
        forced = build_net(sc, mode=SyncMode.FINITE_NET)
        assert auto.summary() == forced.summary()

    def test_built_nets_are_reduced(self):
        for name in ["semicounter", "dining", "readers_writers", "multiway"]:
            net = build_net(load_program(name))
            assert is_reduced(net) == "yes", name

    def test_restricted_actions_never_surface(self):
        net = build_net(load_program("dining"))
        for _, lab, _ in net.transitions:
            assert not any(a.is_restricted for a in lab)

    def test_deterministic_construction(self):
        a = build_net(load_program("readers_writers"))
        b = build_net(load_program("readers_writers"))
        assert format_pnet(a) == format_pnet(b)


class TestAnalyses:
    @pytest.mark.parametrize(
        "net", [philosophers_ring(n) for n in range(3, 11)]
        + random_reduced_nets(random.Random(6433), 60),
        ids=lambda net: net.name)
    def test_marking_graph_matches_the_full_scan_oracle(self, net):
        budget = Budget(max_states=500)
        graph = marking_graph(net, budget)
        oracle = full_scan_marking_graph(net, budget)
        assert (graph.states, graph.transitions, graph.complete) == (
            oracle.states, oracle.transitions, oracle.complete)

    def test_is_safe_spots_initial_overload(self):
        assert is_safe(load_net("weighted")) == "no"

    def test_is_safe_yes_and_unknown(self):
        assert is_safe(load_net("phils")) == "yes"
        sc = build_net(load_program("semicounter"))
        assert is_safe(sc, Budget(max_states=2)) in ("no", "unknown")

    def test_is_reduced_corpus(self):
        for name in ["phils", "weighted", "loop_a", "cycle_a"]:
            assert is_reduced(load_net(name)) == "yes", name

    def test_is_reduced_rejects_dead_place(self):
        net = PTNet("dead", ["s1", "s2"], Counter({0: 1}),
                    [(Counter({0: 1}), (act_in("a"),), Counter({0: 1}))])
        assert is_reduced(net) == "no"

    def test_is_reduced_rejects_dead_transition(self):
        net = PTNet("stuck", ["s1"], Counter({0: 1}),
                    [(Counter({0: 2}), (act_in("a"),), Counter())])
        assert is_reduced(net) == "no"

    def test_is_reduced_rejects_empty_preset(self):
        net = PTNet("spont", ["s1"], Counter({0: 1}),
                    [(Counter(), (act_in("a"),), Counter({0: 1}))])
        assert is_reduced(net) == "no"

    def test_is_reduced_unknown_when_truncated(self):
        prog = load_program("counter")
        net = build_net(prog, budget=Budget(max_states=30))
        assert is_reduced(net, Budget(max_states=5)) in ("unknown", "yes")


class TestTransitionNames:
    def test_an_unnamed_net_numbers_its_transitions(self):
        net = PTNet("n", ["s1"], Counter({0: 1}),
                    [(Counter({0: 1}), (act_in("a"),), Counter()),
                     (Counter({0: 1}), (act_in("b"),), Counter({0: 1}))])
        assert net.trans_names == ["t1", "t2"]
        assert "trans t2 label b in s1:1 out s1:1" in format_pnet(net)

    def test_a_name_count_unlike_the_transition_count_is_rejected(self):
        with pytest.raises(ValueError):
            PTNet("n", ["s1"], Counter({0: 1}),
                  [(Counter({0: 1}), (act_in("a"),), Counter())],
                  ["t1", "t2"])


class TestNetFormat:
    def test_roundtrip_corpus(self):
        for name in ["phils", "weighted", "loop_a", "cycle_a"]:
            net = load_net(name)
            again = parse_pnet(format_pnet(net))
            assert again.place_names == net.place_names
            assert again.initial == net.initial
            assert again.transitions == net.transitions

    def test_roundtrip_built(self):
        net = build_net(load_program("dining"))
        again = parse_pnet(format_pnet(net))
        assert again.initial == net.initial
        assert again.transitions == net.transitions

    @pytest.mark.parametrize("bad", [
        "place s1 init 1",                                   # missing header
        "net n place s1 init 1 trans t label a in out s1:1", # empty preset
        "net n place s1 init 1 trans t label a in s1:0 out", # zero weight
        "net n place s1 init 1 place s1 init 0",             # duplicate place
        "net n place s1 init 1 trans t label a in s9:1 out", # unknown place
        "net n place s1 init 1 trans t label in s1:1 out",   # missing label
        "net 3 place s1 init 1",                             # no net name
        "net n place s1 init 1 trans t label a in s1:1 out "
        "trans t label b in s1:1 out",                       # duplicate trans
        "net n place s1 init 1 trans t label a in s1:1 out "
        "trans u label a in s1:1 out",                       # same arcs, label
        "net n place s1 init 1 trans t label a in s1:1 "
        "s1:1 out",                                          # place repeated
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_pnet(bad)

    def test_labels_may_be_sequences(self):
        net = parse_pnet("net n place s1 init 1 "
                         "trans t label a.~b.tau in s1:1 out s1:2")
        (_, lab, _), = net.transitions
        assert lab == (act_in("a"), act_out("b"), parse_term("tau.0").action)
