"""Bisimilarity and net isomorphism, validated against a naive
greatest-fixpoint oracle and by replaying every produced witness."""

import random
from collections import Counter

import pytest

from multiccs.equiv import (
    TRUE, Diamond, IncompleteLtsError, bisimilar, formula_holds,
    is_bisimulation_partition, isomorphic, render_formula,
    verify_isomorphism,
)
from multiccs.lts import Budget, Lts, build_lts
from multiccs.nets import PTNet, build_net, marking_graph
from multiccs.parser import parse_program
from multiccs.terms import act_in, act_out, TAU_ACT

from conftest import load_net, load_program, random_net
from oracles import brute_isomorphic, naive_bisimilar

A, B_, TAU = (act_in("a"),), (act_in("b"),), (TAU_ACT,)


def lts_of(text, **kw):
    return build_lts(parse_program(text), **kw)


def check_verdict(l1, l2):
    """Production verdict must match the oracle, and every witness must
    replay: partitions for positives, formulas for negatives."""
    res = bisimilar(l1, l2)
    assert res.equivalent == naive_bisimilar(l1, l2)
    if res.equivalent:
        assert is_bisimulation_partition(l1, l2, res.blocks)
    else:
        f = res.formula
        assert formula_holds(l1, l1.initial, f)
        assert not formula_holds(l2, l2.initial, f)
        assert render_formula(f)
    return res


class TestPinnedVerdicts:
    def test_reflexive(self):
        l = lts_of("main = a.b.0 + c.0;")
        assert check_verdict(l, l).equivalent

    def test_distinct_actions(self):
        res = check_verdict(lts_of("main = a.0;"), lts_of("main = b.0;"))
        assert not res.equivalent
        assert res.counterexample() == "<a>true"

    def test_branching_time_distinguishes(self):
        # committing to b-or-c early is observable
        l1 = lts_of("main = a.(b.0 + c.0);")
        l2 = lts_of("main = a.b.0 + a.c.0;")
        res = check_verdict(l1, l2)
        assert not res.equivalent

    def test_unrolling_is_invisible(self):
        l1 = lts_of("K = a.K; main = K;")
        l2 = lts_of("K = a.a.K; main = K;")
        assert check_verdict(l1, l2).equivalent

    def test_sequence_labels_must_match_exactly(self):
        l1 = lts_of("main = <a>.b.0;")
        l2 = lts_of("main = a.b.0;")
        res = check_verdict(l1, l2)
        assert not res.equivalent

    def test_deadlock_vs_livelock(self):
        res = check_verdict(lts_of("main = tau.0;"),
                            lts_of("K = tau.K; main = K;"))
        assert not res.equivalent


class TestTruncationRefusal:
    def test_rejects_truncated_input(self):
        full = lts_of("main = a.0;")
        cut = build_lts(load_program("semicounter"), budget=Budget(max_states=4))
        with pytest.raises(IncompleteLtsError):
            bisimilar(full, cut)
        with pytest.raises(IncompleteLtsError):
            bisimilar(cut, full)

    def test_net_bisimilar_rejects_truncated_net(self):
        # the marking graph of a truncated net is truncated, even where
        # its own search kept every marking
        net = build_net(load_program("counter"), budget=Budget(max_states=20))
        graph = marking_graph(net)
        assert not net.complete and not graph.complete
        with pytest.raises(IncompleteLtsError):
            bisimilar(graph, graph)


def chain(n: int) -> Lts:
    """n states in a row, joined by a-steps."""
    return Lts([str(i) for i in range(n)],
               [(i, A, i + 1) for i in range(n - 1)])


class TestDeepVerdicts:
    # formulas as deep as the systems are long; none may exhaust the
    # interpreter's recursion limit

    def test_chains_of_600_and_599_states(self):
        long, short = chain(600), chain(599)
        res = bisimilar(long, short)
        assert not res.equivalent
        assert res.counterexample() == "<a>" * 599 + "true"
        assert formula_holds(long, long.initial, res.formula)
        assert not formula_holds(short, short.initial, res.formula)

    def test_short_chains_keep_their_formulas(self):
        assert bisimilar(chain(2), chain(1)).counterexample() == "<a>true"
        assert bisimilar(chain(4), chain(3)).counterexample() \
            == "<a><a><a>true"

    def test_a_diamond_formula_5000_deep(self):
        f = TRUE
        for _ in range(5000):
            f = Diamond(A, f)
        assert render_formula(f) == "<a>" * 5000 + "true"
        assert formula_holds(chain(5001), 0, f)
        assert not formula_holds(chain(5000), 0, f)


class TestNetBisimilarity:
    def test_loop_and_cycle_agree(self):
        assert bisimilar(marking_graph(load_net("loop_a")),
                         marking_graph(load_net("cycle_a"))).equivalent

    def test_different_systems_disagree(self):
        res = bisimilar(marking_graph(load_net("phils")),
                        marking_graph(load_net("weighted")))
        assert not res.equivalent
        assert res.counterexample()

    def test_term_lts_matches_marking_graph_for_dining(self):
        prog = load_program("dining")
        assert bisimilar(build_lts(prog),
                         marking_graph(build_net(prog))).equivalent


class TestIsomorphism:
    def test_identity(self):
        net = load_net("phils")
        iso = isomorphic(net, net)
        assert iso.found and verify_isomorphism(net, net, iso.place_map)

    def test_permutation_is_recovered(self):
        net = load_net("weighted")
        perm = [2, 0, 1]   # place i of net becomes place perm[i]
        shuffled = PTNet(
            "shuffled",
            ["p%d" % i for i in range(3)],
            Counter({perm[s]: n for s, n in net.initial.items()}),
            [(Counter({perm[s]: n for s, n in pre.items()}), lab,
              Counter({perm[s]: n for s, n in post.items()}))
             for pre, lab, post in net.transitions],
            net.trans_names)
        iso = isomorphic(net, shuffled)
        assert iso.found
        assert verify_isomorphism(net, shuffled, iso.place_map)
        assert iso.place_map == perm
        assert iso.mapping(net, shuffled)["s1"] == "p2"

    def test_a_1500_place_chain_is_matched_without_recursion(self):
        # distinct labels colour every place apart, so the search assigns
        # 1,500 places one level each
        n = 1500

        def chain(at):
            return PTNet("chain", ["s%d" % (i + 1) for i in range(n)],
                         Counter({at[0]: 1}),
                         [(Counter({at[i]: 1}), (act_in("a%d" % i),),
                           Counter({at[i + 1]: 1})) for i in range(n - 1)])

        perm = list(range(n))
        random.Random(0).shuffle(perm)
        net, shuffled = chain(list(range(n))), chain(perm)
        iso = isomorphic(net, shuffled)
        assert iso.found and iso.place_map == perm
        assert verify_isomorphism(net, shuffled, iso.place_map)

    def test_bisimilar_nets_need_not_be_isomorphic(self):
        n1, n2 = load_net("loop_a"), load_net("cycle_a")
        assert bisimilar(marking_graph(n1), marking_graph(n2)).equivalent
        assert not isomorphic(n1, n2).found

    def test_label_mismatch(self):
        n1 = load_net("loop_a")
        n2 = PTNet("b", ["s1"], Counter({0: 1}),
                   [(Counter({0: 1}), B_, Counter({0: 1}))], ["t1"])
        assert not isomorphic(n1, n2).found

    def test_weight_mismatch(self):
        n1 = PTNet("w1", ["s1"], Counter({0: 2}),
                   [(Counter({0: 1}), A, Counter({0: 1}))], ["t1"])
        n2 = PTNet("w2", ["s1"], Counter({0: 2}),
                   [(Counter({0: 2}), A, Counter({0: 2}))], ["t1"])
        assert not isomorphic(n1, n2).found

    def test_verify_rejects_a_wrong_witness(self):
        net = load_net("weighted")
        assert not verify_isomorphism(net, net, [1, 0, 2])
        assert verify_isomorphism(net, net, [0, 1, 2])

    def test_verify_rejects_a_map_that_is_no_bijection(self):
        net = load_net("weighted")
        assert not verify_isomorphism(net, net, [0, 1])
        assert not verify_isomorphism(net, net, [0, 1, 1])

    def test_an_exhausted_search_answers_no(self):
        # one 6-cycle of places against two 3-cycles, every arc labelled a
        # and every place marked once: refinement keeps all 6 places in
        # one class on each side, so only the full search can say no
        def cycles(*lengths):
            arcs, start = [], 0
            for n in lengths:
                arcs += [(Counter({start + i: 1}), A,
                          Counter({start + (i + 1) % n: 1}))
                         for i in range(n)]
                start += n
            return PTNet("c", ["s%d" % (i + 1) for i in range(start)],
                         Counter({i: 1 for i in range(start)}), arcs)

        one, two = cycles(6), cycles(3, 3)
        assert not isomorphic(one, two).found
        assert not brute_isomorphic(one, two)

    def test_isomorphic_implies_bisimilar(self):
        net = load_net("weighted")
        perm = [1, 2, 0]
        shuffled = PTNet(
            "s", net.place_names,
            Counter({perm[s]: n for s, n in net.initial.items()}),
            [(Counter({perm[s]: n for s, n in pre.items()}), lab,
              Counter({perm[s]: n for s, n in post.items()}))
             for pre, lab, post in net.transitions],
            net.trans_names)
        assert isomorphic(net, shuffled).found
        assert bisimilar(marking_graph(net),
                         marking_graph(shuffled)).equivalent


class TestPartitionReplay:
    def test_corrupted_partition_is_rejected(self):
        l1 = lts_of("main = a.b.0;")
        l2 = lts_of("main = a.b.0;")
        res = bisimilar(l1, l2)
        assert res.equivalent
        bad = dict(res.blocks)
        bad[(0, 1)] = bad[(1, 0)]   # merge unrelated states into one block
        assert not is_bisimulation_partition(l1, l2, bad)

    def test_a_partition_that_is_no_bisimulation_is_rejected(self):
        l1 = lts_of("main = a.0 + b.0;")
        l2 = lts_of("main = a.0;")
        one_block = {(side, s): 0 for side, lts in enumerate((l1, l2))
                     for s in range(len(lts.states))}
        assert not is_bisimulation_partition(l1, l2, one_block)
        # a relation that leaves the initial states unrelated
        apart = dict(one_block)
        apart[(0, l1.initial)] = 1
        assert not is_bisimulation_partition(l1, l2, apart)


# -- randomized agreement with the oracle ------------------------------------

LABELS = [A, B_, TAU]


def tkey(t):
    return (t[0], tuple(a.key() for a in t[1]), t[2])


def random_lts(rng, max_states=7):
    n = rng.randint(1, max_states)
    transitions = []
    for s in range(n):
        for _ in range(rng.randint(0, 3)):
            transitions.append((s, rng.choice(LABELS), rng.randrange(n)))
    return Lts(["q%d" % i for i in range(n)], sorted(set(transitions), key=tkey), 0)


def duplicated(rng, lts):
    """Split one state into two behavioral copies: bisimilar by
    construction."""
    n = len(lts.states)
    victim = rng.randrange(n)
    dup = n
    transitions = list(lts.transitions)
    transitions += [(dup, lab, d) for s, lab, d in lts.transitions if s == victim]
    transitions = [
        (s, lab, dup if d == victim and rng.random() < 0.5 else d)
        for s, lab, d in transitions]
    initial = lts.initial
    return Lts(lts.states + ["q%d" % dup], sorted(set(transitions), key=tkey), initial)


def perturbed(rng, lts):
    transitions = list(lts.transitions)
    if transitions and rng.random() < 0.5:
        transitions.pop(rng.randrange(len(transitions)))
    else:
        n = len(lts.states)
        transitions.append((rng.randrange(n), rng.choice(LABELS), rng.randrange(n)))
    return Lts(list(lts.states), sorted(set(transitions), key=tkey), lts.initial)


def test_oracle_agreement_random_graphs():
    rng = random.Random(2024)
    verdicts = Counter()
    for _ in range(150):
        l1 = random_lts(rng)
        for l2 in (random_lts(rng), duplicated(rng, l1), perturbed(rng, l1)):
            res = check_verdict(l1, l2)
            verdicts[res.equivalent] += 1
        assert bisimilar(l1, duplicated(rng, l1)).equivalent
    # the sample must exercise both verdicts
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_oracle_agreement_on_process_pairs():
    texts = [
        "main = a.0;",
        "main = a.0 + a.0;",
        "main = a.0 | ~a.0;",
        "main = new(a)(a.0 | ~a.0);",
        "main = tau.0;",
        "main = a.(b.0 | c.0);",
        "main = a.b.0 | c.0;",
        "main = <a>.b.0;",
        "K = a.K; main = K;",
        "K = a.a.K; main = K;",
    ]
    systems = [lts_of(t) for t in texts]
    for i, l1 in enumerate(systems):
        for l2 in systems[i:]:
            check_verdict(l1, l2)


def shuffled_net(rng, net: PTNet) -> PTNet:
    """net with its places and its transitions listed in a random order."""
    perm = list(range(len(net.place_names)))
    rng.shuffle(perm)

    def moved(m):
        return Counter({perm[s]: w for s, w in m.items()})

    trans = [(moved(pre), lab, moved(post))
             for pre, lab, post in net.transitions]
    rng.shuffle(trans)
    names = [None] * len(perm)
    for s, name in enumerate(net.place_names):
        names[perm[s]] = name
    return PTNet("shuffled", names, moved(net.initial), trans,
                 ["t%d" % (i + 1) for i in range(len(trans))])


def arc_moved(rng, net: PTNet) -> PTNet:
    """net with one preset arc moved to another place."""
    trans = [(Counter(pre), lab, Counter(post))
             for pre, lab, post in net.transitions]
    pre = rng.choice(trans)[0]
    s = rng.choice(sorted(pre))
    w = pre.pop(s)
    pre[rng.choice([p for p in range(len(net.place_names)) if p != s])] += w
    return PTNet("moved", list(net.place_names), Counter(net.initial), trans,
                 list(net.trans_names))


def test_isomorphism_agrees_with_brute_force():
    rng = random.Random(3)
    still_isomorphic = 0
    for _ in range(300):
        net = random_net(rng, ccs_shape=rng.random() < 0.5)
        same = shuffled_net(rng, net)
        iso = isomorphic(net, same)
        assert iso.found and verify_isomorphism(net, same, iso.place_map)
        assert brute_isomorphic(net, same)
        if len(net.place_names) < 2:
            continue
        other = shuffled_net(rng, arc_moved(rng, net))
        iso = isomorphic(net, other)
        assert iso.found == brute_isomorphic(net, other)
        if iso.found:
            assert verify_isomorphism(net, other, iso.place_map)
            still_isomorphic += 1
    # the mutation must leave both answers represented
    assert 0 < still_isomorphic < 250
