"""Net-to-term translation: pinned outputs, the no-strong-prefix subclass,
validation, net reconstruction, and the choice of channel encoding."""

import random
from collections import Counter

import pytest

from multiccs import net2term
from multiccs.equiv import isomorphic, verify_isomorphism
from multiccs.lts import Budget, build_lts
from multiccs.nets import PTNet, build_net
from multiccs.net2term import (
    TranslationError, _encode, _offers_are_bounded, is_ccs_net, translate,
)
from multiccs.parser import format_program, parse_pnet
from multiccs.sync import SyncMode
from multiccs.terms import (
    StrongPrefix, act_in, act_out, check_wellformed, classify_finite_net,
    iter_subterms, TAU_ACT,
)

from conftest import (
    CORPUS, load_net, load_program, philosophers_ring, random_reduced_nets,
)
from oracles import _rebuilds_exactly, multi_source, rebuild_translate


PINNED_PHILS = """\
C1 = think.C1 + <x3>.x3.C5 + y1.0;
C2 = think.C2 + <x4>.x4.C6 + y2.0;
C3 = ~x3.0 + ~x4.0 + y3.0;
C4 = ~x3.0 + ~x4.0 + y4.0;
C5 = eat.(C1 | C3 | C4) + y5.0;
C6 = eat.(C2 | C3 | C4) + y6.0;
main = new(x1, x2, x3, x4, x5, x6, y1, y2, y3, y4, y5, y6) C1 | C2 | C3 | C4;
"""

PINNED_WEIGHTED = """\
C1 = ~x1.0 + <x1>.a.C1 + ~x2.0 + <x3>.<x3>.c.C3 + y1.0;
C2 = <x2>.<x2>.b.0 + ~x3.0 + y2.0;
C3 = y3.0;
main = new(x1, x2, x3, y1, y2, y3) C1 | C1 | C1 | C2 | C2;
"""


# s2 holds two tokens where t1 takes one, so a collector on one shared
# channel could gather both of them from s2
OVERFULL_NET = ("net n place s1 init 1 place s2 init 2 place s3 init 1 "
                "trans t1 label a in s1:1 s2:1 s3:1 out s1:1 s2:1 s3:1")

PINNED_OVERFULL = """\
C1 = <x1>.<x2>.a.(C1 | C2 | C3) + y1.0;
C2 = ~x1.0 + y2.0;
C3 = ~x2.0 + y3.0;
main = new(x1, x2, y1, y2, y3) C1 | C2 | C2 | C3;
"""

# s2 gets its second token only after the collector on s1 has fired
LATE_NET = ("net n place s1 init 1 place s2 init 1 place s3 init 1 "
            "place s4 init 0 "
            "trans t1 label a in s1:1 s2:1 s3:1 out s4:1 "
            "trans t2 label b in s4:1 out s2:2")

SHARED_LATE = """\
C1 = <x1>.<x1>.a.C4 + y1.0;
C2 = ~x1.0 + y2.0;
C3 = ~x1.0 + y3.0;
C4 = b.(C2 | C2) + y4.0;
main = new(x1, x2, y1, y2, y3, y4) C1 | C2 | C3;
"""


def uses_strong_prefix(prog):
    scopes = [prog.main] + list(prog.env.defs.values())
    return any(isinstance(s, StrongPrefix)
               for t in scopes for s in iter_subterms(t))


class TestPinnedTranslations:
    def test_alternative_philosophers(self):
        # one constant per place; a silent three-party transition costs one
        # strong prefix less than its preset size suggests
        prog = translate(load_net("phils"))
        assert format_program(prog) == PINNED_PHILS

    def test_weighted_net(self):
        # the weight-2 collector arc of t1 adds a plain offer summand
        # (~x1.0) next to the collector chain inside the same constant
        prog = translate(load_net("weighted"))
        assert format_program(prog) == PINNED_WEIGHTED

    def test_self_loop(self):
        prog = translate(load_net("loop_a"))
        assert format_program(prog) == "C1 = a.C1 + y1.0;\nmain = new(x1, y1) C1;\n"

    def test_overfull_offering_place_pins_the_channels(self):
        net = parse_pnet(OVERFULL_NET)
        prog = translate(net)
        assert format_program(prog) == PINNED_OVERFULL
        rebuilt = build_net(prog, mode=SyncMode.FINITE_NET)
        assert rebuilt.complete and isomorphic(net, rebuilt).found

    def test_late_overfull_place_keeps_the_shared_channel(self):
        # s2 holds two tokens only after the collector place s1 has
        # emptied, so no collector is left to gather them
        net = parse_pnet(LATE_NET)
        assert _offers_are_bounded(net)
        prog = translate(net)
        assert format_program(prog) == SHARED_LATE
        rebuilt = build_net(prog, mode=SyncMode.FINITE_NET)
        assert rebuilt.complete and isomorphic(net, rebuilt).found

    def test_results_are_wellformed_finite_net_programs(self):
        for name in ["phils", "weighted", "loop_a", "cycle_a"]:
            prog = translate(load_net(name))
            assert check_wellformed(prog).ok, name
            assert classify_finite_net(prog)[0], name

    def test_philosophers_term_state_space(self):
        # inert stubs pile up forever under the bare term equations; the
        # default state representation prunes them, giving the same finite
        # graph as the net
        prog = translate(load_net("phils"))
        strict = build_lts(prog, budget=Budget(max_states=60), strict=True)
        assert not strict.complete
        lax = build_lts(prog)
        assert lax.complete and len(lax.states) == 3
        net = build_net(prog, mode=SyncMode.FINITE_NET)
        assert net.complete


class TestRoundtrip:
    @pytest.mark.parametrize("name", ["phils", "weighted", "loop_a", "cycle_a"])
    def test_rebuilt_net_is_isomorphic(self, name):
        net = load_net(name)
        rebuilt = build_net(translate(net), mode=SyncMode.FINITE_NET)
        assert rebuilt.complete
        iso = isomorphic(net, rebuilt)
        assert iso.found
        assert verify_isomorphism(net, rebuilt, iso.place_map)

    def test_rebuilt_preserves_initial_marking_shape(self):
        net = load_net("weighted")
        rebuilt = build_net(translate(net), mode=SyncMode.FINITE_NET)
        assert sorted(net.initial.values()) == sorted(rebuilt.initial.values())


class TestCcsSubclass:
    def tnet(self, pre, label=(act_in("a"),), places=3):
        names = ["s%d" % (i + 1) for i in range(places)]
        return PTNet("t", names, Counter({0: 1}),
                     [(Counter(pre), label, Counter())], ["t1"])

    def test_single_weight_one_input(self):
        assert is_ccs_net(self.tnet({0: 1}))
        assert is_ccs_net(self.tnet({2: 1}, label=(TAU_ACT,)))

    def test_two_place_silent_handshake(self):
        assert is_ccs_net(self.tnet({0: 1, 1: 1}, label=(TAU_ACT,)))

    def test_two_place_visible_is_not_ccs(self):
        assert not is_ccs_net(self.tnet({0: 1, 1: 1}))

    def test_weighted_arcs_are_not_ccs(self):
        assert not is_ccs_net(self.tnet({0: 2}, label=(TAU_ACT,)))
        assert not is_ccs_net(self.tnet({0: 2, 1: 1}, label=(TAU_ACT,)))

    def test_sequence_labels_are_not_ccs(self):
        assert not is_ccs_net(self.tnet({0: 1}, label=(act_in("a"), act_in("b"))))

    def test_corpus_membership(self):
        assert is_ccs_net(load_net("loop_a"))
        assert is_ccs_net(load_net("cycle_a"))
        assert not is_ccs_net(load_net("phils"))
        assert not is_ccs_net(load_net("weighted"))

    def test_ccs_nets_translate_without_strong_prefixes(self):
        two_party = PTNet(
            "h", ["s1", "s2"], Counter({0: 1, 1: 1}),
            [(Counter({0: 1, 1: 1}), (TAU_ACT,), Counter({0: 1}))], ["t1"])
        for net in [load_net("loop_a"), load_net("cycle_a"), two_party]:
            assert is_ccs_net(net)
            assert not uses_strong_prefix(translate(net))

    def test_non_ccs_nets_need_strong_prefixes(self):
        assert uses_strong_prefix(translate(load_net("phils")))
        assert uses_strong_prefix(translate(load_net("weighted")))


class TestDeepAndUnnamed:
    def test_three_thousand_tokens_round_trip(self):
        # the tokens of the initial marking compose as a balanced tree, so
        # neither hashing nor net construction recurses once per token
        net = PTNet("deep", ["s1"], Counter({0: 3000}),
                    [(Counter({0: 1}), (act_in("a"),), Counter({0: 1}))],
                    ["t1"])
        prog = translate(net)
        hash(prog.main)
        rebuilt = build_net(prog, mode=SyncMode.FINITE_NET)
        assert rebuilt.complete and isomorphic(net, rebuilt).found
        assert rebuilt.initial == Counter({0: 3000})

    def test_an_unnamed_net_translates(self):
        net = PTNet("n", ["s1"], Counter({0: 1}),
                    [(Counter({0: 1}), (act_in("a"),), Counter())])
        rebuilt = build_net(translate(net), mode=SyncMode.FINITE_NET)
        assert rebuilt.complete and isomorphic(net, rebuilt).found


class TestValidation:
    def test_sequence_label_rejected(self):
        net = parse_pnet("net n place s1 init 1 "
                         "trans t label a.b in s1:1 out s1:1")
        with pytest.raises(TranslationError):
            translate(net)

    def test_empty_preset_rejected(self):
        net = PTNet("n", ["s1"], Counter({0: 1}),
                    [(Counter(), (act_in("a"),), Counter({0: 1}))], ["t1"])
        with pytest.raises(TranslationError):
            translate(net)

    def test_restricted_label_rejected(self):
        net = PTNet("n", ["s1"], Counter({0: 1}),
                    [(Counter({0: 1}), (act_in("a#1"),), Counter())], ["t1"])
        with pytest.raises(TranslationError):
            translate(net)

    def test_complementary_labels_rejected(self):
        # tokens offering a and ~a would synchronize into a silent step
        net = parse_pnet("net n place s1 init 1 place s2 init 1 "
                         "trans t1 label a in s1:1 out s1:1 "
                         "trans t2 label ~a in s2:1 out s2:1")
        with pytest.raises(TranslationError, match="t1 and t2.* a and ~a"):
            translate(net)

    def test_channel_names_avoid_the_net_alphabet(self):
        # a net that already speaks x1/y1 forces longer channel families
        net = parse_pnet("net n place s1 init 1 "
                         "trans t1 label x1 in s1:1 out s1:1 "
                         "trans t2 label y1 in s1:1 out s1:1")
        prog = translate(net)
        text = format_program(prog)
        assert "new(xx1, xx2, yy1)" in text
        rebuilt = build_net(prog, mode=SyncMode.FINITE_NET)
        assert isomorphic(net, rebuilt).found


NET_FAMILIES = {
    "corpus": lambda: [load_net(p.name) for p in sorted(CORPUS.glob("*.pnet"))],
    "rings": lambda: [philosophers_ring(n) for n in range(3, 9)],
    "shared_rings": lambda: [philosophers_ring(n, shared=True)
                             for n in (3, 4)],
    "random_ccs": lambda: random_reduced_nets(random.Random(6433), 150,
                                              ccs_shape=True),
    "random": lambda: random_reduced_nets(random.Random(6433), 150),
}


class TestChannelDecision:
    @pytest.mark.parametrize("family", sorted(NET_FAMILIES))
    def test_translate_matches_the_rebuild_oracle(self, family):
        for k, net in enumerate(NET_FAMILIES[family]()):
            assert (format_program(translate(net))
                    == format_program(rebuild_translate(net))), (family, k)

    def test_certified_shared_channels_rebuild_exactly(self):
        certified = uncertified = 0
        for family, make in sorted(NET_FAMILIES.items()):
            for k, net in enumerate(make()):
                if not multi_source(net):
                    continue
                if not _offers_are_bounded(net):
                    uncertified += 1
                    continue
                certified += 1
                shared = _encode(net, net.name, pinned=False)
                assert _rebuilds_exactly(net, shared), (family, k)
        assert certified and uncertified

    def test_pinned_channels_rebuild_exactly(self):
        # the pinned encoding answers every search that meets a hazard or
        # runs out of budget, so it must be exact on every net
        count = 0
        for family, make in sorted(NET_FAMILIES.items()):
            for k, net in enumerate(make()):
                if multi_source(net):
                    count += 1
                    pinned = _encode(net, net.name, pinned=True)
                    assert _rebuilds_exactly(net, pinned), (family, k)
        assert count

    def test_a_search_cut_by_the_state_budget_pins(self, monkeypatch):
        net = philosophers_ring(4)
        shared = format_program(translate(net))
        monkeypatch.setattr(net2term, "DEFAULT_BUDGET", Budget(max_states=5))
        assert not _offers_are_bounded(net)
        prog = translate(net)
        assert format_program(prog) == format_program(
            _encode(net, net.name, pinned=True)) != shared
        rebuilt = build_net(prog, mode=SyncMode.FINITE_NET)
        assert rebuilt.complete and isomorphic(net, rebuilt).found
