"""Synchronization of label sequences, checked against a rule-literal oracle."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import multiccs.sync
from multiccs.lts import StepEngine
from multiccs.nets import NetBuilder, dec
from multiccs.sync import SyncMode, auto_mode, sync_outcomes
from multiccs.terms import TAU_ACT, act_in, act_out, label_key

from conftest import load_program
from oracles import oracle_sync

A, CA = act_in("a"), act_out("a")
B, CB = act_in("b"), act_out("b")
ALPHABET = (A, CA, B, CB, TAU_ACT)


def seqs_of_len(n, alphabet=ALPHABET):
    return itertools.product(alphabet, repeat=n)


def all_pairs(total, alphabet=ALPHABET):
    for n1 in range(1, total):
        for n2 in range(1, total - n1 + 1):
            for s1 in seqs_of_len(n1, alphabet):
                for s2 in seqs_of_len(n2, alphabet):
                    yield s1, s2


class TestPinnedOutcomes:
    def test_complementary_singletons(self):
        assert sync_outcomes((A,), (CA,)) == {(TAU_ACT,)}

    def test_equal_singletons_do_not_sync(self):
        assert sync_outcomes((A,), (A,)) == frozenset()
        assert sync_outcomes((TAU_ACT,), (TAU_ACT,)) == frozenset()
        assert sync_outcomes((TAU_ACT,), (A,)) == frozenset()

    def test_singleton_against_pair(self):
        # the b continuation survives after the a-pair cancels
        assert sync_outcomes((CA,), (A, B)) == {(B,)}
        # cancellation may also happen after keeping the head
        assert sync_outcomes((CA,), (B, A)) == {(B, TAU_ACT)}

    def test_keep_then_cancel(self):
        # keeping visible heads in either order, or cancelling both pairs
        got = sync_outcomes((A, B), (CA, CB))
        assert (TAU_ACT,) in got           # both pairs cancel
        assert all(len(s) < 4 for s in got)

    def test_tau_head_is_absorbed_not_kept(self):
        got = sync_outcomes((TAU_ACT, A), (CA,))
        assert got == {(TAU_ACT,)}

    def test_no_sync_without_cancellation(self):
        # a pure shuffle is never an outcome: some pair must cancel
        assert sync_outcomes((A,), (B,)) == frozenset()
        assert sync_outcomes((A, B), (A, B)) == frozenset()

    def test_atomic_grab_example(self):
        # a two-action atomic sequence meets the two single offers
        seq = (act_in("f0"), act_in("f1"))
        step1 = sync_outcomes(seq, (act_out("f0"),))
        assert step1 == {(act_in("f1"),)}
        assert sync_outcomes((act_in("f1"),), (act_out("f1"),)) == {(TAU_ACT,)}

    def test_fully_silent_result_from_three_parties_staged(self):
        # two stages of the three-party association in the multiway example;
        # keeping the head before cancelling yields the second outcome
        stage1 = sync_outcomes((A, A), (CA,))
        assert stage1 == {(A,), (A, TAU_ACT)}
        assert sync_outcomes((A,), (CA,)) == {(TAU_ACT,)}


class TestFiniteNetGate:
    def test_requires_a_singleton_operand(self):
        assert sync_outcomes((A, B), (CA, CB), SyncMode.FINITE_NET) == frozenset()
        got = sync_outcomes((A, B), (CA,), SyncMode.FINITE_NET)
        assert got == sync_outcomes((A, B), (CA,))

    def test_gate_applies_at_entry_only(self):
        # once one side is a singleton the full rule set applies, including
        # derivations whose intermediate pairs are both long
        got = sync_outcomes((A, B, A), (CA,), SyncMode.FINITE_NET)
        assert got == sync_outcomes((A, B, A), (CA,))

    def test_subset_of_general(self):
        for s1, s2 in all_pairs(4):
            fn = sync_outcomes(s1, s2, SyncMode.FINITE_NET)
            gen = sync_outcomes(s1, s2, SyncMode.GENERAL)
            assert fn <= gen


class TestAgainstOracle:
    def test_exhaustive_small(self):
        for s1, s2 in all_pairs(5):
            assert sync_outcomes(s1, s2) == oracle_sync(s1, s2), (s1, s2)

    def test_spot_checks_longer(self):
        pairs = [
            ((A, B, A, CB), (CA, B)),
            ((TAU_ACT, A, TAU_ACT, B), (CB, CA)),
            ((A, A, A), (CA, CA, CA)),
        ]
        for s1, s2 in pairs:
            assert sync_outcomes(s1, s2) == oracle_sync(s1, s2)


class TestProperties:
    def test_symmetry_exhaustive(self):
        for s1, s2 in all_pairs(5):
            assert sync_outcomes(s1, s2) == sync_outcomes(s2, s1)

    def test_length_bound_exhaustive(self):
        # at least one cancellation means the result is strictly shorter
        # than the two operands put together
        for s1, s2 in all_pairs(5):
            for out in sync_outcomes(s1, s2):
                assert 1 <= len(out) < len(s1) + len(s2)

    def test_results_draw_from_operands(self):
        for s1, s2 in all_pairs(4):
            allowed = set(s1) | set(s2) | {TAU_ACT}
            for out in sync_outcomes(s1, s2):
                assert set(out) <= allowed


_acts = st.sampled_from(ALPHABET)
_seqs = st.lists(_acts, min_size=1, max_size=5).map(tuple)


@given(_seqs, _seqs)
@settings(max_examples=300)
def test_oracle_agreement_random(s1, s2):
    assert sync_outcomes(s1, s2) == oracle_sync(s1, s2)


@given(_seqs, _seqs)
@settings(max_examples=200)
def test_is_sync_consistent(s1, s2):
    outcomes = sync_outcomes(s1, s2)
    for out in oracle_sync(s1, s2):
        assert tuple(out) in outcomes
    assert (B, CB, B, CB, B, CB, B, CB, B, CB) not in outcomes


@pytest.mark.parametrize("name, mode", [
    ("semicounter", SyncMode.FINITE_NET),
    ("dining", SyncMode.FINITE_NET),
    ("counter", SyncMode.GENERAL),
])
def test_auto_mode_follows_the_finite_net_fragment(name, mode):
    assert auto_mode(load_program(name)) is mode


def test_synchronizations_are_memoized_per_engine_only():
    # no module-level cache: each engine, and each net builder, keeps the
    # synchronizations of the label pairs its closures met
    assert not hasattr(multiccs.sync._outcomes, "cache_info")
    prog = load_program("multiway")
    comps = dec(prog.main, prog.env)
    e1, e2 = StepEngine(prog.env), StepEngine(prog.env)
    e1.closure(comps)
    assert e1._sync and not e2._sync
    n1 = NetBuilder(prog.env, SyncMode.GENERAL)
    n2 = NetBuilder(prog.env, SyncMode.GENERAL)
    n1.derive_items(comps)
    assert n1._sync and not n2._sync
    for (lab1, lab2), outs in n1._sync.items():
        assert outs == sorted(sync_outcomes(lab1, lab2), key=label_key)
