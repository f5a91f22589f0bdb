"""One synchronization closure per fixpoint round of the net construction.

`Moves.closure` with seeds bounds each merge by some seed; the items below
a seed must be exactly the closure over that seed alone, so that the round
closure of `NetBuilder.build` emits what one closure per maximal marking
would.  `oracles.per_seed_build_net` is that per-seed loop, over a dense
Karp-Miller tree with a pairwise antichain, built afresh in every round;
the library extends the last round's tree while the net stays bounded.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

import multiccs.nets
from multiccs.lts import Budget, Moves
from multiccs.net2term import translate
from multiccs.nets import OMEGA, NetBuilder, antichain, build_net, firing_rule
from multiccs.parser import format_pnet, parse_program
from multiccs.sync import SyncMode
from multiccs.terms import check_wellformed, format_term

from conftest import (
    CORPUS, load_program, philosophers_ring, random_finite_net_program,
    random_net, random_reduced_nets,
)
from oracles import (
    PerSeedNetBuilder, brute_antichain, karp_miller_tree, per_seed_build_net,
)

BUDGET = Budget(max_states=40, max_places=60, max_transitions=120)


def seeded_programs(seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        prog = random_finite_net_program(rng)
        if check_wellformed(prog).ok:
            out.append(prog)
    return out


def random_seeds(rng, pool: list) -> list:
    """A few small sub-multisets of the pool.  Omega counts are left to the
    differential tests below: on most places they let the closure pump
    without end."""
    return [Counter({p: rng.randint(1, 3) for p in
                     rng.sample(pool, rng.randint(1, min(4, len(pool))))})
            for _ in range(rng.randint(1, 5))]


def check_seed_bound(builder: NetBuilder, pool: list, rng):
    seeds = random_seeds(rng, pool)
    join = Counter()
    for seed in seeds:
        join |= seed
    builder.truncated = False
    shared = builder.closure(join, seeds, cap=10 ** 6)
    truncated = builder.truncated
    flags = []
    for i, seed in enumerate(seeds):
        builder.truncated = False
        alone = builder.closure(seed, cap=10 ** 6)
        below = [item[:3] for item in shared if item[3] >> i & 1]
        assert below == alone
        flags.append(builder.truncated)
    assert truncated == any(flags)


@pytest.mark.parametrize("mode, max_seq_len", [(SyncMode.FINITE_NET, 16),
                                               (SyncMode.GENERAL, 16),
                                               (SyncMode.GENERAL, 2)])
def test_items_below_a_seed_are_its_own_closure(mode, max_seq_len):
    rng = random.Random(1011)
    programs = seeded_programs(64, 25)
    programs += [translate(net) for net in random_reduced_nets(rng, 10)]
    for prog in programs:
        builder = NetBuilder(prog.env, mode,
                             replace(BUDGET, max_seq_len=max_seq_len))
        net = builder.build(prog.main)
        for _ in range(4):
            check_seed_bound(builder, net.place_terms, rng)


def test_a_short_max_seq_len_flags_the_round_closure():
    # <a>.b.0 and <c>.~a.0 synchronize to c.b, longer than 1: a seed
    # holding both flags the shared closure, a seed holding one does not
    prog = parse_program("main = <a>.b.0 | <c>.~a.0 | d.0;")
    builder = NetBuilder(prog.env, SyncMode.GENERAL,
                         replace(BUDGET, max_seq_len=1))
    left, right, alone = sorted(builder.build(prog.main).place_terms[:3],
                                key=format_term)
    apart = [Counter({left: 1, alone: 1}), Counter({right: 1, alone: 1})]
    together = apart + [Counter({left: 1, right: 1})]
    for seeds, flag in ((apart, False), (together, True)):
        join = Counter()
        for seed in seeds:
            join |= seed
        builder.truncated = False
        builder.closure(join, seeds, cap=10 ** 6)
        assert builder.truncated is flag


def net_record(net) -> tuple:
    return (format_pnet(net), net.complete,
            [format_term(t) for t in net.place_terms])


def differential_cases() -> list:
    cases = [("seeded%d" % k, prog)
             for k, prog in enumerate(seeded_programs(1011, 60))]
    cases += [(p.stem, load_program(p.name))
              for p in sorted(CORPUS.glob("*.mccs"))]
    # the restricted names of places first met in different seeds are
    # numbered seed by seed
    cases.append(("two_scopes", parse_program(
        "main = a.x.(new(r)(r.c.0 | ~r.0)) | b.y.(new(q)(q.d.0 | ~q.0));")))
    return [(name, prog) for name, prog in cases if check_wellformed(prog).ok]


@pytest.mark.parametrize("mode", [None, SyncMode.GENERAL],
                         ids=["auto", "general"])
def test_round_closure_matches_per_seed_closures(mode):
    # the oracle builds a fresh tree every round; a tree counts its initial
    # marking against max_states, so 0 cuts every tree at once
    for max_states in (BUDGET.max_states, 0, 1, 3):
        budget = replace(BUDGET, max_states=max_states)
        for name, prog in differential_cases():
            got = build_net(prog, mode, budget)
            want = per_seed_build_net(prog, mode, budget)
            assert net_record(got) == net_record(want), (name, max_states)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 12])
def test_translated_ring_matches_per_seed_closures(n):
    prog = translate(philosophers_ring(n))
    got = build_net(prog, SyncMode.FINITE_NET)
    assert got.complete and len(got.transitions) == 2 * n
    assert net_record(got) == net_record(
        per_seed_build_net(prog, SyncMode.FINITE_NET))


def test_translated_ring_derives_few_closure_items(monkeypatch):
    # one closure per round, not one per maximal marking: a translated
    # ring of 8 has 47 maximal markings in its last round
    prog = translate(philosophers_ring(8))
    items = []
    real = Moves.closure

    def counting(self, *args, **kwargs):
        result = real(self, *args, **kwargs)
        items.extend(result)
        return result

    monkeypatch.setattr(Moves, "closure", counting)
    net = build_net(prog, SyncMode.FINITE_NET)
    assert net.complete and len(net.transitions) == 16
    assert 0 < len(items) <= 200


def spy_round_closures(monkeypatch) -> list:
    """Record the results of the round closures, the `derive_items` calls
    with seeds."""
    rounds = []
    real = NetBuilder.derive_items

    def spy(self, join, seeds=None):
        items = real(self, join, seeds)
        if seeds is not None:
            rounds.append(items)
        return items

    monkeypatch.setattr(NetBuilder, "derive_items", spy)
    return rounds


def test_a_round_with_the_last_seeds_ends_the_fixpoint(monkeypatch):
    # the second round admits the last transitions of a translated ring
    # of 8 without changing the maximal markings: a third closure over
    # the same seeds would derive nothing new
    prog = translate(philosophers_ring(8))
    rounds = spy_round_closures(monkeypatch)
    net = build_net(prog, SyncMode.FINITE_NET)
    assert net.complete and len(net.transitions) == 16
    assert len(rounds) == 2


def test_a_translated_ring_resumes_its_tree(monkeypatch):
    # the first round has no transition to fire and keeps its one-marking
    # tree, which the second extends as a fresh tree is built, over the 47
    # reachable markings of a translated ring of 8; the third resumes that
    # tree, firing only the transitions the second admitted
    enabled_tests = []
    real_enabled = multiccs.nets._enabled

    def counting(pre, m):
        enabled_tests.append(None)
        return real_enabled(pre, m)

    calls = []
    real = NetBuilder._coverability

    def spy(self, vm0, rules):
        resumable = self._tree is not None
        tests = len(enabled_tests)
        result = real(self, vm0, rules)
        calls.append((len(rules), resumable, self._tree is not None,
                      len(enabled_tests) - tests))
        return result

    monkeypatch.setattr(multiccs.nets, "_enabled", counting)
    monkeypatch.setattr(NetBuilder, "_coverability", spy)
    net = build_net(translate(philosophers_ring(8)), SyncMode.FINITE_NET)
    assert net.complete and len(net.transitions) == 16
    # (rules, resumable, kept, enabledness tests): the full tree tests its
    # 8 rules at each marking, the resumed one only the 8 new rules there,
    # where a fresh tree would test all 16
    assert calls == [(0, False, True, 0), (8, True, True, 8 * 47),
                     (16, True, True, 8 * 47)]


def test_a_budgeted_counter_extends_its_trees(monkeypatch):
    # the counter's net grows by a few places a round for as long as the
    # place budget lets it, and stays bounded until the cut: each round
    # extends the tree of the last, where fresh trees make about 73,000
    # enabledness tests
    enabled_tests = []
    real_enabled = multiccs.nets._enabled

    def counting(pre, m):
        enabled_tests.append(None)
        return real_enabled(pre, m)

    monkeypatch.setattr(multiccs.nets, "_enabled", counting)
    net = build_net(load_program("counter"),
                    budget=Budget(max_states=500, max_places=100))
    assert not net.complete and len(net.place_names) == 100
    assert len(enabled_tests) <= 10000


def batched_rounds(net, rng) -> list:
    """The (vm0, rules) of each round when the transitions of net are
    admitted in random batches, as `NetBuilder.build` admits them: places
    are numbered as they are first met, those of the initial marking
    first, and each round's rules are in one fixed order."""
    ids: dict = {}

    def number(places):
        for s in sorted(places):
            ids.setdefault(s, len(ids))

    number(net.initial)
    pending = list(net.transitions)
    rng.shuffle(pending)
    rules: list = []
    rounds = []
    while True:
        vm0 = tuple(net.initial.get(s, 0) for s in sorted(ids, key=ids.get))
        rounds.append((vm0, sorted(rules)))
        if not pending:
            return rounds
        k = rng.randint(1, len(pending))
        for pre, _, post in pending[:k]:
            number(list(pre) + list(post))
            rules.append(firing_rule(
                Counter({ids[s]: c for s, c in pre.items()}),
                Counter({ids[s]: c for s, c in post.items()})))
        del pending[:k]


@pytest.mark.parametrize("max_states", [3, 8, 400])
def test_a_resumed_tree_matches_a_fresh_one(max_states, monkeypatch):
    env = parse_program("main = 0;").env
    budget = Budget(max_states=max_states)
    rng = random.Random(6433)
    calls = []
    real = NetBuilder._coverability

    def spy(self, vm0, rules):
        calls.append(self._tree is not None)
        return real(self, vm0, rules)

    monkeypatch.setattr(NetBuilder, "_coverability", spy)
    paths = set()
    for _ in range(150):
        net = random_net(rng, ccs_shape=rng.random() < 0.5)
        builder = NetBuilder(env, SyncMode.GENERAL, budget)
        for vm0, rules in batched_rounds(net, rng):
            calls.clear()
            got, complete = builder._coverability(vm0, rules)
            want, want_complete = real(
                NetBuilder(env, SyncMode.GENERAL, budget), vm0, rules)
            assert len(got) == len(set(got))
            assert set(got) == set(want)
            assert complete == want_complete
            # only a tree that completed without an acceleration (so with
            # no omega in its maximal markings) is kept
            exact = not any(OMEGA in v for v in got)
            assert (builder._tree is not None) == (complete and exact)
            # a resumed tree is kept if it completes exactly; one that
            # accelerates or is cut gives way to a fresh tree
            paths.add({(True,): "resumed",
                       (True, False): "restarted"}.get(tuple(calls)))
    assert {"resumed", "restarted"} <= paths


def test_antichain_keeps_exactly_the_maximal_vectors():
    rng = random.Random(6433)
    for _ in range(300):
        width = rng.randint(1, 5)
        vectors = [tuple(OMEGA if rng.random() < 0.15 else rng.randint(0, 3)
                         for _ in range(width))
                   for _ in range(rng.randint(0, 30))]
        kept = antichain(vectors)
        assert len(kept) == len(set(kept))
        assert set(kept) == brute_antichain(vectors)


@pytest.mark.parametrize("max_states", [3, 8, 400])
def test_karp_miller_matches_the_dense_oracle(max_states):
    env = parse_program("main = 0;").env
    budget = Budget(max_states=max_states)
    fast = NetBuilder(env, SyncMode.GENERAL, budget)
    dense = PerSeedNetBuilder(env, SyncMode.GENERAL, budget)
    rng = random.Random(1011)
    flags, omegas = set(), 0
    for _ in range(150):
        net = random_net(rng, ccs_shape=rng.random() < 0.5)
        vm0 = tuple(net.initial.get(i, 0) for i in range(len(net.place_names)))
        rules = [firing_rule(pre, post) for pre, _, post in net.transitions]
        got, complete = fast._coverability(vm0, rules)
        want, want_complete = dense._coverability(vm0, rules)
        assert len(got) == len(set(got))
        assert set(got) == set(want)
        assert complete == want_complete
        flags.add(complete)
        omegas += any(OMEGA in v for v in got)
    # the sample holds unbounded nets, and small caps cut some trees
    assert omegas > 0
    assert True in flags
    assert False in flags or max_states > 8


def test_karp_miller_matches_a_tree_that_merges_nothing():
    # the library merges equal markings across branches, and so does the
    # dense oracle above; the classic tree merges nothing
    builder = NetBuilder(parse_program("main = 0;").env, SyncMode.GENERAL)
    rng = random.Random(1011)
    compared = omegas = 0
    for _ in range(150):
        net = random_net(rng, ccs_shape=rng.random() < 0.5)
        want = karp_miller_tree(net, 3000)
        if want is None:
            continue
        vm0 = tuple(net.initial.get(i, 0) for i in range(len(net.place_names)))
        rules = [firing_rule(pre, post) for pre, _, post in net.transitions]
        got, complete = builder._coverability(vm0, rules)
        assert complete and set(got) == want
        compared += 1
        omegas += any(OMEGA in v for v in got)
    assert compared >= 130 and omegas >= 40
