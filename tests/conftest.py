"""Shared helpers: corpus access and seeded random system generators.

The generators only emit validated samples (well-formed programs whose
semantics fit the probe budgets, token-game-checked reduced nets), so the
tests that consume them never have to special-case rejects.  All sampling
is driven by an explicit random.Random so runs are reproducible.
"""

from collections import Counter
from pathlib import Path

from multiccs.lts import Budget, build_lts
from multiccs.nets import PTNet, build_net, is_reduced, marking_graph
from multiccs.parser import parse_pnet, parse_program
from multiccs.sync import SyncMode
from multiccs.terms import (
    Const, Env, NIL, Par, Prefix, Program, Restrict, StrongPrefix, Sum,
    TAU_ACT, act_in, act_out, check_wellformed, par_fold,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text()


def load_program(name: str) -> Program:
    if "." not in name:
        name += ".mccs"
    return parse_program(corpus_text(name), name=name.split(".")[0])


def load_net(name: str) -> PTNet:
    if "." not in name:
        name += ".pnet"
    return parse_pnet(corpus_text(name))


# ---------------------------------------------------------------------------
# random programs in the finite-net fragment


def random_finite_net_program(rng) -> Program:
    names = ["a", "b", "c"]
    cnames = ["K%d" % (i + 1) for i in range(rng.randint(1, 3))]

    def act():
        name = rng.choice(names)
        return act_out(name) if rng.random() < 0.45 else act_in(name)

    def chain(depth: int):
        r = rng.random()
        if depth <= 0 or r < 0.35:
            return Const(rng.choice(cnames)) if rng.random() < 0.65 else NIL
        if r < 0.43:
            # parallel spawn; may make the state space unbounded, the
            # sampler below filters such programs out
            return Par(Const(rng.choice(cnames)), chain(depth - 1))
        kind = StrongPrefix if rng.random() < 0.3 else Prefix
        return kind(act(), chain(depth - 1))

    def summand():
        # summands start with a normal prefix so recursion stays guarded
        return Prefix(act(), chain(rng.randint(1, 3)))

    env = Env()
    for cn in cnames:
        body = summand()
        for _ in range(rng.randint(0, 2)):
            body = Sum(body, summand())
        env.define(cn, body)

    pieces = []
    for _ in range(rng.randint(2, 4)):
        if rng.random() < 0.7:
            pieces.append(Const(rng.choice(cnames)))
        else:
            kind = StrongPrefix if rng.random() < 0.25 else Prefix
            cont = Const(rng.choice(cnames)) if rng.random() < 0.5 else NIL
            pieces.append(kind(act(), Prefix(act(), cont)))
    main = par_fold(pieces)
    if rng.random() < 0.6:
        bound = [n for n in names if rng.random() < 0.4]
        for n in reversed(bound):
            main = Restrict(n, main)
    return Program(env, main)


# ---------------------------------------------------------------------------
# binder regions, as program text


LINK_KINDS = ("arc", "edge", "strong", "nest")


def binder_link(kind: str, u: str, v: str, label: str = "x") -> str:
    """One sequential component relating bound name u to bound name v."""
    if kind == "arc":
        return "%s.~%s.0" % (u, v)
    if kind == "edge":
        # undirected: the body region does not order its components
        return "%s.(%s.0 | %s.0)" % (label, u, v)
    if kind == "strong":
        return "<%s>.~%s.0" % (u, v)
    # a restricted name of its own under the prefix
    return "%s.(new(q)(q.~%s.0 | ~q.%s.0))" % (label, u, v)


PROBE = Budget(max_states=300, max_places=200, max_transitions=500)


def bounded_finite_net_samples(rng, count: int):
    """Well-formed finite-net programs whose transition system and marking
    graph are both finite within the probe budget, paired with the net.
    Cheap rejects first: the marking graph rules out most unbounded
    samples long before the transition system build would."""
    out = []
    while len(out) < count:
        prog = random_finite_net_program(rng)
        if not check_wellformed(prog).ok:
            continue
        net = build_net(prog, mode=SyncMode.FINITE_NET, budget=PROBE)
        if not net.complete:
            continue
        graph = marking_graph(net, PROBE)
        if not graph.complete:
            continue
        lts = build_lts(prog, mode=SyncMode.FINITE_NET, budget=PROBE)
        if not lts.complete:
            continue
        out.append((prog, lts, net, graph))
    return out


# ---------------------------------------------------------------------------
# random reduced nets
#
# Labels are single visible input actions or tau, never a complementary
# pair: a net alphabet {a, ~a} would let the rebuilt components of the
# translation synchronize with each other and add transitions the original
# net does not have.

_NET_LABELS = ["a", "b", "c", "d", "e", "f"]


def random_net(rng, ccs_shape: bool) -> PTNet:
    n_places = rng.randint(1, 6)
    n_trans = rng.randint(1, 6)
    places = list(range(n_places))
    triples = {}
    for _ in range(n_trans):
        if ccs_shape and rng.random() < 0.3 and n_places >= 2:
            pair = rng.sample(places, 2)
            pre = Counter({pair[0]: 1, pair[1]: 1})
            label = (TAU_ACT,)
        else:
            if ccs_shape:
                pre = Counter({rng.choice(places): 1})
            else:
                pre = Counter()
                for _ in range(rng.choice([1, 1, 1, 2, 2, 3])):
                    s = rng.choice(places)
                    pre[s] = min(3, pre[s] + rng.randint(1, 2))
            label = ((TAU_ACT,) if rng.random() < 0.2
                     else (act_in(rng.choice(_NET_LABELS)),))
        post = Counter()
        for _ in range(rng.randint(0, 3)):
            s = rng.choice(places)
            if post[s] < 3:
                post[s] += 1
        triples[(tuple(sorted(pre.items())), label,
                 tuple(sorted(post.items())))] = (pre, label, post)
    transitions = list(triples.values())
    initial = Counter()
    for s in places:
        if rng.random() < 0.6:
            initial[s] = rng.randint(1, 3)
    if not initial:
        initial[rng.choice(places)] = rng.randint(1, 3)
    # give every unmarked, never-produced place a chance to be marked at all
    produced = set(initial) | {s for _, _, post in transitions for s in post}
    for s in places:
        if s not in produced and transitions:
            _, _, post = rng.choice(transitions)
            if post[s] < 3:
                post[s] += 1
    return PTNet("random", ["s%d" % (i + 1) for i in range(n_places)],
                 initial, transitions,
                 ["t%d" % (i + 1) for i in range(len(transitions))])


def philosophers_ring(n: int, shared: bool = False) -> PTNet:
    """A ring of n dining philosophers: places t_i (thinking), e_i (eating)
    and f_i (forks), a take and a put transition per philosopher.  With
    `shared`, every take is labelled eat and every put think."""
    names = (["t%d" % i for i in range(n)] + ["e%d" % i for i in range(n)]
             + ["f%d" % i for i in range(n)])
    transitions = []
    for i in range(n):
        forks = Counter({2 * n + i: 1, 2 * n + (i + 1) % n: 1})
        take = "eat" if shared else "take%d" % i
        put = "think" if shared else "put%d" % i
        transitions.append((forks + Counter({i: 1}), (act_in(take),),
                            Counter({n + i: 1})))
        transitions.append((Counter({n + i: 1}), (act_in(put),),
                            forks + Counter({i: 1})))
    initial = Counter({i: 1 for i in range(n)})
    initial.update({2 * n + i: 1 for i in range(n)})
    return PTNet("ring%d" % n, names, initial, transitions,
                 ["t%d" % (i + 1) for i in range(2 * n)])


def random_reduced_nets(rng, count: int, ccs_shape: bool = False):
    out = []
    while len(out) < count:
        net = random_net(rng, ccs_shape)
        if is_reduced(net, Budget(max_states=4000)) == "yes":
            out.append(net)
    return out
