"""Pinned normal-form keys of symmetric binder regions.

Binder naming splits ties between symmetric binders by individualization,
and any change to how it searches (pruning, ordering, memoization) must
still pick the same canonical names.  This compares lax and strict
`normalize(...).key()` of a seeded family of regions against
`golden_keys.json` exactly: directed and undirected cycles, cliques, two
triangles against a hexagon, random binder graphs, binder graphs
nested under a prefix (`x.(new(q)(...))`), with at most 6 bound names in
use per region, and terms that nest regions two or three prefixes deep
(sums, strong prefixes, constants renamed to bound names, shadowed and
unused binders), which pin the numbering of the inner bound names.
Regenerate it (only on purpose) with

    PYTHONPATH=src python tests/test_golden_keys.py --write
"""

import json
import random
import sys
from pathlib import Path

from multiccs.normalform import normalize
from multiccs.parser import parse_term
from multiccs.terms import Env

from conftest import LINK_KINDS, binder_link

GOLDEN = Path(__file__).resolve().parent / "golden_keys.json"


def env() -> Env:
    e = Env()
    e.define("K", parse_term("a.K"))
    e.define("L", parse_term("b.~a.L"))
    return e


def region(binders: list, comps: list) -> str:
    return "new(%s)(%s)" % (", ".join(binders), " | ".join(comps))


def names(k: int) -> list:
    return ["v%d" % i for i in range(k)]


def graph(k: int, pairs, kind: str) -> str:
    vs = names(k)
    return region(vs, [binder_link(kind, vs[i], vs[j]) for i, j in pairs])


def cycle(k: int, kind: str, offset: int = 0) -> list:
    return [(offset + i, offset + (i + 1) % k) for i in range(k)]


def clique(k: int) -> list:
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def random_region(rng, k: int) -> str:
    vs = names(k)
    comps = []
    for _ in range(rng.randint(1, 2 * k)):
        u, v = rng.choice(vs), rng.choice(vs)
        comps.append(binder_link(rng.choice(LINK_KINDS), u, v,
                                 rng.choice("xy")))
    r = rng.random()
    if r < 0.2:
        comps.append("~%s.0" % rng.choice(vs))
    elif r < 0.3:
        comps.append("0")
    elif r < 0.4:
        comps.append("K")
    if rng.random() < 0.15:
        vs = vs + ["w"]  # unused binder: dropped unless strict
    rng.shuffle(comps)
    return region(vs, comps)


def nested_region(rng, k: int) -> str:
    """A binder graph under a prefix, with links to two outer binders."""
    vs = names(k) + ["o0", "o1"]
    comps = []
    for _ in range(rng.randint(k, 2 * k)):
        comps.append(binder_link(rng.choice(LINK_KINDS), rng.choice(vs),
                                 rng.choice(vs), rng.choice("xy")))
    inner = region(names(k), comps)
    return region(["o0", "o1"], ["x.(%s)" % inner, "~o0.0", "o1.0",
                                 "x.(%s)" % inner])


def deep_region(rng, depth: int, scope: list) -> str:
    """A region whose first component nests another region `depth`
    prefixes deep; binders may shadow outer ones, "w" is never used."""
    binders = rng.sample(["a", "b", "u", "v"], rng.randint(1, 3))
    inner = scope + binders
    comps = [deep_prefix(rng, depth, inner, nest=True)]
    for _ in range(rng.randint(0, 2)):
        comps.append(deep_component(rng, rng.randint(0, depth), inner))
    if rng.random() < 0.2:
        binders.append("w")
    if rng.random() < 0.2:
        comps.append("0")
    rng.shuffle(comps)
    return region(binders, comps)


def deep_component(rng, depth: int, scope: list) -> str:
    r = rng.random()
    if r < 0.2:
        return rng.choice(["K", "L"])
    if r < 0.45:
        return "%s + %s" % (deep_prefix(rng, depth, scope),
                            deep_prefix(rng, depth, scope))
    return deep_prefix(rng, depth, scope)


def deep_prefix(rng, depth: int, scope: list, nest: bool = False) -> str:
    form = rng.choice(["%s", "~%s", "<%s>", "<~%s>"])
    act = form % rng.choice(scope + ["x"])
    if depth > 0 and (nest or rng.random() < 0.5):
        body = "(%s)" % deep_region(rng, depth - 1, scope)
    else:
        body = rng.choice(["0", "%s.0" % rng.choice(scope), "K", "L"])
    return "%s.%s" % (act, body)


def cases() -> dict:
    out = {}
    for kind in LINK_KINDS:
        for k in range(2, 7):
            out["cycle/%s/%d" % (kind, k)] = graph(k, cycle(k, kind), kind)
    for k in range(2, 7):
        out["clique/edge/%d" % k] = graph(k, clique(k), "edge")
    for k in range(2, 6):
        out["clique/nest/%d" % k] = graph(k, clique(k), "nest")
    for kind in LINK_KINDS:
        out["two_triangles/%s" % kind] = graph(
            6, cycle(3, kind) + cycle(3, kind, 3), kind)
        out["hexagon/%s" % kind] = graph(6, cycle(6, kind), kind)
    rng = random.Random(6433)
    for i in range(60):
        out["random%02d" % i] = random_region(rng, rng.randint(2, 6))
    for i in range(20):
        out["nested%02d" % i] = nested_region(rng, rng.randint(2, 4))
    deep = random.Random(1011)
    for i in range(40):
        out["deep%02d" % i] = deep_region(deep, 2 + i % 2, [])
    return out


def keys(text: str, e: Env) -> dict:
    t = parse_term(text)
    return {"term": text,
            "lax": normalize(t, e).key(),
            "strict": normalize(t, e, strict=True).key()}


def snapshot() -> dict:
    e = env()
    return {name: keys(text, e) for name, text in cases().items()}


def test_keys_match_golden_file():
    expected = json.loads(GOLDEN.read_text())
    actual = snapshot()
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], key


def test_two_triangles_are_not_a_hexagon():
    # refinement alone cannot tell these 2-regular graphs apart
    e = env()
    for kind in LINK_KINDS:
        two = keys(graph(6, cycle(3, kind) + cycle(3, kind, 3), kind), e)
        six = keys(graph(6, cycle(6, kind), kind), e)
        for mode in ("lax", "strict"):
            assert two[mode] != six[mode]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_keys.py --write")
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
