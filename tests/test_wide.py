"""Stress tests on wide terms: a flat parallel composition of thousands of
components, nested to the left as the parser builds it, goes through every
region walk (`terms.region` and the explicit-stack traversals), free-name
computation and substitution without one level of recursion per
component.  A wide sum and a long prefix chain are parsed and checked the
same way, and the move rules and the printer walk a wide sum in a loop,
as do term keys and normal forms."""

import sys
import time
from collections import Counter

import pytest

from multiccs.cli import main
from multiccs.lts import Budget, StepEngine, build_lts
from multiccs.nets import NetBuilder, build_net, dec
from multiccs.normalform import normalize
from multiccs.parser import parse_program, parse_term
from multiccs.sync import SyncMode
from multiccs.terms import (Const, check_wellformed, classify_finite_net,
                            format_sequence, format_term, free_names)

WIDTH = 10_000


def wide(width: int, component: str = "a%d.0") -> str:
    return " | ".join(component % i for i in range(width))


def test_a_wide_main_is_checked_normalized_and_decomposed():
    prog = parse_program("main = %s;" % wide(WIDTH))
    assert check_wellformed(prog).ok
    assert classify_finite_net(prog) == (True, "finite-net")
    assert len(normalize(prog.main, prog.env).components) == WIDTH
    assert dec(prog.main, prog.env) == Counter(
        parse_term("a%d.0" % i) for i in range(WIDTH))


@pytest.mark.parametrize("main", [
    " + ".join("a%d.0" % i for i in range(WIDTH)), "a." * WIDTH + "0"],
    ids=["sum", "chain"])
def test_a_wide_sum_and_a_long_chain_are_read_and_checked(main):
    # the parser reads both in loops; the check walks each sum and prefix
    # once, on a stack
    start = time.perf_counter()
    prog = parse_program("main = %s;" % main)
    assert check_wellformed(prog).ok
    assert classify_finite_net(prog) == (True, "finite-net")
    assert time.perf_counter() - start < 1


WIDE_SUM = " + ".join("a%d.0" % i for i in range(WIDTH))


@pytest.mark.parametrize("engine", [
    StepEngine, lambda env: NetBuilder(env, SyncMode.FINITE_NET)],
    ids=["lts", "net"])
def test_a_wide_sum_moves_as_its_summands_in_order(engine):
    # both semantics take a sum's moves from one set of rules, which walks
    # the sum's left spine in a loop
    prog = parse_program("main = %s;" % WIDE_SUM)
    start = time.perf_counter()
    moves = engine(prog.env).place_moves(prog.main)
    assert time.perf_counter() - start < 1
    assert [format_sequence(label) for label, _ in moves] == [
        "a%d" % i for i in range(WIDTH)]


@pytest.mark.parametrize("build", [build_lts, build_net], ids=["lts", "net"])
def test_a_wide_sum_builds_at_the_default_recursion_limit(build):
    # term keys, skeletons and canonical terms walk a sum's left spine in
    # a loop; each summand moves to 0, which lax mode drops
    prog = parse_program("main = %s;" % " + ".join(
        "a%d.0" % i for i in range(1500)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        start = time.perf_counter()
        out = build(prog)
        assert time.perf_counter() - start < 2
    finally:
        sys.setrecursionlimit(limit)
    assert (len(out.transitions), out.complete) == (1500, True)


def test_a_wide_sum_prints_as_written():
    term = parse_term(WIDE_SUM)
    start = time.perf_counter()
    assert format_term(term) == WIDE_SUM
    assert time.perf_counter() - start < 1


def test_a_nested_restriction_ends_a_wide_main():
    prog = parse_program("main = new(r) (%s | tau.(new(x) x.r.0));"
                         % wide(WIDTH))
    assert classify_finite_net(prog) == (
        False, "main has a nested restriction: new(x) x.r.0")


def test_a_wide_definition_body_is_checked():
    prog = parse_program("K = %s; main = K;" % wide(WIDTH, "a%d.K"))
    assert check_wellformed(prog).ok
    prog = parse_program("K = %s | K; main = K;" % wide(WIDTH, "a%d.K"))
    assert [issue.code for issue in check_wellformed(prog).issues] == [
        "unguarded"]


def test_a_wide_definition_body_has_its_free_names_in_one_pass():
    prog = parse_program("K = %s; main = K;" % wide(WIDTH, "a%d.K"))
    start = time.perf_counter()
    names = free_names(Const("K"), prog.env)
    assert time.perf_counter() - start < 0.5
    assert names == {"a%d" % i for i in range(WIDTH)}


def test_a_wide_restricted_body_is_opened_and_normalized():
    # opening the restriction substitutes into the whole wide body
    prog = parse_program("main = new(x)(%s);" % wide(WIDTH, "x.a%d.0"))
    places = dec(prog.main, prog.env)
    assert {format_term(c): n for c, n in places.items()} == {
        "x#1.a%d.0" % i: 1 for i in range(WIDTH)}
    nf = normalize(prog.main, prog.env)
    assert (nf.restricted, len(nf.components)) == (("ν1",), WIDTH)


def test_a_wide_restricted_body_builds_its_lts():
    # no component can move: x has no partner
    prog = parse_program("main = new(x)(%s);" % wide(2000, "x.a%d.0"))
    lts = build_lts(prog, budget=Budget(max_states=3))
    assert (len(lts.states), len(lts.transitions), lts.complete) == (
        1, 0, True)


def test_a_wide_main_builds_a_net_up_to_the_state_budget():
    prog = parse_program("main = %s;" % wide(1200))
    net = build_net(prog, budget=Budget(max_states=3))
    # every component is a place with its one transition; the marking
    # space, 2^1200 markings, is what the budget cuts
    assert (len(net.place_names), len(net.transitions), net.complete) == (
        1200, 1200, False)


def test_cli_checks_a_wide_program(tmp_path, capsys):
    f = tmp_path / "wide.mccs"
    f.write_text("main = %s;\n" % wide(WIDTH))
    assert main(["check", str(f)]) == 0
    assert "finite-net fragment: yes" in capsys.readouterr().out
