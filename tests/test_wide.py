"""Stress tests on wide terms: a flat parallel composition of thousands of
components, nested to the left as the parser builds it, goes through every
region walk (`terms.region` and the explicit-stack traversals) without one
level of recursion per component."""

from collections import Counter

from multiccs.cli import main
from multiccs.lts import Budget
from multiccs.nets import build_net, dec
from multiccs.normalform import normalize
from multiccs.parser import parse_program, parse_term
from multiccs.terms import check_wellformed, classify_finite_net

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
