"""The text formats: every program and net the tools write reads back
unchanged, and one reserved-word list holds for every action name."""

import random
from collections import Counter

import pytest

from multiccs.dot import net_dot
from multiccs.lts import Budget
from multiccs.net2term import translate
from multiccs.nets import PTNet, build_net
from multiccs.parser import (
    RESERVED, ParseError, format_pnet, format_program, looks_like_net,
    parse_pnet, parse_program, parse_sequence,
)
from multiccs.terms import (
    TAU_ACT, act_in, act_out, check_wellformed, format_sequence,
)

from conftest import (
    CORPUS, corpus_text, load_net, load_program, philosophers_ring,
    random_finite_net_program, random_reduced_nets,
)

# small enough for counter.mccs, which is unbounded in general mode
BUDGET = Budget(max_states=40, max_places=60, max_transitions=120)


def written_artifacts():
    """The programs and nets the tools write: corpus and seeded programs
    with their built nets, and translations of corpus, ring and seeded
    reduced nets."""
    programs = [load_program(p.name) for p in sorted(CORPUS.glob("*.mccs"))]
    rng = random.Random(1011)
    seeded = []
    while len(seeded) < 20:
        prog = random_finite_net_program(rng)
        if check_wellformed(prog).ok:
            seeded.append(prog)
    programs = [p for p in programs if check_wellformed(p).ok] + seeded
    nets = [build_net(p, budget=BUDGET) for p in programs]
    inputs = [load_net(p.name) for p in sorted(CORPUS.glob("*.pnet"))]
    inputs += [philosophers_ring(n) for n in range(3, 9)]
    inputs += random_reduced_nets(random.Random(6433), 60)
    return programs + [translate(net) for net in inputs], nets + inputs


def test_every_written_file_reads_back_unchanged():
    programs, nets = written_artifacts()
    assert len(programs) == 20 + 6 + 4 + 6 + 60
    for net in nets:
        text = format_pnet(net)
        assert format_pnet(parse_pnet(text)) == text
    for prog in programs:
        text = format_program(prog)
        assert format_program(parse_program(text)) == text


@pytest.mark.parametrize("label", sorted(RESERVED - {"tau"})
                         + ["~tau", "a.~main", "new.a"])
def test_no_reserved_word_is_a_net_label(label):
    with pytest.raises(ParseError):
        parse_pnet("net n place s1 init 1 trans t label %s in s1:1 out"
                   % label)


@pytest.mark.parametrize("text", [
    "main = in.out.0;",
    "main = new(in)(in.0);",
    "main = main.0;",
    "main = new(new) 0;",
    "main = <label>.0;",
    "main = ~trans.0;",
])
def test_no_reserved_word_is_a_program_name(text):
    with pytest.raises(ParseError):
        parse_program(text)


@pytest.mark.parametrize("name, header", [("", "net1"), ("9x", "n_9x"),
                                          ("a-b", "a_b")])
def test_a_net_name_is_written_as_an_identifier(name, header):
    net = PTNet(name, ["s1"], Counter({0: 1}), [])
    text = format_pnet(net)
    assert text.splitlines()[0] == "net " + header
    assert format_pnet(parse_pnet(text)) == text


def test_place_and_transition_names_keep_their_rule():
    # identifiers may be program keywords, not net keywords
    net = parse_pnet("net main place new init 1 place Tau init 0 "
                     "trans main label a in new:1 out Tau:1")
    assert net.place_names == ["new", "Tau"] and net.trans_names == ["main"]
    with pytest.raises(ParseError):
        parse_pnet("net n place in init 1")


def test_sequences_read_what_format_sequence_prints():
    seq = (act_in("a"), act_out("b"), TAU_ACT)
    assert format_sequence(seq) == "a ~b tau"
    assert parse_sequence("a ~b tau") == seq
    assert parse_sequence("  a\n~b  tau ") == seq


@pytest.mark.parametrize("text", ["", "~", "a.b", "A", "main", "~tau", "a ~"])
def test_malformed_sequences_are_parse_errors(text):
    with pytest.raises(ParseError):
        parse_sequence(text)


def test_format_sniffing():
    for path in sorted(CORPUS.iterdir()):
        assert looks_like_net(corpus_text(path.name)) == (
            path.suffix == ".pnet"), path.name
    assert not looks_like_net("")
    assert looks_like_net("# a comment\n\n  net n\n")


def test_dot_escapes_every_place_name():
    # a marked and an unmarked place, each name with a quote and a backslash
    net = PTNet("n", ['a"b\\c', 'd\\e"f'], Counter({0: 1}), [])
    text = net_dot(net)
    assert 'p0 [shape=circle, label="a\\"b\\\\c\\n1"];' in text
    assert 'p1 [shape=circle, label="d\\\\e\\"f"];' in text
