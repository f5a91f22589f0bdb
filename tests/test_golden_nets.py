"""Pinned outputs of net construction and the marking-graph analyses.

Place numbering follows the order in which the net closure discovers
items, and marking-graph states follow discovery order, so a refactor of
either can change output without breaking any other test.  This compares
against `golden_nets.json` exactly.  Regenerate it (only on purpose) with

    PYTHONPATH=src python tests/test_golden_nets.py --write
"""

import json
import random
import sys
from pathlib import Path

from multiccs.lts import Budget
from multiccs.nets import build_net, is_reduced, is_safe, marking_graph
from multiccs.parser import format_pnet
from multiccs.sync import SyncMode
from multiccs.terms import check_wellformed, format_sequence, format_term

from conftest import CORPUS, load_net, load_program, random_finite_net_program

GOLDEN = Path(__file__).resolve().parent / "golden_nets.json"
BUDGET = Budget(max_states=40, max_places=60, max_transitions=120)
MODES = {"auto": None, "general": SyncMode.GENERAL}


def graph_record(net) -> dict:
    graph = marking_graph(net, BUDGET)
    return {
        "states": graph.states,
        "transitions": [[i, format_sequence(label), j]
                        for i, label, j in graph.transitions],
        "graph_complete": graph.complete,
        "reduced": is_reduced(net, BUDGET),
        "safe": is_safe(net, BUDGET),
    }


def programs() -> list:
    out = [(p.stem, load_program(p.name))
           for p in sorted(CORPUS.glob("*.mccs"))]
    out = [(name, prog) for name, prog in out if check_wellformed(prog).ok]
    rng = random.Random(6433)
    seeded = 0
    while seeded < 10:
        prog = random_finite_net_program(rng)
        if check_wellformed(prog).ok:
            out.append(("seeded%d" % seeded, prog))
            seeded += 1
    return out


def snapshot() -> dict:
    out = {}
    for name, prog in programs():
        for mode_name, mode in MODES.items():
            net = build_net(prog, mode, BUDGET)
            out["%s/%s" % (name, mode_name)] = {
                "pnet": format_pnet(net),
                "places": [format_term(t) for t in net.place_terms],
                "complete": net.complete,
                **graph_record(net),
            }
    for p in sorted(CORPUS.glob("*.pnet")):
        out[p.name] = graph_record(load_net(p.name))
    return out


def test_outputs_match_golden_file():
    expected = json.loads(GOLDEN.read_text())
    actual = snapshot()
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_nets.py --write")
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
