"""Pinned outputs of the transition-system semantics.

`build_lts` and the term-level `StepEngine.step` share the move closure
and the region splitter, so a refactor of either can change both at once
and the differential test between them would not notice.  This compares
states, transitions, completeness and the initial `step` list of each case
against `golden_lts.json` exactly.  Regenerate it (only on purpose) with

    PYTHONPATH=src python tests/test_golden_lts.py --write
"""

import json
import random
import sys
from pathlib import Path

from multiccs.lts import Budget, StepEngine, build_lts
from multiccs.net2term import translate
from multiccs.normalform import normalize
from multiccs.parser import parse_program
from multiccs.sync import SyncMode
from multiccs.terms import check_wellformed, classify_finite_net, format_sequence

from conftest import CORPUS, load_net, load_program, random_finite_net_program

GOLDEN = Path(__file__).resolve().parent / "golden_lts.json"
BUDGET = Budget(max_states=30)
# strict states of translated nets keep every symmetric binder, and
# canonicalizing them is what costs time
STRICT_NET_BUDGET = Budget(max_states=10)

BINDER_PROGRAMS = {
    "extrusion": "main = new(a)(<b>.(new(c)(~c.0 | c.~a.0)) | a.d.0 | ~b.0);",
    "shadowing": "P = new(a)(a.0 | <~a>.a.P);"
                 " main = new(a)(a.P | ~a.0 | <x>.(new(a)(~a.a.0 | a.0))"
                 " | ~x.0);",
    "respawn": "C = up.(new(a)(C | a.0)) + <down>.(new(b)(~b.0 | b.C));"
               " main = C | ~up.0 | ~down.0 | ~up.0;",
}


def cases() -> list:
    """(name, program, is a translated net) for every pinned program."""
    out = [(p.stem, load_program(p.name), False)
           for p in sorted(CORPUS.glob("*.mccs"))]
    out = [case for case in out if check_wellformed(case[1]).ok]
    rng = random.Random(6433)
    seeded = 0
    while seeded < 10:
        prog = random_finite_net_program(rng)
        if check_wellformed(prog).ok:
            out.append(("seeded%d" % seeded, prog, False))
            seeded += 1
    for p in sorted(CORPUS.glob("*.pnet")):
        out.append((p.name, translate(load_net(p.name)), True))
    for name, text in BINDER_PROGRAMS.items():
        out.append((name, parse_program(text), False))
    return out


def modes(prog) -> dict:
    flag, _ = classify_finite_net(prog)
    return {"auto": SyncMode.FINITE_NET if flag else SyncMode.GENERAL,
            "general": SyncMode.GENERAL}


def record(prog, mode, budget, strict) -> dict:
    lts = build_lts(prog, mode, budget, strict)
    init = normalize(prog.main, prog.env, strict)
    return {
        "states": lts.states,
        "transitions": [[i, format_sequence(label), j]
                        for i, label, j in lts.transitions],
        "complete": lts.complete,
        "initial_step": [[format_sequence(label), target.key()]
                         for label, target
                         in StepEngine(prog.env, mode, budget.max_seq_len,
                                       strict).step(init)],
    }


def snapshot() -> dict:
    out = {}
    for name, prog, is_net in cases():
        for mode_name, mode in modes(prog).items():
            for strict in (False, True):
                budget = STRICT_NET_BUDGET if is_net and strict else BUDGET
                key = "%s/%s/%s" % (name, mode_name,
                                    "strict" if strict else "lax")
                out[key] = record(prog, mode, budget, strict)
    return out


def test_outputs_match_golden_file():
    expected = json.loads(GOLDEN.read_text())
    actual = snapshot()
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_lts.py --write")
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
