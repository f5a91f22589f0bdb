"""Command line front end.

Each command prints one product on stdout.  `net` prints the net of a
program or net file in net syntax and `translate` the program of a net
file, each with what a person reads in `#` comment lines, so that both
read back.  `lts` prints the transition system; it and `net` write a
Graphviz rendering to the `--dot` file.  `bisim` compares two programs or
nets, or a program's LTS with its net's marking graph (claim 1), and
`roundtrip` checks that net -> program -> net is an isomorphism (claim 3).

Exit codes: 0 success, 2 parse error, 3 ill-formed input, 4 budget
exhaustion, 5 a checked property does not hold.
"""

import argparse
import sys

from .dot import lts_dot, net_dot
from .equiv import IncompleteLtsError, bisimilar, isomorphic
from .lts import DEFAULT_BUDGET, Budget, StepEngine, build_lts
from .nets import PTNet, build_net, is_reduced, is_safe, marking_graph
from .net2term import is_ccs_net, translate
from .normalform import normalize
from .parser import (ParseError, format_pnet, format_program, looks_like_net,
                     parse_pnet, parse_program, parse_sequence)
from .sync import SyncMode, auto_mode, sync_outcomes
from .terms import (MccsError, check_wellformed, classify_finite_net,
                    format_sequence, format_term, label_key)

OK, EPARSE, EILL, EBUDGET, EPROP = 0, 2, 3, 4, 5


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _stem(path: str) -> str:
    import os.path
    return os.path.splitext(os.path.basename(path))[0]


def _load(path: str, nets: bool = False):
    """The well-formed program in a file; with nets, a net file's net."""
    text = _read(path)
    if nets and looks_like_net(text):
        return parse_pnet(text)
    program = parse_program(text, name=_stem(path))
    report = check_wellformed(program)
    if not report.ok:
        for issue in report.issues:
            print(issue, file=sys.stderr)
        raise SystemExit(EILL)
    return program


def _load_net(path: str):
    return parse_pnet(_read(path))


# the Budget field and least value of each budget flag
_BUDGET_FLAGS = {"--max-states": ("max_states", 0),
                 "--max-places": ("max_places", 0),
                 "--max-trans": ("max_transitions", 0),
                 "--max-seq-len": ("max_seq_len", 1)}


def _budget(args) -> Budget:
    """The budget the command's flags set, the default elsewhere."""
    return Budget(**{field: value for field, value in vars(args).items()
                     if field.startswith("max_")})


def _mode(args, program) -> SyncMode:
    return auto_mode(program) if args.mode == "auto" else SyncMode(args.mode)


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be at least %d, not %s" % (low, text))
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _add_common(sub, budgets=tuple(_BUDGET_FLAGS), mode=True, strict=True):
    """The budget flags in budgets, --mode and --strict."""
    for flag in budgets:
        field, low = _BUDGET_FLAGS[flag]
        sub.add_argument(flag, dest=field, type=_at_least(low),
                         default=getattr(DEFAULT_BUDGET, field))
    if mode:
        sub.add_argument("--mode", choices=["auto", "general", "finite-net"],
                         default="auto")
    if strict:
        sub.add_argument("--strict", action="store_true",
                         help="keep dead components and unused restrictions"
                              " distinct when normalizing states")


# ---------------------------------------------------------------------------
# commands


def cmd_check(args) -> int:
    program = parse_program(_read(args.file), name=_stem(args.file))
    report = check_wellformed(program)
    print("definitions: %d" % len(program.env.defs))
    print("well-formed: %s" % ("yes" if report.ok else "no"))
    for issue in report.issues:
        print("  %s" % issue)
    flag, reason = classify_finite_net(program)
    print("finite-net fragment: %s%s"
          % ("yes" if flag else "no", "" if flag else " (%s)" % reason))
    return OK if report.ok else EILL


def cmd_lts(args) -> int:
    program = _load(args.file)
    lts = build_lts(program, _mode(args, program), _budget(args), args.strict)
    print("states: %d" % len(lts.states))
    print("transitions: %d" % len(lts.transitions))
    print("complete: %s" % ("yes" if lts.complete else "no"))
    if args.dot:
        _write(args.dot, lts_dot(lts, name=args.file))
    if not args.quiet:
        for i, key in enumerate(lts.states):
            print("q%d = %s" % (i, key))
        for src, label, tgt in sorted(
                lts.transitions,
                key=lambda t: (t[0], label_key(t[1]), t[2])):
            print("q%d --%s--> q%d" % (src, format_sequence(label), tgt))
    return OK if lts.complete else EBUDGET


def cmd_net(args) -> int:
    net = _load(args.file, nets=True)
    if not isinstance(net, PTNet):
        net = build_net(net, _mode(args, net), _budget(args))
    # what a person reads goes in comments, so that stdout reads back
    print("# net %s: %s" % (net.name, net.summary()))
    for pname, term in zip(net.place_names, net.place_terms or ()):
        print("# %s = %s" % (pname, format_term(term)))
    print(format_pnet(net), end="")
    answers = []
    if args.analyse:
        answers = [is_reduced(net, _budget(args)), is_safe(net, _budget(args))]
        print("# reduced: %s\n# safe: %s" % tuple(answers))
    if args.dot:
        _write(args.dot, net_dot(net))
    # an analysis the budget cut answers "unknown"
    return OK if net.complete and "unknown" not in answers else EBUDGET


def cmd_translate(args) -> int:
    net = _load_net(args.file)
    program = translate(net)
    # a comment, so that stdout reads back as a program
    print("# ccs-shaped: %s" % ("yes" if is_ccs_net(net) else "no"))
    print(format_program(program), end="")
    return OK


def _report_iso(n1, n2) -> bool:
    """Prints whether the nets are isomorphic, and the place map if so."""
    iso = isomorphic(n1, n2)
    print("isomorphic: %s" % ("yes" if iso.found else "no"))
    for old, new in sorted((iso.mapping(n1, n2) or {}).items()):
        print("  %s -> %s" % (old, new))
    return iso.found


def cmd_roundtrip(args) -> int:
    net = _load_net(args.file)
    program = translate(net)
    rebuilt = build_net(program, budget=_budget(args))
    print("original: %s" % net.summary())
    print("rebuilt: %s" % rebuilt.summary())
    # isomorphic refuses a truncated rebuild
    if _report_iso(net, rebuilt):
        return OK
    print("  (is the input reduced? reduced: %s)" % is_reduced(net))
    return EPROP


def _system(loaded, args):
    """The LTS of a loaded program, or the marking graph of a loaded net."""
    if isinstance(loaded, PTNet):
        return marking_graph(loaded, _budget(args))
    return build_lts(loaded, _mode(args, loaded), _budget(args), args.strict)


def cmd_bisim(args) -> int:
    first = _load(args.file, nets=True)
    if args.other:
        second, other = _load(args.other, nets=True), args.other
    elif isinstance(first, PTNet):
        print("bisim of a net takes a second file", file=sys.stderr)
        return EPARSE
    else:
        # claim 1; the graph of a truncated net is truncated, and bisimilar
        # refuses it
        second = build_net(first, _mode(args, first), _budget(args))
        other = "the marking graph of its net"
    res = bisimilar(_system(first, args), _system(second, args))
    print("comparing %s with %s" % (args.file, other))
    print("bisimilar: %s" % ("yes" if res.equivalent else "no"))
    if not res.equivalent:
        print("distinguishing formula (holds on the left, fails on the"
              " right): %s" % res.counterexample())
        return EPROP
    return OK


def cmd_iso(args) -> int:
    return OK if _report_iso(_load_net(args.file),
                             _load_net(args.other)) else EPROP


def cmd_sync(args) -> int:
    mode = SyncMode(args.mode)
    s1, s2 = parse_sequence(args.left), parse_sequence(args.right)
    outcomes = sync_outcomes(s1, s2, mode)
    if not outcomes:
        print("(no synchronization)")
    for seq in sorted(outcomes, key=label_key):
        print(format_sequence(seq))
    return OK


def cmd_step(args) -> int:
    program = _load(args.file)
    engine = StepEngine(program.env, _mode(args, program), args.max_seq_len,
                        args.strict)
    state = normalize(program.main, program.env, args.strict)
    out = sys.stdout
    while True:
        print("state: %s" % state.key(), file=out)
        moves = engine.step(state)
        # the flag is sticky: cached moves may carry an earlier cut
        status = EBUDGET if engine.truncated else OK
        if status:
            print("note: a budget cut the move computation, moves may be "
                  "missing", file=out)
        if not moves:
            print("no moves (deadlock)", file=out)
            return status
        for i, (label, target) in enumerate(moves):
            print("  [%d] --%s--> %s" % (i, format_sequence(label),
                                         target.key()), file=out)
        line = sys.stdin.readline()
        if not line or line.strip() in ("q", "quit"):
            return status
        try:
            choice = int(line)
        except ValueError:
            print("enter a move number or q", file=out)
            continue
        if not 0 <= choice < len(moves):
            print("no such move", file=out)
            continue
        state = moves[choice][1]


# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="multiccs",
        description="Process calculus toolkit: transition systems,"
                    " place/transition nets, and translations between them.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and well-formedness report")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("lts", help="build the labeled transition system")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH")
    p.add_argument("--quiet", action="store_true")
    _add_common(p, ("--max-states", "--max-seq-len"))
    p.set_defaults(fn=cmd_lts)

    p = sub.add_parser("net", help="print the net of a program or net file")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH")
    p.add_argument("--analyse", action="store_true",
                   help="also report reducedness and safety, as comments")
    _add_common(p, strict=False)
    p.set_defaults(fn=cmd_net)

    p = sub.add_parser("translate", help="print the program of a net file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("roundtrip",
                       help="net -> program -> net, check isomorphism")
    p.add_argument("file")
    _add_common(p, ("--max-states", "--max-places", "--max-trans"),
                mode=False, strict=False)
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("bisim", help="bisimilarity of two programs or nets,"
                                     " or of a program and its own net")
    p.add_argument("file")
    p.add_argument("other", nargs="?",
                   help="a program or net; without it, FILE's own net")
    _add_common(p)
    p.set_defaults(fn=cmd_bisim)

    p = sub.add_parser("iso", help="isomorphism of two nets")
    p.add_argument("file")
    p.add_argument("other")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("sync", help="synchronization outcomes of two"
                                    " action sequences")
    p.add_argument("left", help="actions separated by spaces, e.g."
                                " 'a ~b tau'")
    p.add_argument("right", help="the other action sequence")
    p.add_argument("--mode", choices=["general", "finite-net"],
                   default="general")
    p.set_defaults(fn=cmd_sync)

    p = sub.add_parser("step", help="interactive stepping")
    p.add_argument("file")
    _add_common(p, ("--max-seq-len",))
    p.set_defaults(fn=cmd_step)

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:
        print(str(e), file=sys.stderr)
        return EPARSE
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EPARSE
    except IncompleteLtsError as e:
        print(str(e), file=sys.stderr)
        return EBUDGET
    except MccsError as e:
        print(str(e), file=sys.stderr)
        return EILL
    except RecursionError:
        # normal-form skeletons, substitution and the printing of prefix
        # bodies still recurse, so nesting depth is a budget
        print("input nests too deeply to process", file=sys.stderr)
        return EBUDGET


if __name__ == "__main__":
    sys.exit(main())
