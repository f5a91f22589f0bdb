"""Command line behavior: subcommands, exit codes, output determinism."""

import io

import pytest

import multiccs.cli
import multiccs.lts
from multiccs.cli import main
from multiccs.lts import Budget
from multiccs.net2term import translate
from multiccs.nets import build_net
from multiccs.parser import (format_pnet, format_program, parse_pnet,
                             parse_program)
from multiccs.terms import check_wellformed

from conftest import CORPUS


def run(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as e:
        return e.code


def path(name):
    return CORPUS / name


def _well_formed(p) -> bool:
    return check_wellformed(parse_program(p.read_text(), name=p.stem)).ok


# every corpus net, and every well-formed corpus program, with the budget
# flags that keep its net finite
READ_BACK = [pytest.param(p, (), id=p.stem)
             for p in sorted(CORPUS.glob("*.pnet"))] + [
    pytest.param(p, ("--max-states", "20") if p.stem == "counter" else (),
                 id=p.stem)
    for p in sorted(CORPUS.glob("*.mccs")) if _well_formed(p)]


class TestCheck:
    def test_good_program(self, capsys):
        assert run("check", path("semicounter.mccs")) == 0
        out = capsys.readouterr().out
        assert "well-formed: yes" in out
        assert "finite-net fragment: yes" in out

    def test_ill_formed(self, capsys):
        assert run("check", path("illegal.mccs")) == 3
        out = capsys.readouterr().out
        assert "well-formed: no" in out
        assert "unguarded" in out

    def test_fragment_reported(self, capsys):
        assert run("check", path("counter.mccs")) == 0
        assert "finite-net fragment: no" in capsys.readouterr().out

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.mccs"
        bad.write_text("main = a.;")
        assert run("check", bad) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run("check", "no/such/file.mccs") == 2


class TestLts:
    def test_small_system(self, capsys):
        assert run("lts", path("dining.mccs")) == 0
        out = capsys.readouterr().out
        assert "states: 5" in out and "transitions: 11" in out
        assert "complete: yes" in out
        assert "--eat-->" in out

    def test_quiet(self, capsys):
        assert run("lts", path("dining.mccs"), "--quiet") == 0
        assert "q0 --" not in capsys.readouterr().out

    def test_budget_exhaustion(self, capsys):
        assert run("lts", path("semicounter.mccs"), "--max-states", "5",
                   "--quiet") == 4
        assert "complete: no" in capsys.readouterr().out

    def test_ill_formed_input(self, capsys):
        assert run("lts", path("illegal.mccs")) == 3

    def test_dot_writes_a_digraph(self, capsys, tmp_path):
        out = tmp_path / "lts.dot"
        assert run("lts", path("dining.mccs"), "--quiet", "--dot", out) == 0
        assert out.read_text().startswith("digraph")

    def test_sync_cut_by_max_seq_len_is_a_budget_error(self, capsys,
                                                       tmp_path):
        f = tmp_path / "p.mccs"
        f.write_text("main = <a>.b.0 | <c>.~a.0;\n")
        assert run("lts", f, "--mode", "general", "--max-seq-len", "1",
                   "--quiet") == 4
        assert "complete: no" in capsys.readouterr().out

    def test_closure_cap_is_a_budget_error(self, capsys, monkeypatch):
        monkeypatch.setattr(multiccs.lts, "_MAX_ITEMS", 2)
        assert run("lts", path("dining.mccs"), "--quiet") == 4
        assert "complete: no" in capsys.readouterr().out

    def test_deep_nesting_is_reported_in_one_line(self, capsys, tmp_path):
        f = tmp_path / "deep.mccs"
        f.write_text("main = %s0;\n" % ("a." * 2000))
        assert run("lts", f, "--quiet") == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nests too deeply" in err

    def test_mode_flag_changes_the_system(self, capsys, tmp_path):
        f = tmp_path / "p.mccs"
        f.write_text("main = <a>.b.0 | <c>.~a.0;\n")
        run("lts", f, "--mode", "general", "--quiet")
        general = capsys.readouterr().out
        run("lts", f, "--mode", "finite-net", "--quiet")
        finite = capsys.readouterr().out
        assert general != finite


class TestNet:
    def test_build_from_program(self, capsys):
        assert run("net", path("dining.mccs")) == 0
        out = capsys.readouterr().out
        assert "# net dining: 10 places, 8 transitions, complete\n" in out
        assert "\nplace s1 init 1\n" in out

    def test_load_net_file(self, capsys):
        assert run("net", path("phils.pnet"), "--analyse") == 0
        out = capsys.readouterr().out
        assert "6 places, 6 transitions" in out
        assert "reduced: yes" in out and "safe: yes" in out

    def test_budget_exhaustion(self, capsys):
        assert run("net", path("counter.mccs"), "--max-states", "20") == 4

    def test_an_analysis_cut_by_the_budget_is_a_budget_error(self, capsys):
        # the net file is complete; its reducedness check is not
        assert run("net", path("weighted.pnet"), "--analyse",
                   "--max-states", "3") == 4
        assert "reduced: unknown" in capsys.readouterr().out

    @pytest.mark.parametrize("text, cap", [("main = a.0 | b.0;", 1),
                                           ("main = a.0;", 0)])
    def test_initial_marking_over_the_place_cap_is_a_budget_error(
            self, capsys, tmp_path, text, cap):
        f = tmp_path / "p.mccs"
        f.write_text(text + "\n")
        assert run("net", f, "--max-places", cap) == 4
        captured = capsys.readouterr()
        assert "truncated" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("file, flags", READ_BACK)
    def test_stdout_reads_back(self, capsys, file, flags):
        status = run("net", file, "--analyse", *flags)
        assert status == (4 if flags else 0)
        if file.suffix == ".pnet":
            net = parse_pnet(file.read_text())
        else:
            budget = Budget(max_states=20) if flags else Budget()
            net = build_net(parse_program(file.read_text(), name=file.stem),
                            budget=budget)
        printed = parse_pnet(capsys.readouterr().out)
        assert format_pnet(printed) == format_pnet(net)

    def test_place_terms_are_shown(self, capsys):
        run("net", path("semicounter.mccs"))
        out = capsys.readouterr().out
        assert "s1 = up.(down.0 | A)" in out

    def test_dot_writes_a_digraph(self, capsys, tmp_path):
        out = tmp_path / "net.dot"
        assert run("net", path("dining.mccs"), "--dot", out) == 0
        assert out.read_text().startswith("digraph")


class TestBudgetFlags:
    @pytest.mark.parametrize("argv", [
        ("net", "--max-places", "-1"),
        ("net", "--max-trans", "-5"),
        ("lts", "--max-states", "-1"),
        ("lts", "--mode", "general", "--max-seq-len", "0"),
        ("step", "--max-seq-len", "-2"),
    ])
    def test_unmeetable_budget_is_a_usage_error(self, capsys, tmp_path,
                                                 argv):
        f = tmp_path / "p.mccs"
        f.write_text("main = <a>.<b>.c.0 | ~a.0 | ~b.0;\n")
        assert run(argv[0], f, *argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage" in captured.err and argv[-2] in captured.err

    @pytest.mark.parametrize("argv", [
        ("lts", "--max-places", "5"),
        ("lts", "--max-trans", "5"),
        ("step", "--max-states", "5"),
        ("step", "--max-places", "5"),
        ("step", "--max-trans", "5"),
        ("net", "--strict"),
        ("roundtrip", "--max-seq-len", "5"),
        ("roundtrip", "--strict"),
        ("translate", "--max-states", "5"),
        ("translate", "--out", "x.mccs"),
        ("net", "--out", "x.pnet"),
        ("bisim", "--against-net"),
    ])
    def test_a_flag_the_command_does_not_read_is_refused(self, capsys,
                                                         tmp_path, argv):
        f = tmp_path / "p.mccs"
        f.write_text("main = a.0;\n")
        assert run(argv[0], f, *argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: %s" % " ".join(argv[1:]) in \
            captured.err

    def test_zero_caps_are_budgets_not_usage_errors(self, capsys, tmp_path):
        f = tmp_path / "p.mccs"
        f.write_text("main = a.0;\n")
        assert run("lts", f, "--max-states", "0", "--quiet") == 4
        assert run("net", f, "--max-trans", "0") == 4
        assert "truncated" in capsys.readouterr().out


class TestTranslateAndRoundtrip:
    def test_translate_prints_the_program(self, capsys):
        assert run("translate", path("weighted.pnet")) == 0
        out = capsys.readouterr().out
        assert "ccs-shaped: no" in out
        assert "C1 = ~x1.0 + <x1>.a.C1 + ~x2.0 + <x3>.<x3>.c.C3 + y1.0;" in out

    def test_translate_ccs_shaped(self, capsys):
        assert run("translate", path("loop_a.pnet")) == 0
        out = capsys.readouterr().out
        assert "ccs-shaped: yes" in out
        assert "C1 = a.C1 + y1.0;" in out

    @pytest.mark.parametrize("net", sorted(CORPUS.glob("*.pnet")),
                             ids=lambda p: p.stem)
    def test_translate_stdout_reads_back(self, capsys, net):
        assert run("translate", net) == 0
        printed = capsys.readouterr().out
        text = format_program(translate(parse_pnet(net.read_text())))
        assert parse_program(printed) == parse_program(text)

    def test_roundtrip_ok(self, capsys):
        assert run("roundtrip", path("phils.pnet")) == 0
        out = capsys.readouterr().out
        assert "isomorphic: yes" in out
        assert "s1 -> s1" in out

    def test_truncated_rebuild_is_a_budget_error(self, capsys):
        assert run("roundtrip", path("phils.pnet"), "--max-places", "2") == 4
        # the one refusal is isomorphic's, of the truncated rebuild
        assert capsys.readouterr().err.splitlines() == [
            "the second net was truncated by a budget; "
            "isomorphism over it would be unsound"]

    def test_roundtrip_flags_non_reduced_input(self, capsys, tmp_path):
        f = tmp_path / "dead.pnet"
        f.write_text("net dead place s1 init 1 place s2 init 0\n"
                     "trans t1 label a in s1:1 out s1:1\n")
        assert run("roundtrip", f) == 5
        out = capsys.readouterr().out
        assert "isomorphic: no" in out
        assert "reduced: no" in out

    def test_translate_rejects_sequence_labels(self, capsys, tmp_path):
        f = tmp_path / "seq.pnet"
        f.write_text("net seq place s1 init 1\n"
                     "trans t1 label a.b in s1:1 out s1:1\n")
        assert run("translate", f) == 3

    def test_complementary_labels_are_refused(self, capsys, tmp_path):
        # translated, a and ~a would synchronize: the rebuilt net would not
        # be isomorphic to this reduced one
        f = tmp_path / "pair.pnet"
        f.write_text("net n place s1 init 1 place s2 init 1\n"
                     "trans t1 label a in s1:1 out s1:1\n"
                     "trans t2 label ~a in s2:1 out s2:1\n")
        assert run("roundtrip", f) == 3
        assert "complementary labels a and ~a" in capsys.readouterr().err
        assert run("translate", f) == 3


class TestComparisons:
    def test_bisim_self(self, capsys):
        assert run("bisim", path("dining.mccs"), path("dining.mccs")) == 0
        assert "bisimilar: yes" in capsys.readouterr().out

    def test_bisim_differs(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.mccs", tmp_path / "b.mccs"
        f1.write_text("main = a.b.0;\n")
        f2.write_text("main = a.c.0;\n")
        assert run("bisim", f1, f2) == 5
        assert "distinguishing formula" in capsys.readouterr().out

    def test_bisim_against_net(self, capsys):
        assert run("bisim", path("dining.mccs")) == 0
        out = capsys.readouterr().out
        assert "marking graph" in out and "bisimilar: yes" in out

    def test_bisim_against_a_truncated_net_is_a_budget_error(self, capsys):
        assert run("bisim", path("dining.mccs"), "--max-places", "2") == 4
        # the one refusal is bisimilar's, of the net's truncated graph
        assert capsys.readouterr().err.splitlines() == [
            "the second system was truncated by a budget; "
            "bisimilarity over it would be unsound"]

    def test_bisim_needs_a_second_system(self, capsys):
        # a net has no net of its own to compare with
        assert run("bisim", path("loop_a.pnet")) == 2

    def test_bisim_usage_is_checked_before_any_build(self, capsys,
                                                      monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a system built before the usage check")

        monkeypatch.setattr(multiccs.cli, "marking_graph", fail)
        monkeypatch.setattr(multiccs.cli, "build_lts", fail)
        assert run("bisim", path("weighted.pnet")) == 2
        captured = capsys.readouterr()
        assert captured.err == "bisim of a net takes a second file\n"
        assert captured.out == ""

    def test_against_net_needs_a_program(self, capsys):
        # one file is compared with its own net, which only a program has
        assert run("bisim", path("loop_a.pnet")) == 2
        captured = capsys.readouterr()
        assert "second file" in captured.err and captured.out == ""

    def test_bisim_program_against_its_written_net(self, capsys, tmp_path):
        # claim 1 through files: the LTS of a program is bisimilar to the
        # marking graph of the net that `net` printed for it
        written = tmp_path / "D.pnet"
        assert run("net", path("dining.mccs")) == 0
        written.write_text(capsys.readouterr().out)
        assert run("bisim", path("dining.mccs"), written) == 0
        assert "bisimilar: yes" in capsys.readouterr().out

    def test_bisim_truncated_is_a_budget_error(self, capsys):
        assert run("bisim", path("semicounter.mccs"), "--max-states", "6") == 4

    def test_iso(self, capsys):
        assert run("iso", path("loop_a.pnet"), path("cycle_a.pnet")) == 5
        assert "isomorphic: no" in capsys.readouterr().out
        assert run("iso", path("phils.pnet"), path("phils.pnet")) == 0

    def test_net_bisim(self, capsys):
        assert run("bisim", path("loop_a.pnet"), path("cycle_a.pnet")) == 0
        assert "bisimilar: yes" in capsys.readouterr().out

    def test_net_bisim_differs(self, capsys):
        assert run("bisim", path("loop_a.pnet"), path("weighted.pnet")) == 5
        out = capsys.readouterr().out
        assert "bisimilar: no" in out and "distinguishing formula" in out

    @pytest.mark.parametrize("argv", [
        ("bisim", path("semicounter.mccs"), "--max-states", "6"),
        ("bisim", path("weighted.pnet"), path("weighted.pnet"),
         "--max-states", "3"),
    ])
    def test_truncated_comparison_is_reported_in_one_line(self, capsys,
                                                          argv):
        assert run(*argv) == 4
        captured = capsys.readouterr()
        assert captured.err == ("the first system was truncated by a budget;"
                                " bisimilarity over it would be unsound\n")
        assert captured.out == ""


class TestSyncCommand:
    def test_outcomes(self, capsys):
        assert run("sync", "a b", "~a") == 0
        assert capsys.readouterr().out == "b\n"

    def test_no_outcome(self, capsys):
        assert run("sync", "a", "a") == 0
        assert "(no synchronization)" in capsys.readouterr().out

    def test_mode_restricts(self, capsys):
        assert run("sync", "a b", "~a ~b") == 0
        general = capsys.readouterr().out
        assert run("sync", "a b", "~a ~b", "--mode", "finite-net") == 0
        finite = capsys.readouterr().out
        assert "tau" in general and "(no synchronization)" in finite

    @pytest.mark.parametrize("left, right", [("~", "a"), ("a.b", "~a"),
                                             ("", "a"), ("a", "in")])
    def test_a_malformed_sequence_is_a_parse_error(self, capsys, left,
                                                   right):
        assert run("sync", left, right) == 2
        captured = capsys.readouterr()
        assert "parse error" in captured.err and captured.out == ""

    def test_help_shows_the_notation(self, capsys):
        assert run("sync", "--help") == 0
        assert "'a ~b tau'" in " ".join(capsys.readouterr().out.split())


class TestStep:
    def test_deadlock_reports_and_exits(self, capsys, tmp_path):
        f = tmp_path / "stuck.mccs"
        f.write_text("main = 0;\n")
        assert run("step", f) == 0
        assert "no moves (deadlock)" in capsys.readouterr().out

    def test_pick_a_move_then_quit(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "go.mccs"
        f.write_text("main = a.b.0;\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("0\nq\n"))
        assert run("step", f) == 0
        out = capsys.readouterr().out
        assert "[0] --a-->" in out and "[0] --b-->" in out

    def test_bad_choices_are_answered(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "go.mccs"
        f.write_text("main = a.b.0;\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("x\n9\nq\n"))
        assert run("step", f) == 0
        out = capsys.readouterr().out
        assert "enter a move number or q" in out and "no such move" in out
        assert "--b-->" not in out

    def test_budget_cut_moves_are_reported(self, capsys, monkeypatch,
                                           tmp_path):
        f = tmp_path / "p.mccs"
        f.write_text("main = <a>.b.0 | <c>.~a.0;\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("q\n"))
        assert run("step", f, "--mode", "general", "--max-seq-len", "1") == 4
        out = capsys.readouterr().out
        assert "--c b-->" not in out
        assert out.count("budget") == 1


class TestDot:
    def test_lts_dot(self, capsys, tmp_path):
        # a render of a truncated build says so in the exit code
        out = tmp_path / "lts.dot"
        assert run("lts", path("semicounter.mccs"), "--quiet",
                   "--max-states", "4", "--dot", out) == 4
        text = out.read_text()
        assert text.startswith("digraph") and "->" in text

    def test_net_dot_from_program(self, capsys, tmp_path):
        out = tmp_path / "net.dot"
        assert run("net", path("dining.mccs"), "--dot", out) == 0
        assert "shape=box" in out.read_text()

    def test_net_dot_from_file(self, capsys, tmp_path):
        out = tmp_path / "g.dot"
        assert run("net", path("weighted.pnet"), "--dot", out) == 0
        assert out.read_text().startswith("digraph")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("net", "readers_writers.mccs"),
        ("lts", "dining.mccs"),
        ("translate", "phils.pnet"),
        ("roundtrip", "weighted.pnet"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        cmd, name = argv
        assert run(cmd, path(name)) == 0
        first = capsys.readouterr().out
        assert run(cmd, path(name)) == 0
        assert capsys.readouterr().out == first
