"""Graphviz (dot) rendering of transition systems and nets."""

from .lts import Lts
from .nets import PTNet
from .terms import format_sequence

__all__ = ["lts_dot", "net_dot"]


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def lts_dot(lts: Lts, name: str = "lts") -> str:
    lines = [
        'digraph "%s" {' % _esc(name),
        "  rankdir=LR;",
        '  node [shape=circle, fontsize=10];',
        '  __start [shape=point];',
        "  __start -> q%d;" % lts.initial,
    ]
    for i, key in enumerate(lts.states):
        lines.append('  q%d [label="%d", tooltip="%s"];' % (i, i, _esc(key)))
    for src, label, tgt in lts.transitions:
        lines.append('  q%d -> q%d [label="%s"];'
                     % (src, tgt, _esc(format_sequence(label))))
    lines.append("}")
    return "\n".join(lines) + "\n"


def net_dot(net: PTNet, name: str | None = None) -> str:
    lines = [
        'digraph "%s" {' % _esc(name or net.name),
        "  rankdir=LR;",
    ]
    for i, pname in enumerate(net.place_names):
        tokens = net.initial.get(i, 0)
        label = _esc(pname) + ("\\n%d" % tokens if tokens else "")
        lines.append('  p%d [shape=circle, label="%s"];' % (i, label))
    for j, (pre, label, post) in enumerate(net.transitions):
        lines.append('  t%d [shape=box, label="%s: %s"];'
                     % (j, _esc(net.trans_names[j]),
                        _esc(format_sequence(label))))
        for s, w in sorted(pre.items()):
            arc = ' [label="%d"]' % w if w > 1 else ""
            lines.append("  p%d -> t%d%s;" % (s, j, arc))
        for s, w in sorted(post.items()):
            arc = ' [label="%d"]' % w if w > 1 else ""
            lines.append("  t%d -> p%d%s;" % (j, s, arc))
    lines.append("}")
    return "\n".join(lines) + "\n"
