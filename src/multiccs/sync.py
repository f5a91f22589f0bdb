"""Synchronization of transition label sequences.

Two sequences synchronize by cancelling complementary actions and
interleaving the rest, subject to: the heads may cancel outright; a head
may be kept (visible actions only, never tau); leading taus are absorbed;
and at least one cancellation happens in every derivation, so a pure
shuffle of two sequences is never an outcome.  Restricted names take part
in cancellation exactly like visible ones.

In finite-net mode a synchronization is only allowed when one of the two
operands has length 1; this is the semantic restriction that keeps nets of
finite-net processes finite.
"""

from __future__ import annotations

import enum

from .terms import TAU_ACT, classify_finite_net


class SyncMode(enum.Enum):
    GENERAL = "general"
    FINITE_NET = "finite-net"


def auto_mode(program) -> SyncMode:
    """Finite-net synchronization when the program lies in the finite-net
    fragment, general synchronization otherwise."""
    flag, _ = classify_finite_net(program)
    return SyncMode.FINITE_NET if flag else SyncMode.GENERAL


def _outcomes(s1, s2, memo: dict) -> frozenset:
    # memo: the outcomes of the suffix pairs met in one `sync_outcomes` call
    if (s1, s2) in memo:
        return memo[s1, s2]
    if not s1 or not s2:
        return frozenset()
    a, rest1 = s1[0], s1[1:]
    b, rest2 = s2[0], s2[1:]
    out = set()
    heads_cancel = (not a.is_tau) and (not b.is_tau) and a.complement() == b
    if heads_cancel:
        if not rest1 and not rest2:
            out.add((TAU_ACT,))
        elif rest1 and not rest2:
            out.add(rest1)
        elif rest2 and not rest1:
            out.add(rest2)
        else:
            out |= _outcomes(rest1, rest2, memo)
    if rest1:
        if a.is_tau:
            out |= _outcomes(rest1, s2, memo)
        else:
            out |= {(a,) + s for s in _outcomes(rest1, s2, memo)}
    if rest2:
        if b.is_tau:
            out |= _outcomes(s1, rest2, memo)
        else:
            out |= {(b,) + s for s in _outcomes(s1, rest2, memo)}
    return memo.setdefault((s1, s2), frozenset(out))


def sync_outcomes(s1, s2, mode: SyncMode = SyncMode.GENERAL) -> frozenset:
    """All sequences the pair may synchronize to (empty if they cannot)."""
    s1, s2 = tuple(s1), tuple(s2)
    if mode is SyncMode.FINITE_NET and len(s1) != 1 and len(s2) != 1:
        return frozenset()
    return _outcomes(s1, s2, {})
