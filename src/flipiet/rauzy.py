"""Rauzy induction with flips: typed steps, elementary matrices, cycle
detection with exact self-similarity certification.

A step replaces E on [a, b] by its first return to [a, b - min(l_n, l_s)],
where l_n is the last piece length and l_s the length of the piece s sent to
the last image slot.  The step type is 0 when l_n > l_s and 1 when l_n < l_s;
equality is a saddle connection and aborts.  The type alone fixes the new
signed permutation and the elementary matrix (Rauzy 1979; Nogueira 1989),
and typed_move writes both down in closed form from the entries, so the
search graph and the step share one move that runs no induction.  The new
lengths are the old ones rearranged, with one exact subtraction: the
winner's length less the loser's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .errors import DegenerateStep
from .iet import IetSpec, SignedPermutation
from .polys import mat_identity, mat_mul


@dataclass
class RauzyStep:
    type_bit: int
    matrix: tuple                    # old_lengths = matrix . new_lengths
    before: SignedPermutation
    after: SignedPermutation
    before_lengths: tuple
    after_lengths: tuple
    after_iet: IetSpec


@dataclass
class RauzyCycle:
    steps: tuple
    product: tuple
    scale: object              # contraction ratio, exact scalar


def typed_move(entries, type_bit: int) -> tuple:
    """(after entries, matrix) of the step of the given type out of the
    signed permutation entries, with s = pi^-1(n) and m = pi(n).

    Type 0 (piece n wins): n and s share slots m and m + 1, n taking m when
    it keeps its orientation, with sign tau_n, and s the other, with sign
    tau_s tau_n; every other slot above m moves up by one.  Type 1 (piece s
    wins): piece n leaves and piece s splits in two, a kept part in slot n
    with sign tau_s and a through part in slot m with sign tau_s tau_n, in
    the order (kept, through) when tau_s = +1 and (through, kept) when
    tau_s = -1.  With s = n the step would leave n - 1 pieces."""
    entries = tuple(entries)
    n = len(entries)
    s = (entries.index(n) if n in entries else entries.index(-n)) + 1
    if s == n:
        raise DegenerateStep(f"induced map has {n - 1} pieces")
    e_n, e_s = entries[n - 1], entries[s - 1]
    m = abs(e_n)
    if type_bit == 0:
        after = [e + (e > m) - (e < -m) for e in entries]
        after[n - 1] = m if e_n > 0 else -m - 1
        slot_s = m + 1 if e_n > 0 else m
        after[s - 1] = slot_s if (e_s > 0) == (e_n > 0) else -slot_s
        return tuple(after), _step_matrix(n, s, None)
    kept = n if e_s > 0 else -n
    through = m if (e_s > 0) == (e_n > 0) else -m
    pair = (kept, through) if e_s > 0 else (through, kept)
    return (entries[:s - 1] + pair + entries[s:n - 1],
            _step_matrix(n, s, s + 1 if e_s > 0 else s))


@cache
def _step_matrix(n, s, through):
    """The step's 0/1 matrix, old lengths = matrix . new lengths, shared by
    every edge with the same n, s and through part: I + E[n][s] for type 0
    (through None); for type 1 old i < s gives new i, old s new s and s + 1,
    old s < i < n new i + 1, and old n the through part."""
    cols = [[i] for i in range(n)]
    if through is None:
        cols[n - 1] = [n - 1, s - 1]
    else:
        cols[s - 1:] = ([[s - 1, s]] + [[i + 1] for i in range(s, n - 1)]
                        + [[through - 1]])
    return tuple(tuple(int(j in row) for j in range(n)) for row in cols)


def rauzy_step(E: IetSpec) -> tuple:
    """One typed induction step; returns (E', RauzyStep).

    The type is one exact comparison of l_n and l_s.  The new lengths solve
    matrix . new = old, where the matrix is a permutation matrix plus one 1:
    a row with a single 1 in column j gives new[j] that row's length.  The
    winner's row has two 1s, one in the loser's column, and its other column
    gets the winner's length less the loser's.  So every new length is
    positive by construction, and E' is laid out without checking them
    again (IetSpec._rearranged); a float view is a TypeError."""
    n = E.n
    s = E.sp.pi_inv[n]
    if s == n:
        raise DegenerateStep("last piece is sent to the last slot")
    l_n = E.lengths[n - 1]
    l_s = E.lengths[s - 1]
    if l_n == l_s:
        raise DegenerateStep("saddle connection: competing lengths are equal")
    type_bit = 0 if l_n > l_s else 1
    after, m = typed_move(E.sp.entries, type_bit)
    after = SignedPermutation(after)
    lengths = [None] * n
    for row, length in zip(m, E.lengths):
        cols = [j for j, v in enumerate(row) if v]
        if len(cols) == 1:
            lengths[cols[0]] = length
        else:
            winner, pair = length, cols
    j, k = pair if lengths[pair[0]] is None else pair[::-1]
    lengths[j] = winner - lengths[k]
    sub = E._rearranged(lengths, after)
    step = RauzyStep(type_bit=type_bit, matrix=m, before=E.sp, after=after,
                     before_lengths=E.lengths, after_lengths=sub.lengths,
                     after_iet=sub)
    return sub, step


def rauzy_run(E: IetSpec, k: int):
    """k chained steps; raises DegenerateStep on a saddle connection."""
    steps = []
    cur = E
    for _ in range(k):
        cur, st = rauzy_step(cur)
        steps.append(st)
    return steps


def cycle_matrix(steps):
    """Ordered product of the step matrices."""
    if not steps:
        raise ValueError("empty step sequence")
    prod = mat_identity(len(steps[0].before))
    for st in steps:
        prod = mat_mul(prod, st.matrix)
    return prod


def rauzy_cycle_detect(E: IetSpec, max_steps: int) -> Optional[RauzyCycle]:
    """Detect a return to the initial combinatorics with exactly proportional
    lengths; the cycle equality test is exact, not merely combinatorial."""
    steps = []
    cur = E
    total0 = E.total_length
    for _ in range(max_steps):
        cur, st = rauzy_step(cur)
        steps.append(st)
        if cur.sp != E.sp:
            continue
        total = cur.total_length
        if all(cur.lengths[j] * total0 == E.lengths[j] * total for j in range(E.n)):
            scale = total0 / total
            return RauzyCycle(steps=tuple(steps), product=cycle_matrix(steps),
                              scale=scale)
    return None
