"""Rauzy induction with flips: typed steps, elementary matrices, cycle
detection with exact self-similarity certification.

A step replaces E on [a, b] by its first return to [a, b - min(l_n, l_s)],
where l_n is the last piece length and l_s the length of the piece sent to
the last image slot.  The step type is 0 when l_n > l_s and 1 when l_n < l_s;
equality is a saddle connection and aborts.  The type alone fixes the new
signed permutation and the elementary matrix (Rauzy 1979; Nogueira 1989):
typed_move reads them off one geometric first-return induction on integer
lengths of that type, so no hand-coded sign-update tables are involved, and
the search graph and the step share that one move.  The new lengths are the
old ones rearranged, with one exact subtraction: the winner's length less
the loser's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DegenerateStep
from .iet import IetSpec, SignedPermutation
from .polys import mat_identity, mat_mul
from .selfsim import induce


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


def typed_move(sp: SignedPermutation, type_bit: int) -> tuple:
    """(after, matrix) of the step of the given type out of sp, which
    depend on sp and the type alone, read off one first-return induction on
    integer lengths of that type: the loser has length 7 and every other
    length is 2 * (7 + i) >= 14."""
    n = len(sp)
    lengths = [2 * (7 + i) for i in range(n)]
    lengths[n - 1 if type_bit == 1 else sp.pi_inv[n] - 1] = 7
    E = IetSpec(lengths, sp, origin=0)
    ind = induce(E, (0, E.x[-1] - 7))
    if ind.sub_iet.n != n:
        raise DegenerateStep(f"induced map has {ind.sub_iet.n} pieces")
    return ind.sub_iet.sp, ind.itineraries.counts_matrix()


def rauzy_step(E: IetSpec) -> tuple:
    """One typed induction step; returns (E', RauzyStep).

    The type is one exact comparison of l_n and l_s.  The new lengths solve
    matrix . new = old, where the matrix is a permutation matrix plus one 1:
    a row with a single 1 in column j gives new[j] that row's length.  The
    winner's row has two 1s, one in the loser's column, and its other column
    gets the winner's length less the loser's."""
    n = E.n
    s = E.sp.pi_inv[n]
    if s == n:
        raise DegenerateStep("last piece is sent to the last slot")
    l_n = E.lengths[n - 1]
    l_s = E.lengths[s - 1]
    if l_n == l_s:
        raise DegenerateStep()
    type_bit = 0 if l_n > l_s else 1
    after, m = typed_move(E.sp, type_bit)
    lengths = [None] * n
    for row, length in zip(m, E.lengths):
        cols = [j for j, v in enumerate(row) if v]
        if len(cols) == 1:
            lengths[cols[0]] = length
        else:
            winner, pair = length, cols
    j, k = pair if lengths[pair[0]] is None else pair[::-1]
    lengths[j] = winner - lengths[k]
    sub = IetSpec(lengths, after, origin=E.origin)
    step = RauzyStep(type_bit=type_bit, matrix=m, before=E.sp, after=after,
                     before_lengths=E.lengths, after_lengths=sub.lengths,
                     after_iet=sub)
    return sub, step


def rauzy_run(E: IetSpec, k: int):
    """k chained steps; raises DegenerateStep (with index) on a saddle
    connection."""
    steps = []
    cur = E
    for i in range(k):
        try:
            cur, st = rauzy_step(cur)
        except DegenerateStep as exc:
            exc.index = i
            raise
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
    for i in range(max_steps):
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
