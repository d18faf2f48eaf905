"""Rauzy induction with flips: typed steps, elementary matrices, cycle
detection with exact self-similarity certification.

A step replaces E on [a, b] by its first return to [a, b - min(l_n, l_s)],
where l_n is the last piece length and l_s the length of the piece sent to
the last image slot.  The step type is 0 when l_n > l_s and 1 when l_n < l_s;
equality is a saddle connection and aborts.  Steps are computed by geometric
first-return induction and the combinatorics (new signed permutation,
elementary matrix) read off the induced map, so no hand-coded sign-update
tables are involved.
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


def rauzy_step(E: IetSpec) -> tuple:
    """One typed induction step; returns (E', RauzyStep)."""
    n = E.n
    s = E.sp.pi_inv[n]
    if s == n:
        raise DegenerateStep("last piece is sent to the last slot")
    l_n = E.lengths[n - 1]
    l_s = E.lengths[s - 1]
    if l_n == l_s:
        raise DegenerateStep()
    type_bit = 0 if l_n > l_s else 1
    d = E.x[-1] - (l_n if type_bit == 1 else l_s)
    ind = induce(E, (E.origin, d))
    sub = ind.sub_iet
    if sub.n != n:
        raise DegenerateStep(f"induced map has {sub.n} pieces")
    m = ind.itineraries.counts_matrix()
    step = RauzyStep(type_bit=type_bit, matrix=m, before=E.sp, after=sub.sp,
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
