"""Rauzy induction with flips: typed steps, elementary matrices, cycle
detection with exact self-similarity certification.

A step replaces E on [a, b] by its first return to [a, b - min(l_n, l_s)],
where l_n is the last piece length and l_s the length of the piece s sent to
the last image slot.  The step type is 0 when l_n > l_s and 1 when l_n < l_s;
equality is a saddle connection and aborts.  The type alone fixes the new
signed permutation and the elementary matrix (Rauzy 1979; Nogueira 1989),
and typed_move writes both down in closed form from the entries, so the
step runs no induction; the search graph takes the same closed form as
array expressions over all nodes at once.  The new lengths are the old
ones rearranged, with one exact subtraction, whose sign is the type: the
winner's length less the loser's.  So induction runs on (entries, lengths)
alone (length_step), and an exchange is laid out only when a step's
after_iet is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import islice
from operator import add
from typing import Optional

from .errors import DegenerateStep
from .iet import IetSpec


@dataclass
class RauzyStep:
    type_bit: int
    matrix: tuple                    # old_lengths = matrix . new_lengths
    before: tuple                    # signed permutation entries
    after: tuple
    before_lengths: tuple
    after_lengths: tuple
    origin: object                   # left end of both exchanges

    @cached_property
    def after_iet(self) -> IetSpec:
        """The exchange after the step, laid out when first asked for."""
        return IetSpec(self.after_lengths, self.after, self.origin)


@dataclass
class RauzyCycle:
    steps: tuple
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


def length_step(entries, lengths) -> tuple:
    """(type, after entries, matrix, new lengths) of the step out of the
    signed permutation entries with these piece lengths (a tuple).

    One exact subtraction decides the step: the sign of d = l_n - l_s is
    the type.  The new lengths solve matrix . new = old, where the matrix is
    a permutation matrix plus one 1, so they are the old ones moved with the
    pieces, and the winner's length less the loser's: d for piece n at type
    0, and -d for the kept part of s at type 1, whose through part gets l_n.
    Every new length is positive by construction."""
    n = len(entries)
    s = (entries.index(n) if n in entries else entries.index(-n)) + 1
    if s == n:
        raise DegenerateStep("last piece is sent to the last slot")
    l_n = lengths[n - 1]
    d = l_n - lengths[s - 1]
    if not d:
        raise DegenerateStep("saddle connection: competing lengths are equal")
    type_bit = 0 if d > 0 else 1
    after, m = typed_move(entries, type_bit)
    if type_bit == 0:
        new = lengths[:n - 1] + (d,)
    else:
        pair = (-d, l_n) if entries[s - 1] > 0 else (l_n, -d)
        new = lengths[:s - 1] + pair + lengths[s:n - 1]
    return type_bit, after, m, new


def _steps(entries, lengths, origin):
    """The induction's steps out of the exchange with these signed
    permutation entries, piece lengths (a tuple) and left end, one at a
    time, on lengths alone."""
    while True:
        type_bit, after, m, new = length_step(entries, lengths)
        yield RauzyStep(type_bit=type_bit, matrix=m, before=entries, after=after,
                        before_lengths=lengths, after_lengths=new, origin=origin)
        entries, lengths = after, new


def _exact_steps(E: IetSpec):
    """_steps out of E; a float view is a TypeError."""
    if E.float_mode:
        raise TypeError("lengths must be exact for a Rauzy step")
    return _steps(E.sp, E.lengths, E.origin)


def rauzy_step(E: IetSpec) -> tuple:
    """One typed induction step; returns (E', RauzyStep), E' its after_iet.
    A float view is a TypeError."""
    step = next(_exact_steps(E))
    return step.after_iet, step


def rauzy_run(E: IetSpec, k: int):
    """k chained steps; raises DegenerateStep on a saddle connection."""
    return list(islice(_exact_steps(E), k))


@cache
def _column_moves(m):
    """(i, k) for each column of a step matrix: the rows of its two 1s, or
    of its one 1 and None."""
    return tuple(tuple([i for i, v in enumerate(col) if v] + [None])[:2]
                 for col in zip(*m))


def step_product(mats):
    """Ordered product of a nonempty sequence of matrices, all but the first
    step matrices (a permutation matrix plus one 1), by column moves: column
    j of prod . m is column i of prod, or the sum of columns i and k where
    column j of m has two 1s.  polys.mat_mul is the generic product."""
    mats = iter(mats)
    cols = list(zip(*next(mats)))
    for m in mats:
        cols = [cols[i] if k is None else tuple(map(add, cols[i], cols[k]))
                for i, k in _column_moves(m)]
    return tuple(zip(*cols))


def cycle_matrix(steps):
    """Ordered product of the step matrices."""
    if not steps:
        raise ValueError("empty step sequence")
    return step_product(st.matrix for st in steps)


def rauzy_cycle_detect(entries, lengths, origin, max_steps: int) -> Optional[RauzyCycle]:
    """Detect a return of the exchange with these signed permutation
    entries, piece lengths (a tuple) and left end to its initial
    combinatorics with exactly proportional lengths; the cycle equality
    test is exact, not merely combinatorial.  The steps run on lengths
    alone (_steps): no exchange is laid out."""
    steps = []
    total0 = sum(lengths)
    for st in islice(_steps(entries, lengths, origin), max_steps):
        steps.append(st)
        if st.after != entries:
            continue
        new = st.after_lengths
        total = sum(new)
        if all(a * total0 == b * total for a, b in zip(new, lengths)):
            return RauzyCycle(steps=tuple(steps), scale=total0 / total)
    return None
