"""Interval exchange transformations with flips.

An exchange is exact: its lengths and origin are int, Fraction or
AlgebraicNumber, kept as given, so evaluation and comparisons are exact and
int lengths and origins stay int.  A float given to the constructor is a
TypeError.  as_float() is the one way into floats: the view that long orbit
probes and the blow-up's shadow orbit walk.  Pieces are open intervals; the
breakpoint set itself is excluded from the domain, and hitting it is
reported, not silently perturbed.
"""

from __future__ import annotations

from bisect import bisect_left
from copy import copy
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import AtDiscontinuity, InvalidPermutation, NonpositiveLength


_NOT_EXACT = "lengths and origin must be exact; as_float() gives the float view"


def branch_walk(word, shifts, signs, e0, u0):
    """The branches z -> shifts[a] + signs[a] z of the indices a in the
    array word, composed: (e, u) of length len(word) + 1, with e_0 = e0,
    u_0 = u0, e_{k+1} = e_k signs[w_k], u_{k+1} = u_k + e_{k+1} shifts[w_k].
    After z -> s_0 + e0 z with u0 = e0 s_0, the first k steps compose to
    z -> s_k + e_k z with u_k = e_k s_k.  shifts[a] may be a row, such as
    an integer k-vector; then so is u_k.

    u is one sequential cumsum that starts at u0.  So in floats, from e0 = 1
    and u0 = z_0, e_k u_k is the step-by-step orbit z_{k+1} = fl(shift +
    sign z_k) bit for bit, because round-to-nearest is odd: e_{k+1} z_{k+1}
    = fl(u_k + e_{k+1} shift)."""
    e = np.cumprod(np.concatenate(([e0], signs[word])))
    steps = (e[1:] * shifts[word].T).T
    return e, np.cumsum(np.concatenate(([u0], steps)), axis=0)


@dataclass
class OrbitSegment:
    points: list
    word: list
    terminated_at_discontinuity: Optional[int] = None


class IetSpec:
    """An IET given by piece lengths, a signed permutation and a left endpoint.

    The signed permutation sp is the tuple of its int entries: |sp| is a
    permutation pi of 1..n, and the sign of entry i is the orientation tau_i
    of piece i (-1 = flipped).  Precomputes pi, tau, pi_inv, the breakpoints
    x_0 < ... < x_n and the image slot layout: slot j has the length of
    piece pi_inv(j), slots tile the domain left to right, and piece i is
    mapped onto slot pi(i), orientation tau_i.  The branch table,
    branches[i-1] = (shift_i, sign_i) with E(z) = shift_i + sign_i * z on
    piece i, is how evaluation and induction move a point.
    """

    def __init__(self, lengths, signed_perm, origin=0):
        # n = 1 is allowed so first-return maps can degenerate to a single piece
        sp = tuple(signed_perm)
        if not all(isinstance(e, int) and not isinstance(e, bool) for e in sp):
            raise TypeError(f"signed permutation entries must be int: {sp!r}")
        n = len(sp)
        if n == 0 or 0 in sp:
            raise InvalidPermutation("entries must be nonzero")
        pi = tuple(map(abs, sp))
        if sorted(pi) != list(range(1, n + 1)):
            raise InvalidPermutation(f"|{sp}| is not a permutation of 1..{n}")
        lengths = tuple(lengths)
        if len(lengths) != n:
            raise InvalidPermutation("lengths and permutation size differ")
        if any(isinstance(v, float) for v in (*lengths, origin)):
            raise TypeError(_NOT_EXACT)
        self.float_mode = False
        for v in lengths:
            if not v > 0:
                raise NonpositiveLength(f"length {v!r} is not positive")
        self.n, self.lengths, self.sp, self.pi = n, lengths, sp, pi
        self.tau = tuple(1 if e > 0 else -1 for e in sp)
        # pi_inv[j] = i where pi(i) = j; pi_inv[0] is 0
        self.pi_inv = (0, *sorted(range(1, n + 1), key=lambda i: pi[i - 1]))
        slots = (lengths[i - 1] for i in self.pi_inv[1:])
        self._lay_out(tuple(accumulate(lengths, initial=origin)),
                      tuple(accumulate(slots, initial=origin)))

    def _lay_out(self, x, y):
        """Set the breakpoints x, the slot ends y and the branch table read
        off them, in the exchange's own arithmetic (float signs in floats)."""
        self.x, self.y, self.origin = x, y, x[0]
        self.total_length = x[-1] - x[0]
        one = 1.0 if self.float_mode else 1
        self.branches = tuple(
            (y[j - 1] - x[i - 1], one) if t > 0 else (y[j - 1] + x[i], -one)
            for i, (j, t) in enumerate(zip(self.pi, self.tau), start=1))

    # -- geometry ---------------------------------------------------------------

    def piece_of(self, p) -> int:
        """Index 1..n of the open piece containing p; AtDiscontinuity on D,
        with the index of the breakpoint (0 below x_0, n above x_n)."""
        return _open_cell(self.x, p)

    def slot_of(self, q) -> int:
        """Index 1..n of the open slot containing q; like piece_of."""
        return _open_cell(self.y, q)

    def eval(self, p, inverse=False):
        """Apply the exchange (or its inverse) to one point, by the branch
        table."""
        if inverse:
            shift, sign = self.branches[self.pi_inv[self.slot_of(p)] - 1]
            return p - shift if sign > 0 else shift - p
        shift, sign = self.branches[self.piece_of(p) - 1]
        return shift + p if sign > 0 else shift - p

    def orbit(self, p, steps) -> OrbitSegment:
        """Iterate, recording points and piece symbols; a discontinuity hit
        terminates the segment and is recorded, not raised.  Each step finds
        the piece as piece_of does, by one bisect_left on x, and moves the
        point by that piece's branch."""
        x, n, branches = self.x, self.n, self.branches
        pts, word = [p], []
        for k in range(steps):
            i = bisect_left(x, p)
            if i == 0 or i > n or p == x[i]:
                return OrbitSegment(pts, word, terminated_at_discontinuity=k)
            word.append(i)
            shift, sign = branches[i - 1]
            p = shift + p if sign > 0 else shift - p
            pts.append(p)
        return OrbitSegment(pts, word)

    def as_float(self) -> "IetSpec":
        """The float view: every length, breakpoint and slot end is the exact
        one rounded once, and the branch table is built from those."""
        if self.float_mode:
            return self
        view = copy(self)
        view.float_mode = True
        view.lengths = tuple(map(float, self.lengths))
        view._lay_out(tuple(map(float, self.x)), tuple(map(float, self.y)))
        return view

    def __repr__(self):
        return f"IetSpec(n={self.n}, sp={self.sp})"


def _open_cell(ends, p):
    """Index i of the open interval (ends[i-1], ends[i]) holding p, by one
    bisect_left; AtDiscontinuity(p, i) when p is ends[i], and with 0 or
    len(ends) - 1 and the domain's ends when p lies outside."""
    i = bisect_left(ends, p)
    if 0 < i < len(ends) and p != ends[i]:
        return i
    outside = i == len(ends) or (i == 0 and p != ends[0])
    raise AtDiscontinuity(p, min(i, len(ends) - 1),
                          (ends[0], ends[-1]) if outside else None)
