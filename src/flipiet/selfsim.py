"""First-return maps, self-similarity certificates, return itineraries and
the substitution they induce.

The induced map is computed geometrically: the target interval J is refined
into maximal subintervals on which the return time and the symbolic itinerary
are constant, by pushing images forward and splitting at the pullbacks of J's
endpoints and of the discontinuities.  With exact scalars every comparison is
exact, so the assembled return map is certified, not approximate.

Itinerary convention: I(i) lists the pieces visited at steps 0..N_i-1, where
N_i is the first-return time of piece i of the induced map.  Column i of the
associated matrix then sums to N_i, and the return times satisfy the Kac
identity  sum_i N_i * |piece_i| = |domain|  exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCylinder, NoFixedSeed, ReturnTimeCapExceeded
from .iet import IetSpec, branch_walk
from .numfield import (exact_quotient, exact_sign, filtered_sign, filtered_signs,
                       float_enclosure)

DEFAULT_RETURN_CAP = 10_000   # steps a piece may take to return (induce)
CYLINDER_BLOCK = 2 ** 12      # constraint rows that cylinder_locate filters at once


@dataclass
class ItinerarySet:
    """Return words I(i) and their lengths N_i (= return times)."""

    words: tuple
    exponents: tuple

    def counts_matrix(self):
        n = len(self.words)
        m = [[0] * n for _ in range(n)]
        for i, w in enumerate(self.words):
            for sym in w:
                m[sym - 1][i] += 1
        return tuple(tuple(row) for row in m)


@dataclass
class InducedMap:
    sub_iet: IetSpec
    itineraries: ItinerarySet
    parts: tuple  # (lo, hi) domain subintervals of J, left to right


@dataclass
class SelfSimilarity:
    """Witness that the induced map on J is an exact scaled copy."""

    J: tuple
    scale: object          # |domain| / |J|, exact scalar
    ok: bool = True


@dataclass
class SelfSimilarityMismatch:
    reason: str
    ok: bool = False


class _Part:
    __slots__ = ("dom_lo", "dom_hi", "img_lo", "img_hi", "word", "steps", "orient")

    def __init__(self, dom_lo, dom_hi, img_lo, img_hi, word, steps, orient):
        self.dom_lo = dom_lo
        self.dom_hi = dom_hi
        self.img_lo = img_lo
        self.img_hi = img_hi
        self.word = word
        self.steps = steps
        self.orient = orient


def induce(E: IetSpec, J) -> InducedMap:
    """First-return map of E on the subinterval J = (c, d).

    Raises ReturnTimeCapExceeded if some piece does not return within
    DEFAULT_RETURN_CAP steps.  A piece is split only at points strictly
    inside its image, so every piece keeps a positive length.  The
    comparisons must be exact, so a float view (as_float()) raises
    ValueError before any step.
    """
    if E.float_mode:
        raise ValueError("first returns are induced on exact exchanges only")
    c, d = J
    if not (E.x[0] <= c and d <= E.x[-1] and c < d):
        raise ValueError("J must be a nondegenerate subinterval of the domain")

    cuts = [c] + [x for x in E.x if c < x < d] + [d]
    pending = []
    for lo, hi in zip(cuts, cuts[1:]):
        pending.append(_Part(lo, hi, lo, hi, (), 0, 1))
    done = []
    cap = DEFAULT_RETURN_CAP
    budget = cap * (E.n + 2) * 8

    while pending:
        budget -= 1
        if budget < 0:
            raise ReturnTimeCapExceeded(f"first return not reached within cap={cap}")
        part = pending.pop()
        if part.steps > 0 and c <= part.img_lo and part.img_hi <= d:
            done.append(part)
            continue
        if part.steps > cap:
            raise ReturnTimeCapExceeded(f"piece at {part.dom_lo!r} exceeded cap={cap}")

        def pullback(blo, bhi):
            # domain subinterval mapping onto (blo, bhi) under the composed map
            if part.orient > 0:
                return (part.dom_lo + (blo - part.img_lo),
                        part.dom_lo + (bhi - part.img_lo))
            return (part.dom_hi - (bhi - part.img_lo),
                    part.dom_hi - (blo - part.img_lo))

        split_at = []
        if part.steps > 0:
            split_at = [z for z in (c, d) if part.img_lo < z < part.img_hi]
        if not split_at:
            split_at = [x for x in E.x if part.img_lo < x < part.img_hi]
        if split_at:
            bounds = [part.img_lo] + sorted(split_at) + [part.img_hi]
            for blo, bhi in zip(bounds, bounds[1:]):
                nd_lo, nd_hi = pullback(blo, bhi)
                pending.append(_Part(nd_lo, nd_hi, blo, bhi, part.word, part.steps,
                                     part.orient))
            continue

        # image lies inside a single piece, the first one ending at or after
        # its right end: apply one exchange step
        i = bisect_left(E.x, part.img_hi, 1)
        shift, sign = E.branches[i - 1]
        if sign > 0:
            nlo, nhi = shift + part.img_lo, shift + part.img_hi
        else:
            nlo, nhi = shift - part.img_hi, shift - part.img_lo
        pending.append(_Part(part.dom_lo, part.dom_hi, nlo, nhi,
                             part.word + (i,), part.steps + 1,
                             part.orient * E.tau[i - 1]))

    done.sort(key=lambda p: p.dom_lo)
    # read off the sub-IET: lengths, and the signed permutation from image order
    lengths = tuple(p.dom_hi - p.dom_lo for p in done)
    order = sorted(range(len(done)), key=lambda k: done[k].img_lo)
    rank = [0] * len(done)
    for r, k in enumerate(order, start=1):
        rank[k] = r
    sub = IetSpec(lengths, [rank[k] * p.orient for k, p in enumerate(done)],
                  origin=c)
    words = tuple(p.word for p in done)
    times = tuple(p.steps for p in done)
    its = ItinerarySet(words, times)
    parts = tuple((p.dom_lo, p.dom_hi) for p in done)
    return InducedMap(sub, its, parts)


def self_similarity_check(E: IetSpec, J):
    """Certify that the induced map on J is E scaled by |domain|/|J|.

    Returns a SelfSimilarity witness, or a SelfSimilarityMismatch naming the
    first failed comparison.  All checks are exact for exact scalars.
    """
    c, d = J
    ind = induce(E, J)
    sub = ind.sub_iet
    if sub.n != E.n:
        return SelfSimilarityMismatch("piece count differs")
    if sub.sp != E.sp:
        return SelfSimilarityMismatch("signed permutation differs")
    total = E.total_length
    width = d - c
    for i in range(E.n):
        # exact proportionality, cross-multiplied to avoid division
        if sub.lengths[i] * total != E.lengths[i] * width:
            return SelfSimilarityMismatch(f"length ratio differs at piece {i + 1}")
    return SelfSimilarity(J=(c, d), scale=exact_quotient(total, width))


def associated_matrix(E: IetSpec, J):
    """Visit-count matrix of (E, J) and the return itineraries.

    Entry (j, i) counts occurrences of symbol j in the return word I(i);
    column i sums to the return time N_i.
    """
    ind = induce(E, J)
    its = ind.itineraries
    return its.counts_matrix(), its


# ---------------------------------------------------------------------------
# substitutions generated by return words

class Substitution:
    """Map from symbols to words over 1..n."""

    def __init__(self, images: dict):
        self.images = {int(k): tuple(int(s) for s in v) for k, v in images.items()}
        self.alphabet = tuple(sorted(self.images))
        if min(self.alphabet, default=0) < 1 or not all(self.images.values()):
            raise ValueError("substitution symbols must be positive and their "
                             "images nonempty")
        # image lengths and offsets into the joined images, indexed by
        # symbol, and one slot past the alphabet that larger symbols are
        # clipped onto; length 0 marks a symbol outside the alphabet
        self._lens = np.zeros(self.alphabet[-1] + 2, dtype=np.int64)
        self._lens[list(self.alphabet)] = [len(self.images[a]) for a in self.alphabet]
        self._starts = np.cumsum(self._lens) - self._lens
        # the joined images in the smallest unsigned type of the alphabet,
        # one byte a symbol below 256, and so is every image
        self._joined = np.array([s for a in self.alphabet for s in self.images[a]],
                                dtype=np.min_scalar_type(self.alphabet[-1]))

    def __call__(self, word):
        """The image of the 1-D integer array word, in the dtype of the
        joined images, by one gather from them."""
        word = np.asarray(word, dtype=np.int64)
        at = np.clip(word, 0, len(self._lens) - 1)
        lens = self._lens[at]
        if not lens.all():
            raise ValueError(f"symbol {word[lens.argmin()]} outside the alphabet")
        offsets = np.repeat(self._starts[at] - np.cumsum(lens) + lens, lens)
        offsets += np.arange(len(offsets))
        return self._joined[offsets]

    def __repr__(self):
        ims = ", ".join(f"{i}->{''.join(map(str, w))}" for i, w in sorted(self.images.items()))
        return f"Substitution({ims})"


def substitution_from(its: ItinerarySet) -> Substitution:
    """sigma(i) = I(i); its abelianization is the visit-count matrix
    its.counts_matrix()."""
    return Substitution({i + 1: w for i, w in enumerate(its.words)})


def fixed_word(sigma: Substitution, side: str, length: int):
    """Prefix/suffix of the substitution fixed point, with the seed used.

    forward: smallest a with sigma(a) starting with a; backward: smallest b
    with sigma(b) ending with b; two_sided: the glued pair (suffix of the
    backward ray, prefix of the forward ray) with seeds (b, a).
    """
    if side == "two_sided":
        past, b = fixed_word(sigma, "backward", length)
        future, a = fixed_word(sigma, "forward", length)
        return (past, future), (b, a)
    if side not in ("forward", "backward"):
        raise ValueError(f"unknown side {side!r}")
    end, verb = (0, "starts") if side == "forward" else (-1, "ends")
    seeds = [a for a in sigma.alphabet if sigma.images[a][end] == a]
    if not seeds:
        raise NoFixedSeed(f"no symbol {verb} its own image")
    word = sigma([seeds[0]])
    while len(word) < length:
        word = sigma(word)
    return (word[:length] if end == 0 else word[-length:]), seeds[0]


def occurrence_addresses(sigma: Substitution, power: int = 1):
    """All (c, j, power) with sigma^power(c)[j] == c and nonempty prefix and
    suffix around the occurrence, in deterministic scan order."""
    out = []
    for c in sigma.alphabet:
        img = sigma.images[c]
        for _ in range(power - 1):
            img = sigma(img)
        for j, s in enumerate(img):
            if s == c and 0 < j < len(img) - 1:
                out.append((c, j, power))
    return out


def stationary_window(sigma: Substitution, address, back: int, fwd: int):
    """Two-sided word of the stationary point of the given occurrence address.

    For sigma^m(c) = p . c . s the point's future reads c s sigma^m(s)
    sigma^2m(s) ... and its past reads ... sigma^2m(p) sigma^m(p) p.  Returns
    arrays (past, future) in the dtype of sigma's images, with len(past) =
    back and len(future) = fwd + 1.
    """
    c, j, power = address
    img = np.array([c])
    for _ in range(power):
        img = sigma(img)
    if img[j] != c:
        raise ValueError("address does not mark an occurrence of its symbol")
    p, s = img[:j], img[j + 1:]
    if len(p) == 0 or len(s) == 0:
        raise ValueError("address needs nonempty prefix and suffix")

    def ray(blocks, need, head):
        # blocks, then sigma^power of the last one, and so on, until they
        # hold need symbols, joined once.  Only the first (head) or last
        # missing symbols of each level are kept.  Images are nonempty, so
        # those depend only on the shortest prefix (suffix) of the level
        # before whose image lengths add up to the missing count, and each
        # gather expands only that: it makes the missing symbols and at most
        # one image more
        def cover(word):
            ends = np.cumsum(sigma._lens[word if head else word[::-1]])
            k = min(int(np.searchsorted(ends, need - have)) + 1, len(word))
            return word[:k] if head else word[len(word) - k:]

        have = sum(map(len, blocks))
        while have < need:
            block = blocks[-1]
            for _ in range(power):
                block = sigma(cover(block))
            blocks.append(block[:need - have] if head else block[have - need:])
            have += len(blocks[-1])
        return np.concatenate(blocks if head else blocks[::-1])

    future = ray([img[j:j + 1], s], fwd + 1, True)[:fwd + 1]
    past = ray([p], back, False)
    return past[len(past) - back:], future


def cylinder_locate(E: IetSpec, word_prefix):
    """Open interval of points whose symbols at steps 0..m-1 equal the prefix.

    The first k branches compose to a bijection phi_k(z) = s_k + e_k z, so
    the cylinder is the intersection over k of {z : x_{w_k - 1} < phi_k(z) <
    x_{w_k}}, from the largest lower constraint to the smallest upper one
    (else EmptyCylinder).  Each constraint is origin + sum_i k_i alpha_i with
    integers |k_i| <= 2m + 1: iet.branch_walk gives e_k and e_k s_k on the
    k-vectors of the branch shifts.  In blocks of CYLINDER_BLOCK,
    numfield.filtered_signs (its bound holds in any summation order) drops
    each row proven below the float-best one, and filtered_sign with the
    exact_sign fallback settles the rest.  A float view raises ValueError.
    """
    if E.float_mode:
        raise ValueError("cylinders are located on exact exchanges only")
    word = np.asarray(word_prefix, dtype=np.int64)
    if len(word) == 0:
        raise ValueError("empty prefix")
    n, lengths = E.n, E.lengths
    shadows, errors = map(np.array, zip(*map(float_enclosure, lengths)))
    # k-vectors of the x_j and the branch shifts (slot pi_i follows pi_c < pi_i)
    pi, tau = np.array(E.pi), np.array(E.tau)
    xk = np.tri(n + 1, n, -1, dtype=np.int64)
    shift = (pi < pi[:, None]) + np.where(tau[:, None] > 0, -xk[:-1], xk[1:])

    def order(a, b):
        d = [p - q for p, q in zip(a, b)]
        return (filtered_sign(d, shadows, errors)
                or exact_sign(_combine(d, lengths, 0)))

    def largest(rows, best):
        rows = np.vstack((rows, best))
        lead = rows[np.argmax(rows @ shadows)]
        keep = filtered_signs(rows - lead, shadows, errors) >= 0
        best, *rest = sorted(set(map(tuple, rows[keep].tolist())))
        for row in rest:
            best = row if order(row, best) > 0 else best
        return best

    def bounds(word):
        # every lower constraint is at least x_0, every upper one at most x_n
        e, u, lo, hi = 1, np.zeros(n, dtype=np.int64), xk[0], -xk[n]
        for at in range(0, len(word), CYLINDER_BLOCK):
            i = word[at:at + CYLINDER_BLOCK] - 1            # piece indices
            bad = (i < 0) | (i >= n)
            if bad.any():
                raise ValueError(f"symbol {i[bad.argmax()] + 1} outside 1..{n}")
            ek, uk = branch_walk(i, shift, tau, e, u)      # u_k = e_k s_k
            e, u, ek, uk = ek[-1], uk[-1], ek[:-1], uk[:-1]
            lo = largest(ek[:, None] * xk[i + (ek < 0)] - uk, lo)
            hi = largest(uk - ek[:, None] * xk[i + (ek > 0)], hi)
        return lo, [-v for v in hi]

    lo, hi = bounds(word)
    if order(lo, hi) >= 0:
        # bisect for the largest k with word[k:] empty (never k = m - 1)
        a, b = 0, len(word) - 1
        while b - a > 1:
            k = (a + b) // 2
            a, b = (k, b) if order(*bounds(word[k:])) >= 0 else (a, k)
        raise EmptyCylinder(f"prefix unrealizable at symbol {word[a]}")
    return _combine(lo, lengths, E.origin), _combine(hi, lengths, E.origin)


def _combine(k, values, start):
    """start + sum_i k_i * values_i, skipping zero k_i."""
    out = start
    for ki, v in zip(k, values):
        if ki:
            out = out + (v if ki == 1 else v * ki)
    return out
