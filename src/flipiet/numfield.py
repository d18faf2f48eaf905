"""Exact arithmetic in a real algebraic number field Q(theta).

An element is a vector of integer numerators nums over one denominator
den > 0 on the power basis 1, theta, ..., theta^(d-1), in lowest terms
(gcd(den, *nums) == 1), so that equal elements have equal (nums, den)
(Cohen, A Course in Computational Algebraic Number Theory, section 4.2);
coords is a read-only Fraction view of it.  The designated real root theta
is pinned by a Sturm-certified isolating interval, kept as integer ends
[a/den, b/den] (RootEmbedding.interval).  A sign is decided first by a
certified float filter (filtered_sign): the numerators against float
shadows of the basis powers, whose errors are proven from the interval,
which the shadow first narrows to about float precision (SHADOW_BITS).
The filter answers only when the float value clears its proven error bound;
otherwise the exact fallback (exact_sign) evaluates the numerators on the
interval (_interval_eval, on integers) and refines the interval until the
sign is determined.  Either way every comparison is exact.

An interval narrows down its bisection tree by secant jumps
(polys.refine_root_interval), in one call for any width, so each consumer
asks once for the width it needs: decimal computes it from the width of
its value's image and the digits, and exact_sign and float_enclosure,
which cannot know it, double the narrowing on each round that falls short.
Refining an embedding interval never changes a comparison outcome; the
interval is shared by all values derived from one root and is narrowed in
place (monotone, and replaced as one tuple, so safe to share between
threads under the GIL).  FILTER_COUNTS counts filter decisions, exact
fallbacks and the refinements of exact_sign and decimal in the process;
because intervals narrow in place, these counts depend on what ran before,
and they go into no report.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import (AmbiguousRoot, DivisionByZero, FieldMismatch, NoRoot,
                     ReduciblePolynomial, SignNotConverged)
from .polys import (IntPolynomial, _mul, _numerators, _rem_monic, count_roots,
                    is_irreducible, mat_mul, mat_transpose, refine_root_interval,
                    sturm_chain)


class RootEmbedding:
    """Isolating interval for one real root of an integer polynomial, kept
    as interval = (a, b, den): integer ends a/den <= b/den, den > 0, in
    lowest terms."""

    __slots__ = ("poly", "interval", "_shadow")

    def __init__(self, poly: IntPolynomial, lo, hi):
        self.poly = poly
        (a, b), den = _numerators((Fraction(lo), Fraction(hi)))
        self.interval = (a, b, den)
        self._shadow = None

    @property
    def lo(self) -> Fraction:
        a, _, den = self.interval
        return Fraction(a, den)

    @property
    def hi(self) -> Fraction:
        _, b, den = self.interval
        return Fraction(b, den)

    def refine(self, max_width: Fraction):
        """Narrow until the width is at most max_width (_narrow_to)."""
        self._narrow_to(max_width.numerator, max_width.denominator)

    def narrow(self, k: int):
        """Narrow to the first node of the interval's bisection tree whose
        width is at most 2^-k times the current one, in one call of
        refine_root_interval, which gets there by secant jumps: ask once
        for the width needed, not k bits at a time."""
        a, b, den = self.interval
        self._narrow_to(b - a, den << k)

    def _narrow_to(self, wnum, wden):
        # the width target is wnum / wden, compared on the integer ends
        a, b, den = self.interval
        if a == b or (b - a) * wden <= wnum * den:
            return
        self.interval = refine_root_interval(self.poly, a, b, den, wnum, wden)
        self._shadow = None

    def shadow(self):
        """(shadows, errors): floats b_i and proven bounds e_i >= |theta^i - b_i|
        for i = 0..d-1, valid for the current interval and cached until it
        narrows; False when a power leaves the float range.  The interval is
        first narrowed to about float precision, so that the errors are a few
        ulps and filtered_sign settles all but nearly cancelling sums.  The
        width target is checked against the narrowed interval's own ends, and
        narrowing repeats until it holds, so an interval read back from a
        shadowed one narrows no further.  Off 0 the target is 2^-SHADOW_BITS
        of the nearer end's magnitude, which only grows as the interval
        narrows, so one narrowing meets it."""
        if self._shadow is None:
            while True:
                a, b, den = self.interval
                low = a if a > 0 else -b if b < 0 else max(-a, b)
                self._narrow_to(low, den << SHADOW_BITS)
                if self.interval == (a, b, den):
                    break
            # theta^i lies between a^i/den^i and b^i/den^i (and 0 when the
            # interval straddles 0)
            straddle = (0,) if a < 0 < b else ()
            try:
                t = (a + b) / (2 * den)
                shadows = tuple(t ** i for i in range(self.poly.degree))
                errors = []
                for i, s in enumerate(shadows):
                    p, q = s.as_integer_ratio()
                    di = den ** i
                    errors.append(_round_up(
                        max(abs(v * q - p * di) for v in (a ** i, b ** i) + straddle),
                        di * q))
                self._shadow = (shadows, tuple(errors))
            except OverflowError:
                self._shadow = False
        return self._shadow

    def same_root(self, other) -> bool:
        """Whether two embeddings of one polynomial pin the same root: their
        intervals meet.  A proper isolating interval's ends are no roots, so
        two that only share an end hold different roots, and the test is
        strict; a point interval (a == b, the root of a linear factor) is
        its root, and counts as closed."""
        if self is other:
            return True
        a, b, den = self.interval
        oa, ob, oden = other.interval
        if self.poly.coeffs != other.poly.coeffs:
            return False
        if a == b or oa == ob:
            return a * oden <= ob * den and oa * den <= b * oden
        return a * oden < ob * den and oa * den < b * oden

    def __repr__(self):
        return f"RootEmbedding({self.lo}, {self.hi})"


class NumberField:
    """Q[t]/(m(t)) for a monic irreducible integer polynomial m."""

    def __init__(self, minpoly: IntPolynomial, _trusted=False):
        minpoly = IntPolynomial(tuple(minpoly.coeffs))
        if minpoly.degree < 1:
            raise ValueError("minimal polynomial must be nonconstant")
        prim = minpoly.primitive()
        if not prim.is_monic():
            raise ValueError("minimal polynomial must be monic after normalization")
        if not _trusted and not is_irreducible(prim):
            raise ReduciblePolynomial(f"{prim} factors over the rationals")
        self.minpoly = prim
        self.degree = prim.degree

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly.coeffs == other.minpoly.coeffs

    def __hash__(self):
        return hash(self.minpoly.coeffs)

    def __repr__(self):
        return f"NumberField({self.minpoly})"

    # -- element constructors -------------------------------------------------

    def element(self, coords, embedding) -> "AlgebraicNumber":
        if len(coords) != self.degree:
            raise ValueError("coordinate vector has wrong length")
        nums, den = _numerators(tuple(Fraction(c) for c in coords))
        return AlgebraicNumber(self, nums, den, embedding)

    def rational(self, q, embedding) -> "AlgebraicNumber":
        """The int or Fraction q as an element."""
        return AlgebraicNumber(self, (q.numerator,) + (0,) * (self.degree - 1),
                               q.denominator, embedding)

    def generator(self, embedding) -> "AlgebraicNumber":
        if self.degree == 1:
            return self.rational(-self.minpoly.coeffs[0], embedding)
        return AlgebraicNumber(self, (0, 1) + (0,) * (self.degree - 2), 1, embedding)

    def root_in(self, bracket) -> "AlgebraicNumber":
        """The generator, embedded at the unique root inside the bracket."""
        lo, hi = Fraction(bracket[0]), Fraction(bracket[1])
        if lo >= hi:
            raise ValueError("empty bracket")
        if self.degree == 1:
            r = -self.minpoly.coeffs[0]
            if not (lo < r < hi):
                raise NoRoot(f"no root of {self.minpoly} in ({lo}, {hi})")
            return self.generator(RootEmbedding(self.minpoly, r, r))
        # avoid root endpoints: irreducible of degree >= 2 has no rational roots
        k = count_roots(sturm_chain(self.minpoly), lo, hi)
        if k == 0:
            raise NoRoot(f"no root of {self.minpoly} in ({lo}, {hi})")
        if k > 1:
            raise AmbiguousRoot(f"{k} roots of {self.minpoly} in ({lo}, {hi})")
        emb = RootEmbedding(self.minpoly, lo, hi)
        emb.narrow(2)
        return self.generator(emb)


class AlgebraicNumber:
    """Element of a NumberField with a designated real embedding: integer
    numerators nums over one denominator den > 0, kept in lowest terms."""

    __slots__ = ("field", "nums", "den", "embedding")

    def __init__(self, field, nums, den, embedding):
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple(n // g for n in nums)
            den //= g
        self.field = field
        self.nums = nums
        self.den = den
        self.embedding = embedding

    @property
    def coords(self):
        """The coordinates as Fractions (a read-only view)."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    # -- coercion -------------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field != self.field or not self.embedding.same_root(other.embedding):
                raise FieldMismatch("operands use different fields or embeddings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other, self.embedding)
        return NotImplemented

    def is_rational(self):
        return not any(self.nums[1:])

    # -- ring operations -------------------------------------------------------

    def _add(self, other, sign):
        """self + sign * other, over the lcm of the two denominators."""
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        g = math.gcd(self.den, o.den)
        u, v = o.den // g, sign * (self.den // g)
        return AlgebraicNumber(self.field,
                               tuple(a * u + b * v for a, b in zip(self.nums, o.nums)),
                               self.den * u, self.embedding)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple(-a for a in self.nums), self.den,
                               self.embedding)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        nums = _rem_monic(_mul(self.nums, o.nums), self.field.minpoly.coeffs)
        return AlgebraicNumber(self.field, nums, self.den * o.den, self.embedding)

    __rmul__ = __mul__

    def inverse(self):
        """1/x for x = nums/den.  Let A be the integer matrix of multiplication
        by nums (column j: nums t^j mod m); 1/x is den times the solution of
        A z = e_0 (_solve_unit)."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        d, m = self.field.degree, self.field.minpoly.coeffs
        cols = [_rem_monic((0,) * j + self.nums, m) for j in range(d)]
        x, det = _solve_unit([list(row) for row in zip(*cols)])
        s = -1 if det < 0 else 1
        return AlgebraicNumber(self.field, tuple(s * self.den * v for v in x),
                               abs(det), self.embedding)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.rational(1, self.embedding)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- exact sign, order, rendering -------------------------------------------

    def is_zero(self):
        return not any(self.nums)

    def sign(self) -> int:
        """Exact sign in the designated embedding: rational values directly,
        others by the float filter on the embedding's power-basis shadow, and
        by exact_sign when the filter cannot decide."""
        if self.is_rational():
            n = self.nums[0]
            return (n > 0) - (n < 0)
        sh = self.embedding.shadow()
        return (sh and filtered_sign(self.nums, *sh)) or exact_sign(self)

    def compare(self, other) -> int:
        if isinstance(other, int) and not other:
            return self.sign()
        o = self._lift(other)
        d = self - o
        return d.sign()

    def __eq__(self, other):
        try:
            o = self._lift(other)
        except FieldMismatch:
            return False
        if o is NotImplemented:
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        # a rational element equals its Fraction, so it must hash like it
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.field, self.nums, self.den))

    def __float__(self):
        if self.is_rational():
            return self.nums[0] / self.den
        self.embedding.refine(Fraction(1, 10 ** 25))
        # the value at the interval's midpoint, correctly rounded as
        # int / int rounds it
        a, b, den = self.embedding.interval
        v, _, s = _interval_eval(self.nums, a + b, a + b, 2 * den)
        return v / (self.den * s)

    def decimal(self, digits: int) -> str:
        """Correctly rounded decimal string (ties round toward +infinity)."""
        if digits < 1:
            raise ValueError("digits must be positive")
        scale = 10 ** digits
        emb = self.embedding
        k = 0
        while True:
            lo, hi, s = _interval_eval(self.nums, *emb.interval)
            s *= self.den
            # floor(v * scale + 1/2) at the bounds v = lo/s and v = hi/s
            nlo = (2 * lo * scale + s) // (2 * s)
            if nlo == (2 * hi * scale + s) // (2 * s):
                return _format_scaled(nlo, digits)
            FILTER_COUNTS["decimal"] += 1
            # the image narrows about as fast as the interval: aim it at
            # 2^-DECIMAL_GUARD of a unit in the last digit, and at least
            # double the narrowing of a round that fell short
            k = max(((hi - lo) * scale // s).bit_length() + DECIMAL_GUARD, 2 * k)
            emb.narrow(k)

    def __repr__(self):
        self.embedding.refine(Fraction(1, 10 ** 12))
        return f"AlgebraicNumber(~{float(self):.6g})"


def _format_scaled(n: int, digits: int) -> str:
    sign = "-" if n < 0 else ""
    m = abs(n)
    scale = 10 ** digits
    return f"{sign}{m // scale}.{m % scale:0{digits}d}"


def _round_up(n, d) -> float:
    """Least float >= n/d for integers n >= 0 and d > 0 (OverflowError
    beyond range)."""
    f = n / d
    p, q = f.as_integer_ratio()
    return f if p * d >= n * q else math.nextafter(f, math.inf)


# -- certified float filter -------------------------------------------------

# signs decided by filtered_sign, exact fallbacks (exact_sign calls), the
# embedding refinements those fallbacks made and those decimal made, since
# the process started
FILTER_COUNTS = {"filtered": 0, "exact": 0, "refined": 0, "decimal": 0}

# constants of the error bound derived in filtered_sign
_U = 2.0 ** -53                       # unit roundoff of IEEE double
_NORMAL_MIN = sys.float_info.min      # least positive normal double
_MAX_TERMS = 2 ** 16
_SLACK = 1.0 + 2.0 ** -32
_TINY = 2.0 ** -1000

# RootEmbedding.shadow narrows its interval to 2^-SHADOW_BITS of its ends'
# magnitude: float precision and a margin, past which the shadows'
# errors stay a few ulps and a 12-digit decimal seldom needs more.  decimal
# aims its image at 2^-DECIMAL_GUARD of a unit in the last digit
SHADOW_BITS = 64
DECIMAL_GUARD = 8


def _solve_unit(a):
    """(x, D) with A x = D e_0 and D = +-det A, for an invertible integer
    matrix A given as a list of row lists, which it overwrites: one
    fraction-free (Bareiss) elimination of [A | e_0], whose last pivot is D,
    and back-substitution, whose divisions are exact because D z is the
    integer vector adj(A) e_0 up to sign for the solution z of A z = e_0."""
    d = len(a)
    for i, row in enumerate(a):
        row.append(int(i == 0))
    prev = 1
    for k in range(d):
        if not a[k][k]:             # a nonzero pivot below, A being invertible
            j = next(i for i in range(k + 1, d) if a[i][k])
            a[k], a[j] = a[j], a[k]
        p, pivot_row = a[k][k], a[k]
        for row in a[k + 1:]:
            q = row[k]
            row[k + 1:] = [(p * v - q * w) // prev
                           for v, w in zip(row[k + 1:], pivot_row[k + 1:])]
            row[k] = 0
        prev = p
    det = prev
    x = [0] * d
    for i in range(d - 1, -1, -1):
        row = a[i]
        tail = sum(row[j] * x[j] for j in range(i + 1, d))
        x[i] = (det * row[d] - tail) // row[i]
    return x, det


def filtered_sign(coeffs, shadows, errors) -> int:
    """Sign of sum_i c_i * b_i when the float filter can prove it, else 0.

    coeffs are exact rationals c_i (int or Fraction); shadows and errors are
    floats bt_i and e_i with |b_i - bt_i| <= e_i.  A nonzero answer is exact;
    0 means undecided (an exact zero is never decided here), and the caller
    falls back to exact arithmetic (exact_sign).

    The error bound.  Let ct_i = float(c_i), correctly rounded, u = 2^-53 and
    n = len(coeffs) <= 2^16; a nonzero ct_i outside the normal float range,
    or any overflow, leaves the sign undecided.  With s = fl(sum ct_i bt_i)
    by recursive summation,

        sum c_i b_i - s = sum c_i (b_i - bt_i) + sum (c_i - ct_i) bt_i
                          + (sum ct_i bt_i - s),

    where |c_i| <= (1 + 2u)|ct_i|, |c_i - ct_i| <= 2u|ct_i|, and the float
    dot product is off by at most gamma_n sum |ct_i bt_i| <= 2nu sum
    |ct_i bt_i| (Higham, Accuracy and Stability of Numerical Algorithms,
    (3.5)).  So |sum c_i b_i - s| <= (1 + 2u) E + (2n + 2) u M, with
    E = sum |ct_i| e_i and M = sum |ct_i bt_i|.  Their float sums err and mag
    are at least (1 - 2nu) times E and M, and the four roundings in computing
    B = (err + (2n + 2) u mag + 2^-1000) (1 + 2^-32) lose at most a factor
    (1 - u)^4; since 1 + 2^-32 > (1 + 2u) / ((1 - 2nu)(1 - u)^4) for
    n <= 2^16, B bounds the error.  The term 2^-1000 covers the at most 3n
    products that underflow, each off by at most 2^-1075.  Overflow makes mag,
    hence B, infinite (rounding is monotone, so each partial |s| is at most
    the partial mag), and then no sign is decided.  The sign of s is returned
    only when |s| > B, so it is the sign of sum c_i b_i.
    """
    n = len(coeffs)
    if n > _MAX_TERMS:
        return 0
    s = mag = err = 0.0
    try:
        for c, b, e in zip(coeffs, shadows, errors):
            if c:
                f = float(c)
                if -_NORMAL_MIN < f < _NORMAL_MIN:
                    return 0
                p = f * b
                s += p
                mag += abs(p)
                err += abs(f) * e
    except OverflowError:
        return 0
    if abs(s) > (err + (2 * n + 2) * _U * mag + _TINY) * _SLACK:
        FILTER_COUNTS["filtered"] += 1
        return 1 if s > 0 else -1
    return 0


def filtered_signs(rows, shadows, errors):
    """filtered_sign of each row of an integer array (entries below 2^53, so
    exact in float), on float arrays of shadows and errors.  Higham's (3.5)
    and the bounds on err and mag hold in any summation order, numpy's too.
    An infinite e_i gives a nan or infinite bound, which decides no sign."""
    mags = abs(rows)
    s = rows @ shadows
    bound = (mags @ errors + (2 * len(shadows) + 2) * _U * (mags @ abs(shadows))
             + _TINY) * (_SLACK if len(shadows) <= _MAX_TERMS else math.inf)
    signs = (s > bound).astype(int) - (s < -bound)
    FILTER_COUNTS["filtered"] += int((signs != 0).sum())
    return signs


def exact_sign(value) -> int:
    """Sign by exact arithmetic alone, the fallback of the float filter: a
    rational compares directly; an irrational AlgebraicNumber is evaluated on
    its embedding interval, which is narrowed by 16, 32, 64, ... bits until
    the sign is determined (SignNotConverged past 2^17 bits in all)."""
    FILTER_COUNTS["exact"] += 1
    if not isinstance(value, AlgebraicNumber):
        return (value > 0) - (value < 0)
    if value.is_rational():
        return value.sign()
    emb = value.embedding
    for i in range(13):
        lo, hi = _interval_eval(value.nums, *emb.interval)[:2]
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        FILTER_COUNTS["refined"] += 1
        emb.narrow(16 << i)
    raise SignNotConverged("sign determination failed to converge")


def exact_quotient(a, b):
    """a / b for exact scalars, as a Fraction when both are int, whose own
    division would round to a float."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def float_enclosure(value):
    """(x, e): a float x and a proven bound e >= |value - x| for an exact
    value (int, Fraction or AlgebraicNumber), to serve as a basis element of
    filtered_sign.  An irrational value's embedding is narrowed by 16, 32,
    64, ... bits until its interval image is within about 2^-60 of its
    magnitude, so e is a few ulps of x; a value beyond the float range gets
    e = inf, which sends every comparison that uses it to the exact
    fallback."""
    if isinstance(value, AlgebraicNumber):
        emb = value.embedding
        k = 16
        while True:
            lo, hi, s = _interval_eval(value.nums, *emb.interval)
            if (hi - lo) * 2 ** 61 <= abs(lo + hi):
                break
            emb.narrow(k)
            k *= 2
        den = value.den * s
    else:
        lo = hi = value.numerator
        den = value.denominator
    # value lies in [lo/den, hi/den]; x = p/q
    try:
        x = (lo + hi) / (2 * den)
        p, q = x.as_integer_ratio()
        return x, _round_up(max(hi * q - p * den, p * den - lo * q), den * q)
    except OverflowError:
        return 0.0, math.inf


def _interval_eval(nums, a, b, den):
    """Interval Horner evaluation on integers: the coordinates are nums
    over a common denominator D > 0, the interval [a/den, b/den], den > 0.
    Returns (lo, hi, s), s = den^(d-1), where lo/(D s) and hi/(D s) are the
    bounds of interval Horner in rationals: each intermediate bound has the
    positive denominator D den^k, which leaves min and max in place."""
    vlo = vhi = nums[-1]
    s = 1
    for c in reversed(nums[:-1]):
        s *= den
        cands = (vlo * a, vlo * b, vhi * a, vhi * b)
        c *= s
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi, s


# ---------------------------------------------------------------------------
# module-level API

def nf_field_make(minpoly: IntPolynomial) -> NumberField:
    """Build the field Q[t]/(m); rejects reducible m."""
    return NumberField(minpoly)


def nf_root(field: NumberField, bracket) -> AlgebraicNumber:
    """The generator of the field, pinned to the unique root in the bracket."""
    return field.root_in(bracket)


def cross_embedding_dot_is_zero(vec_a, vec_b) -> bool:
    """Exact test that sum_i a_i * b_i vanishes under distinct embeddings.

    Both vectors must live in fields with the same minimal polynomial m but
    are allowed different designated roots u and t.  The test verifies
    (u - t) * sum_i a_i (x) b_i = 0 in Q[u,t]/(m(u), m(t)), which forces the
    real inner product to vanish whenever the two designated roots differ.
    With X the integer coefficient matrix of the sum over one denominator
    (X[j][k] on u^j t^k) and C the companion matrix of m (multiplication by
    the root on the power basis), that is C X == X C^T.
    """
    fa = vec_a[0].field
    fb = vec_b[0].field
    if fa.minpoly.coeffs != fb.minpoly.coeffs:
        raise FieldMismatch("vectors must share a minimal polynomial")
    d = fa.degree
    den = math.lcm(*(a.den * b.den for a, b in zip(vec_a, vec_b)))
    x = [[0] * d for _ in range(d)]
    for a, b in zip(vec_a, vec_b):
        scale = den // (a.den * b.den)
        for j, aj in enumerate(a.nums):
            if aj:
                for k, bk in enumerate(b.nums):
                    x[j][k] += scale * aj * bk
    if d == 1:
        # single embedding; the inner product itself must vanish
        return x[0][0] == 0
    f = fa.minpoly.coeffs
    c = mat_transpose([_rem_monic((0,) * (j + 1) + (1,), f) for j in range(d)])
    return mat_mul(c, x) == mat_mul(x, mat_transpose(c))
