"""Exact arithmetic in a real algebraic number field Q(theta).

Elements are coordinate vectors over the power basis 1, theta, ...,
theta^(d-1) with Fraction coordinates.  The designated real root theta is
pinned by a rational isolating interval (Sturm-certified).  A sign is
decided first by a certified float filter (filtered_sign): the coordinates
against float shadows of the basis powers, whose errors are proven from the
interval.  The filter answers only when the float value clears its proven
error bound; otherwise the exact fallback (exact_sign) evaluates the
coordinates on the interval and refines the interval until the sign is
determined.  Either way every comparison is exact.  Interval evaluation
(_interval_eval) runs on integers: the coordinates as numerators over one
common denominator, the interval's ends over another (RootEmbedding.ends).

Refining an embedding interval never changes a comparison outcome; the
interval is shared by all values derived from one root and is narrowed in
place (monotone, so safe to share between threads under the GIL).
FILTER_COUNTS counts filter decisions, exact fallbacks and the refinements
of exact_sign and decimal in the process; because intervals narrow in
place, these counts depend on what ran before, and they go into no report.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import (AmbiguousRoot, DivisionByZero, FieldMismatch, NoRoot,
                     ReduciblePolynomial)
from .polys import (IntPolynomial, _divmod_fr, _mul, _numerators, _rem_monic,
                    _sub, _trim, count_roots, is_irreducible,
                    refine_root_interval, sturm_chain)


class RootEmbedding:
    """Rational isolating interval for one real root of an integer polynomial."""

    __slots__ = ("poly", "lo", "hi", "_shadow", "_ends")

    def __init__(self, poly: IntPolynomial, lo, hi):
        self.poly = poly
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self._shadow = self._ends = None

    def is_point(self):
        return self.lo == self.hi

    def width(self):
        return self.hi - self.lo

    def refine(self, max_width):
        if self.is_point() or self.width() <= max_width:
            return
        self.lo, self.hi = refine_root_interval(self.poly, self.lo, self.hi, max_width)
        self._shadow = self._ends = None

    def ends(self):
        """(a, b, den): integers with lo = a/den, hi = b/den and den > 0,
        cached until the interval narrows."""
        if self._ends is None:
            (a, b), den = _numerators((self.lo, self.hi))
            self._ends = (a, b, den)
        return self._ends

    def shadow(self):
        """(shadows, errors): floats b_i and proven bounds e_i >= |theta^i - b_i|
        for i = 0..d-1, valid for the current interval and cached until it
        narrows; False when a power leaves the float range."""
        if self._shadow is None:
            lo, hi = self.lo, self.hi
            try:
                t = float((lo + hi) / 2)
                shadows = tuple(t ** i for i in range(self.poly.degree))
                # theta^i lies between the powers of the interval's ends (and 0
                # when the interval straddles 0)
                errors = tuple(
                    _round_up(max(abs(v - Fraction(b)) for v in
                                  (lo ** i, hi ** i) + ((0,) if lo < 0 < hi else ())))
                    for i, b in enumerate(shadows))
                self._shadow = (shadows, errors)
            except OverflowError:
                self._shadow = False
        return self._shadow

    def same_root(self, other) -> bool:
        if self is other:
            return True
        return (self.poly.coeffs == other.poly.coeffs
                and not (self.hi <= other.lo or other.hi <= self.lo))

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
        # reduction rows: t^(d+j) expressed over the power basis, j = 0..d-2
        d = self.degree
        self._reduction = tuple(_rem_monic((0,) * (d + j) + (1,), prim.coeffs)
                                for j in range(d - 1))

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly.coeffs == other.minpoly.coeffs

    def __hash__(self):
        return hash(self.minpoly.coeffs)

    def __repr__(self):
        return f"NumberField({self.minpoly})"

    # -- element constructors -------------------------------------------------

    def element(self, coords, embedding) -> "AlgebraicNumber":
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise ValueError("coordinate vector has wrong length")
        return AlgebraicNumber(self, coords, embedding)

    def rational(self, q, embedding) -> "AlgebraicNumber":
        return self.element((Fraction(q),) + (Fraction(0),) * (self.degree - 1), embedding)

    def generator(self, embedding) -> "AlgebraicNumber":
        if self.degree == 1:
            return self.rational(-Fraction(self.minpoly.coeffs[0]), embedding)
        coords = (Fraction(0), Fraction(1)) + (Fraction(0),) * (self.degree - 2)
        return self.element(coords, embedding)

    def root_in(self, bracket) -> "AlgebraicNumber":
        """The generator, embedded at the unique root inside the bracket."""
        lo, hi = Fraction(bracket[0]), Fraction(bracket[1])
        if lo >= hi:
            raise ValueError("empty bracket")
        if self.degree == 1:
            r = -Fraction(self.minpoly.coeffs[0])
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
        emb.refine((hi - lo) / 4)
        return self.generator(emb)

    def _reduce(self, conv):
        """Reduce a raw product (length <= 2d-1) modulo the minimal polynomial."""
        d = self.degree
        out = list(conv[:d]) + [Fraction(0)] * (d - len(conv[:d]))
        for j in range(d, len(conv)):
            cj = conv[j]
            if cj:
                row = self._reduction[j - d]
                for i in range(d):
                    out[i] += cj * row[i]
        return tuple(out)


class AlgebraicNumber:
    """Element of a NumberField with a designated real embedding."""

    __slots__ = ("field", "coords", "embedding")

    def __init__(self, field, coords, embedding):
        self.field = field
        self.coords = coords
        self.embedding = embedding

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
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is irrational")
        return self.coords[0]

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return AlgebraicNumber(self.field,
                               tuple(a + b for a, b in zip(self.coords, o.coords)),
                               self.embedding)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return AlgebraicNumber(self.field,
                               tuple(a - b for a, b in zip(self.coords, o.coords)),
                               self.embedding)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple(-a for a in self.coords), self.embedding)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_rational():
            q = o.coords[0]
            return AlgebraicNumber(self.field, tuple(a * q for a in self.coords),
                                   self.embedding)
        conv = _mul(self.coords, o.coords)
        return AlgebraicNumber(self.field, self.field._reduce(conv), self.embedding)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        # extended Euclid in Q[t]; m irreducible so the gcd is a constant
        m = tuple(Fraction(c) for c in self.field.minpoly.coeffs)
        r0, r1 = m, _trim(self.coords)
        s0, s1 = (), (Fraction(1),)
        while r1:
            q, r = _divmod_fr(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _sub(s0, _mul(q, s1))
        if len(r0) != 1:
            raise DivisionByZero("element is not invertible")
        inv = tuple(x / r0[0] for x in s0)
        coords = tuple(inv[i] if i < len(inv) else Fraction(0)
                       for i in range(self.field.degree))
        return AlgebraicNumber(self.field, coords, self.embedding)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_rational():
            q = o.coords[0]
            if q == 0:
                raise DivisionByZero("division by zero")
            return AlgebraicNumber(self.field, tuple(a / q for a in self.coords),
                                   self.embedding)
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
        return all(c == 0 for c in self.coords)

    def sign(self) -> int:
        """Exact sign in the designated embedding: rational values directly,
        others by the float filter on the embedding's power-basis shadow, and
        by exact_sign when the filter cannot decide."""
        if self.is_rational():
            q = self.coords[0]
            return (q > 0) - (q < 0)
        sh = self.embedding.shadow()
        return (sh and filtered_sign(self.coords, *sh)) or exact_sign(self)

    def compare(self, other) -> int:
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
        return self.coords == o.coords

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
            return hash(self.coords[0])
        return hash((self.field, self.coords))

    def __float__(self):
        if self.is_rational():
            return float(self.coords[0])
        self.embedding.refine(Fraction(1, 10 ** 25))
        # the value at the interval's midpoint, correctly rounded as
        # float(Fraction) rounds it
        nums, den0 = _numerators(self.coords)
        a, b, den = self.embedding.ends()
        v, _, s = _interval_eval(nums, a + b, a + b, 2 * den)
        return v / (den0 * s)

    def decimal(self, digits: int) -> str:
        """Correctly rounded decimal string (ties round toward +infinity)."""
        if digits < 1:
            raise ValueError("digits must be positive")
        scale = 10 ** digits
        emb = self.embedding
        nums, den0 = _numerators(self.coords)
        while True:
            lo, hi, s = _interval_eval(nums, *emb.ends())
            s *= den0
            # floor(v * scale + 1/2) at the bounds v = lo/s and v = hi/s
            nlo = (2 * lo * scale + s) // (2 * s)
            if nlo == (2 * hi * scale + s) // (2 * s):
                return _format_scaled(nlo, digits)
            FILTER_COUNTS["decimal"] += 1
            emb.refine(emb.width() / 16)

    def __repr__(self):
        self.embedding.refine(Fraction(1, 10 ** 12))
        return f"AlgebraicNumber(~{float(self):.6g})"


def _format_scaled(n: int, digits: int) -> str:
    sign = "-" if n < 0 else ""
    m = abs(n)
    scale = 10 ** digits
    return f"{sign}{m // scale}.{m % scale:0{digits}d}"


def _round_up(q) -> float:
    """Least float >= the nonnegative rational q (OverflowError beyond range)."""
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


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


def _filtered_dot(coeffs, shadows, errors):
    """(s, B): the float value s of sum_i c_i * b_i and a proven bound B on
    its error; the derivation is in filtered_sign."""
    n = len(coeffs)
    if n > _MAX_TERMS:
        return 0.0, math.inf
    s = mag = err = 0.0
    try:
        for c, b, e in zip(coeffs, shadows, errors):
            if c:
                f = float(c)
                if -_NORMAL_MIN < f < _NORMAL_MIN:
                    return 0.0, math.inf
                p = f * b
                s += p
                mag += abs(p)
                err += abs(f) * e
    except OverflowError:
        return 0.0, math.inf
    return s, (err + (2 * n + 2) * _U * mag + _TINY) * _SLACK


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
    s, bound = _filtered_dot(coeffs, shadows, errors)
    if abs(s) > bound:
        FILTER_COUNTS["filtered"] += 1
        return 1 if s > 0 else -1
    return 0


def exact_sign(value) -> int:
    """Sign by exact arithmetic alone, the fallback of the float filter: a
    rational compares directly; an irrational AlgebraicNumber is evaluated on
    its embedding interval, which is refined until the sign is determined."""
    FILTER_COUNTS["exact"] += 1
    if not isinstance(value, AlgebraicNumber):
        return (value > 0) - (value < 0)
    if value.is_rational():
        q = value.coords[0]
        return (q > 0) - (q < 0)
    emb = value.embedding
    nums, _ = _numerators(value.coords)
    for _ in range(20000):
        lo, hi = _interval_eval(nums, *emb.ends())[:2]
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        FILTER_COUNTS["refined"] += 1
        emb.refine(emb.width() / 16)
    raise RuntimeError("sign determination failed to converge")


def exact_quotient(a, b):
    """a / b for exact scalars, as a Fraction when both are int, whose own
    division would round to a float."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def float_enclosure(value):
    """(x, e): a float x and a proven bound e >= |value - x| for an exact
    value (int, Fraction or AlgebraicNumber), to serve as a basis element of
    filtered_sign.  An irrational value's embedding is refined until its
    interval image is within about 2^-60 of its magnitude, so e is a few
    ulps of x; a value beyond the float range gets e = inf, which sends
    every comparison that uses it to the exact fallback."""
    if isinstance(value, AlgebraicNumber):
        emb = value.embedding
        nums, den0 = _numerators(value.coords)
        while True:
            lo, hi, s = _interval_eval(nums, *emb.ends())
            if (hi - lo) * 2 ** 61 <= abs(lo + hi):
                break
            emb.refine(emb.width() / 2 ** 16)
        lo, hi = Fraction(lo, den0 * s), Fraction(hi, den0 * s)
    else:
        lo = hi = Fraction(value)
    try:
        x = float((lo + hi) / 2)
        return x, _round_up(max(hi - Fraction(x), Fraction(x) - lo))
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
    """
    fa = vec_a[0].field
    fb = vec_b[0].field
    if fa.minpoly.coeffs != fb.minpoly.coeffs:
        raise FieldMismatch("vectors must share a minimal polynomial")
    d = fa.degree
    x = [[Fraction(0)] * d for _ in range(d)]
    for a, b in zip(vec_a, vec_b):
        for j, aj in enumerate(a.coords):
            if aj == 0:
                continue
            for k, bk in enumerate(b.coords):
                if bk:
                    x[j][k] += aj * bk
    # multiply by u (row shift with reduction) and by t (column shift), subtract
    red = fa._reduction[0] if d > 1 else None

    def shift_rows(mat):
        out = [[Fraction(0)] * d for _ in range(d)]
        for j in range(d):
            for k in range(d):
                v = mat[j][k]
                if not v:
                    continue
                if j + 1 < d:
                    out[j + 1][k] += v
                else:
                    for i in range(d):
                        out[i][k] += v * red[i]
        return out

    def shift_cols(mat):
        out = [[Fraction(0)] * d for _ in range(d)]
        for j in range(d):
            for k in range(d):
                v = mat[j][k]
                if not v:
                    continue
                if k + 1 < d:
                    out[j][k + 1] += v
                else:
                    for i in range(d):
                        out[j][i] += v * red[i]
        return out

    if d == 1:
        # single embedding; the inner product itself must vanish
        return x[0][0] == 0
    ux = shift_rows(x)
    tx = shift_cols(x)
    return all(ux[j][k] == tx[j][k] for j in range(d) for k in range(d))
