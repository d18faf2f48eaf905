"""Exact polynomial arithmetic over Z and Q, Sturm root isolation,
factorization over the rationals, and small integer-matrix helpers.

Polynomials are stored with ascending coefficients.  The integer form is the
dataclass :class:`IntPolynomial`; internal routines work on plain tuples of
ints, and the degree sieve on residues mod small primes.  Rationals enter as
integer numerators over one denominator: root intervals as integer ends
(isolate_real_roots, refine_root_interval), field elements as nums over den
(numfield).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from operator import mul

from .errors import DegreeCapExceeded

FACTOR_DEGREE_CAP = 8


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending; leading coefficient nonzero."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(int(v) for v in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __call__(self, x):
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def content(self):
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c))
        return g

    def primitive(self):
        """Primitive part with positive leading coefficient."""
        if self.is_zero():
            return self
        g = self.content()
        sign = 1 if self.coeffs[-1] > 0 else -1
        return IntPolynomial(tuple(c * sign // g for c in self.coeffs))

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other):
        return IntPolynomial(_mul(self.coeffs, other.coeffs))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                term = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    parts.append(term)
                elif c == -1:
                    parts.append(f"-{term}")
                else:
                    parts.append(f"{c}*{term}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# raw tuple arithmetic (works for int or Fraction coefficients)

def _trim(c):
    c = tuple(c)
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(tuple(out))


def _rem_monic(c, f):
    """Remainder of an integer polynomial c modulo a monic integer f, as a
    coefficient tuple of length deg f."""
    d = len(f) - 1
    r = list(c) + [0] * max(d - len(c), 0)
    for k in range(len(r) - 1, d - 1, -1):
        q = r[k]
        if q:
            for i in range(d + 1):
                r[k - d + i] -= q * f[i]
    return tuple(r[:d])


def _numerators(values):
    """(nums, den): rationals as integers over their least common
    denominator den > 0."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _deriv(c):
    return _trim(tuple(i * ci for i, ci in enumerate(c))[1:])


# ---------------------------------------------------------------------------
# Sturm sequences and real-root isolation

def sturm_chain(p: IntPolynomial):
    """Sturm chain of a squarefree integer polynomial, as integer tuples.

    Each member is a positive multiple of the classical chain's member (p,
    p', then the negated remainders), so sign variations, hence root counts,
    are the classical ones.  It is the one routine that runs the remainder
    sequence; run on any p, the chain ends in gcd(p, p'), where
    squarefree_chain reads the squarefree part that root counts need.
    """
    chain = [p.coeffs]
    r = _deriv(p.coeffs)
    while r:
        chain.append(r)
        r = _neg_sturm_rem(chain[-2], r)
    return chain


@lru_cache(maxsize=4)
def squarefree_chain(p: IntPolynomial):
    """(sf, chain): the squarefree part sf of p, p over gcd(p, p') made
    primitive with positive leading coefficient, and the Sturm chain of sf
    as a tuple.  The chain of p ends in gcd(p, p'): a constant when p is
    squarefree, so one remainder sequence gives both.  Otherwise p is
    divided by the gcd made primitive (integrally, by Gauss's lemma) and the
    quotient's chain is run.

    Kept for the four most recent polynomials, keyed on the coefficients: a
    characteristic polynomial's factorization, its isolation and the
    screen's count of roots above 1 read one remainder sequence."""
    sf = p.primitive()
    chain = sturm_chain(sf)
    if len(chain[-1]) > 1:
        sf = _try_divide(sf, IntPolynomial(chain[-1]).primitive()).primitive()
        chain = sturm_chain(sf)
    return sf, tuple(chain)


def _neg_sturm_rem(a, b):
    """-rem(a, b) over Q times a positive rational, as a primitive integer
    tuple: pseudo-division by a positive leading coefficient keeps the
    factor positive, where IntPolynomial.primitive() would flip signs."""
    if b[-1] < 0:
        b = tuple(-x for x in b)        # the same remainder over Q
    lead, db = b[-1], len(b) - 1
    r = list(a)
    for k in range(len(r) - 1, db - 1, -1):
        f = r[k]
        if f:
            r = [lead * x for x in r]
            for i, bi in enumerate(b):
                r[k - db + i] -= f * bi
    r = _trim(r[:db])
    g = math.gcd(*r) or 1
    return tuple(-x // g for x in r)


def _variations(chain, num, den):
    """Sign variations of the chain at num/den, den > 0 (_value_at)."""
    signs = [v > 0 for v in (_value_at(c, num, den) for c in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots(chain, a, b):
    """Number of real roots of the chain's polynomial in the interval (a, b],
    for int or Fraction ends."""
    return (_variations(chain, a.numerator, a.denominator)
            - _variations(chain, b.numerator, b.denominator))


def root_bound(p: IntPolynomial) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lead = abs(p.coeffs[-1])
    m = max((abs(c) for c in p.coeffs[:-1]), default=0)
    return Fraction(m, lead) + 1


def isolate_real_roots(p: IntPolynomial):
    """Disjoint open rational intervals, one per distinct real root, ascending.

    Endpoints are never roots.  Works on the squarefree part and its Sturm
    chain (squarefree_chain), so multiple roots are reported once.
    Bisection from the Cauchy bound (-B, B): an interval whose ends' sign
    variations differ by more than one splits at its midpoint; a midpoint
    that is a root moves right by a 48th of the width, then by a 16th of
    that step, and so on, until it is none.  The ends are integers over one
    denominator per interval (_value_at reads any positive one), made
    Fractions on the way out.
    """
    sf, chain = squarefree_chain(p)
    if sf.degree <= 0:
        return []
    c = sf.coeffs
    B = root_bound(sf)
    b, den = B.numerator, B.denominator
    out = []
    # each interval goes with the sign variations at its ends, whose
    # difference counts its roots; the left half is split first, so the
    # roots come out ascending
    stack = [(-b, b, den, _variations(chain, -b, den), _variations(chain, b, den))]
    while stack:
        lo, hi, den, vlo, vhi = stack.pop()
        k = vlo - vhi
        if k == 0:
            continue
        if k == 1:
            out.append((Fraction(lo, den), Fraction(hi, den)))
            continue
        # the midpoint mid / den, and the shift (hi - lo) over the same den
        mid, shift, den, lo, hi = lo + hi, 2 * (hi - lo), 2 * den, 2 * lo, 2 * hi
        while not _value_at(c, mid, den):
            # shift / 16, and mid + shift / 48, over 48 den
            mid, shift, den = 48 * mid + shift, 3 * shift, 48 * den
            lo, hi = 48 * lo, 48 * hi
        vmid = _variations(chain, mid, den)
        stack.append((mid, hi, den, vmid, vhi))
        stack.append((lo, mid, den, vlo, vmid))
    return out


def _value_at(c, num, den):
    """den^d c(num/den) for den > 0, d = len(c) - 1: the homogenised integer
    sum_i c_i num^i den^(d-i), which has the sign of c at num/den."""
    it = reversed(c)
    v = next(it)
    dp = 1
    for ci in it:
        dp *= den
        v = v * num + ci * dp
    return v


def _sign_at(c, num, den):
    """Sign of the polynomial c at num/den, den > 0 (_value_at)."""
    v = _value_at(c, num, den)
    return (v > 0) - (v < 0)


def refine_root_interval(p: IntPolynomial, a, b, den, wnum, wden):
    """Narrow an isolating interval [a/den, b/den] (integers, den > 0, ends
    not roots) to the first level of its bisection tree whose width is at
    most wnum/wden (positive integers); returns that node's integer ends
    (a, b, den) in lowest terms, the interval bisection in rationals reaches.

    The ends are integers over one denominator (so the width test is an
    integer comparison), kept with the values fa, fb of p there (_value_at).
    While fa and fb differ in sign, a step is one of quadratic interval
    refinement (Abbott, ACM Commun. Comput. Algebra 48, 2014): it splits the
    interval into N = 2^s equal cells, evaluates p at the cell end nearest
    the secant's zero, then at the next cell end on the side where the sign
    says the root lies.  When the two signs differ, that cell is the hit: it
    descends s levels at once and N squares.  A miss takes one bisection
    level, read off a cell end that is the midpoint when there is one, and N
    falls back to its square root.  N is capped so that the last jump lands
    on the target level.  Every cell is a node of the bisection tree, and
    the root lies in one node per level, so hits and misses reach the node
    bisection reaches.  A midpoint that is a root is squeezed around with
    non-root ends, and refinement goes on from there.
    """
    c = p.coeffs
    d = len(c) - 1
    while True:
        fa, fb = _value_at(c, a, den), _value_at(c, b, den)
        assert fa and fb
        w = b - a
        # levels left: the least r with w wden <= wnum den 2^r
        r = (-(-w * wden // (wnum * den)) - 1).bit_length()
        s = 1
        while r:
            fm = None
            if (fa < 0) != (fb < 0):
                n = min(s, r)
                N, dn, e = 1 << n, den << n, n * d
                ga, gb = abs(fa), abs(fb)
                # the grid point nearest the secant's zero, then its
                # neighbour on the side where the root lies
                m = (2 * N * ga + ga + gb) // (2 * (ga + gb))
                fx = (fa << e if m == 0 else fb << e if m == N
                      else _value_at(c, (a << n) + m * w, dn))
                if fx:
                    k = m + 1 if (fx < 0) == (fa < 0) else m - 1
                    fy = (fa << e if k == 0 else fb << e if k == N
                          else _value_at(c, (a << n) + k * w, dn))
                    if fy and (fy < 0) != (fx < 0):
                        a, den = (a << n) + min(m, k) * w, dn
                        b = a + w
                        fa, fb = (fx, fy) if m < k else (fy, fx)
                        r -= n
                        s = 2 * n
                        continue
                    if 2 * k == N:
                        fm = fy >> e - d
                s = max(n // 2, 1)
                if 2 * m == N:
                    fm = fx >> e - d
            mid = a + b
            a, b, den = 2 * a, 2 * b, 2 * den
            if fm is None:
                fm = _value_at(c, mid, den)
            if not fm:
                break
            if (fm < 0) == (fa < 0):
                a, fa, fb = mid, fm, fb << d
            else:
                b, fa, fb = mid, fa << d, fm
            r -= 1
        else:
            g = math.gcd(a, b, den)
            return a // g, b // g, den // g
        # mid/den is a rational root: the ends mid/den - w/dd and
        # mid/den + w/(dd + 1), w = (b - a)/den, over den dd (dd + 1)
        w = b - a
        for dd in range(5, 1000):
            k = dd * (dd + 1)
            lo, hi = mid * k - w * (dd + 1), mid * k + w * dd
            if _sign_at(c, lo, den * k) and _sign_at(c, hi, den * k):
                break
        a, b, den = lo, hi, den * k


# ---------------------------------------------------------------------------
# factorization over the rationals
#
# factor_rational takes the squarefree part; _factor_squarefree strips the
# linear factors (rational roots), then the degree sieve (_sieve_degrees,
# distinct-degree factorization mod small primes) either proves the rest
# irreducible or names the degrees at which Kronecker's search (_find_factor,
# exhaustive under the Landau-Mignotte bound) must run.

def _divisors(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _rational_roots(p: IntPolynomial):
    """All rational roots, each once, with multiplicity folded out by the
    caller: the candidates num/den in lowest terms, num dividing the
    constant and den the leading coefficient, each tested by one integer
    evaluation (_value_at)."""
    a0 = p.coeffs[0]
    an = p.coeffs[-1]
    if a0 == 0:
        return [Fraction(0)]
    roots = []
    for num in _divisors(a0):
        for den in _divisors(an):
            if math.gcd(num, den) == 1:
                roots += [Fraction(s * num, den) for s in (1, -1)
                          if not _value_at(p.coeffs, s * num, den)]
    return roots


def _try_divide(p: IntPolynomial, g: IntPolynomial):
    """p / g when g divides p in Z[t], else None: integer long division,
    which stops at the first quotient coefficient that is not an integer."""
    r, b = list(p.coeffs), g.coeffs
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        f, rem = divmod(r[k + db], b[-1])
        if rem:
            return None
        if f:
            q[k] = f
            for i, bi in enumerate(b):
                r[k + i] -= f * bi
    if any(r[:db]):
        return None
    return IntPolynomial(tuple(q))


def _l2_norm_ceil(p: IntPolynomial):
    return math.isqrt(sum(c * c for c in p.coeffs)) + 1


def _find_factor(p: IntPolynomial, k: int):
    """Search for a degree-k integer factor by divisor interpolation.

    Candidate factors are pinned by their values at k+1 small integer points;
    each value must divide the value of p there.  The Landau-Mignotte bound
    2^k * ||p||_2 caps candidate coefficients, so exhaustion certifies there
    is no degree-k factor.
    """
    pts = [0]
    for m in count(1):
        if len(pts) > k:
            break
        pts.extend([m, -m][: k + 1 - len(pts)])
    bound = (2 ** k) * _l2_norm_ceil(p)
    val_bounds = [sum(bound * abs(x) ** i for i in range(k + 1)) for x in pts]
    divisor_sets = []
    for x, vb in zip(pts, val_bounds):
        v = p(x)
        assert v != 0  # rational roots were extracted first
        ds = [d for d in _divisors(v) if d <= vb]
        divisor_sets.append([s * d for d in ds for s in (1, -1)])
    # Lagrange basis over the chosen points, as integer numerators over
    # their least common denominator L
    basis = []
    for i, xi in enumerate(pts):
        num = (1,)
        den = 1
        for j, xj in enumerate(pts):
            if i == j:
                continue
            num = _mul(num, (-xj, 1))
            den *= xi - xj
        basis.append((num, den))
    L = math.lcm(*(abs(den) for _num, den in basis))
    basis = [tuple(n * (L // den) for n in num) for num, den in basis]
    for combo in product(*divisor_sets):
        coeffs = [0] * (k + 1)
        for v, num in zip(combo, basis):
            for i, ni in enumerate(num):
                coeffs[i] += v * ni
        if any(c % L for c in coeffs):
            continue
        coeffs = [c // L for c in coeffs]
        if coeffs[k] == 0:
            continue
        if any(abs(c) > bound for c in coeffs):
            continue
        g = IntPolynomial(tuple(coeffs)).primitive()
        if g.degree != k:
            continue
        q = _try_divide(p, g)
        if q is not None:
            return g, q
    return None


# odd primes for the degree sieve
_SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                 61, 67, 71, 73, 79, 83, 89, 97)

# polynomials of degree >= 4 proven irreducible by the degree sieve, those
# handed on to the Kronecker search, and the degrees searched, since the
# process started; no report carries these counts
FACTOR_COUNTS = {"sieved": 0, "searched": 0, "degrees": 0}


def _rem_p(c, g, p):
    """Residues mod p of the remainder of the integer polynomial c by g
    (residues, g[-1] nonzero mod p), as a trimmed list.  No quotient is
    kept, and only the coefficient each step clears is reduced on the way:
    the others stay unreduced Python ints until the end."""
    r = list(c)
    d = len(g) - 1
    inv = pow(g[-1], -1, p)
    for k in range(len(r) - 1, d - 1, -1):
        q = r[k] * inv % p
        if q:
            for i in range(d):
                r[k - d + i] -= q * g[i]
    r = [x % p for x in r[:d]]
    while r and not r[-1]:
        r.pop()
    return r


def _gcd_degree_p(a, b, p):
    """Degree of gcd(a, b) over GF(p), for residue lists a (nonzero) and b."""
    while b:
        a, b = b, _rem_p(a, b, p)
    return len(a) - 1


def _ddf_degrees(f, p):
    """Degrees of the irreducible factors of f over GF(p), ascending, by
    distinct-degree factorization (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 14); None when p divides the leading coefficient or f is
    not squarefree mod p, where the degrees say nothing about factors over Z.

    All work is mod g = f mod p.  Frobenius h -> h^p is linear over
    GF(p), so h^p = sum_j h_j x^(jp) mod g: one row x^(jp) per j, and each
    step is a matrix-vector product.  The factors are never divided
    out: gcd(g, x^(p^i) - x) is the product of the factors whose degree
    divides i, so its degree less that of the smaller such degrees found
    counts the factors of degree i.  While twice the next degree exceeds
    what is left, what is left is one irreducible factor."""
    g = [x % p for x in f]
    if not g[-1]:                               # p divides the leading coefficient
        return None
    d = len(g) - 1
    if _gcd_degree_p(g, _rem_p([i * c for i, c in enumerate(g)][1:], g, p), p):
        return None                             # not squarefree mod p
    # rows[j] = x^(jp) mod g
    rows = [[1], _rem_p([0] * p + [1], g, p)]
    for _ in range(2, d):
        prod = [0] * (2 * d - 1)
        for a, u in enumerate(rows[-1]):
            for b, v in enumerate(rows[1]):
                prod[a + b] += u * v
        rows.append(_rem_p(prod, g, p))
    h = [0, 1]                                  # x^(p^i) mod g
    degrees = []
    left, i = d, 0
    while left >= 2 * (i + 1):
        i += 1
        acc = [0] * d
        for hj, row in zip(h, rows):
            if hj:
                for t, v in enumerate(row):
                    acc[t] += hj * v
        h = [v % p for v in acc]
        acc[1] -= 1
        k = _gcd_degree_p(g, _rem_p(acc, g, p), p)
        k -= sum(e for e in degrees if i % e == 0)
        degrees += [i] * (k // i)
        left -= k
    if left:
        degrees.append(left)
    return degrees


def _sieve_degrees(p: IntPolynomial):
    """The degrees k in [2, deg/2] at which p may have a factor over Z.

    A degree-k factor of p stays a degree-k factor mod every prime that does
    not divide the leading coefficient, and when p is squarefree mod that
    prime it is a product of some of the irreducible factors there, so k is
    a subset sum of their degrees.  Each usable prime of _SIEVE_PRIMES
    intersects the candidates with those subset sums; none left proves p
    irreducible (given no linear factor).
    """
    allowed = set(range(2, p.degree // 2 + 1))
    for q in _SIEVE_PRIMES:
        if not allowed:
            break
        degrees = _ddf_degrees(p.coeffs, q)
        if degrees is None:
            continue
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        allowed &= sums
    return sorted(allowed)


def _factor_squarefree(p: IntPolynomial):
    """Irreducible factors of a primitive squarefree polynomial.

    Linear factors are stripped first.  The degree sieve then either proves
    the rest irreducible or leaves the degrees at which Kronecker's search
    (_find_factor) must run, in ascending order.  A true factor degree always
    survives the sieve, so the first factor found has the least degree of
    any factor, and it is irreducible.
    """
    factors = []
    work = p.primitive()
    while work.degree > 0:
        if work.coeffs[0] == 0:
            factors.append(IntPolynomial((0, 1)))
            work = IntPolynomial(work.coeffs[1:])
            continue
        roots = _rational_roots(work)
        if roots:
            r = roots[0]
            lin = IntPolynomial((-r.numerator, r.denominator)).primitive()
            q = _try_divide(work, lin)
            assert q is not None
            factors.append(lin)
            work = q
            continue
        if work.degree == 1:
            factors.append(work)
            break
        hit = None
        degrees = _sieve_degrees(work)
        if work.degree >= 4:
            FACTOR_COUNTS["searched" if degrees else "sieved"] += 1
        for k in degrees:
            FACTOR_COUNTS["degrees"] += 1
            hit = _find_factor(work, k)
            if hit is not None:
                break
        if hit is None:
            factors.append(work)
            break
        g, q = hit
        factors.append(g)
        work = q
    return factors


def factor_rational(p: IntPolynomial):
    """Complete factorization into primitive irreducibles over the rationals.

    Returns a list of (IntPolynomial, multiplicity) sorted by (degree,
    coefficients).  Content and sign are dropped: the product of the factors
    equals the primitive part of p.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree > FACTOR_DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {p.degree} exceeds cap {FACTOR_DEGREE_CAP}")
    work = p.primitive()
    if work.degree == 0:
        return []
    sf = squarefree_chain(work)[0]
    irreducibles = _factor_squarefree(sf)
    out = []
    for g in irreducibles:
        mult = 0
        q = _try_divide(work, g)
        while q is not None:
            mult += 1
            work = q
            q = _try_divide(work, g)
        out.append((g, mult))
    assert work.degree == 0
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


def is_irreducible(p: IntPolynomial) -> bool:
    f = factor_rational(p)
    return len(f) == 1 and f[0][1] == 1 and f[0][0].degree == p.degree


# ---------------------------------------------------------------------------
# small exact integer-matrix helpers (row-major tuples of tuples)

def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def mat_vec(a, v):
    return tuple(sum(ai * vi for ai, vi in zip(row, v)) for row in a)


def mat_transpose(a):
    return tuple(zip(*a))


def faddeev_leverrier(m):
    """(det(tI - M), (B_0, ..., B_{n-1})): the characteristic polynomial and
    the integer matrices with adj(tI - M) = sum_k t^(n-1-k) B_k, from one
    Faddeev-LeVerrier loop: B_0 = I, c_k = -tr(M B_{k-1}) / k and
    B_k = M B_{k-1} + c_k I."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    m = [list(map(int, row)) for row in m]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    terms = [mat_identity(n)]
    ak = [row[:] for row in m]          # M B_{k-1}, as lists of rows
    tr = sum([m[i][i] for i in range(n)])
    for k in range(1, n + 1):
        assert tr % k == 0
        ck = -(tr // k)
        coeffs[n - k] = ck
        if k == n:
            break
        for i in range(n):
            ak[i][i] += ck              # B_k, in place
        terms.append(tuple(map(tuple, ak)))
        cols = list(zip(*ak))
        if k < n - 1:
            ak = [[sum(map(mul, row, col)) for col in cols] for row in m]
            tr = sum([ak[i][i] for i in range(n)])
        else:                           # c_n reads only the trace of M B_k
            tr = sum([sum(map(mul, row, col)) for row, col in zip(m, cols)])
    return IntPolynomial(tuple(coeffs)), tuple(terms)


def char_poly(m) -> IntPolynomial:
    """det(tI - M) with exact integer coefficients (Faddeev-LeVerrier)."""
    return faddeev_leverrier(m)[0]


def mat_det(m) -> int:
    n = len(m)
    cp = char_poly(m)
    d = cp.coeffs[0] if cp.degree >= 0 else 0
    return d if n % 2 == 0 else -d


def row_masks(m):
    """Zero pattern of a matrix as one bitmask per row: bit j of row i is set
    when m[i][j] is nonzero."""
    return tuple(sum(1 << j for j, x in enumerate(row) if x) for row in m)


def rows_mul(a, b):
    """Zero pattern of A*B from the patterns of nonnegative A and B: row i of
    the product is the OR of B's rows t over the set bits t of A's row i."""
    out = []
    for r in a:
        acc = 0
        t = 0
        while r:
            if r & 1:
                acc |= b[t]
            r >>= 1
            t += 1
        out.append(acc)
    return tuple(out)


def rows_table(b):
    """Right multiplication by the pattern b as one lookup: entry mask is the
    OR of b's rows t over the set bits t of mask, built low bit first, so
    rows_mul(a, b) == tuple([table[r] for r in a])."""
    table = [0] * (1 << len(b))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] | b[low.bit_length() - 1]
    return table


def rows_quasi_positive(rows) -> bool:
    """True when some boolean power of the row-bitmask pattern is all ones.

    Some power of a nonnegative matrix is positive exactly when the matrix is
    primitive, and then every power from the primitivity bound (n-1)^2 + 1 on
    is positive (Wielandt).  So squaring until the exponent reaches the bound
    decides it; a pattern that squares to itself without being full never
    fills.
    """
    n = len(rows)
    full = (1 << n) - 1
    bound = (n - 1) * (n - 1) + 1
    p, k = rows, 1
    while True:
        if all(r == full for r in p):
            return True
        if k >= bound:
            return False
        q = rows_mul(p, p)
        if q == p:
            return False
        p, k = q, 2 * k


def quasi_positive(m) -> bool:
    """True when the matrix is nonnegative and some power of it is entrywise
    positive; decided on its zero pattern by rows_quasi_positive."""
    if any(x < 0 for row in m for x in row):
        return False
    return rows_quasi_positive(row_masks(m))
