import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
import sympy

from flipiet import polys
from flipiet.errors import DegreeCapExceeded
from flipiet.numfield import RootEmbedding
from flipiet.polys import (_SIEVE_PRIMES, IntPolynomial, _ddf_degrees, _deriv,
                           _mul, _numerators, _sieve_degrees, _trim,
                           char_poly, count_roots, factor_rational,
                           faddeev_leverrier, is_irreducible,
                           isolate_real_roots, mat_det, mat_mul,
                           quasi_positive, refine_root_interval, root_bound,
                           row_masks, rows_mul, squarefree_chain, sturm_chain)
from flipiet.quintic import MATRIX


def poly_from_roots(roots):
    """Monic integer polynomial with the given integer roots."""
    p = IntPolynomial((1,))
    for r in roots:
        p = p * IntPolynomial((-r, 1))
    return p


A = ((2, 4, 6, 5, 2), (0, 2, 1, 1, 1), (0, 0, 3, 2, 0),
     (1, 2, 2, 2, 1), (1, 3, 5, 4, 2))
QUARTIC = IntPolynomial((1, -8, 18, -10, 1))


def test_char_poly_of_product_matrix():
    cp = char_poly(A)
    # (t - 1) * quartic, expanded
    assert cp.coeffs == (-1, 9, -26, 28, -11, 1)


def test_char_poly_small_cases():
    assert char_poly(((1, 0), (0, 1))).coeffs == (1, -2, 1)
    assert char_poly(((1, 1), (1, 0))).coeffs == (-1, -1, 1)


def test_factor_product_matrix_char_poly():
    fl = factor_rational(char_poly(A))
    assert [(f.coeffs, m) for f, m in fl] == [((-1, 1), 1), ((1, -8, 18, -10, 1), 1)]


def test_quartic_irreducible():
    assert is_irreducible(QUARTIC)


def test_factor_simple():
    fl = factor_rational(IntPolynomial((-1, 0, 1)))  # t^2 - 1
    assert [(f.coeffs, m) for f, m in fl] == [((-1, 1), 1), ((1, 1), 1)]


def test_factor_multiplicity():
    p = poly_from_roots([1, 1, 2])
    fl = factor_rational(p)
    assert [(f.coeffs, m) for f, m in fl] == [((-2, 1), 1), ((-1, 1), 2)]


def test_factor_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        factor_rational(IntPolynomial((1,) + (0,) * 8 + (1,)))


def _random_polys(seed, count=1000):
    """The criterion-10 generator: degree <= 6, small coefficients."""
    rng = random.Random(seed)
    for _ in range(count):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.choice([1, -1, 2, -3])]
        p = IntPolynomial(tuple(coeffs))
        if p.degree >= 1:
            yield p


def test_factor_roundtrip_randomized():
    t = sympy.symbols("t")
    for p in _random_polys(7):
        factors = factor_rational(p)
        prod = IntPolynomial((1,))
        for f, m in factors:
            for _ in range(m):
                prod = prod * f
        assert prod.coeffs == p.primitive().coeffs
        for f, _ in factors:
            expr = sum(c * t ** i for i, c in enumerate(f.coeffs))
            assert sympy.Poly(expr, t).is_irreducible


def test_isolation_product_matrix():
    roots = isolate_real_roots(char_poly(A))
    assert len(roots) == 5
    approx = sorted((float(a) + float(b)) / 2 for a, b in roots)
    targets = [0.2249, 0.3575, 1.0, 1.5881, 7.8294]
    for got, want in zip(approx, targets):
        a, b = [r for r in roots if r[0] <= got <= r[1]][0]
        assert a < want < b or abs(got - want) < float(b - a)


def test_isolation_no_real_roots():
    assert isolate_real_roots(IntPolynomial((1, 0, 1))) == []


def test_isolation_sqrt2():
    roots = isolate_real_roots(IntPolynomial((-2, 0, 1)))
    assert len(roots) == 2
    lo, hi = roots[1]
    assert lo < Fraction(141421356, 10 ** 8) < hi


def test_isolation_rational_root_at_bisection_point():
    # roots at 0 and +-1/2: bisection midpoints hit them
    p = poly_from_roots([0]) * IntPolynomial((-1, 0, 4))
    roots = isolate_real_roots(p)
    assert len(roots) == 3
    for (a, b), want in zip(roots, (Fraction(-1, 2), 0, Fraction(1, 2))):
        assert a < want < b


def test_sturm_count_interval():
    chain = sturm_chain(char_poly(A))
    assert count_roots(chain, Fraction(1), root_bound(char_poly(A))) == 2
    assert count_roots(chain, Fraction(0), Fraction(1)) == 3  # 0.225, 0.358, and 1


def _rem_fraction(a, b):
    """Reference: the remainder of a by a nonzero b, in Fraction arithmetic."""
    r = list(a)
    while len(r) >= len(b):
        f = Fraction(r[-1]) / b[-1]
        k = len(r) - len(b)
        for i, bi in enumerate(b):
            r[k + i] -= f * bi
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def _classical_sturm_chain(p):
    """Reference: the Sturm chain p, p', -rem, ... in Fraction arithmetic."""
    chain = [tuple(Fraction(c) for c in p.coeffs)]
    chain.append(_deriv(chain[0]))
    while chain[-1]:
        r = _rem_fraction(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-x for x in r))
    return chain


def test_count_roots_matches_sympy():
    # random integer polynomials, a third of them with a repeated factor,
    # counted on random rational intervals and on intervals whose ends are
    # roots; sympy counts distinct roots in [a, b], count_roots in (a, b]
    rng = random.Random(29)
    t = sympy.symbols("t")
    checked = at_root = 0
    for trial in range(120):
        p = IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 6)))
                          + (rng.choice((-3, -1, 1, 2)),))
        if trial % 3 == 0:
            p = p * poly_from_roots([rng.randint(-3, 3)] * 2)
        sf, chain = squarefree_chain(p)
        # integer members, each a positive multiple of the classical member
        ref = _classical_sturm_chain(sf)
        assert len(chain) == len(ref)
        for mine, theirs in zip(chain, ref):
            assert all(isinstance(c, int) for c in mine)
            ratio = Fraction(mine[-1]) / theirs[-1]
            assert ratio > 0 and all(Fraction(c) == ratio * r for c, r in zip(mine, theirs))
        theirs = sympy.Poly(list(reversed(p.coeffs)), t)
        ends = [Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(4)]
        ends += [Fraction(r) for r in range(-3, 4) if p(r) == 0]
        for a in ends:
            for b in ends:
                if a < b:
                    want = theirs.count_roots(sympy.Rational(a.numerator, a.denominator),
                                              sympy.Rational(b.numerator, b.denominator))
                    assert count_roots(chain, a, b) == want - (p(a) == 0)
                    checked += 1
                    at_root += p(a) == 0 or p(b) == 0
    assert checked > 900 and at_root > 50


def test_squarefree_part():
    p = poly_from_roots([2, 2, 3])
    assert squarefree_chain(p)[0].coeffs == poly_from_roots([2, 3]).coeffs


def test_squarefree_part_matches_sympy():
    # reference: sympy's sqf_part, made primitive with a positive leading
    # coefficient, on products of random factors with repeats, content and
    # either sign, and on small edge cases
    t = sympy.symbols("t")
    rng = random.Random(17)
    cases = [IntPolynomial((5,)), IntPolynomial((-3, 6)), IntPolynomial((4, -2)),
             IntPolynomial((0, 0, 0, 0, 1)), IntPolynomial((0, 0, -7)),
             IntPolynomial((1, -4, 4)), IntPolynomial((-3, 12, -12)),
             IntPolynomial((0, 0, 1)) * IntPolynomial((1, -4, 4))]
    for _ in range(150):
        p = IntPolynomial((rng.choice((-6, -2, -1, 1, 3)),))
        for _ in range(rng.randint(1, 4)):
            f = IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
                              + (rng.choice((-2, -1, 1, 3)),))
            for _ in range(rng.choice((1, 1, 2, 3))):
                p = p * f
        cases.append(p)
    for p in cases:
        want = sympy.Poly(list(reversed(p.coeffs)), t).sqf_part()
        want = IntPolynomial(tuple(int(c) for c in reversed(want.all_coeffs())))
        assert squarefree_chain(p)[0] == want.primitive(), p


def test_sympy_oracle_on_random_factors():
    t = sympy.symbols("t")
    rng = random.Random(11)
    for _ in range(50):
        deg = rng.randint(2, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [1]
        p = IntPolynomial(tuple(coeffs))
        mine = sorted((f.coeffs, m) for f, m in factor_rational(p))
        expr = sum(c * t ** i for i, c in enumerate(p.coeffs))
        theirs = []
        const, pairs = sympy.factor_list(expr)
        for f, m in pairs:
            fc = tuple(int(v) for v in reversed(sympy.Poly(f, t).all_coeffs()))
            if fc[-1] < 0:
                fc = tuple(-v for v in fc)
            theirs.append((fc, int(m)))
        assert mine == sorted(theirs)


def test_matrix_helpers():
    assert mat_det(A) == 1
    ident = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
    assert mat_mul(A, ident) == A
    assert quasi_positive(A)
    assert not quasi_positive(ident)
    assert not quasi_positive(((0, 1), (1, 0)))  # periodic, irreducible


def test_mat_mul_matches_triple_loop():
    # rectangular shapes, negative and 100-bit entries, against the textbook
    # triple loop; the product is a tuple of tuples whatever the input type
    rng = random.Random(606)
    for rows, inner, cols in [(1, 6, 4), (6, 1, 3), (5, 7, 3), (1, 8, 1),
                              (1, 1, 1), (4, 9, 1), (3, 3, 3)]:
        for bits in (3, 100):
            def entry():
                return rng.randint(-2 ** bits, 2 ** bits)
            a = [[entry() for _ in range(inner)] for _ in range(rows)]
            b = tuple(tuple(entry() for _ in range(cols)) for _ in range(inner))
            want = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(inner))
                               for j in range(cols)) for i in range(rows))
            assert mat_mul(a, b) == want
            assert type(mat_mul(a, b)[0]) is tuple


def _quasi_positive_reference(m):
    """Reference: boolean-matrix powering up to the primitivity bound, one
    factor of m at a time."""
    n = len(m)
    if any(x < 0 for row in m for x in row):
        return False
    b = tuple(tuple(1 if x > 0 else 0 for x in row) for row in m)
    p = b
    for _ in range((n - 1) * (n - 1) + 1):
        if all(all(x for x in row) for row in p):
            return True
        p = tuple(tuple(1 if sum(p[i][t] * b[t][j] for t in range(n)) else 0
                        for j in range(n)) for i in range(n))
    return all(all(x for x in row) for row in p)


def _wielandt(n):
    """The primitive n x n pattern whose first positive power is the bound
    (n-1)^2 + 1: the cycle 0 -> 1 -> ... -> n-1 -> 0 plus the edge n-1 -> 1."""
    w = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        w[i][i + 1] = 1
    w[n - 1][0] = w[n - 1][1] = 1
    return tuple(tuple(row) for row in w)


def test_quasi_positive_matches_boolean_powering():
    rng = random.Random(2024)
    cases = []
    for n in range(2, 8):
        for density in (0.15, 0.3, 0.5):
            for _ in range(40):
                cases.append(tuple(tuple(int(rng.random() < density)
                                         for _ in range(n)) for _ in range(n)))
                cases.append(tuple(tuple(rng.choice((0, 0, 1, 2, 7))
                                         for _ in range(n)) for _ in range(n)))
    cases += [_wielandt(n) for n in range(2, 8)]
    verdicts = [quasi_positive(m) for m in cases]
    assert verdicts == [_quasi_positive_reference(m) for m in cases]
    assert 0 < sum(verdicts) < len(cases)      # both answers occur


def test_quasi_positive_wielandt_and_negative_entries():
    w = _wielandt(5)
    p = row_masks(w)
    for _power in range(1, 17):
        assert not all(r == 0b11111 for r in p)
        p = rows_mul(p, row_masks(w))
    assert all(r == 0b11111 for r in p)        # first positive at power 17
    assert quasi_positive(w) and _quasi_positive_reference(w)
    neg = tuple(tuple(-1 if (i, j) == (2, 3) else 1 for j in range(5))
                for i in range(5))
    assert not quasi_positive(neg) and not _quasi_positive_reference(neg)


def test_factor_at_degree_cap():
    # degree 8 exercises the widest certified factor search (k up to 4)
    q1 = IntPolynomial((1, -8, 18, -10, 1))
    q2 = IntPolynomial((1, 1, 0, 0, 1))
    fl = factor_rational(q1 * q2)
    assert [(f.coeffs, m) for f, m in fl] == [((1, -8, 18, -10, 1), 1),
                                              ((1, 1, 0, 0, 1), 1)]
    # 1 + t + ... + t^8 factors into the degree-2 and degree-6 cyclotomics
    fl2 = factor_rational(IntPolynomial((1,) * 9))
    assert [(f.coeffs, m) for f, m in fl2] == [((1, 1, 1), 1),
                                               ((1, 0, 0, 1, 0, 0, 1), 1)]
    # t^8 + 2 is irreducible (Eisenstein at 2): exhaustion must certify it
    fl3 = factor_rational(IntPolynomial((2, 0, 0, 0, 0, 0, 0, 0, 1)))
    assert len(fl3) == 1 and fl3[0][0].degree == 8


def test_sieve_leaves_few_kronecker_searches():
    before = dict(polys.FACTOR_COUNTS)
    for p in _random_polys(7):
        factor_rational(p)
    moved = {k: polys.FACTOR_COUNTS[k] - before[k] for k in before}
    assert moved["sieved"] > 100
    assert moved["degrees"] <= 20


def _random_irreducible(rng, t):
    while True:
        deg = rng.randint(2, 4)
        coeffs = [rng.randint(-7, 7) for _ in range(deg)] + [rng.choice([1, 2, 3, 5])]
        expr = sum(c * t ** i for i, c in enumerate(coeffs))
        if coeffs[0] and sympy.Poly(expr, t).is_irreducible:
            return IntPolynomial(tuple(coeffs))


def test_sieve_keeps_every_true_factor_degree():
    # products of two or three irreducibles of degree 2-4 (no linear factor,
    # leading coefficients with small prime factors): every subset sum of the
    # factor degrees in [2, deg/2] must survive the sieve
    t = sympy.symbols("t")
    rng = random.Random(31)
    products = 0
    for _ in range(150):
        fs = [_random_irreducible(rng, t) for _ in range(rng.choice((2, 2, 3)))]
        p = IntPolynomial((1,))
        for f in fs:
            p = p * f
        if p.degree > 8 or squarefree_chain(p)[0].degree != p.degree:
            continue
        products += 1
        true = {0}
        for f in fs:
            true |= {s + f.degree for s in true}
        want = {k for k in true if 2 <= k <= p.degree // 2}
        assert want <= set(_sieve_degrees(p)), (p, fs)
    assert products > 100


def test_ddf_degrees_match_factorization_mod_p():
    t = sympy.symbols("t")
    rng = random.Random(5)
    checked = skipped = 0
    for _ in range(120):
        deg = rng.randint(2, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, 2, 3, 6])]
        p = IntPolynomial(tuple(coeffs))
        q = rng.choice((3, 5, 7, 11, 13))
        got = _ddf_degrees(p.coeffs, q)
        poly_q = sympy.Poly(sum(c * t ** i for i, c in enumerate(p.coeffs)), t,
                            modulus=q)
        if p.coeffs[-1] % q == 0 or not poly_q.is_sqf:
            assert got is None
            skipped += 1
            continue
        _lead, pairs = poly_q.factor_list()
        assert sorted(got) == sorted(f.degree() for f, _m in pairs)
        checked += 1
    assert checked > 50 and skipped > 10


def _refine_by_fraction_bisection(p, lo, hi, max_width):
    """Reference: bisection in Fraction arithmetic, with the squeeze around a
    midpoint that is a rational root."""
    plo = p(lo)
    assert plo != 0 and p(hi) != 0
    sl = plo > 0
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        v = p(mid)
        if v == 0:
            width = hi - lo
            for dd in range(5, 1000):
                lo2, hi2 = mid - width / dd, mid + width / (dd + 1)
                if p(lo2) != 0 and p(hi2) != 0:
                    lo, hi = lo2, hi2
                    sl = p(lo) > 0
                    break
            continue
        if (v > 0) == sl:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_refine_matches_fraction_bisection():
    rng = random.Random(13)
    cases = [(IntPolynomial((0, -2, 0, 1)), Fraction(-1), Fraction(1)),  # root 0 at mid
             (IntPolynomial((3, -7, 2)), Fraction(0), Fraction(1)),      # root 1/2 at mid
             (IntPolynomial((-1, 0, 9)), Fraction(0), Fraction(2, 3))]  # root 1/3 at mid
    for _ in range(40):
        deg = rng.randint(2, 6)
        p = IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(deg)) + (1,))
        cases += [(p, lo, hi) for lo, hi in isolate_real_roots(p)
                  if p(lo) and p(hi)]
    squeezed = 0
    for p, lo, hi in cases:
        for width in (Fraction(1, 7), Fraction(1, 10 ** 12), Fraction(1, 2 ** 90)):
            (a, b), den = _numerators((lo, hi))
            a, b, den = refine_root_interval(p, a, b, den, width.numerator,
                                             width.denominator)
            assert math.gcd(a, b, den) == 1 and den > 0
            got = Fraction(a, den), Fraction(b, den)
            assert got == _refine_by_fraction_bisection(p, lo, hi, width)
            assert got[1] - got[0] <= width
        # RootEmbedding.narrow(k): down to 2^-k of the current width
        emb = RootEmbedding(p, lo, hi)
        for k in (2, 3, 4, 16, 4):
            want = _refine_by_fraction_bisection(p, emb.lo, emb.hi,
                                                 (emb.hi - emb.lo) / 2 ** k)
            emb.narrow(k)
            assert (emb.lo, emb.hi) == want
        mid = (lo + hi) / 2
        squeezed += p(mid) == 0
    assert squeezed == 3 and len(cases) > 60


def test_refine_takes_few_evaluations(monkeypatch):
    # secant jumps: each real root of the bundled matrix, from its isolating
    # interval down to 2^-100, in at most 40 evaluations of the polynomial
    # (bisection takes one per bit, over 100)
    calls = []
    real = polys._value_at

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polys, "_value_at", counted)
    roots = 0
    for f, _ in factor_rational(char_poly(MATRIX)):
        for lo, hi in isolate_real_roots(f):
            (a, b), den = _numerators((lo, hi))
            calls.clear()
            a, b, den = refine_root_interval(f, a, b, den, 1, 2 ** 100)
            assert (b - a) * 2 ** 100 <= den
            assert len(calls) <= 40
            roots += 1
    assert roots == 5


def test_try_divide_matches_sympy():
    # integer long division against sympy's division over Q: None unless the
    # remainder is zero and the quotient integral; pairs with a quotient in
    # Z[t], with a nonzero remainder, and with g dividing p over Q only
    rng = random.Random(31)
    t = sympy.symbols("t")

    def rand_poly(deg):
        return IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(deg))
                             + (rng.choice((-3, -2, -1, 1, 2, 3, 5)),))

    pairs = [(IntPolynomial((1, 1)), IntPolynomial((2, 2))),
             (IntPolynomial(()), IntPolynomial((1, 2)))]
    for _ in range(300):
        g, q = rand_poly(rng.randint(0, 4)), rand_poly(rng.randint(0, 4))
        kind = rng.randrange(3)
        if kind == 0:                   # g divides p in Z[t]
            p = g * q
        elif kind == 1:                 # almost always a nonzero remainder
            p = rand_poly(rng.randint(0, 8))
        else:                           # k g divides p over Q; not over Z
            k = rng.choice((2, 3, 4, 6))  # unless k divides q's content
            p, g = g * q, IntPolynomial(tuple(k * c for c in g.coeffs))
        pairs.append((p, g))
    kinds = {"integral": 0, "remainder": 0, "over Q only": 0}
    for p, g in pairs:
        pq = sympy.Poly(list(reversed(p.coeffs)) or [0], t, domain="QQ")
        gq = sympy.Poly(list(reversed(g.coeffs)), t, domain="QQ")
        quo, rem = pq.div(gq)
        if not rem.is_zero:
            kind, want = "remainder", None
        elif any(c.q != 1 for c in quo.all_coeffs()):
            kind, want = "over Q only", None
        else:
            kind = "integral"
            want = IntPolynomial(tuple(int(c) for c in reversed(quo.all_coeffs())))
        assert polys._try_divide(p, g) == want
        kinds[kind] += 1
    assert min(kinds.values()) >= 40, kinds


def test_faddeev_leverrier_adjugate():
    cp, terms = faddeev_leverrier(A)
    assert cp == char_poly(A)
    # (tI - A) adj(tI - A) = det(tI - A) I, checked at integer points
    for t in (-3, 0, 2, 5):
        adj = [[sum(b[i][j] * t ** (4 - k) for k, b in enumerate(terms))
                for j in range(5)] for i in range(5)]
        shifted = [[t * (i == j) - A[i][j] for j in range(5)] for i in range(5)]
        prod = mat_mul(shifted, adj)
        assert prod == tuple(tuple(cp(t) * (i == j) for j in range(5))
                             for i in range(5))


def _faddeev_leverrier_reference(m):
    """The loop as it was written before it worked on lists in place: each
    B_k built entry by entry, each product by mat_mul."""
    n = len(m)
    m = tuple(tuple(int(x) for x in row) for row in m)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    terms = [tuple(tuple(int(i == j) for j in range(n)) for i in range(n))]
    ak = m
    for k in range(1, n + 1):
        tr = sum(ak[i][i] for i in range(n))
        assert tr % k == 0
        ck = -(tr // k)
        coeffs[n - k] = ck
        if k < n:
            terms.append(tuple(tuple(ak[i][j] + (ck if i == j else 0)
                                     for j in range(n)) for i in range(n)))
            ak = mat_mul(m, terms[-1])
    return IntPolynomial(tuple(coeffs)), tuple(terms)


def test_faddeev_leverrier_matches_the_reference(kernel_inputs):
    # the kernel's matrices and 120 seeded integer matrices of size 1 to 7,
    # some with negative entries: the same polynomial and the same integer
    # matrices, as tuples of int tuples; the input is left as it was
    rng = random.Random(53)
    matrices = list(kernel_inputs[0])
    for k in range(120):
        n = k % 7 + 1
        low = -9 if k % 2 else 0
        matrices.append(tuple(tuple(rng.randint(low, 9) for _ in range(n))
                              for _ in range(n)))
    matrices.append([[True, 2], [3, 4]])
    for m in matrices:
        before = [list(row) for row in m]
        cp, terms = faddeev_leverrier(m)
        assert (cp, terms) == _faddeev_leverrier_reference(m)
        assert all(type(x) is int for b in terms for row in b for x in row)
        assert all(type(b) is tuple and all(type(row) is tuple for row in b)
                   for b in terms)
        assert [list(row) for row in m] == before
    with pytest.raises(ValueError, match="not square"):
        faddeev_leverrier(((1, 2), (3,)))


# ---------------------------------------------------------------------------
# the kernel's earlier routines, kept as references: the degree sieve's
# distinct-degree factorization with quotients and a fresh reduction mod p
# at every step, and root isolation by bisection in Fractions

def _sub_reference(a, b):
    n = max(len(a), len(b))
    return _trim(tuple((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                       for i in range(n)))


def _divmod_p_reference(a, b, p):
    """Quotient and remainder of integer polynomials over GF(p), with b
    trimmed mod p and nonzero; both results reduced and trimmed."""
    r = [x % p for x in a]
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for k in range(len(r) - 1 - db, -1, -1):
        f = r[k + db] * inv % p
        if f:
            q[k] = f
            for i, bi in enumerate(b):
                r[i + k] = (r[i + k] - f * bi) % p
    return _trim(q), _trim(r[:db])


def _monic_gcd_p_reference(a, b, p):
    """Monic gcd over GF(p) of a nonzero a and any b (trimmed mod p)."""
    while b:
        a, b = b, _divmod_p_reference(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return tuple(x * inv % p for x in a)


def _ddf_degrees_reference(f, p):
    """Distinct-degree factorization over GF(p): h = x^(p^i) mod g by
    square-and-multiply, each factor found divided out of g."""
    g = _trim(x % p for x in f)
    if len(g) != len(f):
        return None
    if len(_monic_gcd_p_reference(g, _trim(x % p for x in _deriv(g)), p)) > 1:
        return None
    g = _monic_gcd_p_reference(g, (), p)
    x = (0, 1)
    h = x
    degrees = []
    i = 0
    while len(g) - 1 >= 2 * (i + 1):
        i += 1
        acc, base, e = (1,), h, p
        while e:
            if e & 1:
                acc = _divmod_p_reference(_mul(acc, base), g, p)[1]
            base = _divmod_p_reference(_mul(base, base), g, p)[1]
            e >>= 1
        h = acc
        d = _monic_gcd_p_reference(g, _trim(v % p for v in _sub_reference(h, x)), p)
        if len(d) > 1:
            degrees += [i] * ((len(d) - 1) // i)
            g = _divmod_p_reference(g, d, p)[0]
            h = _divmod_p_reference(h, g, p)[1]
    if len(g) > 1:
        degrees.append(len(g) - 1)
    return degrees


def _variations_reference(chain, x):
    signs = [v > 0 for v in (IntPolynomial(c)(x) for c in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _isolate_reference(p):
    """Bisection in Fractions from the Cauchy bound, on the Sturm chain of
    the squarefree part, with a midpoint that is a root moved right by a
    third of a shift that starts at the width and shrinks sixteenfold."""
    sf, chain = squarefree_chain(p)
    if sf.degree <= 0:
        return []
    B = root_bound(sf)
    out = []
    stack = [(-B, B, _variations_reference(chain, -B),
              _variations_reference(chain, B))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        k = vlo - vhi
        if k == 0:
            continue
        if k == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        shift = hi - lo
        while sf(mid) == 0:
            shift /= 16
            mid += shift / 3
        vmid = _variations_reference(chain, mid)
        stack.append((lo, mid, vlo, vmid))
        stack.append((mid, hi, vmid, vhi))
    out.sort()
    return out


def test_ddf_degrees_match_the_reference_on_every_sieve_prime(kernel_inputs):
    # every input, its squarefree part and its factors of degree >= 2, at
    # every prime of the sieve: the same degree list, or None for both
    _matrices, inputs = kernel_inputs
    cases = set()
    for p in inputs:
        cases.add(p.coeffs)
        cases.add(squarefree_chain(p)[0].coeffs)
        cases.update(f.coeffs for f, _m in factor_rational(p) if f.degree >= 2)
    kinds = {"none": 0, "list": 0}
    for c in sorted(cases):
        for q in _SIEVE_PRIMES:
            want = _ddf_degrees_reference(c, q)
            assert _ddf_degrees(c, q) == want, (c, q)
            kinds["none" if want is None else "list"] += 1
    assert kinds["none"] > 1000 and kinds["list"] > 10000, kinds


def test_isolation_matches_fraction_bisection(kernel_inputs):
    _matrices, inputs = kernel_inputs
    shifted = 0
    for p in inputs:
        got = isolate_real_roots(p)
        assert got == _isolate_reference(p), p
        # (-B, B) splits at 0 when it holds two roots or more, and a root
        # there moves the split point
        shifted += p(0) == 0 and len(got) > 1
    assert shifted > 0


# factor_rational on the kernel inputs, their screened products in sorted
# order: a digest of the [(coeffs, multiplicity)] lists, and what the
# factorizations added to FACTOR_COUNTS
KERNEL_FACTORS_SHA256 = ("066b7f4aa0cf12dae104690e4f8b0f8a"
                         "02b5edf8a5ba2c12c7e9a839bd804b8d")
KERNEL_FACTOR_COUNTS = {"sieved": 84, "searched": 94, "degrees": 94}


def test_factor_rational_is_unchanged_on_the_kernel_inputs(kernel_inputs):
    _matrices, inputs = kernel_inputs
    before = dict(polys.FACTOR_COUNTS)
    out = [[(f.coeffs, k) for f, k in factor_rational(p)] for p in inputs]
    moved = {k: polys.FACTOR_COUNTS[k] - before[k] for k in before}
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == KERNEL_FACTORS_SHA256
    assert moved == KERNEL_FACTOR_COUNTS
    # the n = 7 cycle: (t - 1)(t + 1)(t^5 - 3t^4 - 2t^3 + 6t^2 + t - 1)
    assert out[133] == [((-1, 1), 1), ((1, 1), 1), ((-1, 1, 6, -2, -3, 1), 1)]
