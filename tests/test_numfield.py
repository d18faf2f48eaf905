import math
import random
from fractions import Fraction

import pytest
import sympy

from flipiet import numfield
from flipiet.errors import (AmbiguousRoot, DivisionByZero, FieldMismatch,
                            NoRoot, ReduciblePolynomial)
from flipiet.numfield import (NumberField, RootEmbedding, _interval_eval,
                              cross_embedding_dot_is_zero, exact_sign,
                              filtered_sign, float_enclosure, nf_field_make,
                              nf_root)
from flipiet.numfield import AlgebraicNumber
from flipiet.polys import (IntPolynomial, _numerators, _rem_monic,
                           factor_rational, faddeev_leverrier, is_irreducible,
                           isolate_real_roots)
from flipiet.quintic import MATRIX
from flipiet.spectral import perron_data, real_eigenvalues, solve_eigenvector

QUARTIC = IntPolynomial((1, -8, 18, -10, 1))


def as_fraction(x):
    """The value of a rational field element."""
    assert x.is_rational()
    return Fraction(x.nums[0], x.den)


@pytest.fixture(scope="module")
def field():
    return nf_field_make(QUARTIC)


@pytest.fixture(scope="module")
def th1(field):
    return nf_root(field, (7, 8))


@pytest.fixture(scope="module")
def th2(field):
    return nf_root(field, (Fraction(3, 2), Fraction(17, 10)))


def test_field_make_degree(field):
    assert field.degree == 4


def test_field_make_rejects_reducible():
    with pytest.raises(ReduciblePolynomial):
        nf_field_make(IntPolynomial((-1, 0, 1)))


def test_degree_one_field():
    f = nf_field_make(IntPolynomial((-3, 1)))
    assert f.degree == 1
    g = nf_root(f, (2, 4))
    assert as_fraction(g) == 3


def test_rational_elements_hash_like_fractions(field, th1):
    three = field.rational(3, th1.embedding)
    assert three == 3 and len({three, 3}) == 1
    q = Fraction(-7, 4)
    assert hash(field.rational(q, th1.embedding)) == hash(q)


def test_root_brackets(field, th1, th2):
    assert th1.decimal(3) == "7.829"
    assert th2.decimal(3) == "1.588"
    with pytest.raises(NoRoot):
        nf_root(field, (100, 101))
    with pytest.raises(AmbiguousRoot):
        nf_root(field, (0, 10))


def test_isolating_interval_is_tight(th1):
    assert Fraction(78, 10) < th1.embedding.lo or th1.embedding.lo < Fraction(79, 10)
    assert th1.embedding.lo >= 7 and th1.embedding.hi <= 8


def test_arith_inverse(th1):
    one = th1 * th1.inverse()
    assert one.coords[0] == 1 and all(c == 0 for c in one.coords[1:])
    assert th1 + th1.field.rational(0, th1.embedding) == th1


def _inverse_reference(x):
    """1/x by the Faddeev-LeVerrier loop on the matrix A of multiplication
    by x's numerators: A B_(d-1) = -c_0 I, so 1/x is -den B_(d-1) e_0 / c_0."""
    d, m = x.field.degree, x.field.minpoly.coeffs
    cols = [_rem_monic((0,) * j + x.nums, m) for j in range(d)]
    cp, terms = faddeev_leverrier(tuple(zip(*cols)))
    c0 = cp.coeffs[0]
    s = -1 if c0 > 0 else 1
    return AlgebraicNumber(x.field, tuple(s * x.den * row[0] for row in terms[-1]),
                           abs(c0), x.embedding)


def test_inverse_matches_the_faddeev_leverrier_reference(kernel_inputs):
    # the fields of the kernel inputs' monic irreducible factors: in each,
    # the generator and seeded elements, a third of them with a zero
    # constant numerator, which is the elimination's first pivot
    _matrices, polys = kernel_inputs
    fields = {g.coeffs: NumberField(g, _trusted=True)
              for p in polys for g, _mult in factor_rational(p)
              if g.coeffs[-1] == 1}
    assert len(fields) > 100 and {f.degree for f in fields.values()} >= {1, 5}
    rng = random.Random(34)
    pivot_zero = 0
    for f in fields.values():
        # one embedding object for the field's elements: the inverse and
        # the product read only that it is shared, not its interval
        emb = RootEmbedding(f.minpoly, 0, 1)
        elements = [f.generator(emb)]
        for k in range(6):
            nums = [rng.choice((0, rng.randint(-30, 30)))
                    for _ in range(f.degree)]
            nums[0] = 0 if k % 3 == 0 else rng.randint(1, 30)
            elements.append(AlgebraicNumber(f, tuple(nums),
                                            rng.randint(1, 12), emb))
        for x in (x for x in elements if not x.is_zero()):  # t's root 0
            inv = x.inverse()
            want = _inverse_reference(x)
            assert (inv.nums, inv.den) == (want.nums, want.den)
            assert (x * inv).nums == (1,) + (0,) * (f.degree - 1)
            pivot_zero += f.degree > 1 and x.nums[0] == 0
        with pytest.raises(DivisionByZero):
            f.rational(0, emb).inverse()
    assert pivot_zero > 200


def test_same_root_reads_a_point_interval_as_closed():
    # the root of t + 1 built twice on [-1, -1] is one root: the generators
    # are equal and add; two proper isolating intervals that only share an
    # end hold different roots
    f = nf_field_make(IntPolynomial((1, 1)))
    point = RootEmbedding(f.minpoly, -1, -1)
    a = f.generator(point)
    b = f.generator(RootEmbedding(f.minpoly, -1, -1))
    assert point.same_root(b.embedding) and a == b
    assert (a + b).nums == (-2,)
    assert point.same_root(RootEmbedding(f.minpoly, -2, 0))
    assert not point.same_root(RootEmbedding(f.minpoly, 0, 1))
    q = IntPolynomial((-2, 0, 1))
    assert not RootEmbedding(q, -2, 0).same_root(RootEmbedding(q, 0, 2))
    assert RootEmbedding(q, 1, 2).same_root(RootEmbedding(q, Fraction(5, 4), 3))


def test_power_reduction(th1):
    t4 = th1 ** 4
    assert t4.coords == (Fraction(-1), Fraction(8), Fraction(-18), Fraction(10))
    m_at_root = th1 ** 4 - 10 * th1 ** 3 + 18 * th1 ** 2 - 8 * th1 + 1
    assert m_at_root.is_zero()


def test_compare(th1, th2):
    assert th1.compare(7) > 0
    assert th1.compare(th1) == 0
    assert th2.compare(1) > 0 and th2.compare(2) < 0
    assert float(th2) < float(th1)


def test_compare_requires_shared_embedding(th1, th2):
    with pytest.raises(FieldMismatch):
        th2.compare(th1)


def test_division(th1):
    with pytest.raises(DivisionByZero):
        th1 / th1.field.rational(0, th1.embedding)
    q = (th1 * th1) / th1
    assert q == th1


def test_field_mismatch(th1):
    other = nf_field_make(IntPolynomial((-2, 0, 1)))
    r2 = nf_root(other, (1, 2))
    with pytest.raises(FieldMismatch):
        _ = th1 + r2


def test_decimal_rendering(field, th1):
    assert field.rational(Fraction(1, 2), th1.embedding).decimal(3) == "0.500"
    assert field.rational(Fraction(-1, 8), th1.embedding).decimal(2) == "-0.12"
    # 50-digit reference value computed independently with sympy RootOf
    assert th1.decimal(50) == ("7.82939515292075092992049102724063366509"
                                   "511384751904")


def test_decimal_consistency_with_compare(field, th1):
    # decimals at increasing precision never contradict the exact order
    vals = [th1, th1 * th1, field.rational(Fraction(61, 10), th1.embedding)]
    for digits in (3, 8, 15):
        decs = [Fraction(v.decimal(digits)) for v in vals]
        for a, da in zip(vals, decs):
            for b, db in zip(vals, decs):
                if da < db:
                    assert a < b
                if da > db:
                    assert b < a


def test_field_axioms_randomized(field, th1):
    rng = random.Random(3)

    def rand_elem():
        return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                              for _ in range(4)], th1.embedding)

    for _ in range(1000):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert ((a + b) + c).coords == (a + (b + c)).coords
        assert (a * (b + c)).coords == (a * b + a * c).coords
        assert (a * b).coords == (b * a).coords
    for _ in range(50):
        a = rand_elem()
        if not a.is_zero():
            assert (a * a.inverse()).coords == field.rational(1, th1.embedding).coords


def test_quartic_root_sum_and_product(field):
    # the four real roots sum to 10 and multiply to 1 (coefficients), checked
    # through the isolated roots to 10 decimals
    brackets = [(Fraction(1, 10), Fraction(3, 10)),
                (Fraction(3, 10), Fraction(1, 2)),
                (Fraction(3, 2), Fraction(17, 10)), (7, 8)]
    roots = [nf_root(field, b) for b in brackets]
    total = 0.0
    prod = 1.0
    for r in roots:
        r.embedding.refine(Fraction(1, 10 ** 12))
        total += float(r)
        prod *= float(r)
    assert abs(total - 10) < 1e-10
    assert abs(prod - 1) < 1e-10


def test_refinement_never_changes_comparisons(field, th1):
    a = th1 * th1 - 7 * th1
    b = th1 + field.rational(Fraction(-1, 2), th1.embedding)
    before = a.compare(b)
    th1.embedding.refine(Fraction(1, 10 ** 30))
    assert a.compare(b) == before


def test_cross_embedding_orthogonality_tool(field, th1, th2):
    # sanity on a contrived pair: v = (1, -1) against (1, 1) summed over the
    # same field collapses to zero only when the mixed identity holds
    one1 = field.rational(1, th1.embedding)
    one2 = field.rational(1, th2.embedding)
    assert cross_embedding_dot_is_zero((one1, -one1), (one2, one2))
    assert not cross_embedding_dot_is_zero((one1, one1), (one2, one2))

def _random_real_roots(rng, count):
    """Generators of random irreducible quartic or quintic fields, each at a
    real root, plus the bundled quartic at theta1 and theta2."""
    field = nf_field_make(QUARTIC)
    roots = [nf_root(field, (7, 8)),
             nf_root(field, (Fraction(3, 2), Fraction(17, 10)))]
    while len(roots) < count:
        deg = rng.choice((4, 5))
        poly = IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(deg))
                             + (1,))
        if not is_irreducible(poly):
            continue
        brackets = isolate_real_roots(poly)
        if not brackets:
            continue
        lo, hi = rng.choice(brackets)
        roots.append(NumberField(poly, _trusted=True).generator(
            RootEmbedding(poly, lo, hi)))
    return roots


def _reference_product(a, b, m):
    """Reference: the product of two Fraction coordinate vectors, reduced
    modulo the monic minimal polynomial m, in Fraction arithmetic."""
    d = len(m) - 1
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, d - 1, -1):
        q = prod[k]
        for i in range(d + 1):
            prod[k - d + i] -= q * m[i]
    return tuple(prod[:d])


def test_arithmetic_matches_fraction_reference():
    # +, -, *, inverse and / on integer numerators over one denominator,
    # against Fraction coordinates, on the fields of the filter test and a
    # degree-1 field; every result in lowest terms with a positive
    # denominator, which is what makes == and hash agree with the value
    rng = random.Random(1207)
    roots = _random_real_roots(rng, 8)
    roots.append(nf_root(nf_field_make(IntPolynomial((-3, 1))), (2, 4)))
    checked = set()
    for th in roots:
        fld, emb = th.field, th.embedding
        m = fld.minpoly.coeffs
        one = (Fraction(1),) + (Fraction(0),) * (fld.degree - 1)

        def rand_elem():
            return fld.element([Fraction(rng.randint(-99, 99) * rng.randint(0, 1),
                                        rng.choice((1, 2, 3, 8, 30, 97)))
                                for _ in range(fld.degree)], emb)

        for _ in range(30):
            a, b = rand_elem(), rand_elem()
            ca, cb = a.coords, b.coords
            results = [(a + b, tuple(x + y for x, y in zip(ca, cb))),
                       (a - b, tuple(x - y for x, y in zip(ca, cb))),
                       (a * b, _reference_product(ca, cb, m))]
            if not b.is_zero():
                inv = b.inverse()
                assert _reference_product(inv.coords, cb, m) == one
                quo = a / b
                assert _reference_product(quo.coords, cb, m) == ca
                results.append((inv, inv.coords))
                results.append((quo, quo.coords))
                checked.add(fld.degree)
            for got, want in results + [(a, ca), (b, cb)]:
                assert got.coords == want
                assert got.den > 0 and math.gcd(got.den, *got.nums) == 1
            # the same value reached another way is equal and hashes alike
            again = (a + b) - b
            assert again == a and hash(again) == hash(a)
    assert checked == {1, 4, 5}


def _within(value, x, e):
    """Exact test of |value - x| <= e."""
    return (exact_sign(value - (Fraction(x) + Fraction(e))) <= 0
            and exact_sign(value - (Fraction(x) - Fraction(e))) >= 0)


def test_filtered_sign_matches_exact_sign():
    # oracle: the exact interval refinement, on seeded random elements of the
    # bundled quartic field and of random quartic and quintic fields
    rng = random.Random(20240)
    decided = 0
    for th in _random_real_roots(rng, 8):
        fld, emb = th.field, th.embedding
        shadows, errors = emb.shadow()
        for i, (b, e) in enumerate(zip(shadows, errors)):
            assert _within(th ** i, b, e)
        for _ in range(40):
            x = fld.element([Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                             for _ in range(fld.degree)], emb)
            got = filtered_sign(x.coords, *emb.shadow())
            want = exact_sign(x)
            assert got in (0, want)
            decided += got != 0
            assert x.sign() == want
            # x - q with a rational q within 1e-17 of x: the float value is
            # below the rounding bound, so only the exact fallback may decide
            emb.refine(Fraction(1, 10 ** 40))
            lo, _hi = emb.lo, emb.hi
            v = x.coords[0] + sum(c * lo ** k for k, c in
                                  enumerate(x.coords) if k)
            q = Fraction(round(v * 10 ** 20), 10 ** 20)
            near = x - q
            assert _within(near, 0.0, 1e-17)
            assert filtered_sign(near.coords, *emb.shadow()) == 0
            assert near.sign() == exact_sign(near) != 0
            # exact zeros: never decided by the filter
            zero = x - x
            assert filtered_sign(zero.coords, *emb.shadow()) == 0
            assert zero.sign() == 0
    assert decided >= 0.95 * 8 * 40


def test_filtered_sign_on_dependent_bases_and_enclosures():
    # a basis of certified enclosures of exact values, some of them
    # rationally dependent, so integer combinations can vanish exactly
    rng = random.Random(77)
    field = nf_field_make(QUARTIC)
    th = nf_root(field, (7, 8))
    a, b = th / 10, th * th / 100 - 1
    basis = (a, b, a + b, Fraction(1, 3), Fraction(2, 3), 1 - a)
    encl = [float_enclosure(v) for v in basis]
    for v, (x, e) in zip(basis, encl):
        assert _within(v, x, e)
    shadows, errors = zip(*encl)
    for _ in range(400):
        k = [rng.randint(-3, 3) for _ in basis]
        value = sum((ki * v for ki, v in zip(k, basis)), Fraction(0))
        got = filtered_sign(k, shadows, errors)
        want = exact_sign(value)
        assert got in (0, want)
    # exact zeros with nonzero coefficients: a + b - (a + b), 1/3 + 1/3 - 2/3,
    # a + (1 - a) - 3 * (1/3)
    for k in ((1, 1, -1, 0, 0, 0), (0, 0, 0, 2, -1, 0), (1, 0, 0, -3, 0, 1)):
        assert exact_sign(sum((ki * v for ki, v in zip(k, basis)),
                              Fraction(0))) == 0
        assert filtered_sign(k, shadows, errors) == 0
    # a coefficient outside the normal float range goes to the exact path
    assert filtered_sign((Fraction(1, 10 ** 400), 0, 0, 0, 0, 0),
                         shadows, errors) == 0
    assert filtered_sign((10 ** 400, 0, 0, 0, 0, 0), shadows, errors) == 0


def _interval_eval_fraction(coords, lo, hi):
    """Reference: interval Horner evaluation of a coordinate vector at
    [lo, hi] in Fraction arithmetic."""
    vlo = vhi = Fraction(coords[-1])
    for c in reversed(coords[:-1]):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


def test_integer_interval_eval_matches_fraction_reference():
    # coordinates with zero and negative entries and mixed denominators, on
    # intervals left of, right of and straddling 0, and on point intervals
    rng = random.Random(41)
    kinds = set()
    for _ in range(600):
        coords = tuple(Fraction(rng.randint(-30, 30) * rng.randint(0, 1),
                                rng.choice((1, 2, 3, 7, 12, 1024)))
                       for _ in range(rng.randint(1, 6)))
        ends = sorted(Fraction(rng.randint(-200, 200), rng.choice((1, 5, 64, 999)))
                      for _ in range(2))
        if rng.random() < 0.2:
            ends[1] = ends[0]
        lo, hi = ends
        kinds.add("point" if lo == hi else "straddle" if lo < 0 < hi else "one side")
        nums, den0 = _numerators(coords)
        assert all(n == c * den0 for n, c in zip(nums, coords))
        den = lo.denominator * hi.denominator
        a, b = lo * den, hi * den
        vlo, vhi, s = _interval_eval(nums, int(a), int(b), den)
        assert (Fraction(vlo, den0 * s), Fraction(vhi, den0 * s)) \
            == _interval_eval_fraction(coords, lo, hi)
    assert kinds == {"point", "straddle", "one side"}


def _rounded(value, digits):
    """Reference decimal: value, a sympy Float far more precise than digits,
    rounded to digits places with ties toward +infinity."""
    n = int(sympy.floor(value * 10 ** digits + sympy.Rational(1, 2)))
    return Fraction(n, 10 ** digits)


def test_decimal_matches_sympy_on_the_bundled_matrix():
    # theta1, theta2 and the Perron vector of quintic.MATRIX at 1, 12 and 50
    # digits, against sympy's root of the characteristic polynomial and the
    # adjugate column of (t I - M) evaluated there, both at 80 digits
    sd = perron_data(MATRIX)
    roots = [r for r, _ in sd.real_roots]
    t = sympy.symbols("t")
    m = sympy.Matrix([list(row) for row in MATRIX])
    real = sympy.Poly(m.charpoly(t).as_expr(), t).real_roots()
    theta1, theta2 = real[-1], real[-2]
    col = (t * sympy.eye(5) - m).adjugate()[:, 0]
    vec = [sympy.N(e.subs(t, theta1), 80) for e in col]
    want = [sympy.N(theta1, 80), sympy.N(theta2, 80)] + [v / sum(vec) for v in vec]
    mine = [roots[-1], roots[-2]] + list(sd.perron[1])
    for digits in (1, 12, 50):
        for a, v in zip(mine, want):
            got = a.decimal(digits)
            assert len(got.split(".")[1]) == digits
            assert Fraction(got) == _rounded(v, digits)


def test_decimal_refinements_are_counted(fresh_memos):
    # perron_data on fresh embeddings, then the decimals of the spectral
    # report: every sign is the filter's, on shadows narrowed to about float
    # precision, and three decimals narrow once more
    before = dict(numfield.FILTER_COUNTS)
    sd = perron_data(MATRIX)
    for v in [r for r, _ in sd.real_roots] + list(sd.perron[1]):
        v.decimal(12)
    counts = {k: v - before[k] for k, v in numfield.FILTER_COUNTS.items()}
    assert counts == {"filtered": 5, "exact": 0, "refined": 0, "decimal": 3}


def test_decimal_narrows_once_to_the_width_it_needs(monkeypatch):
    # decimal asks for the width its digits need, not a few bits per round:
    # a Perron eigenvector entry or a root on its fresh isolating interval,
    # before any sign has narrowed it, narrows at most twice
    calls = []
    real = numfield.refine_root_interval

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(numfield, "refine_root_interval", counted)
    for digits in (12, 50):
        roots = [r for r, _ in real_eigenvalues(MATRIX)[2]]
        for value in [roots[-1], roots[-2]] + list(solve_eigenvector(MATRIX, roots[-1])):
            calls.clear()
            value.decimal(digits)
            assert len(calls) <= 2


@pytest.mark.parametrize("coeffs", [QUARTIC.coeffs, (1, -10, 18, -8, 1),
                                    (-1, 3, 0, 1)])
def test_shadow_narrowing_is_a_fixed_point(coeffs):
    # every isolating interval, among them [19/4, 19/2] for theta1, one
    # with 0 as an end and one that straddles 0: an embedding started from
    # a shadowed one's interval narrows no further
    poly = IntPolynomial(coeffs)
    for lo, hi in isolate_real_roots(poly):
        e = RootEmbedding(poly, lo, hi)
        e.shadow()
        again = RootEmbedding(poly, e.lo, e.hi)
        again.shadow()
        assert again.interval == e.interval
