import random
from fractions import Fraction

import pytest

from flipiet.errors import (AmbiguousRoot, DivisionByZero, FieldMismatch,
                            NoRoot, ReduciblePolynomial)
from flipiet.numfield import (cross_embedding_dot_is_zero, nf_arith,
                              nf_compare, nf_decimal, nf_field_make, nf_root)
from flipiet.polys import IntPolynomial

QUARTIC = IntPolynomial((1, -8, 18, -10, 1))


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
    assert g.as_fraction() == 3


def test_rational_elements_hash_like_fractions(field, th1):
    three = field.rational(3, th1.embedding)
    assert three == 3 and len({three, 3}) == 1
    q = Fraction(-7, 4)
    assert hash(field.rational(q, th1.embedding)) == hash(q)


def test_root_brackets(field, th1, th2):
    assert nf_decimal(th1, 3) == "7.829"
    assert nf_decimal(th2, 3) == "1.588"
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
    assert nf_arith(th1, th1.field.rational(0, th1.embedding), "add") == th1


def test_power_reduction(th1):
    t4 = th1 ** 4
    assert t4.coords == (Fraction(-1), Fraction(8), Fraction(-18), Fraction(10))
    m_at_root = th1 ** 4 - 10 * th1 ** 3 + 18 * th1 ** 2 - 8 * th1 + 1
    assert m_at_root.is_zero()


def test_compare(th1, th2):
    assert nf_compare(th1, 7) > 0
    assert nf_compare(th1, th1) == 0
    assert nf_compare(th2, 1) > 0 and nf_compare(th2, 2) < 0
    assert float(th2) < float(th1)


def test_compare_requires_shared_embedding(th1, th2):
    with pytest.raises(FieldMismatch):
        nf_compare(th2, th1)


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
    assert nf_decimal(field.rational(Fraction(1, 2), th1.embedding), 3) == "0.500"
    assert nf_decimal(field.rational(Fraction(-1, 8), th1.embedding), 2) == "-0.12"
    # 50-digit reference value computed independently with sympy RootOf
    assert nf_decimal(th1, 50) == ("7.82939515292075092992049102724063366509"
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
    before = nf_compare(a, b)
    th1.embedding.refine(Fraction(1, 10 ** 30))
    assert nf_compare(a, b) == before


def test_cross_embedding_orthogonality_tool(field, th1, th2):
    # sanity on a contrived pair: v = (1, -1) against (1, 1) summed over the
    # same field collapses to zero only when the mixed identity holds
    one1 = field.rational(1, th1.embedding)
    one2 = field.rational(1, th2.embedding)
    assert cross_embedding_dot_is_zero((one1, -one1), (one2, one2))
    assert not cross_embedding_dot_is_zero((one1, one1), (one2, one2))