"""Exact spectral analysis of nonnegative integer matrices: characteristic
polynomials, factorization, certified real-root isolation, Perron data, and
the dominant-plus-conjugate eigenvalue screen used by the cycle search.

The screen accepts a matrix when (i) it is quasi-positive, and (ii) some real
eigenvalue t2 with 1 < t2 < t1 is a root of the same irreducible rational
factor as the Perron root t1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import NotAnEigenvalue, NotQuasiPositive
from .numfield import AlgebraicNumber, NumberField, RootEmbedding
from .polys import (IntPolynomial, char_poly, count_roots, factor_rational,
                    isolate_real_roots, mat_transpose, quasi_positive,
                    root_bound, sturm_chain)

__all__ = [
    "SpectralData", "BhmVerdict", "char_poly", "factor_rational",
    "isolate_real_roots", "perron_data", "shared_perron_data", "eigen_left",
    "bhm_screen", "real_eigenvalues", "solve_eigenvector",
]


@dataclass
class SpectralData:
    char_poly: IntPolynomial
    factors: tuple                   # ((IntPolynomial, multiplicity), ...)
    real_roots: tuple                # ((AlgebraicNumber, factor_index), ...) ascending
    perron: tuple                    # (theta1, right probability eigenvector)


SCREEN_REASONS = ("qualifies", "not_quasi_positive", "no_real_theta2_gt1",
                  "not_conjugate")


@dataclass
class BhmVerdict:
    qualifies: bool
    theta1: Optional[AlgebraicNumber]
    theta2: Optional[AlgebraicNumber]
    reason: str                      # one of SCREEN_REASONS


def real_eigenvalues(m):
    """All real eigenvalues as exact algebraic numbers, ascending, each tagged
    with the index of its irreducible factor."""
    cp = char_poly(m)
    factors = factor_rational(cp)
    found = []
    for ix, (f, _mult) in enumerate(factors):
        fld = NumberField(f, _trusted=True)
        for lo, hi in isolate_real_roots(f):
            root = fld.generator(RootEmbedding(f, lo, hi)) if f.degree > 1 \
                else fld.rational(-Fraction(f.coeffs[0], f.coeffs[1]),
                                  RootEmbedding(f, Fraction(-f.coeffs[0], f.coeffs[1]),
                                                Fraction(-f.coeffs[0], f.coeffs[1])))
            found.append((root, ix))
    # disentangle isolating intervals across factors so interval order is total
    changed = True
    while changed:
        changed = False
        for a in range(len(found)):
            for b in range(a + 1, len(found)):
                ea, eb = found[a][0].embedding, found[b][0].embedding
                if ea.is_point() and eb.is_point():
                    continue
                if not (ea.hi <= eb.lo or eb.hi <= ea.lo):
                    ea.refine(ea.width() / 8)
                    eb.refine(eb.width() / 8)
                    changed = True
    found.sort(key=lambda t: t[0].embedding.lo)
    return cp, factors, tuple(found)


def solve_eigenvector(m, theta: AlgebraicNumber, left=False):
    """Exact kernel vector of (m - theta I), or of the transpose when left.

    Raises NotAnEigenvalue when the kernel is trivial.  The kernel is assumed
    one-dimensional (true for roots of the characteristic polynomial that are
    simple, in particular for Perron roots of quasi-positive matrices).
    """
    n = len(m)
    mm = mat_transpose(m) if left else m
    emb = theta.embedding
    fld = theta.field
    one = fld.rational(1, emb)
    rows = [[fld.rational(mm[i][j], emb) - (theta if i == j else 0)
             for j in range(n)] for i in range(n)]
    # Gaussian elimination over the field
    pivots = []
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, n):
            if not rows[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        raise NotAnEigenvalue("kernel of (M - theta I) is trivial")
    fc = free[0]
    vec = [fld.rational(0, emb) for _ in range(n)]
    vec[fc] = one
    for rr, col in enumerate(pivots):
        vec[col] = -rows[rr][fc]
    # verify exactly
    for i in range(n):
        acc = fld.rational(0, emb)
        for j in range(n):
            acc = acc + vec[j] * mm[i][j]
        if acc != theta * vec[i]:
            raise NotAnEigenvalue("verification of the eigen identity failed")
    return tuple(vec)


def perron_data(m) -> SpectralData:
    """Dominant eigenvalue and its exact probability right eigenvector.

    Requires quasi-positivity, checked by boolean powering up to the
    primitivity bound.  The eigenvector is solved exactly over Q(theta1),
    normalized to sum 1, verified entrywise positive.
    """
    if not quasi_positive(m):
        raise NotQuasiPositive("no power of the matrix is positive")
    cp, factors, roots = real_eigenvalues(m)
    theta1, _ix = roots[-1]
    vec = solve_eigenvector(m, theta1, left=False)
    total = vec[0]
    for v in vec[1:]:
        total = total + v
    alpha = tuple(v / total for v in vec)
    for v in alpha:
        assert v.sign() > 0, "Perron eigenvector must be positive"
    s = alpha[0]
    for v in alpha[1:]:
        s = s + v
    assert s == 1
    return SpectralData(char_poly=cp, factors=factors, real_roots=roots,
                        perron=(theta1, alpha))


@lru_cache(maxsize=4)
def shared_perron_data(m) -> SpectralData:
    """perron_data(m) for a matrix given as a tuple of row tuples, kept for the
    four most recent matrices, so that the stages of one run share one
    computation and one set of embeddings (the bundled exchange's lengths
    and the Perron data of its blow-up chain, for instance).  Callers share
    the result: its embeddings only ever narrow in place."""
    return perron_data(m)


def eigen_left(m, theta: AlgebraicNumber):
    """Exact left eigenvector w with w^T M = theta w^T, scaled so that
    max |w_i| = 1 in the designated embedding."""
    vec = solve_eigenvector(m, theta, left=True)
    best = vec[0]
    best_abs = abs(vec[0])
    for v in vec[1:]:
        av = abs(v)
        if av > best_abs:
            best, best_abs = v, av
    return tuple(v / best_abs for v in vec)


def _count_real_roots_above_one(cp: IntPolynomial) -> int:
    chain = sturm_chain(cp)
    b = root_bound(cp)
    return count_roots(chain, Fraction(1), b)


def bhm_screen(m) -> BhmVerdict:
    """Screen for the wandering-interval hypotheses.

    not_quasi_positive when no power is positive; no_real_theta2_gt1 when the
    dominant root is the only real eigenvalue above 1; not_conjugate when the
    candidates in (1, theta1) all live in other irreducible factors.
    Otherwise qualifies, with theta2 the largest conjugate candidate.
    """
    if not quasi_positive(m):
        return BhmVerdict(False, None, None, "not_quasi_positive")
    cp = char_poly(m)
    if _count_real_roots_above_one(cp) < 2:
        # at most the Perron root exceeds 1; skip factorization entirely
        return BhmVerdict(False, None, None, "no_real_theta2_gt1")
    _cp, _factors, roots = real_eigenvalues(m)
    theta1, ix1 = roots[-1]
    candidates = [(r, ix) for (r, ix) in roots[:-1] if r > 1]
    if not candidates:
        return BhmVerdict(False, theta1, None, "no_real_theta2_gt1")
    conj = [r for (r, ix) in candidates if ix == ix1]
    if not conj:
        return BhmVerdict(False, theta1, None, "not_conjugate")
    return BhmVerdict(True, theta1, conj[-1], "qualifies")
