"""Exact spectral analysis of nonnegative integer matrices: characteristic
polynomials, factorization, certified real-root isolation, Perron data, and
the dominant-plus-conjugate eigenvalue screen used by the cycle search.

The screen accepts a matrix when (i) it is quasi-positive, and (ii) some real
eigenvalue t2 with 1 < t2 < t1 is a root of the same irreducible rational
factor as the Perron root t1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import NotAnEigenvalue, NotQuasiPositive
from .numfield import AlgebraicNumber, NumberField, RootEmbedding, _interval_eval
from .polys import (IntPolynomial, _mul, _rem_monic, _sign_at, char_poly,
                    count_roots, factor_rational, faddeev_leverrier,
                    isolate_real_roots, mat_transpose, quasi_positive,
                    root_bound, squarefree_chain)

__all__ = [
    "SpectralData", "BhmVerdict", "char_poly", "factor_rational",
    "isolate_real_roots", "perron_data", "eigen_left",
    "bhm_screen", "screen_real_roots", "real_eigenvalues", "solve_eigenvector",
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


@lru_cache(maxsize=4)
def _faddeev_leverrier(rows):
    return faddeev_leverrier(rows)


def _shared_loop(m):
    """faddeev_leverrier(m), kept for the four most recent matrices, keyed on
    the rows as tuples so that a list of lists serves too: the screen, the
    Perron data and the left eigenvector of one matrix read one loop."""
    return _faddeev_leverrier(tuple(map(tuple, m)))


class _Spectrum:
    """What a characteristic polynomial decides for every matrix that has
    it, each part worked out when first asked for and then kept: the
    factors and real roots (roots) and the screen's verdict on a
    quasi-positive matrix (verdict).  Roots of equal polynomials are the
    same algebraic numbers, so every matrix with the polynomial shares one
    set of embeddings exactly."""

    __slots__ = ("cp", "_roots", "_verdict")

    def __init__(self, cp: IntPolynomial):
        self.cp = cp
        self._roots = self._verdict = None

    def roots(self):
        """(factors, real roots) as real_eigenvalues returns them.

        One Sturm isolation of the characteristic polynomial gives disjoint
        intervals in ascending order whose ends are roots of no factor.  The
        factors are coprime, so each interval isolates a root of exactly one
        of them: the one whose sign differs at its two ends.  The
        factorization and the isolation read one remainder sequence of the
        polynomial (polys.squarefree_chain)."""
        if self._roots is None:
            factors = factor_rational(self.cp)
            fields = [NumberField(f, _trusted=True) for f, _mult in factors]
            found = []
            for lo, hi in isolate_real_roots(self.cp):
                ix = next(i for i, (f, _mult) in enumerate(factors)
                          if _sign_at(f.coeffs, lo.numerator, lo.denominator)
                          != _sign_at(f.coeffs, hi.numerator, hi.denominator))
                f = factors[ix][0]
                if f.degree == 1:   # monic, as a factor of cp: an integer root
                    lo = hi = -f.coeffs[0]
                found.append((fields[ix].generator(RootEmbedding(f, lo, hi)), ix))
            self._roots = (factors, tuple(found))
        return self._roots

    def verdict(self) -> BhmVerdict:
        """The screen's verdict on any quasi-positive matrix with this
        characteristic polynomial.  A Sturm count of the distinct real roots
        in (1, B), on the remainder sequence that the factorization and the
        isolation then reuse, rejects a polynomial with at most one root
        above 1 before any factoring; the rest is screen_real_roots."""
        if self._verdict is None:
            if count_roots(squarefree_chain(self.cp)[1], 1, root_bound(self.cp)) < 2:
                self._verdict = BhmVerdict(False, None, None, "no_real_theta2_gt1")
            else:
                self._verdict = screen_real_roots(self.roots()[1])
        return self._verdict


@lru_cache(maxsize=256)
def _spectrum(cp):
    """The _Spectrum of a characteristic polynomial, kept for the 256 most
    recent ones: a census screens every product of the same polynomial on
    one entry (40 polynomials at --n 5 --max-len 14, 202 at --n 6
    --max-len 16)."""
    return _Spectrum(cp)


def real_eigenvalues(m):
    """(cp, factors, real roots): the characteristic polynomial, its
    irreducible factors, and all real eigenvalues as exact algebraic
    numbers, ascending, each tagged with the index of its factor; read off
    the polynomial's entry of the spectrum memo (_Spectrum.roots)."""
    cp = _shared_loop(m)[0]
    return (cp, *_spectrum(cp).roots())


def solve_eigenvector(m, theta: AlgebraicNumber, left=False):
    """Exact kernel vector of (m - theta I), or of the transpose when left,
    unscaled: the callers scale it once (perron_data, eigen_left).

    It is read off the adjugate adj(theta I - M) = sum_k theta^(n-1-k) B_k of
    the Faddeev-LeVerrier loop (polys.faddeev_leverrier, the run that
    real_eigenvalues reads).  When the kernel is one-dimensional
    (true for simple roots of the characteristic polynomial, in particular
    for Perron roots of quasi-positive matrices) the adjugate has rank one:
    its nonzero columns span the right kernel and its nonzero rows the left
    one.  With theta = g(t)/D for an integer polynomial g, the entries times
    D^(n-1) are integer combinations of g^j mod the minimal polynomial, and
    those integer coordinates are the vector returned.

    Raises NotAnEigenvalue when the adjugate vanishes (a kernel of dimension
    two or more) or when the vector fails the exact eigen identity (theta is
    not an eigenvalue).
    """
    n = len(m)
    mm = mat_transpose(m) if left else m
    _cp, terms = _shared_loop(m)
    fld, emb = theta.field, theta.embedding
    f = fld.minpoly.coeffs
    g, den = theta.nums, theta.den
    # gk[k] = D^k g^(n-1-k) mod f: the coordinates of D^(n-1) theta^(n-1-k)
    gk = [None] * n
    cur = (1,)
    for k in range(n - 1, -1, -1):
        gk[k] = tuple(c * den ** k for c in cur)
        cur = _rem_monic(_mul(cur, g), f)
    d = fld.degree
    vec = None
    for j in range(n):
        col = []
        for i in range(n):
            acc = [0] * d
            for b, p in zip(terms, gk):
                c = b[j][i] if left else b[i][j]
                if c:
                    for t, pt in enumerate(p):
                        acc[t] += c * pt
            col.append(acc)
        if any(any(v) for v in col):
            vec = col
            break
    if vec is None:
        raise NotAnEigenvalue("adjugate of (theta I - M) vanishes: the kernel "
                              "is not one-dimensional")
    # verify exactly, on the integer vector u: D (M u)_i == g u_i mod f
    for i in range(n):
        lhs = [0] * d
        for j in range(n):
            if mm[i][j]:
                for t in range(d):
                    lhs[t] += den * mm[i][j] * vec[j][t]
        if tuple(lhs) != _rem_monic(_mul(g, vec[i]), f):
            raise NotAnEigenvalue("verification of the eigen identity failed")
    return tuple(AlgebraicNumber(fld, tuple(v), 1, emb) for v in vec)


def perron_data(m) -> SpectralData:
    """Dominant eigenvalue and its exact probability right eigenvector.

    Requires quasi-positivity, checked by boolean powering up to the
    primitivity bound.  The eigenvector is solved exactly over Q(theta1) from
    the adjugate (solve_eigenvector), normalized to sum 1 by one inverse of
    its total, and verified entrywise positive.
    """
    if not quasi_positive(m):
        raise NotQuasiPositive("no power of the matrix is positive")
    cp, factors, roots = real_eigenvalues(m)
    theta1, _ix = roots[-1]
    vec = solve_eigenvector(m, theta1)
    total = vec[0]
    for v in vec[1:]:
        total = total + v
    inv = total.inverse()
    alpha = tuple(v * inv for v in vec)
    for v in alpha:
        assert v.sign() > 0, "Perron eigenvector must be positive"
    return SpectralData(char_poly=cp, factors=factors, real_roots=roots,
                        perron=(theta1, alpha))


def eigen_left(m, theta: AlgebraicNumber):
    """Exact left eigenvector w with w^T M = theta w^T (solve_eigenvector on
    the transpose), scaled by one inverse so that max |w_i| = 1 in the
    designated embedding and its last nonzero coordinate is positive."""
    vec = solve_eigenvector(m, theta, left=True)
    scale = max(abs(v) for v in vec)
    last = next(v for v in reversed(vec) if v)
    inv = (scale if last.sign() > 0 else -scale).inverse()
    return tuple(v * inv for v in vec)


def bhm_screen(m, known_quasi_positive=False) -> BhmVerdict:
    """Screen for the wandering-interval hypotheses.

    not_quasi_positive when no power is positive; no_real_theta2_gt1 when the
    dominant root is the only real eigenvalue above 1; not_conjugate when the
    candidates in (1, theta1) all live in other irreducible factors.
    Otherwise qualifies, with theta2 the largest conjugate candidate.  Past
    quasi-positivity the verdict depends on the characteristic polynomial
    alone, so it is the polynomial's entry of the spectrum memo
    (_Spectrum.verdict), shared by every matrix with that polynomial.  A
    caller that has decided quasi-positivity on m's zero pattern already
    (the census walk) passes known_quasi_positive=True.
    """
    if not (known_quasi_positive or quasi_positive(m)):
        return BhmVerdict(False, None, None, "not_quasi_positive")
    return _spectrum(_shared_loop(m)[0]).verdict()


def screen_real_roots(roots) -> BhmVerdict:
    """The screen's verdict on a quasi-positive matrix from its real
    eigenvalues ((AlgebraicNumber, factor index), ... ascending, as
    real_eigenvalues returns them).  Which lie above 1 is read off their
    isolating intervals where it can be (_exceeds_one)."""
    theta1, ix1 = roots[-1]
    candidates = [(r, ix) for (r, ix) in roots[:-1] if _exceeds_one(r)]
    if not candidates:
        return BhmVerdict(False, theta1, None, "no_real_theta2_gt1")
    conj = [r for (r, ix) in candidates if ix == ix1]
    if not conj:
        return BhmVerdict(False, theta1, None, "not_conjugate")
    return BhmVerdict(True, theta1, conj[-1], "qualifies")


def _exceeds_one(r: AlgebraicNumber) -> bool:
    """r > 1, read off the bounds of r's value on its isolating interval
    (numfield._interval_eval) when 1 is not between them; a root of a
    linear factor has a point interval, where the bounds are r itself.
    When 1 lies between the bounds, the exact comparison decides."""
    lo, hi, s = _interval_eval(r.nums, *r.embedding.interval)
    s *= r.den
    if lo > s:
        return True
    if hi <= s:
        return False
    return r > 1
