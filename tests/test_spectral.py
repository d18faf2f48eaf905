import json
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

import flipiet.numfield
import flipiet.search
import flipiet.spectral
from flipiet.cli import main
from flipiet.denjoy import blowup_chain
from flipiet.errors import NotAnEigenvalue, NotQuasiPositive
from flipiet.numfield import (NumberField, RootEmbedding,
                              cross_embedding_dot_is_zero, exact_sign)
from flipiet.polys import (IntPolynomial, char_poly, count_roots,
                           factor_rational, isolate_real_roots, mat_identity,
                           mat_mul, mat_transpose, quasi_positive, sturm_chain)
from flipiet.quintic import (MATRIX, REFERENCE_EIGENVALUES_3DP,
                             REFERENCE_LENGTHS_3DP, bundled_iet)
from flipiet.search import cycle_search
from flipiet.spectral import (bhm_screen, eigen_left, perron_data,
                              real_eigenvalues, screen_real_roots,
                              solve_eigenvector)


def as_fraction(x):
    """The value of a rational field element."""
    assert x.is_rational()
    return Fraction(x.nums[0], x.den)


@pytest.fixture(scope="module")
def sd():
    return perron_data(MATRIX)


def test_char_poly_factors(sd):
    assert sd.char_poly.coeffs == (-1, 9, -26, 28, -11, 1)
    assert [(f.coeffs, m) for f, m in sd.factors] == \
        [((-1, 1), 1), ((1, -8, 18, -10, 1), 1)]


def test_real_roots_renderings(sd):
    decs = [r.decimal(3) for r, _ in sd.real_roots][::-1]
    assert tuple(decs) == REFERENCE_EIGENVALUES_3DP


def test_perron_vector_renderings(sd):
    theta1, alpha = sd.perron
    assert theta1.decimal(3) == "7.829"
    assert tuple(v.decimal(3) for v in alpha) == REFERENCE_LENGTHS_3DP


def test_perron_identity_exact(sd):
    theta1, alpha = sd.perron
    for i in range(5):
        acc = None
        for j in range(5):
            term = alpha[j] * MATRIX[i][j]
            acc = term if acc is None else acc + term
        assert acc == theta1 * alpha[i]
    s = alpha[0]
    for v in alpha[1:]:
        s = s + v
    assert s == 1
    for v in alpha:
        assert v.sign() > 0


def test_roots_sum_matches_trace(sd):
    # five real roots; their floats sum to the trace
    total = sum(float(r) for r, _ in sd.real_roots)
    assert abs(total - 11) < 1e-9


def test_quartic_roots_product_one(sd):
    prod = 1.0
    for r, ix in sd.real_roots:
        if sd.factors[ix][0].degree == 4:
            prod *= float(r)
    assert abs(prod - 1) < 1e-9


def test_perron_trivial_cases():
    sd1 = perron_data(((2,),))
    th, vec = sd1.perron
    assert as_fraction(th) == 2
    assert as_fraction(vec[0]) == 1
    sd2 = perron_data(((1, 1), (1, 1)))
    th2, vec2 = sd2.perron
    assert as_fraction(th2) == 2
    assert [as_fraction(v) for v in vec2] == [Fraction(1, 2), Fraction(1, 2)]


def test_perron_rejects_non_quasipositive():
    with pytest.raises(NotQuasiPositive):
        perron_data(((1, 0), (0, 1)))


def test_eigen_left_identities(sd):
    theta1, alpha = sd.perron
    verdict = bhm_screen(MATRIX)
    w = eigen_left(MATRIX, verdict.theta2)
    # w^T M = theta2 w^T, exactly
    for j in range(5):
        acc = None
        for i in range(5):
            term = w[i] * MATRIX[i][j]
            acc = term if acc is None else acc + term
        assert acc == verdict.theta2 * w[j]
    # normalization: max |w_i| = 1
    assert max(abs(float(v)) for v in w) == pytest.approx(1.0, abs=1e-12)
    assert any((abs(v) - 1).is_zero() for v in w)
    # orthogonal to the right vector across the two embeddings, exactly
    assert cross_embedding_dot_is_zero(w, alpha)
    assert abs(sum(float(a) * float(b) for a, b in zip(w, alpha))) < 1e-12


def test_eigen_left_identity_matrix():
    sd1 = perron_data(((1, 1), (1, 1)))
    th = sd1.perron[0]
    w = eigen_left(((1, 1), (1, 1)), th)
    assert [float(v) for v in w] == [1.0, 1.0]


def test_eigen_left_rejects_non_eigenvalue(sd):
    two = sd.perron[0].field.rational(2, sd.perron[0].embedding)
    with pytest.raises(NotAnEigenvalue):
        eigen_left(MATRIX, two)


def test_bhm_screen_qualifies():
    v = bhm_screen(MATRIX)
    assert v.qualifies and v.reason == "qualifies"
    assert v.theta1.decimal(3) == "7.829"
    assert v.theta2.decimal(3) == "1.588"


def test_bhm_screen_rejections():
    ident = ((1, 0), (0, 1))
    assert bhm_screen(ident).reason == "not_quasi_positive"
    v = bhm_screen(((3, 1), (1, 3)))        # eigenvalues 4 and 2, separate factors
    assert v.reason == "not_conjugate"
    v2 = bhm_screen(((2, 1), (1, 1)))       # golden-ratio-like: other root < 1
    assert v2.reason == "no_real_theta2_gt1"


# one of the 14 cycle products that search --n 6 --max-len 18 screens as
# not_conjugate, the census's first verdicts of that reason; all 14 share
# its characteristic polynomial
CENSUS_NOT_CONJUGATE = ((2, 1, 1, 1, 1, 1), (1, 2, 0, 0, 0, 0),
                        (1, 0, 2, 1, 2, 1), (1, 0, 2, 2, 2, 1),
                        (1, 0, 2, 1, 3, 1), (2, 2, 1, 1, 1, 1))


def test_bhm_screen_not_conjugate_on_a_census_product():
    # (t - 1)(t^2 - 3t + 1)(t^3 - 8t^2 + 6t - 1): theta1 is the cubic's
    # root, and the only other real root above 1, phi^2, is the quadratic's
    m = CENSUS_NOT_CONJUGATE
    assert quasi_positive(m)
    v = bhm_screen(m)
    assert not v.qualifies and v.reason == "not_conjugate"
    assert v.theta1.decimal(12) == "7.184210129198"
    sd = perron_data(m)
    assert sd.char_poly.coeffs == (1, -10, 36, -58, 42, -12, 1)
    assert [(f.coeffs, k) for f, k in sd.factors] == [
        ((-1, 1), 1), ((1, -3, 1), 1), ((-1, 6, -8, 1), 1)]
    above_one = [(r.decimal(6), ix) for r, ix in sd.real_roots if r > 1]
    assert above_one == [("2.618034", 1), ("7.184210", 2)]


def test_real_eigenvalues_order():
    _, _, roots = real_eigenvalues(MATRIX)
    vals = [float(r) for r, _ in roots]
    assert vals == sorted(vals)
    assert len(roots) == 5


def test_real_eigenvalues_isolates_the_char_poly_once(monkeypatch,
                                                      fresh_memos):
    # one isolation of the characteristic polynomial serves every factor:
    # isolate_real_roots runs once and sturm_chain once, its chain shared by
    # the factorizer's squarefree step and the isolation, however many
    # factors there are; the number field of a factor builds none until
    # root_in needs one
    import flipiet.polys
    chains, isolations = [], []
    real_chain = flipiet.polys.sturm_chain
    real_isolate = flipiet.spectral.isolate_real_roots

    def chain(p):
        chains.append(p)
        return real_chain(p)

    def isolate(p):
        isolations.append(p)
        return real_isolate(p)

    monkeypatch.setattr(flipiet.polys, "sturm_chain", chain)
    monkeypatch.setattr(flipiet.numfield, "sturm_chain", chain)
    monkeypatch.setattr(flipiet.spectral, "isolate_real_roots", isolate)
    for m, nfactors in ((MATRIX, 2), (CENSUS_NOT_CONJUGATE, 3)):
        chains.clear()
        isolations.clear()
        cp, factors, _ = real_eigenvalues(m)
        assert len(factors) == nfactors
        assert isolations == [cp]
        assert chains == [cp]


def test_screen_and_perron_data_run_one_sturm_chain(monkeypatch, rauzy_graph,
                                                    fresh_memos):
    # the screen's count of roots above 1, then the factorization and the
    # isolation of the Perron data, read one remainder sequence of the
    # characteristic polynomial of a qualifying census product
    import flipiet.polys
    product = cycle_search(rauzy_graph(5, True), 14).qualifying[0].product
    chains = []
    real_chain = flipiet.polys.sturm_chain

    def chain(p):
        chains.append(p)
        return real_chain(p)

    monkeypatch.setattr(flipiet.polys, "sturm_chain", chain)
    fresh_memos()
    assert bhm_screen(product).qualifies
    perron_data(product)
    assert chains == [char_poly(product)]


def _companion(p):
    """The companion matrix of a monic integer polynomial, whose
    characteristic polynomial it is."""
    d = p.degree
    return tuple(tuple(int(j == i - 1) if j < d - 1 else -p.coeffs[i]
                       for j in range(d)) for i in range(d))


def test_exceeds_one_off_the_interval_matches_the_exact_comparison(
        kernel_inputs):
    # every real eigenvalue of the kernel inputs, the random polynomials as
    # companion matrices of their monic ones: r > 1 read off a fresh
    # isolating interval agrees with the sign of r - 1 by exact arithmetic
    # alone, on point intervals, on intervals that hold 1 and on the rest
    matrices, inputs = kernel_inputs
    monic = [p for p in inputs[len(matrices):] if p.coeffs[-1] == 1]
    assert [char_poly(_companion(p)) for p in monic] == monic
    matrices = matrices + [_companion(p) for p in monic]
    kinds = Counter()
    for m in matrices:
        for r, _ix in real_eigenvalues(m)[2]:
            a, b, den = r.embedding.interval
            kinds["point" if a == b else "holds 1" if a < den < b else "other"] += 1
            got = flipiet.spectral._exceeds_one(r)
            assert got == (exact_sign(r - 1) > 0)
    assert min(kinds.values()) >= 30, kinds


def _real_eigenvalues_per_factor(m):
    """Reference for real_eigenvalues: each factor's roots isolated on its
    own, then the intervals of different factors narrowed, twice as far on
    each pass, until no two overlap, and the roots sorted by interval."""
    cp = char_poly(m)
    factors = factor_rational(cp)
    found = []
    for ix, (f, _mult) in enumerate(factors):
        fld = NumberField(f, _trusted=True)
        for lo, hi in isolate_real_roots(f):
            if f.degree > 1:
                root = fld.generator(RootEmbedding(f, lo, hi))
            else:
                r = Fraction(-f.coeffs[0], f.coeffs[1])
                root = fld.rational(r, RootEmbedding(f, r, r))
            found.append((root, ix))
    k = 2
    changed = True
    while changed:
        changed = False
        k *= 2
        for a in range(len(found)):
            for b in range(a + 1, len(found)):
                ea, eb = found[a][0].embedding, found[b][0].embedding
                if ea.lo == ea.hi and eb.lo == eb.hi:
                    continue
                if not (ea.hi <= eb.lo or eb.hi <= ea.lo):
                    ea.narrow(k)
                    eb.narrow(k)
                    changed = True
    found.sort(key=lambda t: t[0].embedding.lo)
    return cp, factors, tuple(found)


def _check_tagged_roots(m):
    """real_eigenvalues(m) against the per-factor reference: the same
    factors, roots to 30 digits and factor tags, in ascending order, with
    intervals that are pairwise disjoint and isolate each root for its own
    factor."""
    cp, factors, roots = real_eigenvalues(m)
    spans = [(r.embedding.lo, r.embedding.hi) for r, _ix in roots]
    # each interval ends where or before the next begins: ascending and
    # pairwise disjoint
    assert all(lo <= hi for lo, hi in spans)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
    for (r, ix), (lo, hi) in zip(roots, spans):
        f = factors[ix][0]
        assert r.embedding.poly == f
        if f.degree > 1:
            assert count_roots(sturm_chain(f), lo, hi) == 1
        else:
            assert lo == hi and f(lo) == 0
    ref_cp, ref_factors, ref = _real_eigenvalues_per_factor(m)
    assert (cp, factors) == (ref_cp, ref_factors)
    assert ([(r.decimal(30), ix) for r, ix in roots]
            == [(r.decimal(30), ix) for r, ix in ref])
    return factors


def test_real_eigenvalues_matches_per_factor_isolation(rauzy_graph):
    for m in (MATRIX, CENSUS_NOT_CONJUGATE):
        _check_tagged_roots(m)
    reducible = repeated = 0
    for m in _pool_matrices(rauzy_graph(5), 250):
        factors = factor_rational(char_poly(m))
        if len(factors) == 1 and factors[0][1] == 1:
            continue
        reducible += 1
        repeated += any(mult > 1 for _f, mult in _check_tagged_roots(m))
    assert reducible >= 20 and repeated >= 1


def test_eigenvalues_against_sympy():
    m = sympy.Matrix([list(r) for r in MATRIX])
    theirs = sorted(complex(sympy.N(v, 25)).real for v in m.eigenvals())
    _, _, roots = real_eigenvalues(MATRIX)
    mine = [float(r) for r, _ in roots]
    for a, b in zip(mine, theirs):
        assert abs(a - b) < 1e-9


def _eigenvector_by_elimination(m, theta, left=False):
    """Reference: kernel vector of (m - theta I), or of the transpose, by
    Gauss-Jordan elimination over Q(theta); the free coordinate is 1."""
    n = len(m)
    mm = mat_transpose(m) if left else m
    fld, emb = theta.field, theta.embedding
    rows = [[fld.rational(mm[i][j], emb) - (theta if i == j else 0)
             for j in range(n)] for i in range(n)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if not rows[i][col].is_zero()), None)
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
    assert len(free) == 1
    vec = [fld.rational(0, emb) for _ in range(n)]
    vec[free[0]] = fld.rational(1, emb)
    for rr, col in enumerate(pivots):
        vec[col] = -rows[rr][free[0]]
    return tuple(vec)


def _pool_matrices(graph, count):
    """Quasi-positive products along seeded random paths of length 14-24 in
    the given graph (path k drawn by random.Random(k))."""
    out = []
    for k in range(count):
        rng = random.Random(k)
        while True:
            v = rng.randrange(len(graph.nodes))
            prod = mat_identity(graph.n)
            for _ in range(rng.randint(14, 24)):
                types = [t for t in (0, 1) if graph.succ[v][t] is not None]
                if not types:
                    break
                t = rng.choice(types)
                prod = mat_mul(prod, graph.mats[v][t])
                v = graph.succ[v][t]
            else:
                if quasi_positive(prod):
                    out.append(prod)
                    break
    return out


def _same_vector(a, b):
    return [(v.field, v.coords) for v in a] == [(v.field, v.coords) for v in b]


def _last_one(vec):
    """vec scaled so that its last nonzero coordinate is 1, as elimination
    returns it."""
    inv = next(v for v in reversed(vec) if v).inverse()
    return tuple(v * inv for v in vec)


def test_adjugate_eigenvectors_match_elimination_on_bundled_matrix():
    verdict = bhm_screen(MATRIX)
    for theta in (verdict.theta1, verdict.theta2):
        for left in (False, True):
            got = _last_one(solve_eigenvector(MATRIX, theta, left=left))
            assert _same_vector(got, _eigenvector_by_elimination(MATRIX, theta, left))


def test_adjugate_eigenvectors_match_elimination_on_pool_matrices(
        rauzy_graph):
    reasons = Counter()
    conjugates = 0
    for m in _pool_matrices(rauzy_graph(5), 60):
        sd = perron_data(m)
        theta1, ix1 = sd.real_roots[-1]
        thetas = [theta1] + [r for r, ix in sd.real_roots[-2::-1] if ix == ix1][:1]
        conjugates += len(thetas) - 1
        for theta in thetas:
            for left in (False, True):
                got = _last_one(solve_eigenvector(m, theta, left=left))
                assert _same_vector(got, _eigenvector_by_elimination(m, theta, left))
        verdict = screen_real_roots(sd.real_roots)
        assert verdict.reason == bhm_screen(m).reason
        reasons[verdict.reason] += 1
    assert reasons["qualifies"] >= 10 and reasons["no_real_theta2_gt1"] >= 10
    assert conjugates >= 50


def test_solve_eigenvector_rejects_a_vanishing_adjugate():
    # theta = 1 has a two-dimensional eigenspace: adj(I - M) = 0
    m = ((1, 0, 0), (0, 1, 0), (0, 0, 2))
    lin = IntPolynomial((-1, 1))
    one = NumberField(lin).generator(RootEmbedding(lin, 1, 1))
    with pytest.raises(NotAnEigenvalue, match="vanishes"):
        solve_eigenvector(m, one)
    assert [as_fraction(v) for v in solve_eigenvector(m, one + 1)] == [0, 0, 1]


def test_cli_spectral_finds_the_roots_once(monkeypatch, capsys):
    calls = []
    real = flipiet.spectral.real_eigenvalues

    def counted(m, **kw):
        calls.append(m)
        return real(m, **kw)

    monkeypatch.setattr(flipiet.spectral, "real_eigenvalues", counted)
    assert main(["spectral"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "qualifies"
    assert len(calls) == 1


def test_perron_data_and_eigen_left_invert_once(monkeypatch):
    # solve_eigenvector returns the unscaled adjugate vector, and each caller
    # scales it with a single field inverse
    calls = []
    real = flipiet.numfield.AlgebraicNumber.inverse

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(flipiet.numfield.AlgebraicNumber, "inverse", counted)
    sd = perron_data(MATRIX)
    assert len(calls) == 1
    theta2 = screen_real_roots(sd.real_roots).theta2
    calls.clear()
    eigen_left(MATRIX, theta2)
    assert len(calls) == 1


def test_eigen_left_sign_is_pinned(rauzy_graph):
    # the last nonzero coordinate of w is positive, on the bundled theta2 and
    # on conjugate roots of pool matrices, which fixes the blow-up's sign
    checked = []
    for m in [MATRIX] + _pool_matrices(rauzy_graph(5), 20):
        roots = perron_data(m).real_roots
        _, ix1 = roots[-1]
        for theta in [r for r, ix in roots[:-1] if ix == ix1][-1:]:
            w = eigen_left(m, theta)
            assert max(abs(v) for v in w) == 1
            assert next(v for v in reversed(w) if v).sign() > 0
            checked.append(m)
    assert checked[0] == MATRIX and len(checked) >= 10
    assert blowup_chain(bundled_iet()).lsv.sign_choice == -1


def test_perron_data_runs_one_faddeev_leverrier_loop(monkeypatch):
    # the characteristic polynomial and the adjugate of the right vector come
    # from the same loop
    import flipiet.polys
    calls = []
    real = flipiet.polys.faddeev_leverrier

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(flipiet.polys, "faddeev_leverrier", counted)
    monkeypatch.setattr(flipiet.spectral, "faddeev_leverrier", counted)
    flipiet.spectral._faddeev_leverrier.cache_clear()
    try:
        sd = perron_data(MATRIX)
    finally:
        flipiet.spectral._faddeev_leverrier.cache_clear()
    assert calls == [MATRIX]
    assert sd.char_poly.coeffs == (-1, 9, -26, 28, -11, 1)


def test_bhm_screen_runs_one_faddeev_leverrier_loop(monkeypatch, fresh_memos):
    # a qualifying matrix: the screen's loop, which gives the Sturm count,
    # also gives the Perron data; quasi-positivity is checked by the screen
    # and again by perron_data; the screen's theta1 is the one root that
    # the memo of the characteristic polynomial holds
    import flipiet.polys
    loops, checks = [], []
    real_loop = flipiet.polys.faddeev_leverrier
    real_check = flipiet.polys.quasi_positive

    def counted_loop(m):
        loops.append(m)
        return real_loop(m)

    def counted_check(m):
        checks.append(m)
        return real_check(m)

    monkeypatch.setattr(flipiet.polys, "faddeev_leverrier", counted_loop)
    monkeypatch.setattr(flipiet.spectral, "faddeev_leverrier", counted_loop)
    monkeypatch.setattr(flipiet.polys, "quasi_positive", counted_check)
    monkeypatch.setattr(flipiet.spectral, "quasi_positive", counted_check)
    verdict = bhm_screen(MATRIX)
    sd = perron_data(MATRIX)
    owner = flipiet.spectral._spectrum(sd.char_poly)
    assert owner.roots()[1][-1][0] is verdict.theta1
    assert sd.real_roots[-1][0] is verdict.theta1
    assert verdict.reason == "qualifies"
    assert loops == [MATRIX] and checks == [MATRIX, MATRIX]


def test_bundled_blowup_chain_runs_one_faddeev_leverrier_loop(monkeypatch,
                                                              fresh_memos):
    # the Perron data and the left theta2-eigenvector of the blow-up read
    # the same loop
    import flipiet.polys
    loops = []
    real = flipiet.polys.faddeev_leverrier

    def counted(m):
        loops.append(m)
        return real(m)

    monkeypatch.setattr(flipiet.polys, "faddeev_leverrier", counted)
    monkeypatch.setattr(flipiet.spectral, "faddeev_leverrier", counted)
    chain = blowup_chain(bundled_iet())
    assert chain.lsv is not None
    assert loops.count(MATRIX) == 1


def test_spectral_functions_accept_a_list_of_lists():
    rows = [list(row) for row in MATRIX]
    sd = perron_data(rows)
    assert sd.char_poly.coeffs == (-1, 9, -26, 28, -11, 1)
    _cp, _factors, roots = real_eigenvalues(rows)
    theta1 = roots[-1][0]
    assert theta1 == sd.perron[0]
    assert solve_eigenvector(rows, theta1) == solve_eigenvector(MATRIX, theta1)
    theta2 = screen_real_roots(roots).theta2
    assert eigen_left(rows, theta2) == eigen_left(MATRIX, theta2)


def _census_screens(graph, max_len):
    """The (product, verdict) pairs that the census screens, in order."""
    screened = []
    screen = flipiet.search.bhm_screen

    def recording_screen(m, **kwargs):
        screened.append((m, screen(m, **kwargs)))
        return screened[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flipiet.search, "bhm_screen", recording_screen)
        cycle_search(graph, max_len)
    return screened


@pytest.mark.parametrize("n, max_len, count, qualifying",
                         [(5, 14, 132, 24), (6, 14, 243, 0)])
def test_memoized_screen_matches_a_cold_screen(n, max_len, count, qualifying,
                                               rauzy_graph, fresh_memos):
    # the verdict the census got off the memo, and the real roots the memo
    # holds, against a screen of each product alone with every memo empty
    screened = _census_screens(rauzy_graph(n, True), max_len)
    assert len(screened) == count
    warm = [(m, verdict, real_eigenvalues(m)[2]) for m, verdict in screened]
    reasons = Counter()
    for m, verdict, roots in warm:
        fresh_memos()
        cold = bhm_screen(m)
        assert (cold.reason, cold.theta1, cold.theta2) \
            == (verdict.reason, verdict.theta1, verdict.theta2)
        cold_roots = real_eigenvalues(m)[2]
        assert [ix for _r, ix in cold_roots] == [ix for _r, ix in roots]
        assert [r for r, _ix in cold_roots] == [r for r, _ix in roots]
        reasons[verdict.reason] += 1
    assert reasons["qualifies"] == qualifying


def test_census_solves_each_char_poly_once(monkeypatch, rauzy_graph,
                                           fresh_memos):
    # n = 5 to max length 14: 132 screened products with 40 characteristic
    # polynomials, 24 qualifiers with 2; the Sturm count runs once per
    # polynomial, factoring and isolation once per qualifying one, the
    # eigenvector solve once per qualifier, and quasi-positivity is checked
    # by the validation's Perron data alone
    calls = Counter()

    def counted(name):
        real = getattr(flipiet.spectral, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in ("count_roots", "factor_rational", "isolate_real_roots",
                 "solve_eigenvector", "quasi_positive"):
        monkeypatch.setattr(flipiet.spectral, name, counted(name))
    r = cycle_search(rauzy_graph(5, True), 14)
    assert len(r.qualifying) == 24
    assert calls == {"count_roots": 40, "factor_rational": 2,
                     "isolate_real_roots": 2, "solve_eigenvector": 24,
                     "quasi_positive": 24}
    info = flipiet.spectral._spectrum.cache_info()
    assert (info.misses, info.hits) == (40, 132 + 24 - 40)
