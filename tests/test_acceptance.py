"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from flipiet.denjoy import (aiet_from_gaps, blowup_chain, ergodic_probe,
                            gap_system_build, verify_wandering)
from flipiet.errors import AtDiscontinuity, DegenerateStep
from flipiet.iet import IetSpec
from flipiet.io import induction_trace_csv, return_words_csv
from flipiet.numfield import cross_embedding_dot_is_zero, nf_field_make, nf_root
from flipiet.polys import IntPolynomial, factor_rational, mat_det, mat_vec
from flipiet.quintic import (MATRIX, REFERENCE_EIGENVALUES_3DP,
                             REFERENCE_ITINERARIES, REFERENCE_LENGTHS_3DP,
                             REFERENCE_STEPS, SIGNED_PERMUTATION, bundled_iet,
                             bundled_theta1)
from flipiet.rauzy import cycle_matrix, rauzy_cycle_detect, rauzy_run, rauzy_step
from flipiet.search import cycle_search, rauzy_graph_build
from flipiet.selfsim import associated_matrix, self_similarity_check
from flipiet.spectral import perron_data

GOLDEN_TRACE = "k,p,t\n" + "\n".join(
    f"{k}," + " ".join(str(e) for e in sp) + ("," if t is None else f",{t}")
    for k, (sp, t) in enumerate(REFERENCE_STEPS)) + "\n"

GOLDEN_WORDS = "i,N,I\n" + "\n".join(
    f"{i},{n}," + " ".join(str(s) for s in w)
    for i, n, w in REFERENCE_ITINERARIES) + "\n"


def _report(name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s) {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def E():
    return bundled_iet()


@pytest.fixture(scope="module")
def J(E):
    th1 = bundled_theta1()
    one = E.lengths[0].field.rational(1, th1.embedding)
    return (E.origin, one / th1)


@pytest.fixture(scope="module")
def blowup(E):
    chain = blowup_chain(E)
    return chain.sigma, chain.verdict, chain.lsv


def test_criterion_1_induction_trace(E):
    t0 = time.time()
    steps = rauzy_run(E, 14)
    text = induction_trace_csv(steps)
    elapsed = time.time() - t0
    ok = (text == GOLDEN_TRACE) and elapsed < 5.0
    _report("1 induction trace (15 permutations, 14 types, byte-exact)",
            ok, elapsed)


def test_criterion_2_matrix_two_routes(E, J):
    t0 = time.time()
    steps = rauzy_run(E, 14)
    prod = cycle_matrix(steps)
    assoc, _ = associated_matrix(E, J)
    elapsed = time.time() - t0
    ok = (prod == MATRIX and assoc == MATRIX) and elapsed < 5.0
    _report("2 cycle product and visit counts both equal the matrix",
            ok, elapsed)


def test_criterion_3_return_words(E, J):
    t0 = time.time()
    _, its = associated_matrix(E, J)
    text = return_words_csv(its)
    elapsed = time.time() - t0
    ok = text == GOLDEN_WORDS
    _report("3 return words byte-exact (lengths 4, 11, 17, 14, 6)", ok, elapsed)


def test_criterion_4_spectral():
    t0 = time.time()
    sd = perron_data(MATRIX)
    factors = [(f.coeffs, m) for f, m in sd.factors]
    ok = factors == [((-1, 1), 1), ((1, -8, 18, -10, 1), 1)]
    ok = ok and len(factor_rational(IntPolynomial((1, -8, 18, -10, 1)))) == 1
    decs = tuple(r.decimal(3) for r, _ in sd.real_roots)[::-1]
    ok = ok and decs == REFERENCE_EIGENVALUES_3DP
    ok = ok and tuple(v.decimal(3) for v in sd.perron[1]) == REFERENCE_LENGTHS_3DP
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    _report("4 spectral factorization, root and length renderings", ok, elapsed)


def test_criterion_5_self_similarity(E, J):
    t0 = time.time()
    th1 = bundled_theta1()
    cyc = rauzy_cycle_detect(E.sp, E.lengths, E.origin, 20)
    ok = cyc is not None and len(cyc.steps) == 14
    last = cyc.steps[-1]
    ok = ok and tuple(last.after) == SIGNED_PERMUTATION
    ok = ok and all(last.after_iet.lengths[i] * th1 == E.lengths[i]
                    for i in range(5))
    ok = ok and cyc.scale == th1
    ss = self_similarity_check(E, J)
    ok = ok and ss.ok and ss.scale == th1
    elapsed = time.time() - t0
    _report("5 exact self-similarity (lengths contract by the dominant root)",
            ok, elapsed)


def test_criterion_6_exact_identities(E, blowup):
    t0 = time.time()
    _sigma, verdict, lsv = blowup
    th1 = bundled_theta1()
    alpha = E.lengths
    ok = True
    for i in range(5):
        acc = None
        for j in range(5):
            term = alpha[j] * MATRIX[i][j]
            acc = term if acc is None else acc + term
        ok = ok and acc == th1 * alpha[i]
    th2 = verdict.theta2
    for j in range(5):
        acc = None
        for i in range(5):
            term = lsv.w[i] * MATRIX[i][j]
            acc = term if acc is None else acc + term
        ok = ok and acc == th2 * lsv.w[j]
    ok = ok and cross_embedding_dot_is_zero(lsv.w, alpha)
    elapsed = time.time() - t0
    _report("6 exact eigen identities and orthogonality", ok, elapsed)


def test_criterion_7_wandering_certificate(E, blowup):
    t0 = time.time()
    sigma, verdict, lsv = blowup
    th1 = bundled_theta1()
    kappa_target = math.log(float(verdict.theta2)) / math.log(float(th1))
    gs = gap_system_build(E, sigma, lsv, 5000)
    T = aiet_from_gaps(gs)
    cert = verify_wandering(gs, T, E, kappa_target=kappa_target)
    elapsed = time.time() - t0
    detail = (f"overlap={cert.max_overlap:.1e} affine={cert.affine_defect:.2e} "
              f"semi={cert.semiconjugacy_defect:.2e} tail={gs.tail_estimate:.3f} "
              f"dens={cert.density:.4f} fwd={cert.forward_density:.4f} "
              f"bwd={cert.backward_density:.4f} "
              f"kappa=({cert.birkhoff_kappa[0]:.3f},{cert.birkhoff_kappa[1]:.3f})")
    ok = (cert.disjoint and cert.max_overlap == 0.0
          and cert.affine_defect <= 10 * gs.tail_estimate
          and cert.semiconjugacy_defect <= 10 * gs.tail_estimate
          and cert.density <= 0.01
          and cert.forward_density <= 0.02 and cert.backward_density <= 0.02
          and abs(cert.birkhoff_kappa[0] - 0.2247) <= 0.05
          and abs(cert.birkhoff_kappa[1] - 0.2247) <= 0.05
          and elapsed < 120.0)
    _report("7 wandering certificate at 10001 gaps", ok, elapsed, detail)


def test_criterion_8_ergodic_averages(E):
    t0 = time.time()
    ref = [float(v) for v in E.lengths]
    rep = ergodic_probe(E, 5, 10 ** 6, reference=ref)
    elapsed = time.time() - t0
    ok = rep.max_deviation < 5e-3 and elapsed < 60.0
    _report("8 long-orbit averages match the lengths", ok, elapsed,
            f"max deviation {rep.max_deviation:.2e}")


def test_criterion_9_search(E):
    t0 = time.time()
    g4 = rauzy_graph_build(4, True)
    r4 = cycle_search(g4, 14, jobs=4)
    ok = len(r4.qualifying) == 0
    g5 = rauzy_graph_build(5, True)
    r5 = cycle_search(g5, 14, jobs=4)
    hits = 0
    for cand in r5.qualifying:
        if SIGNED_PERMUTATION in cand.nodes:
            _nodes, _types, prod = cand.rotate_to(SIGNED_PERMUTATION, g5)
            if prod == MATRIX and cand.validated:
                hits += 1
    elapsed = time.time() - t0
    ok = ok and hits == 1 and elapsed < 600.0
    _report("9 cycle search: none qualify at n=4, the bundled cycle at n=5",
            ok, elapsed,
            f"n4 cycles={r4.cycles_checked} n5 cycles={r5.cycles_checked} "
            f"n5 qualifying={len(r5.qualifying)}")


def test_criterion_10_property_suites(E):
    t0 = time.time()
    rng = random.Random(99)
    failures = []

    field = nf_field_make(IntPolynomial((1, -8, 18, -10, 1)))
    th1 = nf_root(field, (7, 8))
    for _ in range(1000):
        a, b, c = (field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                  for _ in range(4)], th1.embedding)
                   for _ in range(3))
        if ((a + b) + c).coords != (a + (b + c)).coords:
            failures.append("associativity")
        if (a * (b + c)).coords != (a * b + a * c).coords:
            failures.append("distributivity")

    def random_iet(n):
        while True:
            base = list(range(1, n + 1))
            rng.shuffle(base)
            sp = tuple(v * rng.choice([1, -1]) for v in base)
            try:
                return IetSpec(tuple(Fraction(rng.randint(1, 30), rng.randint(1, 30))
                                     for _ in range(n)), sp)
            except Exception:
                continue

    for _ in range(1000):
        e = random_iet(rng.randint(2, 6))
        slots = sorted(e.y[j] - e.y[j - 1] for j in range(1, e.n + 1))
        if slots != sorted(e.lengths) or e.y[-1] != e.x[-1]:
            failures.append("tiling")

    done = 0
    while done < 1000:
        e = random_iet(rng.randint(2, 6))
        t = Fraction(rng.randint(1, 99), 100)
        i = rng.randint(1, e.n)
        x = e.x[i - 1] + (e.x[i] - e.x[i - 1]) * t
        try:
            if e.eval(e.eval(x), inverse=True) != x:
                failures.append("inverse")
        except AtDiscontinuity:
            continue
        done += 1

    done = 0
    while done < 1000:
        e = random_iet(rng.randint(2, 5))
        try:
            _, st = rauzy_step(e)
        except DegenerateStep:
            continue
        if abs(mat_det(st.matrix)) != 1:
            failures.append("det")
        if tuple(mat_vec(st.matrix, st.after_lengths)) != tuple(st.before_lengths):
            failures.append("lengths")
        done += 1

    for _ in range(1000):
        deg = rng.randint(1, 6)
        p = IntPolynomial(tuple([rng.randint(-6, 6) for _ in range(deg)]
                                + [rng.choice([1, -1, 2, -3])]))
        if p.degree < 1:
            continue
        prod = IntPolynomial((1,))
        for f, m in factor_rational(p):
            for _ in range(m):
                prod = prod * f
        if prod.coeffs != p.primitive().coeffs:
            failures.append("factor")

    elapsed = time.time() - t0
    ok = not failures
    _report("10 randomized property suites (5 x 1000 cases)", ok, elapsed,
            f"failures={failures[:5]}")
