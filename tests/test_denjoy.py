import math

import numpy as np
import pytest

from flipiet.denjoy import (TAIL_PROBE, aiet_from_gaps, birkhoff_profile,
                            blowup_chain, ergodic_probe, gap_system_build,
                            log_slope_select, verify_wandering)
from flipiet.errors import DivergentGaps
from flipiet.quintic import MATRIX, bundled_iet
from flipiet.selfsim import cylinder_locate, stationary_window
from flipiet.spectral import bhm_screen


@pytest.fixture(scope="module")
def setting():
    E = bundled_iet()
    chain = blowup_chain(E)
    return E, chain.sigma, chain.verdict, chain.lsv, chain.kappa_target


@pytest.fixture(scope="module")
def gaps(setting):
    E, sigma, verdict, lsv, _ = setting
    return gap_system_build(E, sigma, lsv, 1500)


def test_log_slope_exact_identities(setting):
    _E, _sigma, verdict, lsv, _ = setting
    th2 = verdict.theta2
    for j in range(5):
        acc = None
        for i in range(5):
            term = lsv.w[i] * MATRIX[i][j]
            acc = term if acc is None else acc + term
        assert acc == th2 * lsv.w[j]


def test_log_slope_floats(setting):
    # 12-digit values computed independently with a sympy exact nullspace of
    # (A^T - theta2 I) over RootOf, max-abs normalized
    _E, _sigma, _verdict, lsv, _ = setting
    expected = (-0.359427441520, 1.0, -0.941141018668,
                -0.581713577148, 0.729753386996)
    floats = lsv.w_float
    flip = -1 if floats[1] < 0 else 1
    for got, want in zip(floats, expected):
        assert abs(flip * got - want) < 1e-11


def test_selected_address(setting):
    # deterministic scan outcome for the bundled example
    _E, _sigma, _verdict, lsv, _ = setting
    assert lsv.address == (5, 1, 1)
    assert lsv.forward.decaying and lsv.backward.decaying


def test_birkhoff_profile_kappa(setting):
    _E, sigma, _verdict, lsv, kappa_target = setting
    from flipiet.selfsim import stationary_window
    past, future = stationary_window(sigma, lsv.address, 100_000, 100_000)
    ws = lsv.signed_float
    S, kappa, prof = birkhoff_profile(future, ws, 100_000)
    assert prof.decaying
    assert abs(kappa - kappa_target) <= 0.05
    Sb, kb, prof_b = birkhoff_profile(past[::-1], tuple(-v for v in ws), 100_000)
    assert prof_b.decaying
    assert abs(kb - kappa_target) <= 0.05


def test_birkhoff_profile_zero_and_wrong_sign(setting):
    _E, sigma, _verdict, lsv, _ = setting
    from flipiet.selfsim import stationary_window
    _past, future = stationary_window(sigma, lsv.address, 10, 5000)
    zero = (0.0,) * 5
    _S, _k, prof = birkhoff_profile(future, zero, 5000)
    assert not prof.decaying
    flipped = tuple(-v for v in lsv.signed_float)
    _S, _k, prof2 = birkhoff_profile(future, flipped, 5000)
    assert not prof2.decaying


def test_spec_seed_pair_fails_both_signs(setting):
    # the glued fixed point of the substitution itself (seeds 4.1) diverges
    # backward for either sign; this is why the address scan exists
    _E, sigma, _verdict, lsv, _ = setting
    from flipiet.selfsim import fixed_word
    (past, future), (b, a) = fixed_word(sigma, "two_sided", 20_000)
    for sign in (1, -1):
        ws = tuple(sign * v for v in lsv.w_float)
        _S, _k, fwd = birkhoff_profile(future, ws, 20_000)
        _S, _k, bwd = birkhoff_profile(past[::-1], tuple(-v for v in ws), 20_000)
        assert not (fwd.decaying and bwd.decaying)


def test_gap_system_basics(gaps):
    gs = gaps
    N = gs.half_width
    assert len(gs.gap_lengths) == 2 * N + 1
    assert abs(gs.gap_lengths.sum() - 1.0) < 1e-12
    assert gs.gap_lengths.min() > 0
    # recursion: g_{n+1}/g_n takes at most 5 distinct values exp(w_i)
    ratios = gs.gap_lengths[1:] / gs.gap_lengths[:-1]
    distinct = np.unique(np.round(np.log(ratios), 9))
    assert len(distinct) <= 5


def test_tail_estimate_matches_array_formula(setting, gaps):
    # reference: the extension's partial sums as whole-array expressions
    _E, sigma, _verdict, lsv, _ = setting
    N = gaps.half_width
    h = N + TAIL_PROBE
    epast, efut = stationary_window(sigma, lsv.address, h, h)
    ws = lsv.signed_float
    eincr = np.array([ws[s - 1] for s in tuple(epast) + tuple(efut)], dtype=float)
    eS = np.concatenate([[0.0], np.cumsum(eincr)])[:-1]
    eS = eS - eS[h]
    nn = np.abs(np.arange(-h, h + 1))
    tail_raw = float(np.exp(eS)[nn > N].sum())
    assert gaps.tail_estimate == tail_raw / gaps.total_gap
    assert 0 < gaps.tail_estimate < 1


def test_gap_symbols_match_positions(gaps):
    # the float shadow of the orbit stays in the piece of every window symbol
    gs = gaps
    E = bundled_iet().as_float()
    for k in range(2 * gs.half_width + 1):
        assert E.piece_of(float(gs.orbit_points[k])) == gs.symbols[k]
    assert gs.p_float == gs.orbit_points[gs.half_width]


def test_blowup_orbit_follows_the_float_view(setting):
    # one float map: the float view rounds each exact breakpoint and slot end
    # once, and its eval reproduces every orbit step bit for bit
    E, sigma, _verdict, lsv, _ = setting
    gs = gap_system_build(E, sigma, lsv, 2000)
    Ef = E.as_float()
    assert Ef.x == tuple(float(v) for v in E.x)
    assert Ef.y == tuple(float(v) for v in E.y)
    pts = [float(z) for z in gs.orbit_points]
    mismatches = sum(Ef.eval(a) != b for a, b in zip(pts, pts[1:]))
    assert mismatches == 0


def test_blowup_rejects_float_mode_exchange(setting):
    # a float-mode exchange has no exact cylinder, so no exact window word
    E, sigma, _verdict, lsv, _ = setting
    Ef = E.as_float()
    with pytest.raises(ValueError):
        cylinder_locate(Ef, (1, 2))
    with pytest.raises(ValueError):
        gap_system_build(Ef, sigma, lsv, 300)


def test_single_gap_window(setting):
    E, sigma, _verdict, lsv, _ = setting
    gs = gap_system_build(E, sigma, lsv, 0)
    assert len(gs.gap_lengths) == 1
    assert gs.gap_lengths[0] == 1.0


def test_wrong_sign_diverges(setting):
    E, sigma, verdict, lsv, _ = setting
    import dataclasses
    bad = dataclasses.replace(lsv, sign_choice=-lsv.sign_choice)
    with pytest.raises(DivergentGaps):
        gap_system_build(E, sigma, bad, 400)


def test_certificate_small_window(setting, gaps):
    E, _sigma, _verdict, _lsv, kappa_target = setting
    T = aiet_from_gaps(gaps)
    cert = verify_wandering(gaps, T, E, kappa_target=kappa_target)
    assert cert.disjoint and cert.max_overlap <= 1e-15
    assert cert.orbit_points_distinct
    assert cert.affine_ok and cert.semiconjugacy_ok
    assert cert.semiconjugacy_skipped == 0
    assert cert.density_ok


def test_semiconjugacy_skips_are_counted(setting, gaps):
    # every sampled orbit point moved onto a breakpoint: each sample hits a
    # discontinuity of the float exchange and is skipped, and counted
    import dataclasses
    E = setting[0]
    on_break = dataclasses.replace(
        gaps, orbit_points=np.full_like(gaps.orbit_points, float(E.x[2])))
    cert = verify_wandering(on_break, aiet_from_gaps(gaps), E, samples=40)
    assert cert.semiconjugacy_skipped == 40
    assert cert.semiconjugacy_defect == 0.0


def test_semiconjugacy_sampler_propagates_other_errors(setting, gaps,
                                                       monkeypatch):
    from flipiet.iet import IetSpec
    E = setting[0]
    T = aiet_from_gaps(gaps)

    def broken_eval(self, p, inverse=False):
        raise ZeroDivisionError("not a discontinuity")

    monkeypatch.setattr(IetSpec, "eval", broken_eval)
    with pytest.raises(ZeroDivisionError):
        verify_wandering(gaps, T, E)


def test_blowup_of_bundled_example_computes_perron_data_once(monkeypatch):
    # one Perron computation and one set of real eigenvalues: the screen
    # reads the roots that the Perron data already holds
    import flipiet.spectral
    from flipiet.spectral import shared_perron_data
    calls = []
    eigen_calls = []
    real = flipiet.spectral.perron_data
    real_eigen = flipiet.spectral.real_eigenvalues

    def counted(m):
        calls.append(m)
        return real(m)

    def counted_eigen(m):
        eigen_calls.append(m)
        return real_eigen(m)

    monkeypatch.setattr(flipiet.spectral, "perron_data", counted)
    monkeypatch.setattr(flipiet.spectral, "real_eigenvalues", counted_eigen)
    shared_perron_data.cache_clear()
    try:
        chain = blowup_chain(bundled_iet())
    finally:
        shared_perron_data.cache_clear()
    assert chain.lsv is not None
    assert calls == [MATRIX]
    assert eigen_calls == [MATRIX]
    monkeypatch.undo()
    screened = bhm_screen(MATRIX)
    assert chain.verdict.reason == screened.reason == "qualifies"
    assert chain.verdict.theta1 == screened.theta1
    assert chain.verdict.theta2 == screened.theta2


def test_aiet_slopes_and_flips(setting, gaps):
    E, _sigma, _verdict, lsv, _ = setting
    T = aiet_from_gaps(gaps)
    assert T.flips == (-1, -1, 1, 1, -1)
    ws = lsv.signed_float
    for i in range(5):
        assert abs(abs(T.slopes[i]) - math.exp(ws[i])) < 1e-9
        assert (T.slopes[i] < 0) == (T.flips[i] < 0)
    assert len(T.breakpoints) == 6
    assert T.breakpoints[0] == 0.0 and T.breakpoints[-1] == 1.0


def test_engineered_duplicate_points_fail(setting, gaps):
    import dataclasses
    gs_bad = dataclasses.replace(gaps,
                                 orbit_points=gaps.orbit_points.copy())
    gs_bad.orbit_points[3] = gs_bad.orbit_points[10]
    E = setting[0]
    T = aiet_from_gaps(gs_bad)
    cert = verify_wandering(gs_bad, T, E)
    assert not cert.orbit_points_distinct


def test_monotone_improvement(setting):
    E, sigma, _verdict, lsv, _ = setting
    g1 = gap_system_build(E, sigma, lsv, 750)
    g2 = gap_system_build(E, sigma, lsv, 1500)
    c1 = verify_wandering(g1, aiet_from_gaps(g1), E)
    c2 = verify_wandering(g2, aiet_from_gaps(g2), E)
    assert c2.affine_defect <= 2 * c1.affine_defect
    assert g2.tail_estimate < g1.tail_estimate


def test_ergodic_probe_small():
    E = bundled_iet()
    ref = [float(v) for v in E.lengths]
    rep = ergodic_probe(E, 2, 50_000, reference=ref)
    assert rep.max_deviation < 5e-3
    assert rep.retries == 0


def test_ergodic_probe_rotation_period_two():
    from flipiet.iet import IetSpec
    E = IetSpec((0.5, 0.5), (2, 1))
    rep = ergodic_probe(E, [0.25], 10_000, reference=[0.5, 0.5])
    assert rep.per_seed[0] == (0.5, 0.5)


def test_ergodic_probe_rejects_tiny_budget():
    with pytest.raises(ValueError):
        ergodic_probe(bundled_iet(), 1, 100)


def test_address_selection_stable_across_probe_lengths(setting):
    # marginal addresses whose excursions recur near zero at geometric scales
    # must not flip the scan outcome when the probe horizon changes
    _E, sigma, verdict, _lsv, _ = setting
    for pl in (10_000, 30_000, 200_000):
        lsv = log_slope_select(MATRIX, verdict.theta2, sigma,
                               probe_length=pl)
        assert lsv.address == (5, 1, 1)
        assert lsv.sign_choice == -1 or lsv.signed_float[1] < 0
