import math
from fractions import Fraction

import numpy as np
import pytest

from flipiet import denjoy
from flipiet.denjoy import (TAIL_PROBE, aiet_from_gaps, blowup_chain,
                            ergodic_probe, gap_system_build, log_slope_select,
                            verify_wandering)
from flipiet.draws import Pcg64
from flipiet.errors import DivergentGaps
from flipiet.iet import IetSpec
from flipiet.quintic import MATRIX, bundled_iet
from flipiet.selfsim import cylinder_locate, stationary_window
from flipiet.spectral import bhm_screen


def birkhoff_profile(word, w, N):
    """(S, kappa, decaying): the partial sums S_k of the weights w along the
    first N symbols of the integer array word, their envelope decay
    exponent (the slope of a log-log fit of the running maxima of -S) and
    the address scan's decay verdict on them."""
    if len(word) < N:
        raise ValueError("word shorter than requested horizon")
    S, decaying = denjoy._decay_verdict(np.array(w, dtype=float), word[:N])
    return S, denjoy._envelope_exponent(S), decaying


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


def test_birkhoff_profile_kappa(setting):
    _E, sigma, _verdict, lsv, kappa_target = setting
    from flipiet.selfsim import stationary_window
    past, future = stationary_window(sigma, lsv.address, 100_000, 100_000)
    ws = lsv.signed_float
    S, kappa, decaying = birkhoff_profile(future, ws, 100_000)
    assert decaying
    assert abs(kappa - kappa_target) <= 0.05
    Sb, kb, decaying_b = birkhoff_profile(past[::-1], tuple(-v for v in ws), 100_000)
    assert decaying_b
    assert abs(kb - kappa_target) <= 0.05


def test_birkhoff_profile_zero_and_wrong_sign(setting):
    _E, sigma, _verdict, lsv, _ = setting
    from flipiet.selfsim import stationary_window
    _past, future = stationary_window(sigma, lsv.address, 10, 5000)
    zero = (0.0,) * 5
    _S, _k, decaying = birkhoff_profile(future, zero, 5000)
    assert not decaying
    flipped = tuple(-v for v in lsv.signed_float)
    _S, _k, decaying = birkhoff_profile(future, flipped, 5000)
    assert not decaying


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
        assert not (fwd and bwd)


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


def test_gap_dump_is_pinned(gaps):
    # the N = 1500 blow-up of the bundled example, byte for byte: the
    # gaps.csv text and the floats that the certificate reports
    import hashlib
    import io

    from flipiet.io import gaps_csv
    buf = io.StringIO()
    gaps_csv(gaps, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16] == \
        "1e762ab1d7de7b55"
    assert gaps.tail_estimate == 0.1949550527033521
    assert gaps.kappa_forward == 0.27409198624302517
    assert gaps.kappa_backward == 0.3116496224441399


def test_one_window_per_gap_system(setting, monkeypatch):
    # the window word and the tail's extension are one stationary window,
    # of half-width N + TAIL_PROBE
    E, sigma, _verdict, lsv, _ = setting
    calls = []

    def counted(sigma, address, back, fwd):
        calls.append((back, fwd))
        return stationary_window(sigma, address, back, fwd)

    monkeypatch.setattr(denjoy, "stationary_window", counted)
    gap_system_build(E, sigma, lsv, 300)
    assert calls == [(300 + TAIL_PROBE, 300 + TAIL_PROBE)]


def test_address_scan_builds_a_past_ray_only_after_a_decaying_future(
        setting, monkeypatch):
    # the bundled example's scan tries six addresses; four fail forward, so
    # two past rays are built, and the selected vector is the same
    _E, sigma, verdict, lsv, _ = setting
    calls = []

    def counted(sigma, address, back, fwd):
        calls.append((address, back, fwd))
        return stationary_window(sigma, address, back, fwd)

    monkeypatch.setattr(denjoy, "stationary_window", counted)
    assert log_slope_select(MATRIX, verdict.theta2, sigma) == lsv
    futures = [address for address, back, fwd in calls if fwd]
    pasts = [address for address, back, fwd in calls if back]
    assert len(futures) == 6 and len(pasts) == 2
    assert pasts[-1] == futures[-1] == lsv.address


def test_gap_symbols_own_their_word(gaps):
    # a view would keep the rays of the tail alive with the gap system; the
    # word is one byte a symbol, as the substitution makes it
    assert gaps.symbols.base is None and gaps.symbols.dtype == np.uint8


def test_gap_system_memory_is_what_its_results_need(setting):
    # after a warm-up call, the N = 2 * 10**4 blow-up allocates at most 5 MiB
    # at its peak: one-byte rays, the tail's terms folded from them chunk by
    # chunk, no window of length 2 (N + TAIL_PROBE) + 1 in floats
    import tracemalloc
    E, sigma, _verdict, lsv, _ = setting
    gap_system_build(E, sigma, lsv, 1500)
    tracemalloc.start()
    try:
        gap_system_build(E, sigma, lsv, 2 * 10 ** 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2 ** 20


def test_tail_fold_is_one_cumsum(monkeypatch):
    # chunk by chunk, with the carry as each chunk's first element, the fold
    # is the whole run's sequential cumsum bit for bit, at any chunk size
    rng = np.random.default_rng(17)
    table = np.concatenate(([0.0], rng.standard_normal(5)))
    for length in (0, 1, 7, 64, 1000):
        symbols = rng.integers(1, 6, size=length).astype(np.uint8)
        want = np.cumsum(np.concatenate(([0.25], table[symbols])))
        for chunk in (1, 3, 64, 2 ** 14):
            monkeypatch.setattr(denjoy, "TAIL_CHUNK", chunk)
            out = np.empty(length + 1)
            assert denjoy._fold(table, symbols, 0.25, out) == want[-1]
            assert out.tobytes() == want.tobytes()
            assert denjoy._fold(table, symbols, 0.25) == want[-1]


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
    # a window needs at least one gap on each side of the blow-up point
    E, sigma, _verdict, lsv, _ = setting
    with pytest.raises(ValueError):
        gap_system_build(E, sigma, lsv, 0)


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
    cert = verify_wandering(on_break, aiet_from_gaps(gaps), E)
    assert denjoy.SEMI_SAMPLES == 100
    assert cert.semiconjugacy_skipped == denjoy.SEMI_SAMPLES
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


def test_blowup_of_bundled_example_computes_perron_data_once(monkeypatch,
                                                            fresh_memos):
    # one Perron computation and one set of real eigenvalues per
    # blowup_chain: the screen reads the roots that the Perron data holds
    import flipiet.spectral
    E = bundled_iet()
    calls = []
    eigen_calls = []
    real = flipiet.spectral.perron_data
    real_eigen = flipiet.spectral.real_eigenvalues

    def counted(m, *args):
        calls.append(m)
        return real(m, *args)

    def counted_eigen(m, **kw):
        eigen_calls.append(m)
        return real_eigen(m, **kw)

    monkeypatch.setattr(denjoy, "perron_data", counted)
    monkeypatch.setattr(flipiet.spectral, "real_eigenvalues", counted_eigen)
    chain = blowup_chain(E)
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


def test_median_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(23)
    arrays = [rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8)
              for size in list(range(1, 12)) + [100, 101, 4096, 4097]]
    arrays += [np.array([1.0, 2.0]), np.array([0.1, 0.2, 0.3, 0.7]),
               np.array([5.0, 5.0, 5.0]), np.array([np.inf, -np.inf, 1.0])]
    for k in (4, 5):
        a = rng.random(k)
        a[1] = np.nan
        arrays.append(a)
    for a in arrays:
        want = np.median(a)
        got = denjoy._median(a.copy())
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), a
    assert np.isnan(denjoy._median(arrays[-1]))


def test_engineered_duplicate_points_fail(setting, gaps):
    import dataclasses
    gs_bad = dataclasses.replace(gaps,
                                 orbit_points=gaps.orbit_points.copy())
    gs_bad.orbit_points[3] = gs_bad.orbit_points[10]
    E = setting[0]
    T = aiet_from_gaps(gs_bad)
    cert = verify_wandering(gs_bad, T, E)
    assert not cert.orbit_points_distinct


def test_a_layout_that_does_not_sort_the_points_fails(setting, gaps):
    # two entries of the layout order swapped: the orbit points read in that
    # order no longer ascend
    import dataclasses
    order = gaps.order.copy()
    order[[3, 10]] = order[[10, 3]]
    gs_bad = dataclasses.replace(gaps, order=order)
    E = setting[0]
    assert not verify_wandering(gs_bad, aiet_from_gaps(gs_bad),
                                E).orbit_points_distinct
    assert verify_wandering(gaps, aiet_from_gaps(gaps),
                            E).orbit_points_distinct


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
    E = IetSpec((Fraction(1, 2), Fraction(1, 2)), (2, 1)).as_float()
    rep = ergodic_probe(E, [0.25], 10_000, reference=[0.5, 0.5])
    assert rep.per_seed[0] == (0.5, 0.5)


def test_ergodic_probe_rejects_tiny_budget():
    with pytest.raises(ValueError):
        ergodic_probe(bundled_iet(), 1, 100)


@pytest.mark.parametrize("seeds", [0, []])
def test_ergodic_probe_rejects_an_empty_seed_set(seeds):
    with pytest.raises(ValueError, match="at least one seed"):
        ergodic_probe(bundled_iet(), seeds, 10 ** 4)


def test_address_selection_stable_across_probe_lengths(setting, monkeypatch):
    # marginal addresses whose excursions recur near zero at geometric scales
    # must not flip the scan outcome when the probe horizon changes
    _E, sigma, verdict, _lsv, _ = setting
    for pl in (10_000, 30_000, 200_000):
        monkeypatch.setattr(denjoy, "PROBE_LENGTH", pl)
        lsv = log_slope_select(MATRIX, verdict.theta2, sigma)
        assert lsv.address == (5, 1, 1)
        assert lsv.sign_choice == -1 or lsv.signed_float[1] < 0


def _eager_log_slope_select(matrix, theta2, sigma, probe_length):
    """The address scan before log_slope_select skipped work, kept
    as the reference: both full profiles, fits included, for every
    candidate that passes the prefix and suffix test."""
    from flipiet.errors import SignSelectionFailed
    from flipiet.selfsim import occurrence_addresses
    from flipiet.spectral import eigen_left

    def word_sum(word, w):
        return sum(w[s - 1] for s in word)

    w = eigen_left(matrix, theta2)
    wf = tuple(float(v) for v in w)
    for power in (1, 2):
        for address in occurrence_addresses(sigma, power):
            c, j, _m = address
            img = sigma.images[c]
            for _ in range(power - 1):
                img = sigma(img)
            prefix, suffix = img[:j], img[j + 1:]
            for sign in (1, -1):
                ws = tuple(sign * v for v in wf)
                if not (word_sum(prefix, ws) > 0 and word_sum(suffix, ws) < 0):
                    continue
                past, future = stationary_window(sigma, address, probe_length,
                                                 probe_length)
                _, _, fwd = birkhoff_profile(future, ws, probe_length)
                _, _, bwd = birkhoff_profile(past[::-1], tuple(-v for v in ws),
                                             probe_length)
                if fwd and bwd:
                    return denjoy.LogSlopeVector(
                        w=w, w_float=wf, sign_choice=sign, address=address)
    raise SignSelectionFailed("no occurrence address gives two-sided decay")


def test_address_scan_matches_eager_reference(setting, monkeypatch):
    # 100 and 101 select another address than longer probes
    from flipiet.errors import SignSelectionFailed
    _E, sigma, verdict, lsv, _ = setting
    default = denjoy.PROBE_LENGTH
    for pl in (100, 101, 150, 2_000, 30_000, default):
        monkeypatch.setattr(denjoy, "PROBE_LENGTH", pl)
        got = (lsv if pl == default else
               log_slope_select(MATRIX, verdict.theta2, sigma))
        want = _eager_log_slope_select(MATRIX, verdict.theta2, sigma, pl)
        assert (got.address, got.sign_choice, got.w_float) == \
            (want.address, want.sign_choice, want.w_float)
    for pl in (10, 50):
        monkeypatch.setattr(denjoy, "PROBE_LENGTH", pl)
        with pytest.raises(SignSelectionFailed):
            _eager_log_slope_select(MATRIX, verdict.theta2, sigma, pl)
        with pytest.raises(SignSelectionFailed):
            log_slope_select(MATRIX, verdict.theta2, sigma)


def _scalar_probe(E, seeds, steps, reference=None):
    """The step-by-step probe loop that ergodic_probe's block kernel
    replaced, kept verbatim as the reference: (per_seed, spread,
    max_deviation, retries)."""
    from bisect import bisect_left
    Ef = E.as_float()
    xs, branch = Ef.x, Ef.branches
    n = E.n
    if isinstance(seeds, int):
        rng = np.random.default_rng(20_24)
        lo, hi = xs[0], xs[-1]
        span = hi - lo
        seed_pts = [lo + span * (0.02 + 0.96 * rng.random()) for _ in range(seeds)]
    else:
        seed_pts = [float(s) for s in seeds]

    retries = 0
    averages = []
    for z0 in seed_pts:
        attempts = 0
        while True:
            counts = [0] * n
            z = z0
            hit = False
            for _ in range(steps):
                i = bisect_left(xs, z)
                if i <= 0 or i > n or z == xs[i]:
                    hit = True
                    break
                counts[i - 1] += 1
                a, s = branch[i - 1]
                z = a + s * z
            if not hit:
                averages.append(tuple(c / steps for c in counts))
                break
            attempts += 1
            retries += 1
            if attempts > 10:
                raise RuntimeError("orbit kept hitting discontinuities")
            z0 = xs[0] + (xs[-1] - xs[0]) * ((z0 * 7919.77 + attempts) % 1.0)

    spread = 0.0
    for j in range(n):
        col = [av[j] for av in averages]
        spread = max(spread, max(col) - min(col))
    max_dev = None
    if reference is not None:
        ref = [float(v) for v in reference]
        max_dev = max(abs(av[j] - ref[j]) for av in averages for j in range(n))
    return tuple(averages), spread, max_dev, retries


def _kernel_probe(E, seeds, steps, reference=None):
    rep = ergodic_probe(E, seeds, steps, reference=reference)
    return rep.per_seed, rep.spread, rep.max_deviation, rep.retries


def _outcome(probe, *args):
    """The probe's fields, or "RuntimeError" when an orbit kept hitting
    breakpoints."""
    try:
        return probe(*args)
    except RuntimeError:
        return "RuntimeError"


def test_probe_kernel_matches_scalar_reference(monkeypatch):
    # the bundled exchange as the wandering report probes it
    E = bundled_iet()
    ref = [float(v) for v in E.lengths]
    got = _outcome(_kernel_probe, E, 5, 10 ** 6, ref)
    assert got == _outcome(_scalar_probe, E, 5, 10 ** 6, ref)
    assert [round(c * 10 ** 6) for c in got[0][0]] == [379768, 90805, 70445,
                                                        170020, 288962]

    # an exactly periodic orbit, run past the shared history
    E = IetSpec((Fraction(1, 2), Fraction(1, 2)), (2, 1)).as_float()
    steps = 3 * denjoy.PROBE_HISTORY + 6
    got = _outcome(_kernel_probe, E, [0.25], steps, [0.5, 0.5])
    assert got == _outcome(_scalar_probe, E, [0.25], steps, [0.5, 0.5])
    assert got[0] == ((0.5, 0.5),)

    # 1,000 random flipped float exchanges, with a short shared history and
    # short blocks so that blocks, mismatches and hits inside blocks are
    # frequent.  A third have dyadic lengths, origin and seeds: their orbits
    # stay on a lattice that holds the breakpoints, so they hit them and
    # reseed.
    monkeypatch.setattr(denjoy, "PROBE_HISTORY", 2 ** 10)
    monkeypatch.setattr(denjoy, "PROBE_BLOCK", 2 ** 9)
    orbit = IetSpec.orbit
    block_hits = []

    def counted(self, z, steps):
        out = orbit(self, z, steps)
        if steps == 1 and out.terminated_at_discontinuity is not None:
            block_hits.append(z)
        return out

    monkeypatch.setattr(IetSpec, "orbit", counted)
    rng = np.random.default_rng(13)
    retried = 0
    for trial in range(1000):
        n = int(rng.integers(2, 8))
        perm = [int(v) + 1 for v in rng.permutation(n)]
        signs = rng.choice((-1, 1), size=n)
        signs[rng.integers(n)] = -1
        if trial % 3 == 0:
            den = 2 ** int(rng.integers(3, 13))
            ints = rng.integers(1, den, size=n)
            if trial % 2 == 0:
                # only the last piece flips, in place, and it holds no
                # lattice point: on the lattice this is an exchange without
                # flips, whose orbits run long before they meet a breakpoint
                perm = [int(v) + 1 for v in rng.permutation(n - 1)] + [n]
                signs = [1] * (n - 1) + [-1]
                den = 2 ** int(rng.integers(11, 15))
                ints = rng.integers(1, den, size=n)
                ints[-1] = 1
            lengths = tuple(int(v) / den for v in ints)
            origin = int(rng.integers(-2, 3)) / den
            seeds = [origin + int(k) / den
                     for k in rng.integers(0, int(ints.sum()), size=2)]
        else:
            lengths = tuple(float(v) for v in rng.uniform(0.05, 1.0, size=n))
            origin = float(rng.uniform(-1, 1))
            seeds = 1
        E = IetSpec(tuple(map(Fraction, lengths)),
                    tuple(int(s) * p for s, p in zip(signs, perm)),
                    Fraction(origin)).as_float()
        want = _outcome(_scalar_probe, E, seeds, 10 ** 4, lengths)
        assert _outcome(_kernel_probe, E, seeds, 10 ** 4, lengths) == want, trial
        retried += want == "RuntimeError" or want[3] > 0
    assert retried >= 100
    assert len(block_hits) >= 20


def test_probe_blocks_reproduce_the_float_orbit(monkeypatch):
    # the points of a block are the step-by-step floats bit for bit: every
    # point at which a block stops and a scalar step takes over lies on the
    # scalar orbit (equal counts alone would not show an ulp of drift)
    orbit = IetSpec.orbit
    handed_over = []

    def recorded(self, z, steps):
        if steps == 1:
            handed_over.append(z)
        return orbit(self, z, steps)

    monkeypatch.setattr(IetSpec, "orbit", recorded)

    def check(E, z0, steps):
        handed_over.clear()
        walked = denjoy._orbit_counts(E, z0, steps)
        ref = orbit(E, z0, steps)
        if ref.terminated_at_discontinuity is not None:
            assert walked is None
            return 0
        counts = walked[0]
        assert counts == np.bincount(ref.word, minlength=E.n + 1)[1:].tolist()
        assert set(handed_over) <= set(ref.points[:-1])
        return len(handed_over)

    checked = check(bundled_iet().as_float(), 0.3, 2 * 10 ** 5)
    monkeypatch.setattr(denjoy, "PROBE_HISTORY", 2 ** 10)
    monkeypatch.setattr(denjoy, "PROBE_BLOCK", 2 ** 9)
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(3, 8))
        sp = tuple(int(s) * (int(p) + 1) for s, p in
                   zip(rng.choice((-1, 1), size=n), rng.permutation(n)))
        E = IetSpec(tuple(map(Fraction, rng.uniform(0.05, 1.0, size=n))),
                    sp).as_float()
        checked += check(E, float(rng.uniform(0.1, 0.9)) * E.x[-1], 2 * 10 ** 4)
    assert checked >= 50


def test_probe_kernel_premises_hold_in_floats():
    # the kernel needs np.cumsum to be the sequential left fold and float
    # rounding to be odd: -(a + b) == (-a) + (-b)
    rng = np.random.default_rng(5)
    tiny = 2.0 ** -53
    cases = [[1.0] + [tiny] * 8, [tiny] * 8 + [1.0], [1.0, tiny, -1.0, tiny] * 4,
             [0.1, 0.2, 0.3, -0.6, 1e16, 1.0, -1e16, 3.0]]
    for _ in range(200):
        v = rng.uniform(-1, 1, size=64) * 2.0 ** rng.integers(-60, 60, size=64)
        cases.append(list(v))
    for vals in cases:
        fold, acc = [], 0.0
        for k, v in enumerate(vals):
            acc = v if k == 0 else acc + v
            fold.append(acc)
        assert np.cumsum(np.array(vals)).tolist() == fold
        for a, b in zip(vals, vals[1:]):
            assert -(a + b) == (-a) + (-b)


def test_probe_working_set_is_fixed():
    # the one shared history (seven arrays of 2^15 entries, 38 bytes an
    # entry), its growth and one block, about 1.9 MB at any number of steps or
    # seeds; the points of a 10^6-step orbit alone would take 8 MB
    import tracemalloc
    E = bundled_iet()
    ergodic_probe(E, 1, 10 ** 4)         # one-time float views and imports
    peaks = []
    for seeds, steps in ((1, 10 ** 6), (1, 10 ** 5), (5, 10 ** 6)):
        tracemalloc.start()
        ergodic_probe(E, seeds, steps)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert max(peaks) < 4 * 2 ** 20
    # the growing history's old layout and last block are freed before each
    # new layout, so no two layouts are alive at once
    assert max(peaks) <= 2 * 2 ** 20


def _probe_seeds(E, count):
    """The start points that ergodic_probe draws for a count of seeds."""
    xs = E.as_float().x
    rng = Pcg64(2024)
    return [xs[0] + (xs[-1] - xs[0]) * (0.02 + 0.96 * rng.random())
            for _ in range(count)]


def _history_orbit(history):
    """The points h_0 .. h_{m-1} and the word of a laid-out history."""
    sorted_pts, order, word = history[:3]
    pts = np.empty(len(word))
    pts[order] = sorted_pts
    return pts, word


@pytest.mark.parametrize("history_steps", [None, 2 ** 10])
@pytest.mark.parametrize("steps", [10 ** 6, 5_000])
def test_grown_history_is_the_scalar_orbit(monkeypatch, history_steps, steps):
    # the probe's five seeds: the history grown by verified blocks from a
    # scalar start is Ef.orbit(z, H) in points (bit for bit) and word, at
    # PROBE_HISTORY steps, at 2^10 (the scalar start alone) and at 5,000
    # steps (a last doubling cut short)
    if history_steps is not None:
        monkeypatch.setattr(denjoy, "PROBE_HISTORY", history_steps)
    E = bundled_iet()
    Ef = E.as_float()
    H = min(steps, denjoy.PROBE_HISTORY)
    for z in _probe_seeds(E, 5):
        history = denjoy._orbit_counts(Ef, z, steps)[1]
        ref = Ef.orbit(z, H)
        pts, word = _history_orbit(history)
        assert pts.tobytes() == np.array(ref.points[:-1]).tobytes()
        assert word.tolist() == ref.word
        assert (word.dtype, history[1].dtype, history[3].dtype) == (
            np.uint8, np.int32, np.int8)


def test_grown_history_stops_where_the_scalar_orbit_hits():
    # dyadic exchanges whose last piece flips in place: their orbits stay on
    # a lattice that holds the breakpoints, so many hit one, some after the
    # scalar start, inside the grown blocks.  The history is None exactly
    # where Ef.orbit(z, PROBE_HISTORY) hits, and the orbit otherwise
    rng = np.random.default_rng(41)
    H = denjoy.PROBE_HISTORY
    hits_while_growing = whole = 0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        den = 2 ** int(rng.integers(12, 17))
        ints = rng.integers(1, den, size=n)
        ints[-1] = 1
        perm = [int(v) + 1 for v in rng.permutation(n - 1)]
        Ef = IetSpec(tuple(Fraction(int(v), den) for v in ints),
                     (*perm, -n)).as_float()
        for c in rng.integers(1, int(ints.sum()), size=3):
            z = int(c) / den
            ref = Ef.orbit(z, H)
            walked = denjoy._orbit_counts(Ef, z, H)
            hit = ref.terminated_at_discontinuity
            assert (walked is None) == (hit is not None)
            if hit is None:
                pts, word = _history_orbit(walked[1])
                assert pts.tobytes() == np.array(ref.points[:-1]).tobytes()
                assert word.tolist() == ref.word
                whole += 1
            hits_while_growing += hit is not None and hit > denjoy.PROBE_SEED_STEPS
    assert hits_while_growing >= 10 and whole >= 10


def _long_orbits(monkeypatch):
    """The start points of the IetSpec.orbit calls of more than one step,
    recorded from now on."""
    orbit = IetSpec.orbit
    starts = []

    def recorded(self, z, steps):
        if steps > 1:
            starts.append(z)
        return orbit(self, z, steps)

    monkeypatch.setattr(IetSpec, "orbit", recorded)
    return starts


def test_probe_walks_each_orbit_once(monkeypatch):
    # the steps that the verified blocks walk (each one's prefix and the
    # step it hands over) and the scalar start's steps are the probe's
    # seeds x steps: the first orbit grows the history as it counts itself
    block, orbit = denjoy._block, IetSpec.orbit
    walked = []

    def counted_block(*args):
        out = block(*args)
        if out is not None:
            walked.append(out[1] + (out[3] != 0))
        return out

    def counted_orbit(self, z, steps):
        out = orbit(self, z, steps)
        if steps > 1:
            walked.append(len(out.word))
        return out

    monkeypatch.setattr(denjoy, "_block", counted_block)
    monkeypatch.setattr(IetSpec, "orbit", counted_orbit)
    assert ergodic_probe(bundled_iet(), 5, 10 ** 6).retries == 0
    assert sum(walked) == 5 * 10 ** 6


def test_probe_lays_out_one_history(monkeypatch):
    # the wandering report's probe: five seeds, one history, whose scalar
    # start is the one Ef.orbit of more than one step
    starts = _long_orbits(monkeypatch)
    ergodic_probe(bundled_iet(), 5, 10 ** 6)
    assert len(starts) == 1


def test_probe_orbit_off_the_history_lays_out_its_own(monkeypatch):
    # piece 1 is fixed pointwise and piece 2 flips in place: the history of
    # the first seed never enters piece 2, so the second seed's blocks are
    # one step long until it takes a history of its own
    E = IetSpec((Fraction(1, 2), Fraction(1, 2)), (1, -2))
    starts = _long_orbits(monkeypatch)
    rep = ergodic_probe(E, [0.25, 0.75], 10 ** 5)
    assert rep.per_seed == ((1.0, 0.0), (0.0, 1.0))
    assert starts == [0.25, 0.75]
