"""Blow-up construction of an affine exchange with wandering intervals.

The orbit of a distinguished point p is replaced by gaps whose lengths follow
the exponentiated Birkhoff sums of a log-slope vector w along the orbit: the
gap over the n-th orbit point has raw length exp(S_n), S_0 = 0,
S_{n+1} = S_n + w[a_n] with a_n the piece symbol.  Summability demands S_n ->
-infinity in both directions, which holds when w is a left eigenvector for a
conjugate eigenvalue theta2 in (1, theta1) and the symbol sequence of p is a
stationary point of the return-word substitution chosen so the per-level
prefix sums drift positive and the suffix sums drift negative.  The plain
two-sided fixed word of the substitution does not in general satisfy this
(for the bundled example it provably fails in one direction), so the blow-up
point is selected by a deterministic scan over occurrence addresses
sigma^m(c) = p.c.s, validated empirically by the Birkhoff profiles.

Gap bookkeeping is double precision.  The log-slope vector, the location
cylinder of p and the orbit symbols are exact: p is located inside the
cylinder of the whole window word, so its symbols are the word by
construction.  The exchange must therefore be exact, as every IetSpec is;
the orbit positions are a float shadow that follows the word through the
branch table of E.as_float(), the one float map that the certificate and
the ergodic probe also evaluate, and the probe's step-by-step moves are
IetSpec.orbit on that view.  Symbol words are one byte a symbol, as the
substitution makes them.  The gap system's word is cut from one
stationary window of two rays, built once per gap system, which also feed
the tail's sums chunk by chunk and are freed before the decay fits.  The
orbit is read off the word by iet.branch_walk, the composed-branch walk
that cylinder_locate also runs and that the ergodic probe's verified
blocks run: one walk per orbit, which counts it and grows the history
that the blocks guess from.  The two fixed-seed draws (the
probe's seed points, the semiconjugacy samples) come from draws.Pcg64,
numpy's default_rng stream without numpy.random.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .draws import Pcg64
from .errors import (AtDiscontinuity, DivergentGaps, FlipIetError,
                     ProbeHitsDiscontinuities, SignSelectionFailed)
from .iet import IetSpec, branch_walk
from .numfield import AlgebraicNumber
from .rauzy import RauzyCycle, rauzy_cycle_detect
from .selfsim import (ItinerarySet, Substitution, associated_matrix,
                      cylinder_locate, occurrence_addresses, stationary_window,
                      substitution_from)
from .spectral import (BhmVerdict, SpectralData, eigen_left, perron_data,
                       screen_real_roots)

PROBE_LENGTH = 100_000
KAPPA_FIT_START = 100
SEMI_SAMPLES = 100           # semiconjugacy samples in verify_wandering
MIN_PROBE_STEPS = 10_000     # fewest steps the ergodic probe takes


@dataclass
class LogSlopeVector:
    """Left eigenvector for theta2 (exact, max-abs normalized) together with
    the sign and the blow-up address selected by the Birkhoff test."""

    w: tuple                     # exact AlgebraicNumbers, max |w_i| = 1
    w_float: tuple               # unsigned float shadow
    sign_choice: int
    address: tuple               # (c, j, power): sigma^power(c)[j] == c

    @property
    def signed_float(self):
        return tuple(self.sign_choice * v for v in self.w_float)


def _decay_verdict(w, word):
    """(S, decaying): the partial sums S_0 = 0, S_{k+1} = S_k + w[word_k] of
    the array w along the integer array word (w[i - 1] for symbol i), folded
    by _fold, and the decay verdict on them.
    The verdict demands the whole tail (last 70 percent) stay below -1 and
    the final sum below -2: marginal sequences whose excursions recur near
    zero at geometrically spaced scales would otherwise pass or fail
    depending on the probe horizon."""
    S = np.empty(len(word) + 1)
    _fold(np.concatenate(([0.0], w)), word, 0.0, S)
    k0 = max(KAPPA_FIT_START, int(0.3 * len(word)))
    tail_max = S[k0:].max() if len(S) > k0 else S.max()
    return S, bool(tail_max <= -1.0 and S[-1] <= -2.0)


def _envelope_exponent(S):
    """Slope of the log-log fit of the running maxima of -S[1:] against
    n = 1, 2, ..., from n = KAPPA_FIT_START on; nan with under ten points."""
    run = np.maximum.accumulate(-S[1:])
    n = np.arange(1, len(S))
    mask = (n >= KAPPA_FIT_START) & (run > 0)
    if mask.sum() < 10:
        return float("nan")
    return float(np.polyfit(np.log(n[mask]), np.log(run[mask]), 1)[0])


def _decays_both_ways(sigma, address, ws, N):
    """True when the Birkhoff sums of the weight array ws along the
    stationary point of the address decay forward and backward; the past ray
    is built only when the future decays, and both are freed on return."""
    _, future = stationary_window(sigma, address, 0, N)
    # backward sums: S_{-m} = -sum of w over the last m past symbols
    return (_decay_verdict(ws, future[:N])[1] and _decay_verdict(
        -ws, stationary_window(sigma, address, N, 0)[0][::-1])[1])


def log_slope_select(matrix, theta2: AlgebraicNumber,
                     sigma: Substitution) -> LogSlopeVector:
    """Exact left theta2-eigenvector plus the blow-up address and sign.

    The vector w is orthogonal to the Perron lengths alpha: w^T M = theta2 w^T
    and M alpha = theta1 alpha are each verified exactly in
    spectral.solve_eigenvector, so theta2 (w . alpha) = w^T M alpha =
    theta1 (w . alpha), and theta2 < theta1 forces w . alpha = 0.

    Scans occurrence addresses sigma^m(c) = p.c.s (m = 1 then 2, symbols and
    offsets ascending, sign +1 then -1), keeping the first candidate whose
    prefix sum is positive, suffix sum negative, and whose two-sided Birkhoff
    profiles both decay over PROBE_LENGTH symbols.  Raises
    SignSelectionFailed when the scan is exhausted.
    """
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
                ws = sign * np.array(wf)
                if not (sum(ws[s - 1] for s in prefix) > 0
                        and sum(ws[s - 1] for s in suffix) < 0):
                    continue
                # at most one sign passes, so one window per address
                if _decays_both_ways(sigma, address, ws, PROBE_LENGTH):
                    return LogSlopeVector(w, wf, sign, address)
    raise SignSelectionFailed("no occurrence address gives two-sided decay")


@dataclass
class InductionCycle:
    """An induction cycle of E and the first return to its window J."""

    cycle: RauzyCycle
    J: tuple                          # (origin, origin + |E| / scale)
    matrix: tuple                     # visit counts of the return words
    itineraries: ItinerarySet


def induction_cycle(E: IetSpec, max_len: int) -> Optional[InductionCycle]:
    """The cycle, window and return-word matrix of E; None when no induction
    cycle closes within max_len steps."""
    cyc = rauzy_cycle_detect(E.sp, E.lengths, E.origin, max_len)
    if cyc is None:
        return None
    J = (E.origin, E.origin + E.total_length / cyc.scale)
    m, its = associated_matrix(E, J)
    return InductionCycle(cycle=cyc, J=J, matrix=m, itineraries=its)


@dataclass
class BlowupChain:
    """Everything the blow-up of E needs, up to the choice of window."""

    sigma: Substitution
    verdict: BhmVerdict
    spectral: SpectralData
    lsv: Optional[LogSlopeVector]     # None when the screen fails
    kappa_target: Optional[float]     # log theta2 / log theta1, likewise


def blowup_chain(E: IetSpec, max_len: int = 20) -> BlowupChain:
    """Induction cycle, substitution, spectral screen, Perron data, log-slope
    selection and decay-exponent target, in that order.

    A failed screen is a result (lsv is None); an exchange with no induction
    cycle within max_len steps raises FlipIetError.
    """
    ind = induction_cycle(E, max_len)
    if ind is None:
        raise FlipIetError("input exchange is not self-similar within the bound")
    sigma = substitution_from(ind.itineraries)
    sd = perron_data(ind.matrix)
    verdict = screen_real_roots(sd.real_roots)
    lsv = kappa_target = None
    if verdict.qualifies:
        lsv = log_slope_select(ind.matrix, verdict.theta2, sigma)
        kappa_target = (math.log(float(verdict.theta2))
                        / math.log(float(verdict.theta1)))
    return BlowupChain(sigma=sigma, verdict=verdict,
                       spectral=sd, lsv=lsv, kappa_target=kappa_target)


@dataclass
class GapSystem:
    """Truncated blow-up data for indices n in [-N, N]."""

    half_width: int
    orbit_points: np.ndarray          # float positions of E^n(p), index n+N
    symbols: np.ndarray               # piece symbol a_n, index n+N
    gap_lengths: np.ndarray           # normalized, sums to 1
    order: np.ndarray                 # argsort of orbit_points: the layout
    positions: np.ndarray             # left endpoints after blow-up
    total_gap: float                  # raw (unnormalized) total mass
    tail_estimate: float              # estimated mass fraction beyond the window
    kappa_forward: float
    kappa_backward: float
    iet: IetSpec

    def interior_classes(self):
        """Per piece i, the window indices k with symbol i whose gap and next
        gap are both interior (1 <= k <= 2N-1): the boundary gaps n = +-N are
        truncation artifacts."""
        N = self.half_width
        classes = []
        for i in range(1, self.iet.n + 1):
            sel = np.where(self.symbols[:-1] == i)[0]
            classes.append(sel[(sel >= 1) & (sel <= 2 * N - 1)])
        return classes


TAIL_PROBE = 100_000
TAIL_CHUNK = 2 ** 14         # symbols whose partial sums are formed at once


def _fold(table, symbols, carry, out=None):
    """The partial sums carry, carry + t_0, (carry + t_0) + t_1, ... of
    t = table[symbols], written to out (len(symbols) + 1 entries) when it
    is given, and the last of them.  One np.cumsum per TAIL_CHUNK symbols,
    with the carry as the chunk's first element: the sequential fold of the
    whole run, bit for bit, in one reused chunk buffer when out is None."""
    buf = np.empty(TAIL_CHUNK + 1) if out is None else out
    buf[0] = carry
    for a in range(0, len(symbols), TAIL_CHUNK):
        chunk = symbols[a:a + TAIL_CHUNK]
        at = 0 if out is None else a
        seg = buf[at:at + len(chunk) + 1]
        seg[0] = carry
        np.take(table, chunk, out=seg[1:])
        np.cumsum(seg, out=seg)
        carry = seg[-1]
    return carry


def gap_system_build(E: IetSpec, sigma: Substitution, lsv: LogSlopeVector,
                     N: int) -> GapSystem:
    """Blow up the orbit of the stationary point of lsv.address.

    The point is the exact midpoint of the cylinder of the full window word
    w_{-N..N}, so its symbols are the word by construction.  E must be exact:
    cylinder_locate raises ValueError on a float view.  The orbit
    positions are a float shadow: the start point rounded once and moved
    along the word by iet.branch_walk on E.as_float().branches, which
    reproduces the step-by-step float orbit bit for bit.

    The truncation tail is estimated by extending the symbolic word a further
    TAIL_PROBE indices on each side (symbols only, no orbit geometry) and
    summing the exponentiated Birkhoff sums there directly; the stretched
    exponential decay makes the remainder beyond the probe negligible.  One
    stationary window of half-width h = N + TAIL_PROBE holds both: its two
    rays give the word w_{-N..N}, and one sequential fold along them from
    n = -h, chunk by chunk (_fold), gives the 2 TAIL_PROBE tail terms, which
    are centred at n = 0, exponentiated and summed in index order.  The
    rays and the terms are freed before the cylinder is located, and the
    Birkhoff sums of the window once the decay exponents are fitted.
    """
    if N < 1:
        raise ValueError("window half-width must be positive")
    past, future = stationary_window(sigma, lsv.address, N + TAIL_PROBE,
                                     N + TAIL_PROBE)
    word = np.concatenate((past[TAIL_PROBE:], future[:N + 1]))  # n = -N..N
    # the fold from n = -h: the terms at n < -N, the centre n = 0, then the
    # terms at n > N; the window's own sums start afresh at n = -N below,
    # since the tail's would round them otherwise
    table = np.concatenate(([0.0], lsv.signed_float))
    tail = np.empty(2 * TAIL_PROBE)
    carry = _fold(table, past[:TAIL_PROBE - 1], 0.0, tail[:TAIL_PROBE])
    centre = _fold(table, past[TAIL_PROBE - 1:], carry)
    carry = _fold(table, future[:N + 1], centre)
    _fold(table, future[N + 1:-1], carry, tail[TAIL_PROBE:])
    del past, future
    tail -= centre
    np.exp(tail, out=tail)
    tail_raw = float(tail.sum())
    del tail

    lo, hi = cylinder_locate(E, word)
    p_start = (lo + hi) / Fraction(2)         # = E^{-N}(p)

    S = np.empty(2 * N + 1)
    _fold(table, word[:-1], 0.0, S)
    S -= S[N]
    g = np.exp(S)

    if N >= 50:
        edge = max(1, N // 10)
        nearby = g[N - edge: N + edge + 1].max()
        boundary = max(g[: edge].max(), g[-edge:].max())
        if boundary > nearby:
            raise DivergentGaps(
                f"boundary gap mass {boundary:.3g} exceeds central mass {nearby:.3g}")

    # the decay fits, whose transients are the largest, before the orbit
    kf = _envelope_exponent(S[N:])
    kb = _envelope_exponent(S[N::-1])
    del S
    total = float(g.sum())
    g /= total

    shift, sign = map(np.array, zip(*E.as_float().branches))
    pts = np.multiply(*branch_walk(word[:-1] - 1, shift, sign, 1.0,
                                   float(p_start)))      # z_k = e_k u_k
    order = np.argsort(pts)
    if np.diff(pts[order]).min() <= 0:
        raise DivergentGaps("duplicate orbit points: the blow-up point was not "
                            "located precisely enough")
    pos = np.empty(2 * N + 1)
    pos[order] = np.concatenate([[0.0], np.cumsum(g[order])[:-1]])

    if tail_raw > 10 * total:
        raise DivergentGaps("extension mass dwarfs the window; the sum is "
                            "not Cauchy at this horizon")

    return GapSystem(half_width=N, orbit_points=pts, symbols=word,
                     gap_lengths=g, order=order, positions=pos,
                     total_gap=total, tail_estimate=tail_raw / total,
                     kappa_forward=kf, kappa_backward=kb, iet=E)


@dataclass
class AietApprox:
    """Global affine exchange assembled from a gap system.

    The map sends gap n affinely onto gap n+1 with orientation tau_{a_n} and
    slope exp(w_{a_n}); piecewise it is the n_pieces-branch affine map whose
    breakpoints are the blown-up breakpoints of the underlying exchange.  The
    boundary gaps (n = +-N) are truncation artifacts and excluded from
    certification.
    """

    breakpoints: tuple               # 0 = b_0 < b_1 < ... < b_n = 1
    slopes: tuple                    # signed: tau_i * exp(w_i)
    intercepts: tuple                # fitted per piece
    flips: tuple

    def piece_of(self, y: float) -> int:
        i = bisect_left(self.breakpoints, y)
        return min(max(i, 1), len(self.breakpoints) - 1)

    def eval(self, y: float) -> float:
        i = self.piece_of(y)
        return self.slopes[i - 1] * y + self.intercepts[i - 1]


def _median(a):
    """np.median of a nonempty 1-d float array, bit for bit: the middle
    element, or (a + b) / 2 of the two middle ones, and the NaN itself when
    the array holds one.  np.median's own NaN check imports numpy.ma."""
    h = len(a) // 2
    odd = len(a) % 2
    part = np.partition(a, [h, len(a) - 1] if odd else [h - 1, h, len(a) - 1])
    if np.isnan(part[-1]):          # a NaN partitions past every number
        return part[-1]
    return part[h] if odd else (part[h - 1] + part[h]) / 2


def aiet_from_gaps(gs: GapSystem) -> AietApprox:
    """Assemble the global affine map from the gap recursion.  Raises
    DivergentGaps when a piece has no interior gap pair to fit it on."""
    E = gs.iet
    # blown-up breakpoints: mass strictly left of each x_j
    xs = E.as_float().x
    sorted_pts = gs.orbit_points[gs.order]
    csum = np.concatenate([[0.0], np.cumsum(gs.gap_lengths[gs.order])])
    bks = [0.0]
    for xj in xs[1:-1]:
        k = int(np.searchsorted(sorted_pts, xj))
        bks.append(float(csum[k]))
    bks.append(1.0)

    mids = gs.positions + gs.gap_lengths / 2
    slopes = []
    intercepts = []
    for i, sel in enumerate(gs.interior_classes(), start=1):
        if not len(sel):
            raise DivergentGaps(f"piece {i} has no interior gap pair in the "
                                f"window of half-width {gs.half_width}")
        ratio = gs.gap_lengths[sel + 1] / gs.gap_lengths[sel]
        beta = E.tau[i - 1] * float(_median(ratio))
        slopes.append(beta)
        intercepts.append(float(_median(mids[sel + 1] - beta * mids[sel])))
    return AietApprox(breakpoints=tuple(bks), slopes=tuple(slopes),
                      intercepts=tuple(intercepts), flips=E.tau)


@dataclass
class WanderingCertificate:
    disjoint: bool
    max_overlap: float
    orbit_points_distinct: bool
    affine_defect: float             # max intercept spread across symbol classes
    affine_ok: bool
    semiconjugacy_defect: float
    semiconjugacy_ok: bool
    semiconjugacy_skipped: int       # samples whose point hit a breakpoint
    density: float                   # max distance from grid to nearest gap
    density_ok: bool
    forward_density: float
    backward_density: float
    two_sided_density: bool
    birkhoff_kappa: tuple            # (forward, backward) fitted exponents
    kappa_ok: bool
    tolerances: dict

    @property
    def ok(self):
        return (self.disjoint and self.orbit_points_distinct and self.affine_ok
                and self.semiconjugacy_ok and self.density_ok
                and self.two_sided_density)


def _max_distance_to_intervals(grid, lefts, rights):
    """Max over grid points of the distance to the union of [left, right]."""
    k = np.searchsorted(lefts, grid)
    dist_left = np.where(k > 0, grid - rights[np.maximum(k - 1, 0)], np.inf)
    dist_right = np.where(k < len(lefts), lefts[np.minimum(k, len(lefts) - 1)] - grid,
                          np.inf)
    d = np.minimum(np.maximum(dist_left, 0), np.maximum(dist_right, 0))
    return float(d.max())


def verify_wandering(gs: GapSystem, T: AietApprox, E: IetSpec,
                     kappa_target: Optional[float] = None) -> WanderingCertificate:
    """Certify the truncated blow-up; every field is computed, none defaulted.

    The tolerances are 10x the estimated truncation tail for the affine and
    semiconjugacy defects, 0.01 for gap density, 0.02 for the one-sided
    densities and 0.05 for the decay exponents; all are recorded in the
    certificate.  The SEMI_SAMPLES semiconjugacy samples are distinct
    interior indices drawn by draws.Pcg64(2024).sample, which is
    numpy's default_rng(2024).choice(np.arange(1, 2N), replace=False)
    without numpy.random.  A sample whose orbit point lies on a breakpoint
    of the float exchange (AtDiscontinuity) is skipped and counted in
    semiconjugacy_skipped; any other error propagates.
    """
    N = gs.half_width
    tail = gs.tail_estimate
    tol = {"affine": 10 * tail, "semi": 10 * tail, "density": 0.01,
           "two_sided": 0.02, "kappa": 0.05}

    order = gs.order
    po = gs.positions[order]
    go = gs.gap_lengths[order]
    overlap = float(((po[:-1] + go[:-1]) - po[1:]).max())
    distinct = bool(np.diff(gs.orbit_points[order]).min() > 0)

    mids = gs.positions + gs.gap_lengths / 2
    affine_defect = 0.0
    for i, sel in enumerate(gs.interior_classes(), start=1):
        if len(sel) < 2:
            continue
        beta = T.slopes[i - 1]
        c_vals = mids[sel + 1] - beta * mids[sel]
        affine_defect = max(affine_defect, float(c_vals.max() - c_vals.min()))

    # semiconjugacy h: collapse each gap to its orbit point
    lefts, rights = po, po + go

    def h(y):
        k = int(np.searchsorted(lefts, y, side="right")) - 1
        k = min(max(k, 0), len(lefts) - 1)
        return float(gs.orbit_points[order[k]])

    Ef = E.as_float()
    semi_defect = 0.0
    skipped = 0
    # distinct interior indices 1 .. 2N - 1
    pick = [k + 1 for k in Pcg64(2024).sample(2 * N - 1,
                                              min(SEMI_SAMPLES, 2 * N - 1))]
    for k in pick:
        y = gs.positions[k]                    # a boundary point of the gap set
        hy = float(gs.orbit_points[k])
        try:
            lhs = Ef.eval(hy)
        except AtDiscontinuity:
            skipped += 1
            continue
        ty = min(max(T.eval(y), 0.0), 1.0 - 1e-15)
        semi_defect = max(semi_defect, abs(lhs - h(ty)))

    grid = np.linspace(0.0, 1.0, 2001)
    density = _max_distance_to_intervals(grid, lefts, rights)

    def subset_density(o):
        return _max_distance_to_intervals(grid, gs.positions[o],
                                          gs.positions[o] + gs.gap_lengths[o])

    fdens = subset_density(order[order > N])
    bdens = subset_density(order[order < N])

    kf, kb = gs.kappa_forward, gs.kappa_backward
    kappa_ok = True
    if kappa_target is not None:
        kappa_ok = (abs(kf - kappa_target) <= tol["kappa"]
                    and abs(kb - kappa_target) <= tol["kappa"])

    return WanderingCertificate(
        disjoint=bool(overlap <= 1e-12), max_overlap=max(overlap, 0.0),
        orbit_points_distinct=distinct,
        affine_defect=affine_defect, affine_ok=bool(affine_defect <= tol["affine"]),
        semiconjugacy_defect=semi_defect,
        semiconjugacy_ok=bool(semi_defect <= tol["semi"]),
        semiconjugacy_skipped=skipped,
        density=density, density_ok=bool(density <= tol["density"]),
        forward_density=fdens, backward_density=bdens,
        two_sided_density=bool(fdens <= tol["two_sided"] and bdens <= tol["two_sided"]),
        birkhoff_kappa=(kf, kb), kappa_ok=kappa_ok,
        tolerances=tol)


@dataclass
class ErgodicReport:
    per_seed: tuple                  # tuple of per-piece time averages
    spread: float                    # max cross-seed range of any average
    max_deviation: Optional[float]   # vs the reference vector, if given
    retries: int
    steps: int


PROBE_HISTORY = 2 ** 15      # steps of the one history that seeds the guesses
PROBE_SEED_STEPS = 2 ** 10   # of them, the scalar steps that it starts from
PROBE_BLOCK = 2 ** 14        # most steps one verified block advances


def _layout(Ef: IetSpec, pts, word):
    """The guess history of the points h_0 .. h_{m-1} and their word w:
    the points sorted, with their order (int32), the word, E_k = sign[w_0]
    ... sign[w_{k-1}] for k = 0 .. m (E_0 = 1, int8), the signed shifts
    E_{k+1} shift[w_k], and the ends of each step's piece seen in the frame
    E_k: E_k h_k lies strictly between the k-th pair."""
    order = np.argsort(pts, kind="stable")
    xa = np.array(Ef.x)
    shift, sign = map(np.array, zip(*Ef.branches))
    e = np.empty(len(word) + 1, dtype=np.int8)
    e[0] = 1
    np.cumprod(sign.astype(np.int8)[word - 1], dtype=np.int8, out=e[1:])
    flip = e[:-1] < 0                 # the frame -1 swaps the piece's ends
    return (pts[order], order.astype(np.int32), word, e,
            e[1:] * shift[word - 1], e[:-1] * xa[word - 1 + flip],
            e[:-1] * xa[word - flip])


def _block(Ef: IetSpec, history, z, budget):
    """One verified block of at most budget steps of the float orbit of z,
    guessed from the history (see _orbit_counts): (j, p, v, i, z').  The
    orbit's first p points are e[j:j + p] v[:p], with the symbols
    word[j:j + p].  When the guess held to the block's end, i is 0 and z'
    is the next point, e[j + p] v[p]; otherwise one step of Ef.orbit moves
    that point on: i is its symbol and z' the point after it.  None when
    that step hits a breakpoint."""
    sorted_pts, order, word, e, signed, lo, hi = history
    m = len(word)
    k = int(np.searchsorted(sorted_pts, z))
    if k == m or (k > 0 and z - sorted_pts[k - 1] < sorted_pts[k] - z):
        k -= 1
    j = int(order[k])
    L = min(PROBE_BLOCK, budget, m - j)
    v = np.cumsum(np.concatenate(([e[j] * z], signed[j:j + L])))
    ok = (lo[j:j + L] < v[:L]) & (v[:L] < hi[j:j + L])
    p = L if ok.all() else int(ok.argmin())
    z = float(e[j + p] * v[p])
    if p == L:
        return j, p, v, 0, z
    step = Ef.orbit(z, 1)
    if step.terminated_at_discontinuity is not None:
        return None
    return j, p, v, step.word[0], step.points[-1]


def _orbit_counts(Ef: IetSpec, z, steps, history=None):
    """(counts, history): the visits to pieces 1..n of the float orbit of z
    over steps steps, equal to the word of Ef.orbit(z, steps), and the
    history to guess the next orbit from; None on a breakpoint hit.

    From step 0, each block of up to PROBE_BLOCK steps (_block) takes as its
    guess the itinerary that follows the history point h_j nearest to z
    (nearby points share their pieces for a long time).  The block walks in
    the history's frame: v = cumsum([E_j z, signed shifts from j]) is
    iet.branch_walk's u times E_j, exactly, since rounding is odd, so its
    k-th point is E_{j+k} v_k, the step-by-step float bit for bit.  Each v_k
    is checked to lie strictly between its guessed piece's ends in that
    frame, which is Ef.orbit's check on the point; the verified prefix is
    counted, and at the first mismatch one step of Ef.orbit moves on, or
    reports the hit.

    One walk per orbit: with no history given, the orbit grows its own over
    its first H = min(steps, PROBE_HISTORY) steps as it counts them.  They
    start with one Ef.orbit of PROBE_SEED_STEPS steps; then each block,
    guessed from the history so far, appends its points e_{j+k} v_k and
    symbols, and those of the step it handed over, and the buffers are laid
    out again (_layout) each time they double.  So the history is
    Ef.orbit(z, H) bit for bit, with no Python float per step.  A history
    that was given is returned as it came.

    Once grown, a history whose blocks average fewer than 64 steps, with
    PROBE_HISTORY steps of credit, does not follow this orbit (it may never
    visit the orbit's part of the domain, as in a periodic island of an
    exchange that is not minimal); the orbit then grows its own from where
    it stands.
    """
    counts = np.zeros(Ef.n + 1, dtype=np.int64)
    shared, pts = history, None       # pts: the points of a growing history
    done = blocks = since = 0
    while done < steps:
        if pts is None and (history is None
                            or 64 * blocks > PROBE_HISTORY + done - since):
            history, since = None, done
            H = min(steps - done, PROBE_HISTORY)
            seg = Ef.orbit(z, min(H, PROBE_SEED_STEPS))
            if seg.terminated_at_discontinuity is not None:
                return None
            pts = np.empty(H)
            word = np.empty(H, dtype=np.min_scalar_type(Ef.n))
            t = len(seg.word)             # the entries of the next layout
            pts[:t], word[:t], z = seg.points[:-1], seg.word, seg.points[-1]
            counts += np.bincount(word[:t], minlength=Ef.n + 1)
            done += t
            del seg
        else:
            walked = _block(Ef, history, z, steps - done if pts is None
                            else since + t - done)
            if walked is None:
                return None
            j, p, v, i, z = walked
            guess, e = history[2:4]
            blocks += 1
            counts += np.bincount(guess[j:j + p], minlength=Ef.n + 1)
            counts[i] += 1                # counts[0] when none is handed over
            if pts is not None:
                m = done - since
                np.multiply(e[j:j + p], v[:p], out=pts[m:m + p])
                word[m:m + p] = guess[j:j + p]
                if i:
                    pts[m + p], word[m + p] = e[j + p] * v[p], i
            done += p + (i != 0)
            del walked, guess, e, v       # nothing of it outlives a layout
        if pts is not None and done - since == t:
            history = None                # the old layout goes first
            history = _layout(Ef, pts[:t], word[:t])
            if t < len(pts):
                t = min(2 * t, len(pts))
            else:                         # grown: held to the rule from now
                pts = word = None
                blocks, since = 0, done
    return counts[1:].tolist(), history if shared is None else shared


def ergodic_probe(E: IetSpec, seeds, steps: int,
                  reference=None) -> ErgodicReport:
    """Time averages of the piece indicators along float orbits.

    seeds may be a count or an iterable of floats.  A count draws its start
    points from draws.Pcg64(2024).random(), which is numpy's
    default_rng(2024).random() without numpy.random.  A discontinuity hit
    reseeds, up to 10 retries per orbit.

    The orbits run in verified blocks (_orbit_counts), and they are exactly
    the step-by-step float orbits z -> a_i + s_i z (s_i = +-1): once the
    pieces are known, iet.branch_walk's one cumsum gives every point bit for
    bit, and each point's piece is checked as bisect_left finds it, hits
    included.  One walk per orbit: the first seed's orbit grows the history
    that every later orbit guesses from, by the same verified blocks that
    count it; a first seed that hits a breakpoint is reseeded, and the
    history is grown from the new seed.  An empty seed set is a ValueError.
    """
    if steps < MIN_PROBE_STEPS:
        raise ValueError("probe needs at least 1e4 steps")
    Ef = E.as_float()
    lo, span = Ef.x[0], Ef.x[-1] - Ef.x[0]
    if isinstance(seeds, int):
        rng = Pcg64(2024)
        seed_pts = [lo + span * (0.02 + 0.96 * rng.random()) for _ in range(seeds)]
    else:
        seed_pts = [float(s) for s in seeds]
    if not seed_pts:
        raise ValueError("probe needs at least one seed")

    retries = 0
    averages = []
    history = None
    for z0 in seed_pts:
        attempts = 0
        while True:
            walked = _orbit_counts(Ef, z0, steps, history)
            if walked is not None:
                counts, history = walked
                averages.append(tuple(c / steps for c in counts))
                break
            attempts += 1
            retries += 1
            if attempts > 10:
                raise ProbeHitsDiscontinuities("orbit kept hitting discontinuities")
            z0 = lo + span * ((z0 * 7919.77 + attempts) % 1.0)

    spread = max(max(col) - min(col) for col in zip(*averages))
    max_dev = None
    if reference is not None:
        ref = [float(v) for v in reference]
        max_dev = max(abs(av[j] - ref[j]) for av in averages for j in range(E.n))

    return ErgodicReport(per_seed=tuple(averages), spread=spread,
                         max_deviation=max_dev, retries=retries, steps=steps)
