import random
from fractions import Fraction

import numpy as np
import pytest

from flipiet import numfield, selfsim
from flipiet.errors import EmptyCylinder, NoFixedSeed
from flipiet.iet import IetSpec
from flipiet.quintic import (MATRIX, REFERENCE_ITINERARIES, bundled_iet,
                             bundled_theta1)
from flipiet.selfsim import (Substitution, associated_matrix, cylinder_locate,
                             fixed_word, induce, occurrence_addresses,
                             self_similarity_check, stationary_window,
                             substitution_from)


@pytest.fixture(scope="module")
def E():
    return bundled_iet()


@pytest.fixture(scope="module")
def J(E):
    th1 = bundled_theta1()
    one = E.lengths[0].field.rational(1, th1.embedding)
    return (E.origin, one / th1)


def test_induce_full_domain_is_identity_return(E):
    ind = induce(E, (E.x[0], E.x[-1]))
    assert ind.itineraries.exponents == (1,) * 5
    assert ind.sub_iet.sp == E.sp
    assert ind.sub_iet.lengths == E.lengths


def test_float_view_is_refused_before_any_step(E, J, monkeypatch):
    # induction compares exactly, so a float view is refused up front with
    # ValueError, whatever the window, and no piece is pushed a step; on
    # random float views the push used to raise a bare StopIteration
    def no_step(*args):
        raise AssertionError("a piece was pushed on a float view")

    monkeypatch.setattr(selfsim, "bisect_left", no_step)
    rng = random.Random(2024)
    views = [E.as_float()]
    for _ in range(50):
        n = rng.randint(3, 6)
        perm = rng.sample(range(1, n + 1), n)
        sp = tuple(p * rng.choice((1, -1)) for p in perm)
        views.append(IetSpec(tuple(Fraction(rng.randint(1, 99), rng.randint(1, 99))
                                   for _ in range(n)), sp).as_float())
    for F in views:
        windows = [(F.x[0], F.x[0] + 0.61 * (F.x[-1] - F.x[0])), (F.x[0], F.x[-1])]
        if F is views[0]:
            windows.append(J)
        for fn in (induce, associated_matrix, self_similarity_check):
            for window in windows:
                with pytest.raises(ValueError, match="exact exchanges only"):
                    fn(F, window)


def test_induce_rotation_half():
    E2 = IetSpec((Fraction(1, 2), Fraction(1, 2)), (2, 1))
    ind = induce(E2, (Fraction(0), Fraction(1, 2)))
    assert len(ind.itineraries.exponents) == 1
    assert ind.itineraries.exponents == (2,)
    assert ind.itineraries.words == ((1, 2),)


def test_induce_contracted_copy(E, J):
    th1 = bundled_theta1()
    ind = induce(E, J)
    assert ind.sub_iet.sp == (-5, -3, 2, 1, -4)
    for i in range(5):
        assert ind.sub_iet.lengths[i] * th1 == E.lengths[i]


def test_induced_pieces_tile_J(E, J):
    ind = induce(E, J)
    total = J[1] - J[0]
    s = ind.sub_iet.lengths[0]
    for v in ind.sub_iet.lengths[1:]:
        s = s + v
    assert s == total


def test_associated_matrix_and_words(E, J):
    m, its = associated_matrix(E, J)
    assert m == MATRIX
    for i, n, w in REFERENCE_ITINERARIES:
        assert its.exponents[i - 1] == n
        assert its.words[i - 1] == w


def test_kac_identity(E, J):
    # return times weighted by piece length fill the whole domain exactly
    ind = induce(E, J)
    acc = None
    for t, (lo, hi) in zip(ind.itineraries.exponents, ind.parts):
        term = (hi - lo) * t
        acc = term if acc is None else acc + term
    assert acc == E.total_length


def test_self_similarity_certificate(E, J):
    th1 = bundled_theta1()
    ss = self_similarity_check(E, J)
    assert ss.ok
    assert ss.scale == th1


def test_self_similarity_counterexample(E):
    half = E.lengths[0].field.rational(Fraction(1, 2), bundled_theta1().embedding)
    res = self_similarity_check(E, (E.origin, half))
    assert not res.ok


def test_self_similarity_identity_perm():
    # the identity permutation is self-similar only on the full domain: any
    # proper window cuts it into a different number of pieces
    E2 = IetSpec((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), (1, 2, 3))
    res = self_similarity_check(E2, (Fraction(0), Fraction(1)))
    assert res.ok and res.scale == 1
    res2 = self_similarity_check(E2, (Fraction(0), Fraction(1, 2)))
    assert not res2.ok
    # integer lengths and window stay exact: the scale is not a float
    res3 = self_similarity_check(IetSpec((1, 1, 1), (1, 2, 3)), (0, 3))
    assert res3.ok and res3.scale == 1 and not isinstance(res3.scale, float)


def test_self_similarity_names_the_piece_whose_ratio_differs():
    # on (1/2, 7/2) the identity exchange of lengths 1, 2, 3 induces the
    # identity on lengths 1/2, 2, 1/2: the first piece keeps the ratio
    # width/total = 1/2, the second does not
    res = self_similarity_check(IetSpec((1, 2, 3), (1, 2, 3)),
                                (Fraction(1, 2), Fraction(7, 2)))
    assert not res.ok
    assert res.reason == "length ratio differs at piece 2"


def test_associated_matrix_full_domain(E):
    m, its = associated_matrix(E, (E.x[0], E.x[-1]))
    # each return word is the single symbol of its own piece
    assert its.words == ((1,), (2,), (3,), (4,), (5,))
    assert m == tuple(tuple(int(i == j) for j in range(5)) for i in range(5))


def test_substitution_and_abelianization(E, J):
    _, its = associated_matrix(E, J)
    sigma = substitution_from(its)
    assert sigma.images[1] == (1, 5, 1, 4)
    assert sigma.images[5] == (1, 5, 2, 1, 5, 4)
    assert tuple(sigma.images[i + 1] for i in range(len(its.words))) == its.words
    assert its.counts_matrix() == MATRIX


def test_fixed_words(E, J):
    _, its = associated_matrix(E, J)
    sigma = substitution_from(its)
    word, seed = fixed_word(sigma, "forward", 4)
    assert tuple(word) == (1, 5, 1, 4) and seed == 1
    word, seed = fixed_word(sigma, "backward", 1)
    assert tuple(word) == (4,) and seed == 4
    (past, future), (b, a) = fixed_word(sigma, "two_sided", 6)
    assert (b, a) == (4, 1)
    assert tuple(future[:4]) == (1, 5, 1, 4)
    assert past[-1] == 4


def test_fixed_word_small_substitution():
    sigma = Substitution({1: (1, 2), 2: (2, 1)})
    word, seed = fixed_word(sigma, "forward", 3)
    assert tuple(word) == (1, 2, 2) and seed == 1


def test_substitution_gather_matches_tuple_reference(E, J):
    # random words, the empty one included, over the bundled substitution,
    # a two-letter one and one of 300 letters; images come in the smallest
    # unsigned dtype of the alphabet (one byte below 256)
    _, its = associated_matrix(E, J)
    rng = np.random.default_rng(3)
    wide = Substitution({a: (a % 300 + 1, a) for a in range(1, 301)})
    for sigma, dtype in ((substitution_from(its), np.uint8),
                         (Substitution({1: (1, 2), 2: (2, 1)}), np.uint8),
                         (wide, np.uint16)):
        for length in (0, 1, 2, 17, 1000):
            word = rng.integers(1, len(sigma.alphabet) + 1, size=length)
            got = sigma(word)
            assert got.dtype == dtype and got.shape == (len(got),)
            assert tuple(got) == _substitute(sigma, word)
            assert tuple(sigma(got)) == _substitute(sigma, got)
    assert sigma(()).tolist() == []


def test_substitution_rejects_symbols_outside_the_alphabet():
    # an unchecked gather would read some image, or past the end, for each
    sigma = Substitution({1: (1, 2), 2: (2, 1)})
    for word, bad in (([1, 0], 0), ([2, 3], 3), ([2, -1, 1], -1)):
        with pytest.raises(ValueError, match=f"symbol {bad} outside"):
            sigma(np.array(word))
    # so the alphabet is of positive symbols, each with a nonempty image
    for images in ({}, {0: (1,), 1: (1,)}, {-1: (1,), 1: (1,)}, {1: (1,), 2: ()}):
        with pytest.raises(ValueError, match="must be positive"):
            Substitution(images)


def test_fixed_word_no_seed():
    sigma = Substitution({1: (2,), 2: (1,)})
    with pytest.raises(NoFixedSeed):
        fixed_word(sigma, "forward", 3)


def test_occurrence_addresses(E, J):
    _, its = associated_matrix(E, J)
    sigma = substitution_from(its)
    addrs = occurrence_addresses(sigma, 1)
    assert (5, 1, 1) in addrs           # images[5] = 151 2 154: symbol 5 at offset 1
    assert all(sigma.images[c][j] == c for (c, j, _m) in addrs)


def test_stationary_window_consistency(E, J):
    _, its = associated_matrix(E, J)
    sigma = substitution_from(its)
    past, future = stationary_window(sigma, (5, 1, 1), 40, 40)
    assert len(past) == 40 and len(future) == 41
    assert future[0] == 5
    # the window is substitution-stationary: blowing up the inner window
    # reproduces the outer one around the origin
    p2, f2 = stationary_window(sigma, (5, 1, 1), 300, 300)
    assert tuple(p2[-40:]) == tuple(past) and tuple(f2[:41]) == tuple(future)


def _substitute(sigma, word):
    """The tuple substitution that Substitution's gather replaced, kept as
    the reference: the images joined symbol by symbol."""
    out = []
    for s in word:
        out.extend(sigma.images[s])
    return tuple(out)


def _stationary_window_uncut(sigma, address, back, fwd):
    """Reference: the window from whole blocks sigma^(k*power)(s) and
    sigma^(k*power)(p), cut only at the end, as tuples."""
    c, j, power = address
    img = sigma.images[c]
    for _ in range(power - 1):
        img = _substitute(sigma, img)
    p, s = img[:j], img[j + 1:]

    def blow(word):
        for _ in range(power):
            word = _substitute(sigma, word)
        return word

    future, block = (c,) + s, s
    while len(future) < fwd + 1:
        block = blow(block)
        future = future + block
    past, block = p, p
    while len(past) < back:
        block = blow(block)
        past = block + past
    return past[-back:] if back else (), future[: fwd + 1]


def test_stationary_window_matches_uncut_construction(E, J):
    _, its = associated_matrix(E, J)
    sigma = substitution_from(its)
    addresses = occurrence_addresses(sigma, 1) + occurrence_addresses(sigma, 2)
    assert any(m == 2 for (_c, _j, m) in addresses)
    for address in addresses:
        for back, fwd in ((0, 0), (1, 3), (40, 7), (300, 301), (5000, 123),
                          (17, 20000)):
            got = stationary_window(sigma, address, back, fwd)
            assert tuple(map(tuple, got)) == \
                _stationary_window_uncut(sigma, address, back, fwd)


def _stationary_window_expand_then_cut(sigma, address, back, fwd):
    """Reference: each level's missing symbols are cut from the image of
    the level before's missing symbols, so every gather expands them all.
    Its words are in the dtype of sigma's images, as the window's are."""
    c, j, power = address
    img = np.array(sigma.images[c], dtype=sigma(()).dtype)
    for _ in range(power - 1):
        img = sigma(img)
    p, s = img[:j], img[j + 1:]

    def ray(blocks, need, head):
        def cut(word):
            return word[:need - have] if head else word[have - need:]

        have = sum(map(len, blocks))
        while have < need:
            block = blocks[-1]
            for _ in range(power):
                block = sigma(cut(block))
            blocks.append(cut(block))
            have += len(blocks[-1])
        return np.concatenate(blocks if head else blocks[::-1])

    future = ray([img[j:j + 1], s], fwd + 1, True)[:fwd + 1]
    past = ray([p], back, False)
    return past[len(past) - back:], future


def test_stationary_window_matches_expand_then_cut(E, J):
    # the gathers expand only the prefix (suffix) whose images cover the
    # missing symbols; the window is the same one-byte arrays, out to the
    # half-width N + TAIL_PROBE of a blow-up at N = 2 * 10**4
    from flipiet.denjoy import TAIL_PROBE
    _, its = associated_matrix(E, J)
    sigma = substitution_from(its)
    for address in occurrence_addresses(sigma, 1) + occurrence_addresses(sigma, 2):
        for back, fwd in ((1, 1), (1, 2 * 10 ** 4 + TAIL_PROBE), (613, 29),
                          (2 * 10 ** 4 + TAIL_PROBE, 2 * 10 ** 4 + TAIL_PROBE)):
            got = stationary_window(sigma, address, back, fwd)
            want = _stationary_window_expand_then_cut(sigma, address, back, fwd)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.uint8 and np.array_equal(g, w)


def test_cylinder_single_symbol(E):
    lo, hi = cylinder_locate(E, (1,))
    assert lo == E.x[0] and hi == E.x[1]


def test_cylinder_matches_itinerary(E):
    word = (1, 5, 2, 1, 4)
    lo, hi = cylinder_locate(E, word)
    mid = (lo + hi) / Fraction(2)
    assert tuple(E.orbit(mid, 5).word) == word


def test_cylinder_empty(E):
    # piece 3 maps onto slot 2 which is disjoint from piece 3
    with pytest.raises(EmptyCylinder):
        cylinder_locate(E, (3, 3))


def test_cylinder_rejects_bad_input(E, monkeypatch):
    monkeypatch.setattr(selfsim, "CYLINDER_BLOCK", 7)
    for word in ((), (1, 6), (0, 1), (1,) * 20 + (6,)):
        with pytest.raises(ValueError):
            cylinder_locate(E, word)
    with pytest.raises(ValueError, match="symbol 7 outside 1..5"):
        cylinder_locate(E, (1, 5) * 9 + (7, 0))
    for word, bad in (((1, 5) * 9 + (0, 2), 0), ((2, 6, 1), 6)):
        with pytest.raises(ValueError, match=f"symbol {bad} outside 1..5"):
            cylinder_locate(E, np.array(word))
    with pytest.raises(ValueError):
        cylinder_locate(E.as_float(), (1,))


def test_cylinder_width_shrinks(E, J):
    # widths contract by about the cycle scale per substitution level:
    # measured 6.2e-3 after two levels (56 symbols), 7.9e-4 after three
    _, its = associated_matrix(E, J)
    sigma = substitution_from(its)
    word, _ = fixed_word(sigma, "forward", 214)
    lo, hi = cylinder_locate(E, word[:56])
    w56 = float(hi - lo)
    lo, hi = cylinder_locate(E, word)
    w214 = float(hi - lo)
    assert w56 < 7e-3
    assert w214 < 1e-3
    assert w214 < w56 / 7


def _reference_cylinder(E, word):
    """The scalar walk cylinder_locate replaced: iterated inverse images with
    the exchange's own scalars and their comparisons."""
    lo, hi = E.x[word[-1] - 1], E.x[word[-1]]
    for sym in word[-2::-1]:
        j = E.pi[sym - 1]
        slo, shi = E.y[j - 1], E.y[j]
        lo2 = lo if lo > slo else slo
        hi2 = hi if hi < shi else shi
        if not (lo2 < hi2):
            raise EmptyCylinder(f"prefix unrealizable at symbol {sym}")
        pl, pr = E.x[sym - 1], E.x[sym]
        if E.tau[sym - 1] > 0:
            lo, hi = pl + (lo2 - slo), pl + (hi2 - slo)
        else:
            lo, hi = pr - (hi2 - slo), pr - (lo2 - slo)
    return lo, hi


def _outcome(E, word, locate):
    try:
        return locate(E, word)
    except EmptyCylinder as exc:
        return ("empty", str(exc))


def _same_endpoints(got, want):
    return all(type(g) is type(w) and g == w
               and getattr(g, "coords", None) == getattr(w, "coords", None)
               for g, w in zip(got, want))


@pytest.fixture(scope="module")
def window_word(E, J):
    _, its = associated_matrix(E, J)
    past, future = stationary_window(substitution_from(its), (5, 1, 1),
                                     300, 300)
    return np.concatenate((past, future))


def _check_window_word(E, window_word):
    # seeded prefixes and suffixes of the bundled N = 300 window word, and
    # the whole word: identical exact endpoints
    rng = random.Random(5)
    cuts = [len(window_word)] + rng.sample(range(1, len(window_word)), 12)
    words = ([window_word[:c] for c in cuts]
             + [window_word[-c:] for c in cuts])
    for word in words:
        assert _same_endpoints(cylinder_locate(E, word),
                               _reference_cylinder(E, word))


def _check_rational_exchanges():
    # seeded Fraction-length exchanges, lengths drawn from a few values so
    # that integer combinations of them often tie exactly; words are
    # itineraries of random points (nonempty cylinders) and random symbol
    # strings (mostly empty ones), which must fail at the same symbol
    rng = random.Random(11)
    values = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(2, 3))
    empty = nonempty = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        sp = tuple(p * rng.choice((1, -1)) for p in perm)
        E2 = IetSpec(tuple(rng.choice(values) for _ in range(n)), sp,
                     origin=Fraction(rng.randint(-3, 3), 7))
        words = []
        for _ in range(3):
            x = E2.origin + E2.total_length * Fraction(rng.randint(1, 10 ** 6),
                                                       10 ** 6 + 1)
            words.append(tuple(E2.orbit(x, rng.randint(1, 40)).word))
            words.append(tuple(rng.randint(1, n)
                               for _ in range(rng.randint(1, 6))))
        for word in filter(None, words):
            got = _outcome(E2, word, cylinder_locate)
            want = _outcome(E2, word, _reference_cylinder)
            if want[0] == "empty":
                assert got == want
                empty += 1
            else:
                assert _same_endpoints(got, want)
                nonempty += 1
    assert empty > 50 and nonempty > 50


def test_cylinder_matches_reference_walk_on_window_word(E, window_word):
    _check_window_word(E, window_word)


def test_cylinder_matches_reference_walk_on_rational_exchanges():
    _check_rational_exchanges()


@pytest.mark.parametrize("block", [1, 7])
def test_cylinder_blocks_carry_sign_and_shift(E, window_word, monkeypatch,
                                              block):
    # blocks far shorter than the words, so that the composed sign and shift
    # and the running extremes cross many block boundaries
    monkeypatch.setattr(selfsim, "CYLINDER_BLOCK", block)
    _check_window_word(E, window_word)
    _check_rational_exchanges()


def test_cylinder_falls_back_to_exact_signs_on_near_ties():
    # two swapped pieces of lengths a and b: the cylinder of (1, 1) is
    # (0, a - b) when a > b and empty otherwise, and a - b = +-2^-60 is
    # below the float filter's resolution
    tiny = Fraction(1, 2 ** 60)
    for a, b in ((1 + tiny, Fraction(1)), (Fraction(1), 1 + tiny)):
        E2 = IetSpec((a, b), (2, 1), origin=Fraction(0))
        before = numfield.FILTER_COUNTS["exact"]
        got = _outcome(E2, (1, 1), cylinder_locate)
        assert numfield.FILTER_COUNTS["exact"] > before
        want = _outcome(E2, (1, 1), _reference_cylinder)
        assert got == want if want[0] == "empty" else _same_endpoints(got, want)
        assert (want[0] == "empty") == (a < b)


def test_cylinder_decides_in_the_filter(E, J):
    # the bundled N = 2000 window word: the float filter settles the
    # intersection of the constraints of its 4,001 symbols with at most two
    # exact fallbacks
    _, its = associated_matrix(E, J)
    past, future = stationary_window(substitution_from(its), (5, 1, 1),
                                     2000, 2000)
    before = dict(numfield.FILTER_COUNTS)
    cylinder_locate(E, np.concatenate((past, future)))
    assert numfield.FILTER_COUNTS["exact"] - before["exact"] <= 2


def test_induce_matches_brute_force_on_random_exchanges(monkeypatch):
    from flipiet.errors import FlipIetError
    monkeypatch.setattr(selfsim, "DEFAULT_RETURN_CAP", 3000)
    rng = random.Random(41)
    done = 0
    while done < 60:
        n = rng.randint(2, 5)
        base = list(range(1, n + 1))
        rng.shuffle(base)
        sp = tuple(v * rng.choice([1, -1]) for v in base)
        lengths = tuple(Fraction(rng.randint(1, 20), rng.randint(1, 20))
                        for _ in range(n))
        try:
            E2 = IetSpec(lengths, sp)
        except Exception:
            continue
        total = E2.total_length
        c = total * Fraction(rng.randint(0, 3), 17)
        d = c + total * Fraction(rng.randint(5, 13), 17)
        if d > total:
            continue
        try:
            ind = induce(E2, (c, d))
        except FlipIetError:
            continue
        # oracle: brute-force first return of midpoints of every induced piece
        for (lo, hi), t, word in zip(ind.parts, ind.itineraries.exponents,
                                     ind.itineraries.words):
            x = (lo + hi) / 2
            z = x
            seen = []
            for _k in range(t):
                seen.append(E2.piece_of(z))
                z = E2.eval(z)
            assert tuple(seen) == word
            assert c <= z <= d
            assert ind.sub_iet.eval(x) == z
            # the return really is the first one
            z2 = E2.eval(x)
            for _k in range(1, t):
                assert not (c < z2 < d)
                z2 = E2.eval(z2)
        done += 1
    assert done == 60
