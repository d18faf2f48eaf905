import random
from fractions import Fraction

import numpy as np
import pytest

from flipiet.errors import (AtDiscontinuity, InvalidPermutation,
                            NonpositiveLength)
from flipiet.iet import IetSpec
from flipiet.quintic import bundled_iet, bundled_theta1


def recompute_permutation(E):
    """The signed permutation of the exact exchange E re-derived from the
    images of its piece midpoints and its pieces' orientations,
    independently of the stored one."""
    mids = []
    for i in range(1, E.n + 1):
        m = (E.x[i - 1] + E.x[i]) / Fraction(2)
        mids.append((E.eval(m), E.tau[i - 1]))
    order = sorted(range(E.n), key=lambda k: mids[k][0])
    rank = [0] * E.n
    for r, k in enumerate(order, start=1):
        rank[k] = r
    return tuple(rank[k] * mids[k][1] for k in range(E.n))


def test_perm_decompose():
    # any sequence of entries is kept as the tuple sp; pi_inv[0] pads
    for sp, pi, tau, pi_inv in [
            ((-5, -3, 2, 1, -4), (5, 3, 2, 1, 4), (-1, -1, 1, 1, -1),
             (0, 4, 3, 2, 5, 1)),
            ((1, 2, 3), (1, 2, 3), (1, 1, 1), (0, 1, 2, 3)),
            ((2, -1), (2, 1), (1, -1), (0, 2, 1))]:
        E = IetSpec((1,) * len(sp), list(sp))
        assert (E.sp, E.pi, E.tau, E.pi_inv) == (sp, pi, tau, pi_inv)
        assert tuple(p * t for p, t in zip(E.pi, E.tau)) == E.sp
        assert all(E.pi[E.pi_inv[j] - 1] == j for j in range(1, len(sp) + 1))


def test_invalid_permutations():
    # the entries are checked in this order, and before the lengths
    for lengths, entries, message in [
            ((), (), "entries must be nonzero"),
            ((1, 1), (0, 2), "entries must be nonzero"),
            ((1, 1), (1, 1), r"^\|\(1, 1\)\| is not a permutation of 1\.\.2$"),
            ((1,), (0, 0), "entries must be nonzero"),
            ((1,), (-1, 1), r"^\|\(-1, 1\)\| is not a permutation of 1\.\.2$"),
            ((1, 1, 1), (2, 1), "^lengths and permutation size differ$")]:
        with pytest.raises(InvalidPermutation, match=message):
            IetSpec(lengths, entries)
    # an entry that is not an int is not read as int(entry)
    for entries in [(2.0, -1), (2.7, -1), ("2", "-1"), (True, -2), (2, False)]:
        with pytest.raises(TypeError, match="entries must be int"):
            IetSpec((1, 1), entries)
    with pytest.raises(NonpositiveLength):
        IetSpec((Fraction(1), Fraction(-1)), (2, 1))
    with pytest.raises(NonpositiveLength):
        IetSpec((1, 0), (2, 1))


def test_exchanges_are_exact():
    # a float length or origin is refused; as_float() is the one float view
    with pytest.raises(TypeError):
        IetSpec((0.5, 0.5), (2, 1))
    with pytest.raises(TypeError):
        IetSpec((Fraction(1, 2), 1), (2, 1), origin=0.0)
    with pytest.raises(TypeError):
        IetSpec((Fraction(1, 2), np.float64(0.5)), (2, 1))
    E = IetSpec((Fraction(1, 2), 1), (2, 1), origin=-1)
    assert not E.float_mode and E.as_float().float_mode
    assert E.as_float().x == (-1.0, -0.5, 0.5)


def test_rotation_by_half():
    E = IetSpec((Fraction(1, 2), Fraction(1, 2)), (2, 1))
    assert E.eval(Fraction(1, 4)) == Fraction(3, 4)
    seg = E.orbit(Fraction(1, 4), 4)
    assert seg.points == [Fraction(1, 4), Fraction(3, 4), Fraction(1, 4),
                          Fraction(3, 4), Fraction(1, 4)]


def test_identity_iet():
    E = IetSpec((Fraction(1, 2), Fraction(1, 2)), (1, 2))
    assert E.eval(Fraction(3, 10)) == Fraction(3, 10)
    assert E.orbit(Fraction(3, 10), 5).word == [1, 1, 1, 1, 1]


def test_bundled_eval_examples():
    E = bundled_iet().as_float()
    assert abs(E.eval(0.1) - 0.9) < 1e-12            # piece 1 reversed to the top
    assert abs(E.eval(0.6) - 0.0589919874) < 1e-9    # piece 4 preserved to slot 1


def test_orbit_hits_discontinuity():
    E = bundled_iet()
    x1 = E.x[1]
    seg = E.orbit(x1, 3)
    assert seg.terminated_at_discontinuity == 0
    assert seg.points == [x1]


def test_bundled_itineraries_from_interior_points():
    E = bundled_iet()
    th1 = bundled_theta1()
    y = E.x[1] / th1 / 2        # inside (y0, y1)
    assert E.orbit(y, 4).word == [1, 5, 1, 4]
    y2 = (E.x[1] / th1 + E.x[2] / th1) / 2   # inside (y1, y2)
    assert E.orbit(y2, 11).word == [1, 5, 2, 1, 4, 1, 5, 2, 1, 5, 4]


def test_eval_at_discontinuity_raises():
    E = bundled_iet()
    with pytest.raises(AtDiscontinuity):
        E.eval(E.x[2])


def _random_exact_iet(rng, n):
    while True:
        base = list(range(1, n + 1))
        rng.shuffle(base)
        sp = tuple(b * rng.choice([1, -1]) for b in base)
        lengths = tuple(Fraction(rng.randint(1, 30), rng.randint(1, 30))
                        for _ in range(n))
        try:
            return IetSpec(lengths, sp, origin=Fraction(rng.randint(-3, 3)))
        except InvalidPermutation:
            continue


def test_slot_tiling_and_measure_preservation_randomized():
    rng = random.Random(12)
    for _ in range(1000):
        n = rng.randint(2, 6)
        E = _random_exact_iet(rng, n)
        # slot lengths are a permutation of piece lengths and tile the domain
        slot_lengths = sorted(E.y[j] - E.y[j - 1] for j in range(1, n + 1))
        assert slot_lengths == sorted(E.lengths)
        assert E.y[0] == E.x[0] and E.y[-1] == E.x[-1]


def test_forward_inverse_identity_randomized():
    rng = random.Random(13)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 6)
        E = _random_exact_iet(rng, n)
        for _ in range(5):
            i = rng.randint(1, n)
            t = Fraction(rng.randint(1, 99), 100)
            x = E.x[i - 1] + (E.x[i] - E.x[i - 1]) * t
            try:
                y = E.eval(x)
                back = E.eval(y, inverse=True)
            except AtDiscontinuity:
                continue
            assert back == x
            checked += 1


def test_flip_reverses_order():
    rng = random.Random(14)
    for _ in range(200):
        E = _random_exact_iet(rng, 4)
        for i in range(1, 5):
            a = E.x[i - 1] + (E.x[i] - E.x[i - 1]) / 3
            b = E.x[i - 1] + (E.x[i] - E.x[i - 1]) * 2 / 3
            fa, fb = E.eval(a), E.eval(b)
            if E.tau[i - 1] > 0:
                assert fa < fb
            else:
                assert fa > fb


def test_midpoint_permutation_recomputation():
    rng = random.Random(15)
    for _ in range(200):
        E = _random_exact_iet(rng, rng.randint(2, 6))
        assert recompute_permutation(E) == E.sp
    assert recompute_permutation(bundled_iet()) == (-5, -3, 2, 1, -4)


def test_float_orbit_long_roundtrip():
    E = bundled_iet().as_float()
    x = 0.123456789
    seg = E.orbit(x, 1000)
    assert seg.terminated_at_discontinuity is None
    back = seg.points[-1]
    for _ in range(1000):
        back = E.eval(back, inverse=True)
    assert abs(back - x) < 1e-10


def test_orbit_locates_each_point_once():
    # a forward step moves by the branch of the piece it just recorded; the
    # points and the word are those of piece_of and eval step by step, and
    # a hit ends the segment where piece_of raises
    E = bundled_iet()
    th1 = bundled_theta1()
    rng = random.Random(16)
    cases = [(E.as_float(), 0.123456789, 1000), (E, E.x[1] / th1 / 2, 30),
             (E, E.x[2], 5), (E.as_float(), E.as_float().x[3], 5)]
    for _ in range(200):
        F = _random_exact_iet(rng, rng.randint(2, 6))
        F = F if rng.random() < 0.5 else F.as_float()
        t = rng.random() if F.float_mode else Fraction(rng.randint(1, 99), 100)
        z = F.x[0] + (F.x[-1] - F.x[0]) * t
        cases.append((F, rng.choice(F.x[1:-1]) if rng.random() < 0.2 else z, 40))
    ended = 0
    for F, x, steps in cases:
        seg = F.orbit(x, steps)
        k = seg.terminated_at_discontinuity
        assert len(seg.word) == (steps if k is None else k)
        assert len(seg.points) == len(seg.word) + 1
        assert seg.word == [F.piece_of(p) for p in seg.points[:len(seg.word)]]
        assert seg.points[1:] == [F.eval(p) for p in seg.points[:-1]]
        if k is not None:
            ended += 1
            with pytest.raises(AtDiscontinuity):
                F.piece_of(seg.points[-1])
    assert ended >= 20


def _linear_piece_of(E, p):
    """The linear scan that piece_of replaced, kept as the reference."""
    for i in range(1, E.n + 1):
        if p < E.x[i]:
            if E.x[i - 1] < p:
                return i
            raise AtDiscontinuity(p, i - 1)
    raise AtDiscontinuity(p, E.n)


def _linear_slot_of(E, q):
    """The linear scan that slot_of replaced, kept as the reference."""
    for j in range(1, E.n + 1):
        if q < E.y[j]:
            if E.y[j - 1] < q:
                return j
            raise AtDiscontinuity(q, j - 1)
    raise AtDiscontinuity(q, E.n)


def _lookup(find, E, p):
    """The index find gives for p, or ("hit", index) when it raises."""
    try:
        return find(E, p)
    except AtDiscontinuity as exc:
        return ("hit", exc.index)


def test_bisect_lookup_matches_linear_scan():
    # random Fraction, bundled-algebraic and float points, every breakpoint
    # and slot end and points outside the domain: the same piece or slot,
    # or the same AtDiscontinuity index
    rng = random.Random(17)
    E = bundled_iet()
    small = [a * Fraction(1, 7) for a in E.lengths]
    exchanges = [E, E.as_float()]
    for _ in range(300):
        F = _random_exact_iet(rng, rng.randint(1, 6))
        exchanges += [F, F.as_float()]
    hits = inside = 0
    for F in exchanges:
        lo, hi = F.x[0], F.x[-1]
        points = [*F.x, *F.y, lo - 1, hi + 1]
        for _ in range(10):
            t = Fraction(rng.randint(1, 999), 1000)
            points.append(lo + (hi - lo) * (rng.random() if F.float_mode else t))
        if F is E:
            points += [v + rng.choice(small) for v in E.x[:-1]]
        for p in points:
            for new, old in ((IetSpec.piece_of, _linear_piece_of),
                             (IetSpec.slot_of, _linear_slot_of)):
                got = _lookup(new, F, p)
                assert got == _lookup(old, F, p), (F, p)
                hits += isinstance(got, tuple)
                inside += not isinstance(got, tuple)
    assert hits > 5000 and inside > 5000
