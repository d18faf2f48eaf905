import random
from fractions import Fraction

import pytest

from flipiet.errors import (AtDiscontinuity, InvalidPermutation,
                            NonpositiveLength)
from flipiet.iet import IetSpec, SignedPermutation
from flipiet.quintic import bundled_iet, bundled_theta1


def test_perm_decompose():
    sp = SignedPermutation((-5, -3, 2, 1, -4))
    assert sp.pi == (5, 3, 2, 1, 4)
    assert sp.tau == (-1, -1, 1, 1, -1)
    assert tuple(p * t for p, t in zip(sp.pi, sp.tau)) == sp.entries
    sp = SignedPermutation((1, 2, 3))
    assert (sp.pi, sp.tau) == ((1, 2, 3), (1, 1, 1))
    sp = SignedPermutation((2, -1))
    assert (sp.pi, sp.tau) == ((2, 1), (1, -1))


def test_invalid_permutations():
    with pytest.raises(InvalidPermutation):
        SignedPermutation((1, 1))
    with pytest.raises(InvalidPermutation):
        SignedPermutation((0, 2))
    with pytest.raises(InvalidPermutation):
        IetSpec((1, 1, 1), (2, 1))
    with pytest.raises(NonpositiveLength):
        IetSpec((Fraction(1), Fraction(-1)), (2, 1))
    with pytest.raises(NonpositiveLength):
        IetSpec((1, 0), (2, 1))


def test_rotation_by_half():
    E = IetSpec((Fraction(1, 2), Fraction(1, 2)), (2, 1))
    assert E.eval(Fraction(1, 4)) == Fraction(3, 4)
    seg = E.orbit(Fraction(1, 4), 4)
    assert seg.points == [Fraction(1, 4), Fraction(3, 4), Fraction(1, 4),
                          Fraction(3, 4), Fraction(1, 4)]


def test_identity_iet():
    E = IetSpec((Fraction(1, 2), Fraction(1, 2)), (1, 2))
    assert E.eval(Fraction(3, 10)) == Fraction(3, 10)
    assert E.itinerary(Fraction(3, 10), 5) == (1, 1, 1, 1, 1)


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
    assert E.itinerary(y, 4) == (1, 5, 1, 4)
    y2 = (E.x[1] / th1 + E.x[2] / th1) / 2   # inside (y1, y2)
    assert E.itinerary(y2, 11) == (1, 5, 2, 1, 4, 1, 5, 2, 1, 5, 4)


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
            if E.sp.tau[i - 1] > 0:
                assert fa < fb
            else:
                assert fa > fb


def test_midpoint_permutation_recomputation():
    rng = random.Random(15)
    for _ in range(200):
        E = _random_exact_iet(rng, rng.randint(2, 6))
        assert E.recompute_permutation() == E.sp
    assert bundled_iet().recompute_permutation().entries == (-5, -3, 2, 1, -4)


def test_float_orbit_long_roundtrip():
    E = bundled_iet().as_float()
    x = 0.123456789
    seg = E.orbit(x, 1000)
    assert seg.terminated_at_discontinuity is None
    back = seg.points[-1]
    for _ in range(1000):
        back = E.eval(back, inverse=True)
    assert abs(back - x) < 1e-10


def test_orbit_locates_each_point_once(monkeypatch):
    # a forward step moves by the branch of the piece it just recorded; the
    # points and the word are those of piece_of and eval step by step
    E = bundled_iet()
    th1 = bundled_theta1()
    for F, x, steps in ((E.as_float(), 0.123456789, 1000),
                        (E, E.x[1] / th1 / 2, 30)):
        calls = []
        real = IetSpec.piece_of

        def counted(self, p):
            calls.append(p)
            return real(self, p)

        monkeypatch.setattr(IetSpec, "piece_of", counted)
        seg = F.orbit(x, steps)
        monkeypatch.undo()
        assert len(calls) == steps
        assert seg.terminated_at_discontinuity is None
        assert seg.word == [F.piece_of(p) for p in seg.points[:-1]]
        assert seg.points[1:] == [F.eval(p) for p in seg.points[:-1]]
