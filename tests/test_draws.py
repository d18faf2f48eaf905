import numpy as np
import pytest

from flipiet.draws import Pcg64


@pytest.mark.parametrize("seed", [0, 1, 2024, 2 ** 40 + 5, 2 ** 64 + 5,
                                  2 ** 200 + 7])
def test_random_matches_numpy(seed):
    rng, ours = np.random.default_rng(seed), Pcg64(seed)
    want = [rng.random() for _ in range(40)]
    got = [ours.random() for _ in range(40)]
    assert got == want and all(type(v) is float for v in got)


def test_sample_matches_numpy_choice():
    # the semiconjugacy samples of verify_wandering at every half-width N
    # up to 200 and at large ones, on both sides of numpy's 10,000 split
    for N in [*range(1, 201), 5_000, 5_001, 2 * 10 ** 4, 10 ** 5, 3 * 10 ** 5,
              10 ** 6]:
        pop = 2 * N - 1
        size = min(100, pop)
        want = np.random.default_rng(2024).choice(np.arange(1, 2 * N), size=size,
                                                  replace=False)
        assert [k + 1 for k in Pcg64(2024).sample(pop, size)] == want.tolist(), N


def test_sample_matches_numpy_beyond_the_blowup():
    # other seeds and sizes on numpy's Floyd path: rejections in the bounded
    # draws, collisions in the set, every element of a small population
    for seed, pop, size in ((3, 500, 500), (3, 10_000, 5_000), (7, 10_001, 200),
                            (11, 2 ** 31, 100), (13, 1, 0), (13, 5, 0)):
        want = np.random.default_rng(seed).choice(pop, size=size, replace=False)
        assert Pcg64(seed).sample(pop, size) == want.tolist()


def test_sample_refuses_what_it_does_not_reproduce():
    # numpy shuffles a tail of range(pop) once pop > 10,000 and size > pop // 50
    with pytest.raises(NotImplementedError):
        Pcg64(1).sample(10_001, 201)
    for pop, size in ((3, 4), (3, -1)):
        with pytest.raises(ValueError):
            Pcg64(1).sample(pop, size)
    with pytest.raises(ValueError):
        Pcg64(-1)
