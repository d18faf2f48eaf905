"""Fixtures shared by the test modules."""

import random

import pytest

import flipiet.polys
import flipiet.search
import flipiet.spectral
from flipiet.polys import IntPolynomial, char_poly
from flipiet.quintic import MATRIX
from flipiet.rauzy import step_product, typed_move
from flipiet.search import cycle_search, rauzy_graph_build

# the 7-interval cycle of length 11, the shortest qualifying cycles' length
# at n = 7: its start and step types
N7_START = (2, -3, 5, 4, -6, 7, 1)
N7_TYPES = (0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0)


def _clear_memos():
    """Empty every functools memo of spectral and polys."""
    for module in (flipiet.spectral, flipiet.polys):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def fresh_memos():
    """Every memo of spectral and polys empty when the test starts and when
    it ends, so that a test counting calls or refinements sees the same
    counts whatever ran before it.  The fixture's value is the function that
    empties them, for a test that fills them before the part it counts."""
    _clear_memos()
    yield _clear_memos
    _clear_memos()


@pytest.fixture(scope="session")
def rauzy_graph():
    """rauzy_graph(n, require_flips=True): the Rauzy graph, built once per
    test session for each (n, require_flips).  Tests only read it."""
    graphs = {}

    def graph(n, require_flips=True):
        if (n, require_flips) not in graphs:
            graphs[n, require_flips] = rauzy_graph_build(n, require_flips)
        return graphs[n, require_flips]

    return graph


def n7_product():
    """The step product along the n = 7 cycle of length 11."""
    entries, mats = N7_START, []
    for t in N7_TYPES:
        entries, m = typed_move(entries, t)
        mats.append(m)
    assert entries == N7_START
    return step_product(mats)


def _random_kernel_polys(seed, count):
    """Seeded integer polynomials of degree 2-8, monic or not: plain ones,
    squares, (t - 1)^2 q, products of a quadratic and a cubic, and products
    of two to four quadratics."""
    rng = random.Random(seed)

    def rand(deg):
        return IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(deg))
                             + (rng.choice((1, 1, 1, -1, 2, 3)),))

    out = []
    for k in range(count):
        kind = k % 5
        if kind == 0:
            p = rand(rng.randint(2, 8))
        elif kind == 1:
            q = rand(rng.randint(1, 4))
            p = q * q
        elif kind == 2:
            p = IntPolynomial((1, -2, 1)) * rand(rng.randint(0, 6))
        elif kind == 3:
            p = rand(2) * rand(3)
        else:
            p = IntPolynomial((1,))
            for _ in range(rng.randint(2, 4)):
                p = p * rand(2)
        out.append(p)
    return out


@pytest.fixture(scope="session")
def kernel_inputs(rauzy_graph):
    """(matrices, polys) on which the exact kernel is held to its
    references: the 132 quasi-positive cycle products that the n = 5 census
    to max length 14 screens, in sorted order, so that the order in which
    the walk meets them does not matter, quintic.MATRIX and the n = 7
    cycle's product; and their characteristic polynomials followed by 200
    seeded random ones."""
    screened = []
    screen = flipiet.search.bhm_screen

    def recording_screen(m, **kwargs):
        screened.append(m)
        return screen(m, **kwargs)

    flipiet.search.bhm_screen = recording_screen
    try:
        cycle_search(rauzy_graph(5, True), 14)
    finally:
        flipiet.search.bhm_screen = screen
    assert len(screened) == 132
    matrices = sorted(screened) + [MATRIX, n7_product()]
    polys = [char_poly(m) for m in matrices] + _random_kernel_polys(41, 200)
    return matrices, polys
