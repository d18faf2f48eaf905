"""reprs.csv_rows against repr: a seeded sweep of float64 bit patterns over
every finite exponent field and both signs, the boundary cases of repr's
layout and of the shortest-digit search, ints at the int64 extremes, and
the gaps.csv dump at 2 * 20,000 + 1 rows against the f-string/repr loop
that rendered it before."""

import io
import math
import sys

import numpy as np

from flipiet.denjoy import blowup_chain, gap_system_build
from flipiet.io import gaps_csv
from flipiet.quintic import bundled_iet
from flipiet.reprs import csv_rows


def _reprs(x):
    """csv_rows' text of the floats x, one value per line, a chunk of 2^16
    values at a time."""
    return "".join(csv_rows([], [x[i:i + 2 ** 16]]).decode("ascii")
                   for i in range(0, x.size, 2 ** 16))


def _repr_lines(x):
    return "".join(f"{v!r}\n" for v in x.tolist())


def test_floats_match_repr_on_a_sweep_of_bit_patterns():
    bits = np.random.default_rng(20180618).integers(
        0, 2 ** 64, 2 ** 20, dtype=np.uint64, endpoint=False)
    fields = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    assert set(fields[fields < 0x7FF].tolist()) == set(range(0x7FF))
    assert {0, 1} <= set((bits >> np.uint64(63)).tolist())
    x = bits.view(np.float64)
    assert _reprs(x) == _repr_lines(x)


def _neighbours(v):
    return [np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf)]


EDGE = ([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         2.225073858507201e-308, 1.0, -1.0, 2e-17, 0.1, 1 / 3, 2 / 3, 0.5,
         1e-4, 9.999999999999999e-05, 1e-5, 1.0000000000000001e-05,
         1e15, 999999999999999.9, 1e16, 9999999999999998.0, 1e17,
         123456789012345678.0, 1e22, 1e23, 5e-310, 2 ** 53 - 1, 2 ** 53,
         2 ** 53 + 2, sys.float_info.max, -sys.float_info.max,
         math.inf, -math.inf, math.nan, -math.nan]
        + [v for k in range(-1074, 1024) for v in _neighbours(2.0 ** k)]
        + [v for e in range(-325, 309) for d in (1, 2, 5, 9, 25, 125, 999)
           for v in _neighbours(float(f"{d}e{e}"))]
        + [k / 2.0 ** p for k in (3, 5, 7, 99, 1023, 2 ** 52 - 1) for p in range(-60, 80)]
        + [float(k) for k in range(-1000, 1001)])


def test_floats_match_repr_on_edge_cases():
    x = np.array(EDGE, dtype=np.float64)
    assert _reprs(x) == _repr_lines(x)
    # a column of zeros, infinities and nans alone leaves nothing to search
    odd = np.array([0.0, -0.0, math.inf, -math.inf, math.nan])
    assert _reprs(odd) == _repr_lines(odd)


def test_ints_and_floats_make_comma_separated_rows():
    ints = [np.array([0, -1, 9, -10, 2 ** 63 - 1, -2 ** 63, 10 ** 18, 7]),
            np.array([1, 22, -333, 4444, 0, 5, -6, 77])]
    floats = [np.array([0.5, -2e-300, 1e16, 0.0, math.nan, 3.25, -math.inf, 1e-5])]
    rows = csv_rows(ints, floats).decode("ascii")
    assert rows == "".join(f"{a},{b},{x!r}\n" for a, b, x in
                           zip(*(col.tolist() for col in ints + floats)))


def _reference_gaps_csv(gs, fh):
    # the dump as an f-string/repr loop rendered it, one value at a time
    fh.write("n,symbol,orbit_point,gap_length,position\n")
    h = gs.half_width
    for a in range(0, 2 * h + 1, 4096):
        rows = slice(a, min(a + 4096, 2 * h + 1))
        cols = [np.asarray(col[rows], dtype=float).tolist()
                for col in (gs.orbit_points, gs.gap_lengths, gs.positions)]
        fh.writelines([f"{n},{sym},{p!r},{g!r},{q!r}\n" for n, sym, p, g, q in
                       zip(range(a - h, rows.stop - h),
                           np.asarray(gs.symbols[rows], dtype=int).tolist(),
                           *cols)])


def test_gaps_csv_matches_the_repr_loop():
    E = bundled_iet()
    chain = blowup_chain(E)
    gs = gap_system_build(E, chain.sigma, chain.lsv, 20000)
    got, want = io.StringIO(), io.StringIO()
    gaps_csv(gs, got)
    _reference_gaps_csv(gs, want)
    assert got.getvalue() == want.getvalue()
