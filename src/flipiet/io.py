"""JSON and CSV serialization.

Exact scalars round-trip bit for bit: rationals as "p/q" strings, algebraic
numbers as coordinate vectors over their field with the minimal polynomial
and the isolating interval of the designated root.  A float in a JSON spec
is read as its exact Fraction.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .iet import IetSpec
from .numfield import AlgebraicNumber, NumberField, RootEmbedding
from .polys import IntPolynomial


def fraction_to_str(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def coords_to_str(a: AlgebraicNumber) -> list:
    """a's coordinates as fraction_to_str writes them, read off its integer
    numerators over one denominator, each reduced by one gcd."""
    out = []
    for n in a.nums:
        g = math.gcd(n, a.den)
        out.append(f"{n // g}/{a.den // g}" if a.den != g else str(n // g))
    return out


def algebraic_to_json(a: AlgebraicNumber) -> dict:
    return {
        "minpoly": list(a.field.minpoly.coeffs),
        "coords": coords_to_str(a),
        "embedding": [fraction_to_str(a.embedding.lo), fraction_to_str(a.embedding.hi)],
    }


def algebraic_from_json(obj, _cache=None) -> AlgebraicNumber:
    key = (tuple(obj["minpoly"]), tuple(obj["embedding"]))
    if _cache is not None and key in _cache:
        field, emb = _cache[key]
    else:
        field = NumberField(IntPolynomial(tuple(obj["minpoly"])))
        lo, hi = (Fraction(s) for s in obj["embedding"])
        emb = RootEmbedding(field.minpoly, lo, hi)
        if _cache is not None:
            _cache[key] = (field, emb)
    coords = tuple(Fraction(s) for s in obj["coords"])
    return field.element(coords, emb)


def _scalar_to_json(v):
    if isinstance(v, AlgebraicNumber):
        return algebraic_to_json(v)
    return fraction_to_str(v)


def iet_to_json(E: IetSpec) -> dict:
    return {"lengths": [_scalar_to_json(v) for v in E.lengths],
            "signed_permutation": list(E.sp),
            "origin": _scalar_to_json(E.origin)}


def iet_from_json(obj) -> IetSpec:
    """The exact exchange of obj: a length or origin given as a dict is
    algebraic, any other (a "p/q" string, an int or a float) is the exact
    Fraction of it; a bool is a TypeError, not 0 or 1, and so are lengths
    that are not a list, such as a string read symbol by symbol."""
    if not isinstance(obj["lengths"], list):
        raise TypeError(f"lengths {obj['lengths']!r} is not a list")
    cache = {}

    def scalar(v):
        if isinstance(v, dict):
            return algebraic_from_json(v, cache)
        if isinstance(v, bool):
            raise TypeError(f"{v!r} is not a length or origin")
        return Fraction(v)

    return IetSpec([scalar(v) for v in obj["lengths"]],
                   obj["signed_permutation"],
                   scalar(obj.get("origin", "0")))


def save_iet(E: IetSpec, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(iet_to_json(E), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# CSV renderings (byte-comparable)

def induction_trace_csv(steps) -> str:
    """Rows k,p,t: the signed permutation before step k and the step type;
    the final row carries the closing permutation with an empty type."""
    lines = ["k,p,t"]
    for k, st in enumerate(steps):
        p = " ".join(str(e) for e in st.before)
        lines.append(f"{k},{p},{st.type_bit}")
    if steps:
        p = " ".join(str(e) for e in steps[-1].after)
        lines.append(f"{len(steps)},{p},")
    return "\n".join(lines) + "\n"


def return_words_csv(itineraries) -> str:
    """Rows i,N,I for the first-return words."""
    lines = ["i,N,I"]
    for i, (w, n) in enumerate(zip(itineraries.words, itineraries.exponents),
                               start=1):
        lines.append(f"{i},{n}," + " ".join(str(s) for s in w))
    return "\n".join(lines) + "\n"


_GAPS_CHUNK = 4096      # rows of gaps.csv rendered and written at once


def gaps_csv(gs, fh):
    """Write rows n,symbol,orbit_point,gap_length,position to the open text
    file fh, _GAPS_CHUNK rows at a time, so that the dump is never held in
    memory.  Each chunk's columns are converted once, to int64 and float64
    arrays, and rendered by reprs.csv_rows: the floats as repr writes them,
    with no Python call per value."""
    from .reprs import csv_rows     # here, so that only a dump compiles it
    fh.write("n,symbol,orbit_point,gap_length,position\n")
    h = gs.half_width
    for a in range(0, 2 * h + 1, _GAPS_CHUNK):
        rows = slice(a, min(a + _GAPS_CHUNK, 2 * h + 1))
        ints = [np.arange(a - h, rows.stop - h),
                np.asarray(gs.symbols[rows], dtype=np.int64)]
        floats = [np.asarray(col[rows], dtype=np.float64)
                  for col in (gs.orbit_points, gs.gap_lengths, gs.positions)]
        fh.write(csv_rows(ints, floats).decode("ascii"))
