"""repr's text for whole float64 arrays, and the CSV rows made of it.

repr of a float is the shortest decimal that reads back as the float, the
nearest to it among those, written positionally for 1e-4 <= |v| < 1e16
(an integer ends in ".0") and as d.ddde+XX or d.ddde-XX otherwise; a zero
keeps its sign, and inf and nan are words.  csv_rows writes that text for a
chunk of rows with numpy operations on whole columns, with no Python call
per value: Ryu's search for the shortest digits (Adams, PLDI 2018) on
uint64, then one byte matrix per chunk, compacted by one mask.  Its bytes
are those of a repr loop, which the tests keep as the reference.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_1, _32, _52 = _U(1), _U(32), _U(52)
_M32 = _U(0xFFFFFFFF)
_INF = _U(0x7FF << 52)
_P10 = 10 ** np.arange(20, dtype=np.uint64)
# "0000" to "9999", 4 ASCII digits to a uint32
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                              indexing="ij"), axis=-1).view(np.uint32).ravel()


def _exponent_table():
    """Per exponent field f of a float64, with e2 = max(f, 1) - 1077, so
    that the float is mv 2^e2 for mv = 4 m2 (m2 the significand with its
    hidden bit), and X = 2^e2 / 10^e10 for Ryu's decimal exponent e10 (q
    is e10 where e2 >= 0 and e10 - e2 elsewhere): q, e10, floor(2X 2^64) as
    its high and low words, whether floor(X 2^64) is exact, and Ryu's rule
    for trailing zeros: 5^q where it tests divisibility by 5^q (e2 >= 0,
    q <= 21), _LOW where it takes vr as exact (e2 < 0, q <= 1), 0 where it
    needs no rule beyond the exact fraction of mv X."""
    e2 = np.maximum(np.arange(2047), 1) - 1077
    pos, a = e2 >= 0, np.abs(e2)
    q = np.where(pos, ((a * 78913) >> 18) - (a > 3), ((a * 732923) >> 20) - (a > 1))
    pow5 = [1]
    for _ in range(330):
        pow5.append(pow5[-1] * 5)
    x2 = []
    for e, k in zip(e2.tolist(), q.tolist()):
        if e >= 0:
            x2.append((1 << (e - k + 65)) // pow5[k])
        else:
            x2.append(pow5[-e - k] << 65 >> k)
    words = np.array([(v >> 64, v & ((1 << 64) - 1)) for v in x2], dtype=np.uint64)
    p5 = _U(5) ** np.minimum(q, 21).astype(np.uint64)
    rule = np.where(pos, p5 * (q <= 21), np.where(q <= 1, _LOW, _U(0)))
    return (q, np.where(pos, q, q + e2), words[:, 0].copy(), words[:, 1].copy(),
            np.where(pos, q == 0, q <= 64), rule)


_LOW = _U((1 << 64) - 1)
_QS, _E10, _XI2, _XF2, _EXACT, _RULE = _exponent_table()
# The fields from the first whose X is exact in 64.64 fixed point to the last
# before the first that takes a trailing-zero rule: 2^-40 <= |v| < 2^50.
_FAST = int(np.argmax(_EXACT)), int(np.argmax(_RULE != 0)) - 1


def _bounds_exact(fields, a):
    """vr, vp, vm and whether vr is exact, as _bounds defines them, in Python
    ints, for the floats of exponent fields fields and absolute bits a."""
    out = []
    for f, b in zip(fields, a):
        mant = b & ((1 << 52) - 1)
        mv = 4 * (mant | (1 << 52) if f else mant)
        e2, q = max(f, 1) - 1077, int(_QS[f])
        num, den = (1 << (e2 - q), 5 ** q) if e2 >= 0 else (5 ** (-e2 - q), 1 << q)
        mm = mv - 1 - (mant != 0 or f <= 1)
        out.append((mv * num // den, (mv + 2) * num // den, mm * num // den,
                    e2 < 0 and mv * num % den == 0))
    return np.array(out, dtype=np.uint64).T


def _bounds(a):
    """Ryu's vr = floor(mv X), vp = floor((mv + 2) X) and vm = floor((mv - 1
    - mm_shift) X), with whether vr and vm are exact, for finite nonzero
    float64s given by their absolute bits a."""
    field = (a >> _52).astype(np.intp)
    mv = ((a << _U(12)) >> _U(10)) | _U(1 << 54)
    # in 64.64 fixed point, fr the fraction word of mv X: for a normal float
    # with nonzero mantissa bits mm_shift is 1, so the bounds are mv X +- 2X
    xi2, xf2 = _XI2[field], _XF2[field]
    xf = (xf2 >> _1) | (xi2 << _U(63))
    m0, m1 = mv & _M32, mv >> _32
    f0, f1 = xf & _M32, xf >> _32
    mid0, mid1 = m0 * f1, m1 * f0
    c = ((m0 * f0) >> _32) + (mid0 & _M32) + (mid1 & _M32)
    vr = mv * (xi2 >> _1) + m1 * f1 + (mid0 >> _32) + (mid1 >> _32) + (c >> _32)
    fr = mv * xf
    up = fr + xf2
    vp = vr + xi2 + (up < fr)
    vm = vr - xi2 - (fr < xf2)
    vr_tz = fr == 0
    lo, hi = field.min(), field.max()
    odd = (a << _U(12) == 0) | (field == 0)     # powers of 2, subnormals
    if lo < _FAST[0] or hi > _FAST[1]:
        # where X 2^64 is not an integer, its floor makes fr short by less
        # than mv < 2^55 units and the bounds' words by 2 more, so a word
        # that close to an integer may carry
        inexact = ~_EXACT[field]
        vr_tz &= ~inexact
        dn = fr - xf2
        near = _U(2 ** 55 + 4)
        odd |= inexact & (((fr + near) < near + _U(4))
                          | ((up + near) < near + _U(4))
                          | ((dn + near) < near + _U(4)))
    k = np.flatnonzero(odd)
    if k.size:
        vr[k], vp[k], vm[k], vr_tz[k] = _bounds_exact(field[k].tolist(),
                                                      a[k].tolist())
    vm_tz = np.zeros(a.shape, bool)
    if hi > _FAST[1]:
        rare = np.flatnonzero(_RULE[field])
        f = field[rare]
        mant = a[rare] & _U((1 << 52) - 1)
        mv = (mant | ((f != 0).astype(np.uint64) << _52)) << _U(2)
        mm_shift = ((mant != 0) | (f <= 1)).astype(np.uint64)
        even = (mv & _U(4)) == 0
        p5 = _RULE[f]
        low = p5 == _LOW
        five = mv % _U(5) == 0
        vr_tz[rare] = low | (five & (mv % p5 == 0))
        vm_tz[rare] = even & np.where(low, mm_shift == 1,
                                      ~five & ((mv - _1 - mm_shift) % p5 == 0))
        vp[rare] -= ~even & (low | (~five & ((mv + _U(2)) % p5 == 0)))
    return vr, vp, vm, vr_tz, vm_tz


_BATCH = 4096       # floats per _bounds call, so that its arrays stay in cache


def _shortest(a):
    """Ryu's shortest digits for finite nonzero float64s given by their
    absolute bits a: the ints d and e with d 10^e the shortest decimal that
    reads back as the float, the nearest to it among those."""
    vr, vp, vm, vr_tz, vm_tz = (np.concatenate(p) for p in zip(
        *[_bounds(a[i:i + _BATCH]) for i in range(0, a.size, _BATCH)]))
    e10 = _E10[(a >> _52).astype(np.intp)]
    exact = vr_tz | vm_tz
    if not exact.any():
        return _strip(vr, vp, vm, e10)
    out = np.empty(a.shape, np.uint64)
    g, c = np.flatnonzero(exact), np.flatnonzero(~exact)
    out[c], e10[c] = _strip(vr[c], vp[c], vm[c], e10[c])
    out[g], e10[g] = _strip_tracked(vr[g], vp[g], vm[g], vr_tz[g], vm_tz[g],
                                    (a[g] & _1) == 0, e10[g])
    return out, e10


def _strip(vr, vp, vm, e10):
    """Ryu's common case: drop the k trailing digits while vp and vm still
    differ above them, and round vr on the last digit dropped."""
    k = np.zeros(vr.shape, np.intp)
    for p in _P10[1:]:
        more = vp // p > vm // p
        if not more.any():
            break
        k += more
    p = _P10[k]
    out = vr // p
    rem = vr - out * p          # vm // p == out where vm >= vr - rem
    return out + ((rem >= vr - vm) | (rem << _1 >= p)), e10 + k


def _strip_tracked(vr, vp, vm, vr_tz, vm_tz, accept, e10):
    """Ryu's general case, where vm or vr may be exact: digits are dropped
    one at a time, tracking whether those dropped from vm and vr were all
    zero, so that vm may be taken and a tie rounds to even."""
    last = np.zeros(vr.shape, np.uint64)
    act = np.ones(vr.shape, bool)
    while True:
        p, m = vp // _U(10), vm // _U(10)
        act &= p > m
        if not act.any():
            break
        r = vr // _U(10)
        vm_tz &= ~act | (vm - _U(10) * m == 0)
        vr_tz &= ~act | (last == 0)
        last = np.where(act, vr - _U(10) * r, last)
        vr = np.where(act, r, vr)
        vp = np.where(act, p, vp)
        vm = np.where(act, m, vm)
        e10 = e10 + act
    act = vm_tz.copy()
    while True:
        m = vm // _U(10)
        act &= vm - _U(10) * m == 0
        if not act.any():
            break
        r = vr // _U(10)
        vr_tz &= ~act | (last == 0)
        last = np.where(act, vr - _U(10) * r, last)
        vr = np.where(act, r, vr)
        vp = np.where(act, vp // _U(10), vp)
        vm = np.where(act, m, vm)
        e10 = e10 + act
    last = np.where(vr_tz & (last == 5) & (vr % _U(2) == 0), _U(4), last)
    return vr + (((vr == vm) & (~accept | ~vm_tz)) | (last >= 5)), e10


def _ndigits(v):
    return np.maximum(np.searchsorted(_P10, v, side="right"), 1)


def _digits(v, w):
    """The last w decimal digits of each v, most significant first, as a
    (w, len(v)) matrix of ASCII bytes."""
    g = (w + 3) // 4
    quads = np.empty((g, v.size), np.intp)
    for k in range(g - 1, -1, -1):
        q = v // _U(10 ** 4)
        quads[k] = v - q * _U(10 ** 4)
        v = q
    text = _QUADS[quads].view(np.uint8).reshape(g, -1, 4)
    return text.transpose(0, 2, 1).reshape(4 * g, -1)[-w:]


# A block (chars, count, limits) lays out columns of a field: column c holds
# the byte row chars[c] (or the constant byte chars[c]) in the rows whose
# count exceeds limits[c], and no byte in the others.
_UP = np.arange(32)
_DOWN = _UP[::-1].copy()
_FLAG = np.zeros(1, np.intp)
_SIGNS = np.frombuffer(b"+-", np.uint8)
_WORDS = np.frombuffer(b"infnan", np.uint8).reshape(2, 3)


def _int_blocks(v):
    neg = v < 0
    a = np.abs(v).astype(np.uint64)
    nd = _ndigits(a)
    w = int(nd.max())
    blocks = [(b"-", neg, _FLAG)] if neg.any() else []
    return blocks + [(_digits(a, w), nd, _DOWN[-w:])]


def _float_blocks(x):
    """The blocks of each row of the float64 matrix x."""
    c, m = x.shape
    bits = x.reshape(-1).view(np.uint64)
    a = bits & _U((1 << 63) - 1)
    special = a >= _INF
    odd = (a - _1) >= _INF - _1        # zero, inf or nan
    out = np.zeros(a.shape, np.uint64)
    e = np.zeros(a.shape, np.intp)
    k = np.flatnonzero(~odd)
    if k.size == a.size:
        out, e = _shortest(a)
    elif k.size:
        out[k], e[k] = _shortest(a[k])
    nd = _ndigits(out)
    decpt = e + nd              # the float is 0.ddd 10^decpt; 1 for the odd
    t = (decpt + 3).astype(np.uint64)     # -3 <= decpt <= 16: t in 0..19
    sci, small = t > 19, t < 4
    big = ~sci & ~small
    nan = a > _INF
    neg = (bits > a) & ~nan
    z = (3 - decpt) * small     # 3 + the zeros after "0."
    # the digits, padded with zeros up to the point and one past it, with a
    # point after digit dp: decpt in positional form, 1 in scientific form
    kd = nd + big * np.maximum(decpt + 1 - nd, 0)
    dp = decpt * big + (nd > 1) * sci
    if special.any():
        kd[special] = 0
        dp[special] = 0
    D = _digits(out * _P10[17 - nd], 17)
    ex = (decpt - 1) * sci
    ea = np.abs(ex)
    ne = (2 + (ea >= 100)) * sci
    E = _QUADS[ea].view(np.uint8).reshape(-1, 4).T
    esign = _SIGNS[(ex < 0).view(np.uint8)][None]
    fields = []
    for r in range(c):
        s = slice(r * m, (r + 1) * m)
        blocks = [(b"-", neg[s], _FLAG)] if neg[s].any() else []
        if small[s].any():
            wz = int(z[s].max()) - 3
            blocks.append((b"0." + b"0" * wz, z[s] - 1,
                           np.maximum(_UP[:2 + wz], 1)))
        wd = int(kd[s].max())
        cut = 0
        for d in np.flatnonzero(np.bincount(dp[s])[1:]).tolist() + [wd - 1]:
            blocks.append((D[cut:d + 1, s], kd[s], _UP[cut:d + 1]))
            if d + 1 < wd:
                blocks.append((b".", dp[s] == d + 1, _FLAG))
            cut = d + 1
        if sci[s].any():
            we = int(ne[s].max())
            blocks += [(b"e", sci[s], _FLAG), (esign[:, s], sci[s], _FLAG),
                       (E[4 - we:, s], ne[s], _DOWN[-we:])]
        if special[s].any():
            blocks.append((_WORDS[nan[s].view(np.uint8)].T, special[s],
                           _FLAG.repeat(3)))
        fields.append(blocks)
    return fields


def csv_rows(ints, floats):
    """The rows of the columns ints, then floats, joined by commas and each
    ending in a newline, as bytes: ints in decimal and floats as repr writes
    them.  ints are int64 arrays and floats float64 arrays, all of one
    length."""
    fields = [_int_blocks(v) for v in ints]
    if floats:
        fields += _float_blocks(np.array(floats, dtype=np.float64))
    blocks = []
    for field in fields:
        blocks += field + [(b",", None, None)]
    blocks[-1] = (b"\n", None, None)
    widths = [len(c) for c, _, _ in blocks]
    m = len((ints or floats)[0])
    chars = np.empty((sum(widths), m), np.uint8)
    keep = np.empty((sum(widths), m), bool)
    a = 0
    for (c, count, limits), w in zip(blocks, widths):
        chars[a:a + w] = (np.frombuffer(c, np.uint8)[:, None]
                          if isinstance(c, bytes) else c)
        if count is None:
            keep[a:a + w] = True
        else:
            np.greater(count, limits[:, None], out=keep[a:a + w])
        a += w
    return chars.T[keep.T].tobytes()
