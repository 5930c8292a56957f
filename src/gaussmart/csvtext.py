"""CSV text for numpy blocks: each float in the bytes of ``repr``, each
integer in the bytes of ``str``, a whole block of values at once.

Floats go through a numpy port of Schubfach (R. Giulietti, "The Schubfach
way to render doubles", 2020; the algorithm of JDK 19's
``DoubleToDecimal``): the shortest decimal in the double's rounding
interval, the one nearest the double when two are as short.  Unlike Java,
one-digit results are allowed, as in ``repr``.  The digits are laid out as
``repr`` lays them out: with ``decpt`` the decimal point's position (the
value is 0.d1d2... x 10**decpt), exponent form iff decpt <= -4 or
decpt > 16, an exponent of two digits at least, ``.0`` on integral values.

Text is made eight characters at a time in uint64 words, character ``i``
of a value in the ``i % 8``-th least significant byte of word ``i // 8``
(little-endian order).  A value's text is three words, NUL-padded: the
longest, ``-1.2345678901234567e-308``, has 24 characters.  Rows of a
table are joined field by field in one uint8 matrix, and the NUL padding
is dropped at once.
"""

from __future__ import annotations

import numpy as np

#: rows made into text per write.  Writing 4000 x 65 grid normals peaks near
#: 0.6 MiB under tracemalloc, whatever the row count; blocks of 2,048 /
#: 4,096 / 8,192 rows wrote a 400 x 257 grid in 0.55 / 0.40 / 0.41 of the
#: time of a ``repr`` loop (2-vCPU VM), and 8,192 peak above 1 MiB
CSV_BLOCK = 2**12

_U = np.uint64
_M32 = _U(2**32 - 1)
_M63 = _U(2**63 - 1)
_ASCII0 = _U(0x3030303030303030)
_CHARS = 24  # characters of text per value: three words

#: Schubfach's range of decimal exponents k for doubles
_K_MIN, _K_MAX = -324, 292


def _flog2pow10(e):
    """floor(log2(10**e)), exact for |e| <= 5456721 (JDK ``MathUtils``)."""
    return (e * 913_124_641_741) >> 38


def _g_table() -> np.ndarray:
    """Schubfach's 126-bit g(k) = floor(10**-k / 2**r) + 1, where r puts the
    quotient in [2**125, 2**126), for k in [_K_MIN, _K_MAX]: columns g1 and
    g0 with g = g1 2**63 + g0, then the 32-bit halves of each."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k <= 0:
            beta = 10 ** -k << shift if shift >= 0 else 10 ** -k >> -shift
        else:
            beta = (1 << shift) // 10 ** k
        g1, g0 = divmod(beta + 1, 1 << 63)
        rows.append((g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    return np.array(rows, dtype=_U).T.copy()


_G = _g_table()
_POW10 = np.array([10 ** i for i in range(20)], dtype=_U)


def _word(text: str) -> int:
    return int.from_bytes(text.encode("latin-1"), "little")


def _words(texts) -> np.ndarray:
    """Three words (rows) holding each text (columns)."""
    return np.array([[_word(t[i:i + 8]) for t in texts] for i in (0, 8, 16)], dtype=_U)


#: the exponent suffix of repr's exponent form, for exponents -324 ... 308
_EXPONENT = np.array([_word(f"e{x:+03d}") for x in range(-324, 309)], dtype=_U)
#: what leads a value's digits: a sign, then zeros for 0.000ddd forms,
#: indexed 5 * negative + zeros
_LEAD = np.array([_word(sign + "0" * z) for sign in ("", "-") for z in range(5)], dtype=_U)
#: masks of the characters before position p and after it, and the
#: decimal point at p, for p in 0 ... 23
_BEFORE = _words(["\xff" * p for p in range(_CHARS)])
_AFTER = _words(["\0" * (p + 1) + "\xff" * (_CHARS - p - 1) for p in range(_CHARS)])
_POINT = _words(["\0" * p + "." for p in range(_CHARS)])
#: masks of the first n characters, for n in 0 ... 24
_KEEP = _words(["\xff" * n for n in range(_CHARS + 1)])
#: +0.0, -0.0, inf, -inf and nan, indexed as ``_text_float`` finds them
_SPECIALS = ("0.0", "-0.0", "inf", "-inf", "nan")
_SPECIAL = _words(_SPECIALS)
_SPECIAL_LENGTH = np.array([len(t) for t in _SPECIALS])


def _mulhi(ah, al, bh, bl):
    """The high 64 bits of a b, for a < 2**63 and b < 2**60 given as their
    32-bit halves: no partial sum below overflows."""
    mid = al * bl
    mid >>= 32
    mid += al * bh
    mid += ah * bl
    mid >>= 32
    mid += ah * bh
    return mid


def _rop(g, cp):
    """Schubfach's round-to-odd cp g 2**-127 (``rop`` in JDK 19's
    ``DoubleToDecimal``), for cp = cb << h < 2**60 (cb < 2**55, h <= 5)."""
    g1, g1h, g1l, g0h, g0l = g
    ch, cl = cp >> 32, cp & _M32
    z = g1 * cp
    z >>= 1
    z += _mulhi(g0h, g0l, ch, cl)
    out = _mulhi(g1h, g1l, ch, cl)
    out += z >> 63
    z &= _M63  # sticky: any bit below the result's
    z += _M63
    z >>= 63
    out |= z
    return out


def _shortest(bits):
    """Decimal digits ``f`` (an integer) and exponent ``k`` with f 10**k the
    shortest decimal that reads back as each positive finite double, the
    nearer to it of two as short (to an even f if they are as near)."""
    bq = bits >> 52
    t = bits & _U(2**52 - 1)
    # c = 2**52 above the least normal exponent: the rounding interval is
    # half as wide below as above
    irregular = (t == 0) & (bq > 1)
    cb = t | ((bq != 0).astype(_U) << 52)
    del t
    cb <<= 2
    # the ends of the rounding interval are in it iff c is even
    odd = (cb & _U(4)) != 0
    q = np.maximum(bq.astype(np.int64), 1) - 1075
    del bq
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    del q
    g = _G.take(k - _K_MIN, axis=1)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + irregular) << h) + odd
    vbr = _rop(g, (cb + _U(2)) << h) - odd
    del g, cb, h, irregular, odd
    s = vb >> 2
    # one digit fewer: at most one multiple of 10**(k + 1) lies in the interval
    sp10 = (s // _U(10)) * _U(10)
    upin = vbl <= sp10 << 2
    shorter = (s >= 10) & (upin != ((sp10 << 2) + _U(40) <= vbr))
    # else s 10**k or (s + 1) 10**k, the nearer of the two when both are in
    uin = vbl <= s << 2
    win = (s << 2) + _U(4) <= vbr
    del vbl, vbr
    vb &= _U(3)
    take_t = np.where(uin != win, win, (vb > 2) | ((vb == 2) & ((s & _U(1)) == 1)))
    return np.where(shorter, sp10 + (~upin).astype(_U) * _U(10), s + take_t), k


def _pack8(y):
    """The 8 decimal digits (with leading zeros) of each y < 10**8 as one
    word: digit i, from the most significant, in byte i, as a value 0 ... 9."""
    hi = y // _U(10_000)
    y = hi | ((y - hi * _U(10_000)) << 32)  # two 4-digit lanes
    hi = ((y * _U(5243)) >> 19) & _U(0x0000007F_0000007F)  # y // 100 by lane
    y = hi | ((y - hi * _U(100)) << 16)  # four 2-digit lanes
    hi = ((y * _U(103)) >> 10) & _U(0x000F_000F_000F_000F)  # y // 10 by lane
    return hi | ((y - hi * _U(10)) << 8)


def _shift_up(text, chars) -> None:
    """Move text (three words by values) up by ``chars`` < 8 characters,
    toward its end, in place; NULs move in."""
    bits = chars.astype(_U) << 3
    carry = text[:-1] >> (_U(64) - bits)
    text <<= bits
    text[1:] |= carry


def _last_byte(w):
    """The index of each nonzero word's highest nonzero byte, whose value is
    below 16 (so the float conversion cannot round up to the next byte)."""
    return ((w.astype(np.float64).view(_U) >> 52).astype(np.int64) - 1023) >> 3


def _text_float(x):
    """Text words (3, n) and lengths of the float64 values ``x``."""
    negative = np.signbit(x)
    bits = x.view(_U) & _M63
    special = (bits == 0) | (bits >= _U(0x7FF0000000000000))
    bits[special] = _U(0x3FF0000000000000)  # 1.0, to keep the tables in range
    f, k = _shortest(bits)
    del bits
    # f < 10**17 has d + 1 or d + 2 digits, d = floor(log10 2**floor(log2 f))
    # (float(f) may round up to a power of 2, but not past a power of 10)
    d = (((f.astype(np.float64).view(_U) >> 52).astype(np.int64) - 1023) * 78913) >> 18
    d += 1
    n_digits = d + (f >= _POW10.take(d))
    del d
    decpt = k + n_digits
    del k
    f *= _POW10.take(17 - n_digits)  # exactly 17 digits, then trailing zeros
    del n_digits
    n = len(x)
    text = np.empty((3, n), dtype=_U)
    text[0] = f // _U(10**9)
    f -= text[0] * _U(10**9)
    text[1] = f // _U(10)
    text[2] = f - text[1] * _U(10)
    del f
    text[:2] = _pack8(text[:2])
    # significant digits: up to the last nonzero one
    sig = np.where(text[2] != 0, 17, np.where(text[1] != 0, 9, 1)
                   + _last_byte(np.where(text[1] != 0, text[1], text[0])))
    text |= _ASCII0
    fixed = (decpt > -4) & (decpt <= 16)
    zeros = np.where(fixed, np.maximum(1 - decpt, 0), 0)
    neg = negative.astype(np.int64)
    _shift_up(text, neg + zeros)
    text[0] |= _LEAD.take(5 * neg + zeros)
    point = np.where(fixed, np.maximum(decpt, 1), 1) + neg
    length = np.where(fixed, np.maximum(zeros + sig, point - neg + 1) + 1,
                      sig + (sig > 1)) + neg
    del zeros, sig
    # the decimal point at ``point``: the characters from there move up one
    moved = text.copy()
    _shift_up(moved, np.ones(1, np.int64))
    mask = _AFTER.take(point, axis=1)
    moved &= mask
    np.take(_BEFORE, point, axis=1, out=mask)
    text &= mask
    text |= moved
    del moved
    np.take(_POINT, point, axis=1, out=mask)
    text |= mask
    np.take(_KEEP, length, axis=1, out=mask)
    text &= mask
    del mask, point
    # the exponent suffix after the digits
    suffix = np.where(fixed, _U(0), _EXPONENT.take(decpt + 323, mode="clip"))
    at = (length >> 3) * n + np.arange(n)
    shift = ((length & 7) << 3).astype(_U)
    flat = text.ravel()
    flat[at] |= suffix << shift
    # its spill into the next word (nothing spills out of the last word)
    flat[np.minimum(at + n, flat.size - 1)] |= suffix >> (_U(64) - shift)
    length += np.where(fixed, 0, 4 + (np.abs(decpt - 1) >= 100))
    if special.any():
        code = np.where(np.isnan(x), 4, np.where(np.isinf(x), 2, 0) + neg)[special]
        text[:, special] = _SPECIAL.take(code, axis=1)
        length[special] = _SPECIAL_LENGTH.take(code)
    return text, length


def _text_int(x):
    """Text words (3, n) and lengths of the integers ``x`` (any numpy
    integer type)."""
    negative = x < 0
    mag = x.astype(np.int64).view(_U) if x.dtype.kind == "i" else x.astype(_U)
    mag = np.where(negative, _U(0) - mag, mag)
    n_digits = np.maximum(np.searchsorted(_POW10, mag, side="right"), 1)
    top = mag // _U(10**16)
    low = mag - top * _U(10**16)
    mid = low // _U(10**8)
    text = _pack8(np.stack([top, mid, low - mid * _U(10**8)])) | _ASCII0
    # move the digits down to the front: word j takes words j + d and
    # j + d + 1 of the 24-digit text, d = down // 8
    down = _CHARS - n_digits
    n = len(x)
    padded = np.zeros((6, n), dtype=_U)
    padded[:3] = text
    src = (np.arange(3)[:, None] + (down >> 3)) * n + np.arange(n)
    bits = ((down & 7) << 3).astype(_U)
    flat = padded.ravel()
    text = (flat[src] >> bits) | (flat[src + n] << (_U(64) - bits))
    text &= _KEEP.take(n_digits, axis=1)
    neg = negative.astype(np.int64)
    if negative.any():
        _shift_up(text, neg)
        text[0] |= negative.astype(_U) * _U(ord("-"))
    return text, n_digits + neg


def text_block(x) -> np.ndarray:
    """The text of each value of a 1-d numeric array, as rows of uint8
    characters NUL-padded to the block's longest: ``repr(float(v))`` for a
    float, ``str(int(v))`` for an integer."""
    x = np.asarray(x)
    if x.dtype.kind in "iu":
        text, length = _text_int(x)
    else:
        text, length = _text_float(np.asarray(x, dtype=np.float64))
    width = int(length.max()) if length.size else 0
    return np.ascontiguousarray(text.T, dtype="<u8").view(np.uint8)[:, :width]


def csv_rows(shape, *fields) -> np.ndarray:
    """The bytes of CSV rows ``a,b,...``, each ended by a newline, an array
    of ``shape`` of them, from uint8 text matrices (as :func:`text_block`
    makes them) that broadcast to ``shape`` along their leading axes."""
    widths = [f.shape[-1] for f in fields]
    rows = np.empty(tuple(shape) + (sum(widths) + len(fields),), dtype=np.uint8)
    at = 0
    for f, width in zip(fields, widths):
        rows[..., at:at + width] = f
        rows[..., at + width] = ord(",")
        at += width + 1
    rows[..., -1] = ord("\n")
    return rows[rows != 0]
