"""Float text at numpy speed: the bytes of ``"%.17g" % x`` and of ``repr(x)``.

CPython's ``%`` costs about 430 ns per value and ``float.__repr__`` about
500, which made the text the largest part of every run.  This module writes
the same bytes with whole-array numpy operations:

* Digits: ``|x| * 10**(16 - e)`` is formed in double-double arithmetic, a
  Dekker product with a (hi, lo) table of powers of ten built from Python
  ints.  Its error is below 1e-14 of a unit in the 17th digit, so rounding
  to the nearest integer gives the 17 correctly rounded digits ``D`` in
  [1e16, 1e17).
* Shortest digits, for ``repr``: when the correctly rounded 15-digit value
  reads back as x, it is x's shortest form with its trailing zeros
  stripped; otherwise the 16-digit value, if it reads back, and else the 17
  digits (Steele & White 1990; Adams 2018).  "Reads back" compares its
  distance to x, in units of the 17th digit, with half the gap between x
  and its neighbours (notes/decisions.md).
* Fallback: a value within ``TIE_BAND`` of a tie of the digits it writes
  or of a half gap, a power of two whose 15 digits are not exact (the gap
  below it is narrower), and any nonzero value outside [``FAST_MIN``,
  ``FAST_MAX``), is written by CPython.  Exact ties always land in the
  band, so round-half-even stays CPython's job.
* Layout: each value gets a fixed-column slot of four 64-bit words
  (``_SLOT`` = 32 bytes).  Word 0 holds the sign, the ``0.000`` lead,
  digit 0 and the place of a point after it; words 1-2 hold digits 1-16,
  contiguous; word 3 holds the byte that a point inserted into words 1-2
  pushes out, the exponent and the separator.  Tables indexed by the
  value's layout class, by the ``%g`` or the ``repr`` rules, give word 0's
  lead and the mask of the digits written.  A point after digit 1-15,
  which only fixed-notation values with 10 <= |x| < 1e16 take, is then
  inserted on those values alone.  Unused bytes are NUL and one
  ``bytearray.translate`` deletes them.
* Output: ASCII bytes, never ``str``.  `csv_rows` writes tables,
  `repr_text` a vector with a byte of the caller's after each value, and
  `records` puts the slots between constant text, such as the records of
  a JSON list.
"""

import functools
from typing import NamedTuple

import numpy as np

from .structure import two_product

# Values per encoded chunk: bounds the working memory whatever the row width.
# 16384 ran no faster and left a long-lived process about 1 MB larger.
CHUNK_VALUES = 8192
# Nonzero magnitudes outside [FAST_MIN, FAST_MAX) go through CPython.
# Inside it the table entries, their Dekker halves and every partial
# product stay finite and normal.
FAST_MIN = 1e-100
FAST_MAX = 1e100
# Half-width of the band around a rounding tie or a read-back boundary
# that is left to CPython; far wider than the error of the scaled value.
TIE_BAND = 1e-6

# Decimal exponents e covered by the tables, with a margin of one on each
# side for the correction of the log10 estimate and the carry.  The
# encoder carries e as its index e - _E_LO in these tables.
_E_LO, _E_HI = -102, 101
_E_SPAN = _E_HI - _E_LO + 1

# A value's slot is four little-endian 64-bit words, one byte per column:
#   word 0: sign, "0." and up to three zeros of the -4 <= X < 0 lead,
#           digit 0 and the place of a point after it;
#   words 1-2: digits 1-16;
#   word 3: the byte an inserted point pushes out of word 2, "e", exponent
#           sign, hundreds, tens and units, separator, a NUL.
# What words 0-2 write, the lead, a point after digit 0 and the digits
# kept, depends only on the value's layout class: its significant digit
# count n and exponent X.
_U64 = np.dtype("<u8")
_FAST_BITS = np.array([FAST_MIN, FAST_MAX]).view(_U64)
_WORDS = 4
_SLOT = 8 * _WORDS
_SEP_BYTE = 30                          # the separator's byte in a slot
_SEP_SHIFT = _U64.type(8 * (_SEP_BYTE - 24))    # and its place in word 3
_COMMA, _NEWLINE = _U64.type(44) << _SEP_SHIFT, _U64.type(10) << _SEP_SHIFT


class _Tables(NamedTuple):
    p_hi: np.ndarray      # per e - _E_LO: 10**(16 - e) ~ p_hi + p_lo
    p_lo: np.ndarray
    quad: np.ndarray      # [h, g]: the 4 digits of group g in half h of a word
    sig: np.ndarray       # [j, g]: _E_SPAN times the digits 0.. through the
                          # last nonzero one of g as group j, or 1 for g = 0
    split: np.ndarray     # [w, p]: the bytes of word 1 + w before a point
                          # inserted after digit p
    dot: np.ndarray       # [w, p]: that point in word 1 + w


class _Layout(NamedTuple):
    """The tables of one style, per layout class n * _E_SPAN + e - _E_LO."""
    head: np.ndarray      # word 0's lead, a "0" to add digit 0 to, and point
    mask: np.ndarray      # [w, class]: the digits written in word 1 + w
    point: np.ndarray     # the digit, 1-15, that an inserted point follows; 0: none
    tail: np.ndarray      # per e - _E_LO: word 3's exponent


def _words(byte_table) -> np.ndarray:
    """The last axis, 8 bytes, read as one little-endian word."""
    return np.ascontiguousarray(byte_table, np.uint8).view(_U64)[..., 0]


def _powers_of_ten():
    """hi and lo with hi + lo = 10**(16 - e) to about 2**-106, for
    e = _E_LO.._E_HI.

    hi is the correctly rounded double and lo the correctly rounded
    remainder, both from exact int arithmetic (int / int rounds correctly).
    """
    his, los = [], []
    for e in range(_E_LO, _E_HI + 1):
        s = 16 - e
        if s >= 0:
            p = 10 ** s
            hi = float(p)
            lo = float(p - int(hi))
        else:
            p = 10 ** -s
            hi = 1 / p
            num, den = hi.as_integer_ratio()
            lo = (den - num * p) / (den * p)
        his.append(hi)
        los.append(lo)
    return np.array(his), np.array(los)


@functools.cache
def _layout(shortest: bool) -> _Layout:
    """The layout tables by the %g rules or, when ``shortest``, by repr's:
    the exponent form from X = 16, and ".0" (the digit X + 1, a zero of D)
    on an integral value."""
    # Worked out for X = -5..17, where -5 and 17 stand for every X of the
    # exponent form, then spread over the X of the tables.
    n = np.arange(18)[:, None]
    X = np.arange(-5, 18)
    fixed = (X >= -4) & (X < 17 - shortest)
    whole = fixed & (X >= 0)
    # Digits written, and the digit a point follows (-1: none, or the lead's).
    keep = np.where(whole, np.maximum(n, X + 1 + shortest), n)
    point = np.where(fixed, np.where(whole & ((n > X + 1) | shortest), X, -1),
                     np.where(n > 1, 0, -1))
    head = np.zeros((18, X.size, 8), np.uint8)
    lead = fixed & (X < 0)
    head[:, lead, 1:3] = [48, 46]
    for j in range(3):
        head[:, lead & (X < -1 - j), 3 + j] = 48
    head[..., 6] = 48
    head[..., 7] = (point == 0) * np.uint8(46)
    digits = (np.arange(1, 17) < keep[..., None]) * np.uint8(255)
    exponents = np.arange(_E_LO, _E_HI + 1)
    spread = np.clip(exponents, -5, 17) + 5
    mask = _words(digits.reshape(18, X.size, 2, 8))[:, spread]

    ex = np.abs(exponents)
    tail = np.zeros((exponents.size, 8), np.uint8)
    tail[:, 1] = 101
    tail[:, 2] = np.where(exponents < 0, 45, 43)
    tail[:, 3] = (ex >= 100) * (ex // 100 + 48)
    tail[:, 4] = ex // 10 % 10 + 48
    tail[:, 5] = ex % 10 + 48
    tail[(exponents >= -4) & (exponents < 17 - shortest)] = 0
    return _Layout(_words(head)[:, spread].reshape(-1), mask.transpose(2, 0, 1).reshape(2, -1),
                   np.maximum(point, 0)[:, spread].reshape(-1), _words(tail))


@functools.cache
def _tables() -> _Tables:
    # Built on first use, so that importing the module costs nothing.
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)     # of each group
    quad = np.zeros((2, 10000, 8), np.uint8)
    quad[0, :, :4] = digits.T + 48
    quad[1, :, 4:] = quad[0, :, :4]
    # A group's digits through its last nonzero one, 0 for group 0.
    last = (np.arange(1, 5, dtype=np.int16)[:, None] * (digits > 0)).max(0)
    sig = np.where(last > 0, last + 4 * np.arange(4, dtype=np.int16)[:, None] + 1, 1)
    # Byte b of word 1 + w holds digit 8w + b + 1; the point after digit p
    # takes byte p of the 16.
    at = np.arange(16).reshape(2, 8) - np.arange(16)[:, None, None]
    split = _words((at < 0) * np.uint8(255)).T.copy()
    dot = _words((at == 0) * np.uint8(46)).T.copy()
    return _Tables(*_powers_of_ten(), _words(quad), sig * np.int16(_E_SPAN), split, dot)


def _scaled(a, e, tab: _Tables):
    """Double-double ``(vh, vl)`` with vh + vl ~ a * 10**(16 - e), for the
    table index e."""
    p, err = two_product(a, tab.p_hi[e])
    q = err + a * tab.p_lo[e]
    vh = p + q
    return vh, q - (vh - p)


def _shortest(a, e, whole, frac, D, tab: _Tables):
    """Trade the 17 digits ``D`` for the 16 or the 15 that read back as a,
    where they do, in place; ``whole + frac`` is the scaled value.  Returns
    the values to leave to CPython."""
    # Half the gap to a's neighbours, in units of the 17th digit.
    half = 0.5 * np.spacing(a) * tab.p_hi[e]
    flagged = np.abs(frac - 0.5) < TIE_BAND
    for unit in (10, 100):
        q = whole // unit
        rem = (whole - q * unit) + frac
        up = rem > unit / 2
        dist = np.abs(rem - unit * up)
        ok = dist < half
        np.putmask(D, ok, (q + up) * unit)
        # A rounding tie matters only for the digits written; a 15-digit
        # tie, at distance 50, never reads back.
        flagged &= ~ok
        if unit == 10:
            flagged |= ok & (np.abs(dist - 5) < TIE_BAND)
        flagged |= np.abs(dist - half) < TIE_BAND
    # The gap below a power of two is half as wide: CPython writes those
    # whose 15 digits are not exact.
    pow2 = (a.view(_U64) & _U64.type(2**52 - 1)) == 0
    return flagged | (pow2 & (dist >= TIE_BAND))


def _encode(x: np.ndarray, words: np.ndarray, shortest: bool, sep=_U64.type(0)):
    """Fill ``words[i]``, the four words of the slot of ``x[i]``, with the
    value's text padded by NULs, and OR ``sep`` (a word, or a word per
    value) into each last word.  The %.17g text, or repr's when
    ``shortest``.  Returns the indices of the values that CPython wrote."""
    tab = _tables()
    a = np.abs(x)
    zero = a == 0
    # Outside [FAST_MIN, FAST_MAX), zero and NaN included: one unsigned
    # compare on the bits.
    slow = a.view(_U64) - _FAST_BITS[0] >= _FAST_BITS[1] - _FAST_BITS[0]
    np.putmask(a, slow, 1.0)        # zeros and fallbacks encode as 1

    # Decimal exponent, as a table index: the log10 estimate, corrected once
    # where the scaled value leaves [1e16, 1e17), which one unsigned compare
    # on its integer part finds.  A value just below a power of ten that
    # rounds up carries.
    e = np.floor(np.log10(a)).astype(np.int64) - _E_LO
    vh, vl = _scaled(a, e, tab)
    t = np.floor(vl)
    whole = vh.astype(np.int64) + t.astype(np.int64)
    off = (whole - 10 ** 16).view(_U64) >= 9 * 10 ** 16
    if off.any():
        fix = np.flatnonzero(off)
        e[fix] += np.where(whole[fix] < 10 ** 16, -1, 1)
        vh[fix], vl[fix] = _scaled(a[fix], e[fix], tab)
        t[fix] = np.floor(vl[fix])
        whole[fix] = vh[fix].astype(np.int64) + t[fix].astype(np.int64)
    frac = vl - t
    D = whole + (frac > 0.5)
    if shortest:
        flagged = _shortest(a, e, whole, frac, D, tab)
    else:
        flagged = np.abs(frac - 0.5) < TIE_BAND
    carry = D == 10 ** 17
    np.subtract(D, 9 * 10 ** 16, out=D, where=carry)
    e += carry
    flagged |= slow ^ zero

    # D = top * 10**16 + four 4-digit groups; a zero keeps D = 1e16 but
    # writes its top digit as "0".
    upper = D // 10 ** 8
    top = upper // 10 ** 8
    groups = np.empty((4, x.size), np.int64)
    groups[1] = upper - top * 10 ** 8
    groups[3] = D - upper * 10 ** 8
    for j in (0, 2):
        groups[j] = groups[j + 1] // 10 ** 4
        groups[j + 1] -= groups[j] * 10 ** 4
    # The layout class, from the significant digits once trailing zeros
    # are stripped.
    layout = tab.sig[0][groups[0]]
    for j in range(1, 4):
        np.maximum(layout, tab.sig[j][groups[j]], out=layout)
    layout = layout + e
    style = _layout(shortest)
    digit0 = (top - zero << 48).view(_U64)
    np.bitwise_or(style.head[layout] + digit0, np.signbit(x) * _U64.type(45),
                  out=words[:, 0])
    lo, hi = tab.quad
    for w in range(2):
        np.bitwise_and(lo[groups[2 * w]] | hi[groups[2 * w + 1]], style.mask[w][layout],
                       out=words[:, w + 1])
    np.bitwise_or(style.tail[e], sep, out=words[:, 3])

    # Insert the point after digit p, 1 <= p <= 15: the bytes from byte p
    # of words 1-2 on move up one, the last one into word 3.
    point = style.point[layout]
    inserted = np.flatnonzero(point)
    if inserted.size:
        p = point[inserted]
        moved = 0
        for w in range(2):
            column = words[:, w + 1]
            word = column[inserted]
            before = word & tab.split[w][p]
            after = word ^ before
            column[inserted] = before | after << 8 | tab.dot[w][p] | moved
            moved = after >> 56
        words[:, 3][inserted] |= moved

    if not flagged.any():
        return np.empty(0, np.intp)
    # A value's text, at most 24 characters, fits before its separator.
    text = float.__repr__ if shortest else "%.17g".__mod__
    slots = words.view(np.uint8)
    fallback = np.flatnonzero(flagged)
    for i in fallback:
        line = text(float(x[i])).encode("ascii")
        slots[i, :_SEP_BYTE] = 0
        slots[i, :len(line)] = np.frombuffer(line, np.uint8)
    return fallback


def _text(buf: bytearray, used: int) -> bytearray:
    """The first ``used`` bytes of ``buf``, NULs deleted."""
    return (buf if used == len(buf) else buf[:used]).translate(None, b"\0")


def _lines(table: np.ndarray, shortest: bool, sep: np.ndarray):
    """Yield the text of a 2-D float array in chunks of whole rows holding
    about ``CHUNK_VALUES`` values, each value followed by its separator:
    ``sep`` is a word per column, or per row and column."""
    rows, cols = table.shape
    step = max(1, CHUNK_VALUES // cols)
    sep = np.broadcast_to(sep, table.shape)
    # One buffer serves every chunk; the last, shorter one uses its start.
    buf = bytearray(min(step, rows) * cols * _SLOT)
    words = np.frombuffer(buf, _U64).reshape(-1, _WORDS)
    for start in range(0, rows, step):
        block = table[start:start + step].reshape(-1)
        _encode(block, words[:block.size], shortest, sep[start:start + step].reshape(-1))
        yield _text(buf, block.size * _SLOT)


def csv_rows(table: np.ndarray, shortest: bool = False):
    """Yield the CSV lines of a 2-D float array as ASCII bytes, each value
    written exactly as ``"%.17g" % value`` (``repr(value)`` when
    ``shortest``), values joined by "," and rows ended by "\\n".

    The text comes in chunks (bytearrays) of whole rows holding about
    ``CHUNK_VALUES`` values, so a caller can stream it without holding the
    whole file.
    """
    table = np.asarray(table, dtype=np.float64)
    sep = np.full(table.shape[1], _COMMA)
    sep[-1] = _NEWLINE
    return _lines(table, shortest, sep)


def repr_text(values, ends) -> bytes:
    """The ``repr`` of each value of a float vector, each followed by its
    byte of ``ends`` (nonzero ASCII codes), as one ASCII bytes object."""
    sep = np.asarray(ends, dtype=_U64)[:, None] << _SEP_SHIFT
    return b"".join(_lines(np.asarray(values, dtype=np.float64)[:, None], True, sep))


def _int_words(v: np.ndarray) -> np.ndarray:
    """One word per nonnegative int below 10**8: its digits, NUL-padded."""
    digits = np.zeros(v.shape + (8,), np.uint8)
    count = len(str(int(v.max())))
    if count > 8 or v.min() < 0:
        raise ValueError("the int text takes values in [0, 10**8)")
    for k in range(count):
        place = 10 ** (count - 1 - k)
        digits[..., k] = v // place % 10 + 48
        if place > 1:
            digits[..., k] *= v >= place        # a leading zero is a NUL
    return _words(digits)


def records(pieces, floats, ints, sep: str):
    """Yield the text of one record per value of the float vector ``floats``:
    ``pieces[0]``, the float as ``repr`` writes it, then each int of the
    same row of the 2-D ``ints`` (nonnegative, below 10**8) in decimal,
    each value followed by the next piece.  Records are joined by ``sep``.
    The pieces and ``sep`` are ASCII strings.

    The text comes as ASCII bytes, in chunks (bytearrays) of
    ``CHUNK_VALUES`` whole records.
    """
    floats = np.asarray(floats, dtype=np.float64)
    ints = np.asarray(ints)
    rows, count = ints.shape
    # A record's words: sep and the first piece, the float's slot and its
    # piece, then each int's slot and its piece.  The int pieces are padded
    # to one size, so that the int slots form a view.
    size = lambda text: -(-len(text) // 8)
    f0 = size(sep + pieces[0])
    i0 = f0 + _WORDS + size(pieces[1])
    stride = 1 + max(map(size, pieces[2:]))
    template = np.zeros((i0 + count * stride) * 8, np.uint8)
    starts = [0, f0 + _WORDS] + [i0 + k * stride + 1 for k in range(count)]
    for start, text in zip(starts, [sep + pieces[0]] + list(pieces[1:])):
        template[8 * start:8 * start + len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)
    template = _words(template.reshape(-1, 8))

    buf = bytearray(min(CHUNK_VALUES, rows) * template.size * 8)
    rec = np.frombuffer(buf, _U64).reshape(-1, template.size)
    for start in range(0, rows, CHUNK_VALUES):
        block = floats[start:start + CHUNK_VALUES]
        n = len(block)
        rec[:n] = template
        _encode(block, rec[:n, f0:f0 + _WORDS], True)
        rec[:n, i0:].reshape(n, count, stride)[..., 0] = _int_words(ints[start:start + n])
        if start == 0:
            rec[:1].view(np.uint8)[0, :len(sep)] = 0    # no sep before the first
        yield _text(buf, n * template.size * 8)
