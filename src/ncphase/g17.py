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
* Layout: each value gets a fixed-column slot of ``_SLOT`` bytes (sign,
  ``0.000`` lead, the 17 digits interleaved with the possible places of a
  point, exponent, separator) filled by the ``%g`` or the ``repr`` rules;
  unused bytes are NUL and one ``bytes.translate`` deletes them.
  `csv_rows` writes tables, `repr_text` a vector with a byte of the
  caller's after each value, and `records` puts the slots between constant
  text, such as the records of a JSON list.
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
# side for the correction of the log10 estimate and the carry.
_E_LO, _E_HI = -102, 101

# A value's slot is six little-endian 64-bit words, one byte per column:
#   word 0: sign, "0." and up to three zeros of the -4 <= X < 0 lead,
#           digit 0 and the place of a point after it;
#   words 1-4: digits 1-16, each followed by the place of a point;
#   word 5: "e", exponent sign, hundreds, tens and units, separator, 2 NULs.
# Words 0-4 are their content ANDed with a mask that depends only on the
# value's layout class: its significant digit count n and exponent X.
_U64 = np.dtype("<u8")
_WORDS = 6
_SLOT = 8 * _WORDS
_SEP_BYTE = 45                          # the separator's byte in a slot
_SEP_SHIFT = _U64.type(8 * (_SEP_BYTE - 40))    # and its place in word 5
# Layout classes: n = 0..17 (0 unused) times X clipped to -5..17, where -5
# and 17 stand for every X of the exponent form.
_X_CLASSES = 23
_COMMA, _NEWLINE = _U64.type(44) << _SEP_SHIFT, _U64.type(10) << _SEP_SHIFT


class _Tables(NamedTuple):
    p_hi: np.ndarray      # per e - _E_LO: 10**(16 - e) ~ p_hi + p_lo
    p_lo: np.ndarray
    group: np.ndarray     # per 4-digit group g: the word "d.d.d.d."
    sig: np.ndarray       # [j, g]: digits 0.. through the last nonzero one
                          # of g as group j, or 1 for g = 0
    head: np.ndarray      # per X - _E_LO: word 0's lead and point
    mask: np.ndarray      # [shortest, w, n * _X_CLASSES + class]: mask of word w
    tail: np.ndarray      # [shortest, X - _E_LO]: word 5's exponent


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


def _layout_masks(shortest: bool) -> np.ndarray:
    """Masks of words 0-4 per layout class, by the %g rules or, when
    ``shortest``, by repr's: the exponent form from X = 16, and ".0" (the
    digit X + 1, a zero of D) on an integral value."""
    n = np.arange(18)[:, None]
    X = np.arange(-5, 18)
    fixed = (X >= -4) & (X < 17 - shortest)
    whole = fixed & (X >= 0)
    # Digits written, and the digit a point follows (-1: none in words 0-4).
    keep = np.where(whole, np.maximum(n, X + 1 + shortest), n)
    point = np.where(fixed, np.where(whole & ((n > X + 1) | shortest), X, -1),
                     np.where(n > 1, 0, -1))
    k = np.arange(17)
    word = (k + 3) // 4
    byte = np.where(k == 0, 6, 2 * ((k - 1) % 4))
    masks = np.zeros((18, _X_CLASSES, 5, 8), np.uint8)
    masks[:, :, 0, :6] = 255                     # sign and lead
    masks[:, :, word, byte] = np.where(k < keep[..., None], 255, 0)
    masks[:, :, word, byte + 1] = np.where(k == point[..., None], 255, 0)
    return _words(masks).reshape(-1, 5).T.copy()


def _exponent_words():
    X = np.arange(_E_LO, _E_HI + 1)
    ex = np.abs(X)
    head = np.zeros((X.size, 8), np.uint8)
    lead = (X >= -4) & (X < 0)
    head[lead, 1:3] = [48, 46]
    for j in range(3):
        head[lead & (X < -1 - j), 3 + j] = 48
    head[:, 7] = 46
    tail = np.zeros((2, X.size, 8), np.uint8)
    tail[..., 0] = 101
    tail[..., 1] = np.where(X < 0, 45, 43)
    tail[..., 2] = np.where(ex >= 100, ex // 100 + 48, 0)
    tail[..., 3] = ex // 10 % 10 + 48
    tail[..., 4] = ex % 10 + 48
    for shortest in (0, 1):
        tail[shortest, (X >= -4) & (X < 17 - shortest)] = 0
    return _words(head), _words(tail)


@functools.cache
def _tables() -> _Tables:
    # Built on first use, so that importing the module costs nothing.
    groups = np.full((10000, 8), 46, np.uint8)
    groups[:, 0::2] = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T + 48
    g = np.arange(10000)
    last = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0) - (g == 0)
    sig = np.where(g > 0, last + 4 * np.arange(4)[:, None] + 1, 1).astype(np.int16)
    head, tail = _exponent_words()
    mask = np.stack([_layout_masks(False), _layout_masks(True)])
    return _Tables(*_powers_of_ten(), _words(groups), sig, head, mask, tail)


def _scaled(a, e, tab: _Tables):
    """Double-double ``(vh, vl)`` with vh + vl ~ a * 10**(16 - e)."""
    i = e - _E_LO
    p, err = two_product(a, tab.p_hi[i])
    q = err + a * tab.p_lo[i]
    vh = p + q
    return vh, q - (vh - p)


def _shortest(a, e, whole, frac, D, tab: _Tables):
    """Trade the 17 digits ``D`` for the 16 or the 15 that read back as a,
    where they do; ``whole + frac`` is the scaled value.  Returns the digits
    and the values to leave to CPython."""
    # Half the gap to a's neighbours, in units of the 17th digit.
    half = 0.5 * np.spacing(a) * tab.p_hi[e - _E_LO]
    flagged = np.abs(frac - 0.5) < TIE_BAND
    for unit in (10, 100):
        q = whole // unit
        rem = (whole - q * unit) + frac
        up = rem > unit / 2
        dist = np.where(up, unit - rem, rem)
        ok = dist < half
        D = np.where(ok, (q + up) * unit, D)
        # A rounding tie matters only for the digits written; a 15-digit
        # tie, at distance 50, never reads back.
        tie = np.abs(dist - 5) < TIE_BAND if unit == 10 else False
        flagged = np.where(ok, tie, flagged) | (np.abs(dist - half) < TIE_BAND)
    # The gap below a power of two is half as wide: CPython writes those
    # whose 15 digits are not exact.
    pow2 = (a.view(_U64) & _U64.type(2**52 - 1)) == 0
    return D, flagged | (pow2 & (dist >= TIE_BAND))


def _encode(block: np.ndarray, words: np.ndarray, shortest: bool, sep=_U64.type(0)):
    """Fill ``words[r, c]``, the six words of the slot of ``block[r, c]``,
    with the value's text padded by NULs, and OR ``sep`` (a word per column,
    or per row and column) into each last word.  The %.17g text, or repr's
    when ``shortest``.  Returns the flat indices of the values that CPython
    wrote."""
    tab = _tables()
    cols = block.shape[1]
    x = block.reshape(-1)
    a = np.abs(x)
    zero = a == 0
    fast = (a >= FAST_MIN) & (a < FAST_MAX)
    a = np.where(fast, a, 1.0)      # zeros and fallbacks encode as 1

    # Decimal exponent: the log10 estimate, corrected once on the scaled
    # value.  A value just below a power of ten that rounds up carries.
    e = np.floor(np.log10(a)).astype(np.int64)
    vh, vl = _scaled(a, e, tab)
    below = (vh < 1e16) | ((vh == 1e16) & (vl < 0))
    above = (vh > 1e17) | ((vh == 1e17) & (vl >= 0))
    fix = np.flatnonzero(below | above)
    if fix.size:
        e[fix] += above[fix].astype(np.int64) - below[fix]
        vh[fix], vl[fix] = _scaled(a[fix], e[fix], tab)
    t = np.floor(vl)
    frac = vl - t
    whole = vh.astype(np.int64) + t.astype(np.int64)
    D = whole + (frac > 0.5)
    if shortest:
        D, flagged = _shortest(a, e, whole, frac, D, tab)
    else:
        flagged = np.abs(frac - 0.5) < TIE_BAND
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X = e + carry
    flagged |= ~(fast | zero)

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
    # Significant digits once trailing zeros are stripped.
    n = tab.sig[0][groups[0]]
    for j in range(1, 4):
        np.maximum(n, tab.sig[j][groups[j]], out=n)
    shape = block.shape
    layout = (n * _X_CLASSES + np.minimum(np.maximum(X, -5), 17) + 5).reshape(shape)
    xi = (X - _E_LO).reshape(shape)
    digit0 = ((top - zero + 48).astype(_U64) << _U64.type(48)).reshape(shape)
    sign = np.signbit(block).astype(_U64) * _U64.type(45)
    mask = tab.mask[int(shortest)]
    np.bitwise_and(tab.head[xi] | digit0 | sign, mask[0][layout], out=words[..., 0])
    for j in range(4):
        np.bitwise_and(tab.group[groups[j].reshape(shape)], mask[j + 1][layout],
                       out=words[..., j + 1])
    np.bitwise_or(tab.tail[int(shortest)][xi], sep, out=words[..., 5])

    # A value's text, at most 24 characters, fits before its separator.
    text = float.__repr__ if shortest else "%.17g".__mod__
    slots = words.view(np.uint8)
    fallback = np.flatnonzero(flagged)
    for i in fallback:
        line = text(float(x[i])).encode("ascii")
        slot = slots[divmod(i, cols)]
        slot[:_SEP_BYTE] = 0
        slot[:len(line)] = np.frombuffer(line, np.uint8)
    return fallback


def _text(buf: bytearray, used: int) -> str:
    """The first ``used`` bytes of ``buf``, NULs deleted."""
    return (buf if used == len(buf) else buf[:used]).translate(None, b"\0").decode("ascii")


def _lines(table: np.ndarray, shortest: bool, sep: np.ndarray):
    """Yield the text of a 2-D float array in chunks of whole rows holding
    about ``CHUNK_VALUES`` values, each value followed by its separator:
    ``sep`` is a word per column, or per row and column."""
    rows, cols = table.shape
    step = max(1, CHUNK_VALUES // cols)
    # One buffer serves every chunk; the last, shorter one uses its start.
    buf = bytearray(min(step, rows) * cols * _SLOT)
    words = np.frombuffer(buf, _U64).reshape(-1, cols, _WORDS)
    for start in range(0, rows, step):
        block = table[start:start + step]
        _encode(block, words[:len(block)], shortest,
                sep if sep.ndim == 1 else sep[start:start + step])
        yield _text(buf, block.size * _SLOT)


def csv_rows(table: np.ndarray, shortest: bool = False):
    """Yield the CSV lines of a 2-D float array, each value written exactly as
    ``"%.17g" % value`` (``repr(value)`` when ``shortest``), values joined
    by "," and rows ended by "\\n".

    The text comes in chunks of whole rows holding about ``CHUNK_VALUES``
    values, so a caller can stream it without holding the whole file.
    """
    table = np.asarray(table, dtype=np.float64)
    sep = np.full(table.shape[1], _COMMA)
    sep[-1] = _NEWLINE
    return _lines(table, shortest, sep)


def repr_text(values, ends) -> str:
    """The ``repr`` of each value of a float vector, each followed by its
    byte of ``ends`` (nonzero ASCII codes), in one string."""
    sep = np.asarray(ends, dtype=_U64)[:, None] << _SEP_SHIFT
    return "".join(_lines(np.asarray(values, dtype=np.float64)[:, None], True, sep))


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

    The text comes in chunks of ``CHUNK_VALUES`` whole records.
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
        block = floats[start:start + CHUNK_VALUES, None]
        n = len(block)
        rec[:n] = template
        _encode(block, rec[:n, None, f0:f0 + _WORDS], True)
        rec[:n, i0:].reshape(n, count, stride)[..., 0] = _int_words(ints[start:start + n])
        if start == 0:
            rec[:1].view(np.uint8)[0, :len(sep)] = 0    # no sep before the first
        yield _text(buf, n * template.size * 8)
