"""CSV text of float tables, byte-identical to ``"%.17g" % x`` per value.

CPython's ``%`` costs about 430 ns per value, which made the CSV formatting
the largest part of a ``simulate`` run.  This module writes the same bytes
with whole-array numpy operations:

* Digits: ``|x| * 10**(16 - e)`` is formed in double-double arithmetic, a
  Dekker product with a (hi, lo) table of powers of ten built from Python
  ints.  Its error is below 1e-14 of a unit in the 17th digit, so rounding
  to the nearest integer gives the 17 correctly rounded digits ``D`` in
  [1e16, 1e17).
* Fallback: a value whose scaled fraction lies within ``TIE_BAND`` of 1/2,
  and any nonzero value outside [``FAST_MIN``, ``FAST_MAX``), sends its row
  through the ``%`` template.  Exact ties always land in the band, so
  round-half-even stays CPython's job.
* Layout: each value gets a fixed-column slot of ``_SLOT`` bytes (sign,
  ``0.000`` lead, the 17 digits interleaved with the possible places of a
  point, exponent, separator) filled by the ``%g`` rules; unused bytes are
  NUL and one ``bytes.translate`` deletes them.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# Values per encoded chunk: bounds the working memory whatever the row width.
# 16384 ran no faster and left a long-lived process about 1 MB larger.
CHUNK_VALUES = 8192
# Nonzero magnitudes outside [FAST_MIN, FAST_MAX) go through the template.
# Inside it the table entries, their Dekker halves and every partial
# product stay finite and normal.
FAST_MIN = 1e-100
FAST_MAX = 1e100
# Half-width of the band around a fraction of 1/2 that is left to CPython;
# far wider than the error of the scaled value.
TIE_BAND = 1e-6

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
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
# Layout classes: n = 0..17 (0 unused) times X clipped to -5..17, where -5
# and 17 stand for every X of the exponent form.
_X_CLASSES = 23
_NEWLINE = _U64.type((44 ^ 10) << 40)    # turns word 5's comma into "\n"


class _Tables(NamedTuple):
    p_hi: np.ndarray      # per e - _E_LO: 10**(16 - e) ~ p_hi + p_lo
    p_hi_hi: np.ndarray   # Dekker halves of p_hi
    p_hi_lo: np.ndarray
    p_lo: np.ndarray
    group: np.ndarray     # per 4-digit group g: the word "d.d.d.d."
    sig: np.ndarray       # [j, g]: digits 0.. through the last nonzero one
                          # of g as group j, or 1 for g = 0
    mask: np.ndarray      # [w, n * _X_CLASSES + class]: mask of word w
    head: np.ndarray      # per X - _E_LO: word 0's lead and point
    tail: np.ndarray      # per X - _E_LO: word 5's exponent and comma


def _words(byte_table) -> np.ndarray:
    """The last axis, 8 bytes, read as one little-endian word."""
    return np.ascontiguousarray(byte_table, np.uint8).view(_U64)[..., 0]


def _powers_of_ten():
    """hi, its Dekker halves and lo, with hi + lo = 10**(16 - e) to about
    2**-106, for e = _E_LO.._E_HI.

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
    hi = np.array(his)
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    return hi, hi_hi, hi - hi_hi, np.array(los)


def _layout_masks() -> np.ndarray:
    n = np.arange(18)[:, None]
    X = np.arange(-5, 18)
    fixed = (X >= -4) & (X < 17)
    # Digits written, and the digit a point follows (-1: none in words 0-4).
    keep = np.where(fixed & (X >= 0), np.maximum(n, X + 1), n)
    point = np.where(fixed, np.where((X >= 0) & (n > X + 1), X, -1),
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
    tail = np.zeros_like(head)
    tail[:, 0] = 101
    tail[:, 1] = np.where(X < 0, 45, 43)
    tail[:, 2] = np.where(ex >= 100, ex // 100 + 48, 0)
    tail[:, 3] = ex // 10 % 10 + 48
    tail[:, 4] = ex % 10 + 48
    tail[(X >= -4) & (X < 17)] = 0
    tail[:, 5] = 44
    return _words(head), _words(tail)


@functools.cache
def _tables() -> _Tables:
    # Built on first use, so that importing the module costs nothing.
    groups = np.full((10000, 8), 46, np.uint8)
    groups[:, 0::2] = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T + 48
    g = np.arange(10000)
    last = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0) - (g == 0)
    sig = np.where(g > 0, last + 4 * np.arange(4)[:, None] + 1, 1).astype(np.int16)
    return _Tables(*_powers_of_ten(), _words(groups), sig, _layout_masks(),
                   *_exponent_words())


def _scaled(a, e, tab: _Tables):
    """Double-double ``(vh, vl)`` with vh + vl ~ a * 10**(16 - e)."""
    i = e - _E_LO
    h_hi, h_lo = tab.p_hi_hi[i], tab.p_hi_lo[i]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * tab.p_hi[i]
    err = a_lo * h_lo - (((p - a_hi * h_hi) - a_lo * h_hi) - a_hi * h_lo)
    q = err + a * tab.p_lo[i]
    vh = p + q
    return vh, q - (vh - p)


def _encode(block: np.ndarray, template: str, slots: np.ndarray):
    """Fill ``slots``, one row of bytes per row of ``block``, with the text
    of the row padded by NULs."""
    tab = _tables()
    rows, cols = block.shape
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
    D = vh.astype(np.int64) + t.astype(np.int64) + (frac > 0.5)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X = e + carry
    flagged = ~(fast | zero) | (np.abs(frac - 0.5) < TIE_BAND)

    # D = top * 10**16 + four 4-digit groups; a zero keeps D = 1e16 but
    # writes its top digit as "0".
    upper = D // 10 ** 8
    top = upper // 10 ** 8
    groups = np.empty((4, x.size), np.int64)
    groups[0], groups[1] = np.divmod(upper - top * 10 ** 8, 10 ** 4)
    groups[2], groups[3] = np.divmod(D - upper * 10 ** 8, 10 ** 4)
    # Significant digits once trailing zeros are stripped.
    n = tab.sig[0][groups[0]]
    for j in range(1, 4):
        np.maximum(n, tab.sig[j][groups[j]], out=n)
    layout = n * _X_CLASSES + np.minimum(np.maximum(X, -5), 17) + 5

    words = slots.view(_U64).reshape(x.size, _WORDS)
    xi = X - _E_LO
    digit0 = (top - zero + 48).astype(_U64) << _U64.type(48)
    sign = np.signbit(x).astype(_U64) * _U64.type(45)
    np.bitwise_and(tab.head[xi] | digit0 | sign, tab.mask[0][layout], out=words[:, 0])
    for j in range(4):
        np.bitwise_and(tab.group[groups[j]], tab.mask[j + 1][layout], out=words[:, j + 1])
    words[:, 5] = tab.tail[xi]
    words[cols - 1::cols, 5] ^= _NEWLINE

    # A row's text always fits its slots: a %.17g value is at most 24
    # characters, and its separator one more.
    for r in np.flatnonzero(flagged.reshape(rows, cols).any(axis=1)):
        line = (template % tuple(block[r].tolist()) + "\n").encode("ascii")
        slots[r] = 0
        slots[r, :len(line)] = np.frombuffer(line, np.uint8)


def csv_rows(table: np.ndarray):
    """Yield the CSV lines of a 2-D float array, each value written exactly as
    ``"%.17g" % value``, values joined by "," and rows ended by "\\n".

    The text comes in chunks of whole rows holding about ``CHUNK_VALUES``
    values, so a caller can stream it without holding the whole file.
    """
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    template = ",".join(["%.17g"] * cols)
    step = max(1, CHUNK_VALUES // cols)
    # One buffer serves every chunk; the last, shorter one uses its start.
    buf = bytearray(min(step, rows) * cols * _SLOT)
    slots = np.frombuffer(buf, np.uint8).reshape(-1, cols * _SLOT)
    for start in range(0, rows, step):
        block = table[start:start + step]
        _encode(block, template, slots[:len(block)])
        used = buf if block.size * _SLOT == len(buf) else buf[:block.size * _SLOT]
        yield used.translate(None, b"\0").decode("ascii")
