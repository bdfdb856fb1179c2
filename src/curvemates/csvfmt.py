"""CSV lines of float64 cells, formatted in bulk, byte for byte as "%.17g".

The 17 significant digits of a cell x are D = round-half-even(|x|·10^(16−k))
with k = floor(log10 |x|), taken one off where the floor of |x|·10^(16−k)
falls outside [10^16, 10^17).  The product is exact as a double-double:
Dekker's two-product (Dekker, Numer. Math. 18, 1971) of |x| and
10^p = hi + lo, a table built by exact integer division, leaves an error
below 1e-14 of a unit in the 17th digit.  As in Ryu-printf (Adams, OOPSLA
2019), the cells this cannot settle are formatted one by one by "%.17g" %:
a rounding fraction within 1e-9 of 1/2 (an exact tie, such as 2^-25), ±0,
and |x| outside [1e-30, 1e30), which holds the subnormals, the infinities
and NaN.  The arithmetic stays in float64 (D is split into digits by exact
float quotients) and int64, whose numpy loops a command already runs.

Each cell is laid out in six little-endian 64-bit words (48 bytes), NUL
wherever no character goes, and the NULs are deleted at the end:

    byte 0        the sign
    bytes 1-5     the "0.000" of a fixed-notation number below 1
    bytes 6-39    the 17 digits, each followed by the point or NUL
    bytes 40-43   the exponent "e+XX"
    byte 47       the separator

So neither the point nor a stripped trailing zero moves another character,
and all but the sign and the digits is looked up by (exponent, digits kept).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_WORD = np.dtype("<i8")        # bytes never carry: adding words writes them
_BULK = (1e-30, 1e30)          # |x| formatted in bulk; others go to "%.17g" %
_TIE = 1e-9                    # and rounding fractions this close to 1/2
_X_MIN, _X_MAX = -30, 30       # decimal exponents of the bulk cells, rounded
_P_MIN, _P_MAX = -14, 48       # the 10^p needed for k off by one at most
_SPLIT = 134217729.0           # 2^27 + 1: splits a double into 26-bit halves
_LOG10_E = 0.4342944819032518  # 1 / ln 10
_E4, _E8, _E16, _E17 = 1e4, 1e8, 1e16, 1e17


def _split(v):
    """v as hi + lo, each of at most 26 significant bits (Veltkamp)."""
    c = v * _SPLIT
    hi = c - (c - v)
    return hi, v - hi


def _powers() -> np.ndarray:
    """Rows hi, lo and hi's two halves of 10^p for p = _P_MIN.._P_MAX, with
    hi + lo within 2^-106 of 10^p."""
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        h = num / den                       # int / int rounds correctly
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    return np.stack([hi, np.array(lo), *_split(hi)])


def _words(rows, width: int) -> np.ndarray:
    """Byte strings as rows of ``width`` NUL-padded bytes, in words."""
    text = b"".join(r.ljust(8 * width, b"\0") for r in rows)
    return np.frombuffer(text, _WORD).reshape(-1, width)


def _digit_tables():
    """The digit words added to a cell, and the zeros each group ends in.

    Word g < 10000 holds the digit values (0-9, not characters) of group g
    in its even bytes; word 10000 + f + 10·s holds the first digit f, and
    the sign "-" where s is 1; word 10020 holds nothing."""
    words = bytearray(8 * 10021)
    trailing = bytearray(8 * 10000)
    for i in range(4):                      # digit i of each group
        run = 10 ** (3 - i)
        words[2 * i:80000:8] = b"".join(bytes([v]) * run for v in range(10)) * 10 ** i
        trailing[::8 * 10 ** (i + 1)] = bytes([i + 1]) * run
    words[80006::8] = bytes(range(10)) * 2 + b"\0"
    words[80080::8] = b"-" * 10 + b"\0"
    return np.frombuffer(words, _WORD), np.frombuffer(trailing, _WORD)


def _layout_table() -> np.ndarray:
    """A cell's six words without its sign and digit values, by exponent X
    and significant digits nd (row (X - _X_MIN)·18 + nd): "0" at each digit
    written, which the digit value adds to; the point; the "0.000" of
    fixed notation below 1; the exponent."""
    exps = range(_X_MIN, _X_MAX + 1)
    by_exp = _words([b"\0" + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"").ljust(39, b"\0")
                     + (b"" if -4 <= x < 17 else b"e%+03d" % x) for x in exps], 6)
    zeros = _words([b"\0" * 6 + b"0\0" * n for n in range(18)], 6)
    points = _words([b"\0" * (7 + 2 * j) + b"." for j in range(17)] + [b""], 6)
    keep, point = [], []
    for x in exps:
        for nd in range(18):
            if 0 <= x < 17:     # fixed, with an integer part: never stripped
                keep.append(max(nd, x + 1))
                point.append(x if nd > x + 1 else 17)
            else:
                keep.append(nd)
                point.append(0 if nd > 1 and not -4 <= x < 0 else 17)
    return by_exp.repeat(18, axis=0) + zeros[keep] + points[point]


_POW10 = _powers()
_DIGITS, _TRAILING = _digit_tables()
_LAYOUT = _layout_table()
_COMMA, _NEWLINE = ord(",") << 56, ord("\n") << 56


def _significand(a: np.ndarray, k: np.ndarray):
    """a·10^(16−k) as big + whole + frac, for 1e-30 <= a < 1e30: big a
    double, an integer from 2^53 on; whole an integer; 0 <= frac < 1."""
    hi, lo, hi_h, hi_l = np.take(_POW10, 16 - _P_MIN - k, axis=1)
    big = a * hi
    a_h, a_l = _split(a)
    # a·hi − big exactly (Dekker), plus a·lo
    small = ((a_h * hi_h - big) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * lo
    whole = np.floor(small)
    return big, whole, small - whole


def format_rows(cells: np.ndarray, empty: Optional[np.ndarray] = None,
                prefix: str = "") -> str:
    """CSV lines of a 2-D array: each row as ``prefix``, then its cells as
    "%.17g" % cell writes them, separated by "," and ended by "\n".  A
    cell where ``empty`` (a boolean array of the same shape) is set is
    written as no text."""
    x = np.asarray(cells, dtype=np.float64)
    rows, width = x.shape
    x = x.reshape(-1)
    a = np.abs(x)
    bulk = (a >= _BULK[0]) & (a < _BULK[1])
    a[~bulk] = 1.0                              # any value in range
    k = np.floor(np.log(a) * _LOG10_E).astype(np.intp)
    big, whole, frac = _significand(a, k)
    # k = floor(log10 a) puts the floor F = big + whole in [10^16, 10^17);
    # the float log is one off near 10^k, and F = 10^17 - 1 may round up.
    # The differences from 10^16 and 10^17 are exact where they matter.
    edge = np.flatnonzero((whole < _E16 - big) | (whole >= (_E17 - big) - 1))
    if edge.size:
        e_big, e_whole = big[edge], whole[edge]
        k[edge] += np.where(e_whole < _E16 - e_big, -1, e_whole >= _E17 - e_big)
        big[edge], whole[edge], frac[edge] = _significand(a[edge], k[edge])
    whole += frac > 0.5                         # ties go to "%.17g" below
    if edge.size:                               # D = 10^17 is 10^16 at k + 1
        carry = edge[whole[edge] == _E17 - big[edge]]
        big[carry], whole[carry] = _E16, 0.0
        k[carry] += 1
    # D = big + whole as its first digit and four groups of four, in floats:
    # each quotient below is exact or, for big / 10^8, one over at most
    high = np.floor(big / _E8)
    low = (big - high * _E8) + whole
    over = np.floor(low / _E8)
    high += over
    low -= over * _E8
    first = np.floor(high / _E8)
    index = np.empty((x.size, 6))               # each word's row of _DIGITS
    for j, half in ((1, high - first * _E8), (3, low)):
        np.floor(half / _E4, out=index[:, j])
        np.subtract(half, index[:, j] * _E4, out=index[:, j + 1])
    index[:, 0] = first + (x < 0) * 10 + _E4
    index[:, 5] = _E4 + 20
    digits = index.astype(np.intp)
    nd = 17 - _TRAILING[digits[:, 4]]
    ends = np.flatnonzero(index[:, 4] == 0)     # D ends in four zeros or more
    if ends.size:
        t = _TRAILING[digits[ends, 1:4]]
        z = index[ends, 1:4] == 0
        nd[ends] -= t[:, 2] + z[:, 2] * (t[:, 1] + z[:, 1] * t[:, 0])
    del index
    text = bytearray(48 * x.size)
    cell = np.frombuffer(text, _WORD).reshape(-1, 6)
    # the rows are in range; "clip" writes them into text unbuffered
    np.take(_LAYOUT, (k - _X_MIN) * 18 + nd, axis=0, out=cell, mode="clip")
    cell += _DIGITS.take(digits)
    alone = ~bulk | (np.abs(frac - 0.5) < _TIE)
    if empty is not None:
        e = np.asarray(empty).reshape(-1)
        cell[e] = 0
        alone &= ~e
    alone = np.flatnonzero(alone)
    if alone.size:
        one = b"".join([(b"%.17g" % v).ljust(48, b"\0") for v in x[alone].tolist()])
        cell[alone] = np.frombuffer(one, _WORD).reshape(-1, 6)
    cell = cell.reshape(rows, width, 6)
    cell[:, :-1, 5] += _COMMA
    cell[:, -1, 5] += _NEWLINE
    lines = text.translate(None, b"\0").decode()
    if prefix:                                  # before every line
        lines = prefix + lines.replace("\n", "\n" + prefix)[:-len(prefix)]
    return lines
