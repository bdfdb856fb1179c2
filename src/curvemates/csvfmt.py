"""CSV lines of float64 cells, formatted in bulk, byte for byte as "%.17g".

The 17 significant digits of a cell x are D = round-half-even(|x|·10^(16−k))
with k = floor(log10 |x|), taken one off where the floor of |x|·10^(16−k)
falls outside [10^16, 10^17).  The product is exact as a double-double:
Dekker's two-product (Dekker, Numer. Math. 18, 1971) of |x| and
10^p = hi + lo, a table built by exact integer division, leaves an error
below 1e-14 of a unit in the 17th digit.  As in Ryu-printf (Adams, OOPSLA
2019), the cells this cannot settle are formatted one by one by "%.17g" %:
a rounding fraction within 1e-9 of 1/2 (an exact tie, such as 2^-25) and
|x| outside [1e-30, 1e30], which holds the subnormals, the infinities and
NaN; ±0 is D = 0 at k = 0.  The arithmetic stays in float64 and int64.

Each cell is laid out in 24 bytes (three little-endian words), NUL wherever
no character goes, and the NULs are deleted at the end.  Byte 0 is the sign
and byte 23 the separator; the longest cell in bulk has 23 characters.  The
digits go in as values 0-9, four to a word half, from one integer N < 10^19
in bytes 4-22 (and, in scientific notation, the first two in bytes 1 and 3):

    1 <= |x| < 1e17     N = D with a 0 where the point goes, by the per-cell
                        shift N = 10·D − 9·(D mod 10^(16−k))
    1e-4 <= |x| < 1     N = D, after "0.", "0.0", "0.00" or "0.000"
    scientific          N = the last 15 digits, then 0000 for "e-05"

A table by sign, exponent and the bytes up to the last nonzero digit adds
"0" to each digit written, the sign, the point, the "0.000" and the
exponent.  Tables by k take row k modulo their length, so k < 0 wraps.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_WORD = np.dtype("<i8")        # bytes never carry: adding words writes them
_BULK = (1e-30, 1e30)          # |x| formatted in bulk; others go to "%.17g" %
_TIE = 1e-9                    # and rounding fractions this close to 1/2
_ALONE = 2.0 ** -25            # |x| out of bulk becomes a tie, so it goes too
_EDGE = (5.5e16, 4.5e16 - 32)  # |big − mid| > half: big + small may be out of range
_LOG10_E = 0.4342944819032518  # 1 / ln 10
_HIGH = np.int64(~(2 ** 27 - 1))  # the high 26 significant bits of a double


def _powers() -> np.ndarray:
    """Columns hi, lo and hi's two 26-bit halves (Veltkamp) of 10^(16−k),
    in row k mod 64 for k = -32..31, with hi + lo within 2^-106 of it."""
    hi, lo = [], []
    for k in list(range(32)) + list(range(-32, 0)):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den                       # int / int rounds correctly
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    c = hi * 134217729.0                    # 2^27 + 1
    return np.stack([hi, np.array(lo), c - (c - hi), hi - (c - (c - hi))], axis=1)


def _tables():
    """The digit values of a word half by row, the bytes up to the last
    nonzero digit of a row of four as word half 5, and by sign and exponent
    the shift of D to N and the layout of a cell.

    Digit row g < 10^4 holds the four digits of g; row -100 + v (v < 100)
    holds 0, the tens of v, 0 and its units.  Shift and layout row r are for
    exponent X = (r + 32) % 64 − 32, of a negative cell where 32 <= r < 96.
    Shift row r holds (m, a, b, s): N = a·D + b·(D mod m), and s is 1 in
    scientific notation.  Layout row 24·r + e holds the cell whose digits
    end before byte e: "0" at each digit up to the point and on to e, the
    point, the sign, the exponent and the ","."""
    digits, last = bytearray(40400), bytearray([24]) * 10000
    for i in range(4):                          # digit i of each row of four
        digits[i:40000:4] = b"".join(bytes([v]) * 10 ** (3 - i) for v in range(10)) * 10 ** i
        last[::10 ** (i + 1)] = bytes([23 - i]) * 10 ** (3 - i)
    digits[40001::4] = b"".join(bytes([v]) * 10 for v in range(10))
    digits[40003::4] = bytes(range(10)) * 10
    shift, fixed, run = [], [], []
    for r in range(128):
        x, sign = (r + 32) % 64 - 32, b"-" if 32 <= r < 96 else b"\0"
        if -4 <= x <= 16:                       # the digits in bytes 5-22
            shift.append((10 ** (16 - x), 10, -9, 0) if x >= 0 else (1, 1, 0, 0))
            fixed.append((sign + b"\0" * (4 + min(x, 0)) + b"0" * (1 + max(x, 0))).ljust(23, b"\0")
                         + b",")
            point, stop = 6 + x, 23
        else:                                   # in bytes 1-18, then the exponent
            shift.append((10 ** 15, 0, 10 ** 4, 1))
            fixed.append((sign + b"0").ljust(19, b"\0") + b"e%+03d," % x)
            point, stop = 2, 19
        # written where the digits end past the point
        run.append((b"\0" * point + b"." + b"0" * (stop - point - 1)).ljust(24, b"\0"))
    below = np.frombuffer(b"".join(b"\1" * e + b"\0" * (24 - e) for e in range(24)), np.uint8)
    text = np.frombuffer(b"".join(run), np.uint8).reshape(-1, 1, 24) * below.reshape(24, 24)
    text += np.frombuffer(b"".join(fixed), np.uint8).reshape(-1, 1, 24)
    digits, last = np.frombuffer(digits, "<u4"), np.frombuffer(last, np.uint8)
    return digits, last, np.array(shift), text.view(_WORD).reshape(-1, 3)


_POW10 = _powers()
_DIGITS, _END, _SHIFT, _LAYOUT = _tables()
_COMMA, _NEWLINE = ord(",") << 56, (ord("\n") - ord(",")) << 56


def _significand(a: np.ndarray, k: np.ndarray):
    """a·10^(16−k) as big + small, for 1e-30 <= a <= 1e30: big a double,
    an integer from 2^53 on, and small below 20 in size while big < 10^17."""
    hi, lo, hi_h, hi_l = np.take(_POW10, k, axis=0).T
    big = a * hi
    a_h = (a.view(np.int64) & _HIGH).view(np.float64)
    a_l = a - a_h
    # a·hi − big exactly (Dekker), plus a·lo
    return big, ((a_h * hi_h - big) + a_h * hi_l + a_l * hi_h) + a_l * hi_l + a * lo


def format_rows(cells: np.ndarray, empty: Optional[np.ndarray] = None,
                prefix: str = "") -> str:
    """CSV lines of a 2-D array: each row as ``prefix``, then its cells as
    "%.17g" % cell writes them, separated by "," and ended by "\n".  A
    cell where ``empty`` (a boolean array of the same shape) is set is
    written as no text."""
    x = np.asarray(cells, dtype=np.float64)
    rows, width = x.shape
    x = x.reshape(-1)
    ax = np.abs(x)
    a = np.fmin(np.fmax(ax, _BULK[0]), _BULK[1])
    a[a != ax] = _ALONE                         # NaN too
    zero = x == 0
    a[zero] = 2.0                               # any value in range: D = 0 below
    k = np.floor(np.log(a) * _LOG10_E).astype(np.intp)
    big, small = _significand(a, k)
    # k = floor(log10 a) puts the floor F of big + small in [10^16, 10^17);
    # the float log is one off near 10^k, and F = 10^17 - 1 may round up.
    # The cells near either end are redone; the differences from 10^16 and
    # 10^17 are exact where they matter.
    edge = np.flatnonzero(np.abs(big - _EDGE[0]) > _EDGE[1])
    if edge.size:
        e_big, e_small = big[edge], small[edge]
        k[edge] += np.where(e_small < 1e16 - e_big, -1, e_small >= 1e17 - e_big)
        big[edge], small[edge] = _significand(a[edge], k[edge])
    rounded = np.rint(small)
    alone = np.abs(small - rounded) > 0.5 - _TIE   # ties go to "%.17g" below
    d = big.astype(np.int64)
    d += rounded.astype(np.int64)
    del a, big, small, rounded
    if edge.size:                               # D = 10^17 is 10^16 at k + 1
        carry = edge[d[edge] == 10 ** 17]
        d[carry] = 10 ** 16
        k[carry] += 1
    d[zero] = 0
    k += np.signbit(x) * 64
    m, times, plus, sci = np.take(_SHIFT, k, axis=0).T
    n = d * times                               # N, modulo 2^64
    n += plus * (d % m)
    # N's digits in word halves 1-5; half 0 D's first two in scientific
    # notation (digit row -100 + v), else none (row -100)
    group = np.empty((6, x.size), np.intp)
    np.subtract(d // 10 ** 15 * sci, 100, out=group[0])
    del d, m, times, plus, sci
    q = (n.view(np.uint64) // 1000).view(np.int64)
    np.multiply(n - q * 1000, 10, out=group[5])
    for j in (4, 3, 2):
        v = q // 10000
        np.subtract(q, v * 10000, out=group[j])
        q = v
    group[1] = q
    digits = _DIGITS.take(np.ascontiguousarray(group.T))
    end = _END.take(group[5])                   # the bytes up to the last digit
    ends = np.flatnonzero(group[5] == 0)        # N ends in three zeros or more
    if ends.size:                               # 0 where all are 0
        end[ends] = -(digits[ends].view(np.uint8)[:, ::-1] != 0).argmax(axis=1) % 24
    del group, n, q
    text = bytearray(24 * x.size)
    cell = np.frombuffer(text, _WORD).reshape(-1, 3)
    # "wrap" takes the rows of k < 0 and writes them into text unbuffered
    np.take(_LAYOUT, k * 24 + end, axis=0, out=cell, mode="wrap")
    cell.view("<u4")[:] += digits
    if empty is not None:
        e = np.asarray(empty).reshape(-1)
        cell[e] = (0, 0, _COMMA)
        alone &= ~e
    one = []
    if alone.any():     # a 24-character cell, such as -2.2250738585072014e-308, goes in after
        alone = np.flatnonzero(alone)
        one = [b"%.17g" % v for v in x[alone].tolist()]
        cell[alone] = np.frombuffer(b"".join(
            (t if len(t) < 24 else b"\1").ljust(23, b"\0") + b"," for t in one),
            _WORD).reshape(-1, 3)
    cell.reshape(rows, width, 3)[:, -1, 2] += _NEWLINE
    lines = text.translate(None, b"\0").decode()
    long = [t.decode() for t in one if len(t) > 23]
    if long:
        lines = "".join(p + t for p, t in zip(lines.split("\1"), long + [""]))
    if prefix:                                  # before every line
        lines = prefix + lines.replace("\n", "\n" + prefix)[:-len(prefix)]
    return lines
