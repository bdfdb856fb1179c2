"""The bulk CSV formatter writes every cell byte for byte as "%.17g" % does."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemates.csvfmt import format_rows


def reference(cells, empty=None, prefix=""):
    """The CSV lines, cell by cell, as "%.17g" % writes them."""
    return "".join(
        prefix + ",".join("" if empty is not None and empty[i, j] else "%.17g" % v
                          for j, v in enumerate(row)) + "\n"
        for i, row in enumerate(cells.tolist()))


def assert_formats(values):
    """Each value alone on a line, and all of them in rows of five."""
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    got = format_rows(column).splitlines()
    want = reference(column).splitlines()
    assert got == want, [(g, w) for g, w in zip(got, want) if g != w][:5]
    rows = np.resize(column, (-(-len(column) // 5), 5))
    assert format_rows(rows) == reference(rows)


def ties():
    """m·2^-e with m odd whose exact decimal has 18 significant digits: the
    18th is a 5, a tie at the 17th digit (2^-25 = 2.98023223876953125e-08)."""
    out = []
    for e in range(2, 26):
        m = 10 ** 17 // 5 ** e | 1
        while m * 5 ** e < 10 ** 17:
            m += 2
        for odd in (m, m + 2, 2 * m + 1):
            if odd < 2 ** 53 and odd * 5 ** e < 10 ** 18:
                out.append(odd * 2.0 ** -e)
    return out


def neighbours(value, steps=3):
    """value and the doubles up to ``steps`` ulps away on each side."""
    out, lo, hi = [value], value, value
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


POWERS = [v for k in range(-30, 31) for v in neighbours(float(f"1e{k}"), 1)]
# the fixed/scientific boundaries at k = -5/-4 and 16/17, and the ends of
# the range formatted in bulk
BOUNDARIES = [v for c in (1e-5, 1e-4, 1e16, 1e17, 1e-30, 1e30) for v in neighbours(c)]
SPECIAL = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
           1.7976931348623157e308, np.inf, np.nan, 2.0 ** 53, 2.0 ** 53 - 1,
           2.0 ** 52 + 0.5, 1e15 + 0.3, 0.1, 0.5, 1.0, 3.0, 123.0]


def test_ties_go_to_even():
    values = ties()
    assert 2.0 ** -25 in values and len(values) > 40
    assert_formats(values + [-v for v in values])


def test_powers_of_ten_and_their_neighbours():
    # 1e-14 is the double below 10^-14 that rounds up to it
    assert "%.17g" % 1e-14 == "1e-14"
    assert_formats(POWERS + [-v for v in POWERS])


def test_boundaries_and_special_values():
    assert_formats(BOUNDARIES + SPECIAL + [-v for v in BOUNDARIES + SPECIAL])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=60))
def test_any_double(values):
    assert_formats(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 53, 2 ** 53).map(float), min_size=1, max_size=30))
def test_integers_up_to_2_pow_53(values):
    assert_formats(values)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 25).flatmap(
    lambda e: st.integers(0, 2 ** 52 - 1).map(lambda m: (2 * m + 1) * 2.0 ** -e)))
def test_odd_multiples_of_powers_of_two(value):
    assert_formats([value, -value])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-1e6, 1e6), min_size=3 * n, max_size=3 * n),
    st.lists(st.booleans(), min_size=3 * n, max_size=3 * n))),
    st.sampled_from(["", "cor6_3,", "thm4_1,"]))
def test_empty_cells_and_prefix(data, prefix):
    values, marks = data
    cells = np.array(values).reshape(-1, 3)
    empty = np.array(marks).reshape(-1, 3)
    cells[empty] = np.nan
    assert format_rows(cells, empty, prefix) == reference(cells, empty, prefix)


def shaped(x, nd, sign):
    """A double that "%.17g" prints with decimal exponent x and nd
    significant digits once its trailing zeros go, or None where none does."""
    rng = random.Random(1000 * x + nd)
    mantissas = range(10 ** (nd - 1), 10 ** nd) if nd < 3 else (
        rng.randrange(10 ** (nd - 1), 10 ** nd) for _ in range(5000))
    for m in map(str, mantissas):
        v = sign * float(f"{m[0]}.{m[1:]}e{x}")
        mantissa, exponent = ("%.16e" % abs(v)).split("e")
        if int(exponent) == x and len(mantissa.replace(".", "").rstrip("0")) == nd:
            return v
    return None


def test_every_exponent_and_digit_count():
    # each layout of a cell formatted in bulk: fixed notation with and
    # without a point, "0.000" below 1, scientific with and without one
    shapes = [(x, nd) for x in range(-30, 31) for nd in range(1, 18)]
    values = [shaped(x, nd, sign) for x, nd in shapes for sign in (1, -1)]
    # a few shapes of one or two digits are no double's: 1e-30 prints as
    # 1.0000000000000001e-30
    missing = {shape for shape, v in zip(shapes, values[::2]) if v is None}
    assert len(missing) == 13 and all(nd < 3 for _, nd in missing)
    assert_formats([v for v in values if v is not None])


def test_bulk_and_one_by_one_cells_in_one_chunk():
    rng = np.random.default_rng(11)
    cells = rng.normal(size=(64, 24)) * 10.0 ** rng.integers(-6, 20, size=(64, 24))
    alone = [0.0, -0.0, 1e-31, -1e-31, 2.0 ** -25, -(2.0 ** -25), 1e30, np.nan, -np.inf,
             -2.2250738585072014e-308]
    cells.flat[rng.choice(cells.size, 200, replace=False)] = np.resize(alone, 200)
    assert format_rows(cells) == reference(cells)
