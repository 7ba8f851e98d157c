"""csv_text against the per-cell formatter it must equal: '%.12e' % v for
every value of a float column and '%s' % (v,) for any other."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfqkd import DomainError
from tfqkd import csvtext
from tfqkd.csvtext import csv_text


def per_cell(header, columns):
    """The CSV of the columns formatted one cell at a time: a column that
    numpy reads as floats prints '%.12e' % v, any other '%s' % (v,) of
    each cell as given (numpy's string dtypes would drop trailing NULs)."""
    floats = [np.asarray(c).dtype.kind == "f" for c in columns]
    cells = [np.asarray(c).tolist() if f or isinstance(c, np.ndarray) else list(c)
             for c, f in zip(columns, floats)]
    lines = [",".join(header)]
    for row in zip(*cells):
        lines.append(",".join("%.12e" % x if f else "%s" % (x,) for f, x in zip(floats, row)))
    return "\n".join(lines) + "\n"


def assert_per_cell(header, columns):
    assert csv_text(header, columns) == per_cell(header, columns)


def exact(q) -> float:
    """The double nearest to the rational q."""
    return float(Fraction(q))


def test_seeded_corpus_over_the_exponent_range():
    rng = np.random.Generator(np.random.Philox(18))
    bits = rng.integers(0, 2 ** 64, size=600_000, dtype=np.uint64)  # every binary64 class
    mixed = bits.view(np.float64)
    spread = 10.0 ** rng.uniform(-110, 110, size=400_000)  # positive, two- and three-digit
    values = np.concatenate((mixed, spread))
    rng.shuffle(values)
    assert values.size >= 10 ** 6
    # four columns, many row blocks
    assert_per_cell(["a", "b", "c", "d"], values.reshape(4, -1))


def test_near_ties_and_powers_of_ten_at_every_exponent():
    rng = np.random.Generator(np.random.Philox(1812))
    values = []
    for e in range(-45, 61):
        for k in [10 ** 12, 10 ** 13 - 2, 10 ** 13 - 1, *rng.integers(10 ** 12, 10 ** 13 - 1, 40)]:
            scale = Fraction(10) ** (e - 12)
            tie = exact((Fraction(int(k)) + Fraction(1, 2)) * scale)
            values += [tie, np.nextafter(tie, 0.0), np.nextafter(tie, np.inf)]
            # either side of the fast path's 0.005 margin around the tie
            values += [exact((int(k) + Fraction(1, 2) + d) * scale)
                       for d in (Fraction(s, 1000) for s in (-6, -4, -2, 2, 4, 6))]
        power = exact(Fraction(10) ** e)
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
    values = np.array(values)
    assert_per_cell(["x"], [values])
    assert_per_cell(["x", "y"], [values, values[::-1]])


def test_special_values():
    tiny = np.finfo(np.float64).tiny
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, tiny,
              np.nextafter(tiny, 0.0), 1e-310, -1.5, -1e-5, 1e100, 1e-100, 1e308, 1.7976931348623157e308,
              9.9999999999995e99, 9.99999999999949e99, 1e-98, np.nextafter(1e-98, 0.0), 1e98,
              np.nextafter(1e98, 0.0), 9.9999999999995e5, 0.5, 1.0, 2.0 ** 52]
    assert_per_cell(["x"], [values])
    narrow = [0.1, 1e-40, 3e38, -0.0, np.nan, np.inf, 7.0]
    assert_per_cell(["f32", "f16", "ld"], [np.array(narrow, dtype=np.float32),
                                           np.array(narrow[:2] + [6e4] + narrow[3:], dtype=np.float16),
                                           np.array(narrow, dtype=np.longdouble)])
    assert csv_text(["x"], [[0.0, -0.0, np.inf, np.nan]]) == (
        "x\n0.000000000000e+00\n-0.000000000000e+00\ninf\nnan\n")


@given(st.floats())
def test_one_value_equals_percent_e(v):
    assert csv_text(["x"], [[v]]) == "x\n" + "%.12e\n" % v


@settings(max_examples=50)
@given(st.lists(st.tuples(st.floats(), st.floats(min_value=0.0), st.text()), min_size=1))
def test_rows_equal_the_per_cell_formatter(rows):
    assert_per_cell(["a", "b", "c"], list(zip(*rows)))


def test_mixed_tables():
    floats = [1.5, np.nan, -2.0, 0.1]
    columns = [floats, [1, -2, 30, 400], [True, False, True, False],
               ["héllo", "", "a\0b", "日本"], ["", "", "", ""], ["x\0", "\0", "y", "z"],
               np.array(floats, dtype=np.float32), [b"raw", b"", b"b", b"c"],
               np.array(["x\0", "\0\0", "y", ""], dtype=object)]
    header = [f"c{i}" for i in range(len(columns))]
    assert_per_cell(header, columns)
    assert "a\0b" in csv_text(header, columns)
    assert csv_text(["s"], [np.array(["x\0", "y\0"], dtype=object)]) == "s\nx\0\ny\0\n"
    assert_per_cell(header, [c[:1] for c in columns])  # one row
    assert csv_text(header, [c[:0] for c in columns]) == ",".join(header) + "\n"
    assert csv_text(["h"], []) == "h\n"
    assert csv_text([], []) == "\n"


def test_trailing_nuls_of_string_cells_are_kept():
    # a list of str went through numpy's NUL-padded str dtype, whose
    # values drop their trailing NULs: this printed "s\nx\n"
    assert csv_text(["s"], [["x\0"]]) == "s\nx\0\n"
    assert csv_text(["s", "t"], [("a\0\0", "\0"), ["b", "c\0"]]) == "s,t\na\0\0,b\n\0,c\0\n"
    assert csv_text(["b"], [[b"x\0"]]) == "b\n%s\n" % (b"x\0",)
    assert_per_cell(["s", "x"], [["\0", "y\0\0", ""], [1.0, 2.0, 3.0]])


def test_surrogates_round_trip():
    assert_per_cell(["s"], [["😀", "\udc80x", "ok"]])


def test_many_row_blocks_of_mixed_widths():
    n = 3 * (csvtext._BLOCK_CELLS // 3) + 7
    x = np.linspace(-1.0, 1.0, n)
    x[::97] = np.nan
    assert_per_cell(["x", "i", "s"], [x, np.arange(n), np.where(np.arange(n) % 5, "a", "")])


def test_unequal_columns_raise():
    # zip used to drop the extra cells: this printed one data row
    with pytest.raises(DomainError, match=r"\[3, 1\]"):
        csv_text(["a", "b"], [[1.0, 2.0, 3.0], [4.0]])
    with pytest.raises(DomainError, match="one-dimensional"):
        csv_text(["a"], [[[1.0, 2.0]]])


def test_fast_path_takes_almost_every_value():
    # the equalities above hold with every cell in the fallback too; this
    # pins the fast path: positive doubles of two-digit exponent fall
    # back only within the 0.005 tie margin, about 1 % of them
    rng = np.random.Generator(np.random.Philox(5))
    v = 10.0 ** rng.uniform(-90, 90, size=(4, 25_000))
    _, fallback = csvtext._float_cells(v)
    assert fallback.mean() < 0.02
    zeros = np.zeros((1, 10))
    assert not csvtext._float_cells(zeros)[1].any()


def test_scale_table_is_correctly_rounded():
    # the fast path's error bound assumes 10**(12 - e) correctly rounded
    assert [csvtext._SHIFT[e + 99] for e in range(-99, 100)] == [
        exact(Fraction(10) ** (12 - e)) for e in range(-99, 100)]
