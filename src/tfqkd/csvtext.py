"""The one CSV writer of the package.

Every CSV the package writes (sweeps, sigma maps, isolines, PSD tables,
window solves, oracle comparisons) goes through csv_text, column by
column: a float column prints each value as %.12e, any other column as
%s.  The demos write their committed files in demos/out through it too.
The text is byte-identical to '%.12e' % v and '%s' % (v,) applied
cell by cell, but the float cells of a table are formatted together in
a few numpy array operations: a fast path with a bail-out, as in
Loitsch's Grisu3 (PLDI 2010).

* Scaling.  For a double v in [1e-98, 1e98) take the candidate exponent
  e = floor(log10 v) and y = v * p, where p is 10**(12 - e) correctly
  rounded (exact for 0 <= 12 - e <= 22).  p and the product each round
  once, by at most 2**-53 relative, so y is within 1e13 * 2.3e-16 < 0.0025
  of the exact v * 10**(12 - e) whenever it is below 1e13.  If y falls
  outside [1e12, 1e13), log10 was off by one: e is corrected once and y
  is formed again from v.
* Fast path.  A value keeps its y when 1e12 <= y < 1e13 - 1 and y is
  more than the margin 0.005, twice the error bound, away from the
  nearest half-integer (|y - rint(y)| < 0.5 - 0.005).  Then the exact
  scaled value rounds to the same integer as y, so rint(y) is the
  13-digit significand that %.12e prints: no rounding tie reaches the
  fast path, and no significand carries into the next power of ten.
  +0.0 takes the fast path too.  The digits and the exponent are written
  as ASCII bytes through one table of 4-byte words.
* Fallback.  Every other float cell goes through Python's own
  '%.12e' % v: NaN, +-inf, -0.0, negatives, subnormals, anything outside
  [1e-98, 1e98) (which takes in the three-digit exponents), and the
  values within the margin of a tie.

Rows are assembled as a byte matrix, in blocks of at most _BLOCK_CELLS
cells so that the temporaries stay small for any table.  When every cell
of each column has the same byte length, as in the sweep tables, the
matrix is the text; otherwise each cell is padded to its column's widest
and the padding is dropped by the cells' lengths, so a string that
itself holds NUL characters keeps them.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

__all__ = ["csv_text"]

_TIE_MARGIN = 0.005  # twice the 0.0025 error bound on y
_BLOCK_CELLS = 1 << 16
_CELL = 18  # len("d.dddddddddddde+dd")
# 10**(12 - e) correctly rounded (int / int is), at row e + 99 for e in -99..99
_SHIFT = np.array([10 ** (12 - e) if e <= 12 else 1 / 10 ** (e - 12) for e in range(-99, 100)],
                  dtype=np.float64)


def _word_table() -> np.ndarray:
    """The 4-byte words of a cell, in one table: b"\\0\\0d." for each leading
    digit d, then each group of four digits, then b"e+dd" for each
    exponent -99..99 (_WORD_BASE holds where each part starts).  The words
    are built as bytes and viewed as one 4-byte item each, so the byte
    order of the host does not matter; building them from uint8 arrays
    keeps the import's temporaries and resident memory small."""
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    table = np.zeros((10 + 10000 + 199, 4), dtype=np.uint8)
    table[:10, 2] = digits
    table[:10, 3] = ord(".")
    for c in range(4):
        table[10:10010, c] = np.tile(np.repeat(digits, 10 ** (3 - c)), 10 ** c)
    exps = b"".join(b"e%+03d" % e for e in range(-99, 100))
    table[10010:] = np.frombuffer(exps, dtype=np.uint8).reshape(-1, 4)
    return table.view("<u4").ravel()


_WORDS = _word_table()
_WORD_BASE = np.array([0, 10, 10, 10, 10010])[:, None, None]
_DIGIT_SPLIT = np.array([1e12, 1e8, 1e4, 1.0])[:, None, None]


def _float_cells(v: np.ndarray) -> tuple:
    """%.12e bytes of a (columns, rows) array of doubles, as (cells, fallback).

    cells holds the 18 bytes of each value, shaped (rows, columns, 18);
    fallback, shaped like v, marks the values whose cells are not their
    text: those take '%.12e' % v.
    """
    zero = v.view(np.int64) == 0  # +0.0 only
    ok = (v >= 1e-98) & (v < 1e98)
    safe = np.where(ok, v, 1.0)
    i = (np.log10(safe) + 99).astype(np.intp)  # floor(log10 v) + 99, or one off
    y = safe * _SHIFT.take(i)
    off = (y < 1e12) | (y >= 1e13)
    if off.any():
        i[off] += np.where(y[off] < 1e12, -1, 1)
        y[off] = safe[off] * _SHIFT.take(i[off])
    r = np.rint(y)
    fast = ok & (y >= 1e12) & (y < 1e13 - 1) & (np.abs(y - r) < 0.5 - _TIE_MARGIN)
    fast |= zero
    r[zero] = 0.0
    # the word of each cell: the leading digit, three groups of four digits
    # (floor of a correctly rounded quotient is exact below 2**53), the exponent
    digits = np.floor(r / _DIGIT_SPLIT)
    digits[1:] -= digits[:-1] * 1e4
    words = np.empty((5,) + v.shape, dtype=np.intp)
    words[:4] = digits
    words[4] = i
    words += _WORD_BASE
    k, n = v.shape
    cells = _WORDS.take(words.transpose(2, 1, 0)).view(np.uint8).reshape(n, k, 20)[..., 2:]
    return cells, ~fast


def _block(cols: list, r0: int, r1: int) -> str:
    """The CSV lines of rows r0..r1 of the columns."""
    n = r1 - r0
    floats = [j for j, c in enumerate(cols) if c.dtype.kind == "f"]
    width = [_CELL] * len(cols)
    lengths = {}  # column -> byte length of each cell, where they differ
    strings = {}  # column -> bytes of each cell, for the non-float columns
    patches = []  # (row, column, bytes) of the float cells not 18 bytes long
    if floats:
        v = np.array([cols[j][r0:r1] for j in floats], dtype=np.float64)
        cells, fallback = _float_cells(v)
        ks, rows = np.nonzero(fallback)
        text = [b"%.12e" % x for x in v[ks, rows].tolist()]
        fits = [len(b) == _CELL for b in text]
        if any(fits):
            cells[rows[fits], ks[fits]] = np.frombuffer(
                b"".join([b for b, f in zip(text, fits) if f]), dtype=np.uint8).reshape(-1, _CELL)
        for r, k, b, f in zip(rows.tolist(), ks.tolist(), text, fits):
            if not f:
                j = floats[k]
                width[j] = max(width[j], len(b))
                if j not in lengths:
                    lengths[j] = np.full(n, _CELL)
                lengths[j][r] = len(b)
                patches.append((r, j, b))
    for j, c in enumerate(cols):
        if c.dtype.kind != "f":
            strings[j] = [str(x).encode("utf-8", "surrogatepass") for x in c[r0:r1].tolist()]
            lens = [len(b) for b in strings[j]]
            width[j] = max(lens)
            if min(lens) != width[j]:
                lengths[j] = np.array(lens)

    starts = list(accumulate([w + 1 for w in width], initial=0))
    out = np.empty((n, starts[-1]), dtype=np.uint8)
    out[:, np.array(starts[1:-1], dtype=np.intp) - 1] = ord(",")
    out[:, -1] = ord("\n")
    runs = []  # [k0, k1): one float column, or adjacent float columns of 18-byte cells
    for k, j in enumerate(floats):
        if runs and floats[k - 1] == j - 1 and width[j - 1] == width[j] == _CELL:
            runs[-1][1] = k + 1
        else:
            runs.append([k, k + 1])
    for k0, k1 in runs:
        j, step = floats[k0], width[floats[k0]] + 1
        slot = out[:, starts[j]:starts[j] + step * (k1 - k0)].reshape(n, k1 - k0, step)
        slot[..., :_CELL] = cells[:, k0:k1]
    for r, j, b in patches:
        out[r, starts[j]:starts[j] + len(b)] = np.frombuffer(b, dtype=np.uint8)
    for j, bs in strings.items():
        if width[j]:
            out[:, starts[j]:starts[j + 1] - 1] = np.array(bs, dtype=f"S{width[j]}").view(
                np.uint8).reshape(n, width[j])
    if lengths:
        keep = np.ones(out.shape, dtype=bool)
        for j, lens in lengths.items():
            keep[:, starts[j]:starts[j + 1] - 1] = np.arange(width[j]) < lens[:, None]
        out = out[keep]
    return out.tobytes().decode("utf-8", "surrogatepass")


def _column(c) -> np.ndarray:
    """np.asarray(c), as an object array where that gives a str or bytes array."""
    a = np.asarray(c)
    return np.asarray(c, dtype=object) if a.dtype.kind in "SU" else a


def csv_text(header: Sequence[str], columns: Iterable) -> str:
    """CSV text of a header and one equal-length sequence per column.

    Each column goes through np.asarray: a float column prints its values
    as %.12e, any other column (ints, strings, flags) as %s.  A column of
    strings is held as objects, since numpy's NUL-padded string dtypes
    would drop each string's own trailing NULs.  The text equals the
    per-cell '%.12e' % v and '%s' % (v,) joined by commas (see the module
    docstring for how the float cells are formatted).
    Columns of unequal length, or a header not one name per column, raise
    DomainError.  Identical inputs produce byte-identical text.
    """
    cols = [_column(c) for c in columns]
    if len(header) != len(cols):
        raise DomainError(f"CSV header has {len(header)} names for {len(cols)} columns")
    if any(c.ndim != 1 for c in cols):
        raise DomainError("each CSV column must be one-dimensional")
    sizes = [c.size for c in cols]
    if len(set(sizes)) > 1:
        raise DomainError(f"CSV columns differ in length: {sizes}")
    n = sizes[0] if cols else 0
    step = max(1, _BLOCK_CELLS // max(1, len(cols)))
    return "".join([",".join(header) + "\n"]
                   + [_block(cols, r0, min(r0 + step, n)) for r0 in range(0, n, step)])
