"""The one CSV writer of the package.

Every CSV the package writes (sweeps, sigma maps, isolines, PSD tables,
window solves, oracle comparisons) goes through csv_text, column by
column: a float column prints each value as %.12e, any other column as
%s, through one row template built from the column kinds.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["csv_text"]


def csv_text(header: Sequence[str], columns: Iterable) -> str:
    """CSV text of a header and one equal-length sequence per column.

    Each column goes through np.asarray once: a float column prints its
    values as %.12e, any other column (ints, strings, flags) as %s.
    Identical inputs produce byte-identical text.
    """
    cols = [np.asarray(c) for c in columns]
    template = ",".join("%.12e" if c.dtype.kind == "f" else "%s" for c in cols)
    lines = [",".join(header)]
    lines += [template % row for row in zip(*(c.tolist() for c in cols))]
    return "\n".join(lines) + "\n"
