"""Exact rational linear algebra by sparse Gauss-Jordan elimination.

A matrix is a mapping {row key: {column key: scalar}} that stores only its
nonzero entries, handed over with the ordered list of its columns; entries in
columns not listed are ignored.  The blocks are large and nearly permutation
matrices: on the wzw file the pairing blocks are 216 x 216 and the splitting
inclusion is 432 x 216, and the canonical cotangent pairing is a signed
identity.  Each row is kept as a dict of its nonzeros beside an index of the
rows that touch each column, so a pivot eliminates only the rows that meet
its column, and a permutation block reduces in linear time.

The reduced row echelon form is unique, so every result is independent of
which row serves as a pivot (the sparsest candidate is taken).  Scalars are
int or Fraction throughout and results pass through norm_scalar.
"""
from __future__ import annotations

from fractions import Fraction

from .graded import norm_scalar


def _indexed(rows, columns):
    """The rows as {column position: scalar}, zeros and unlisted columns
    dropped."""
    pos = {c: j for j, c in enumerate(columns)}
    return [{pos[c]: v for c, v in row.items() if v and c in pos}
            for row in rows]


def _reduce(rows, ncols):
    """Gauss-Jordan on `rows` (mutated) over the column positions
    0..ncols-1, in order.  Returns {pivot column: its row, scaled to 1
    there}; every pivot column is zero in every other row."""
    touching = {}
    for i, row in enumerate(rows):
        for c in row:
            touching.setdefault(c, set()).add(i)
    open_rows = set(range(len(rows)))
    pivots = {}
    for c in range(ncols):
        if not open_rows:
            break
        hits = touching.get(c)
        candidates = hits & open_rows if hits else None
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        pv = prow[c]
        if pv != 1:
            inv = 1 / Fraction(pv)
            for k in prow:
                prow[k] *= inv
        for i in list(hits):
            if i == p:
                continue
            row = rows[i]
            f = row[c]
            for k, v in prow.items():
                x = row.get(k, 0) - f * v
                if x:
                    if k not in row:
                        touching.setdefault(k, set()).add(i)
                    row[k] = x
                else:
                    del row[k]
                    touching[k].discard(i)
        open_rows.discard(p)
        pivots[c] = prow
    return pivots


def rank(matrix, columns):
    """The rank of the matrix restricted to `columns`."""
    return len(_reduce(_indexed(matrix.values(), columns), len(columns)))


def kernel_vector(matrix, columns):
    """A nonzero v with sum_c matrix[r][c] v[c] = 0 for every row r, as
    {column: scalar} over its nonzero entries, or None.  v is 1 at the first
    free column and 0 at every other free column."""
    pivots = _reduce(_indexed(matrix.values(), columns), len(columns))
    free = next((c for c in range(len(columns)) if c not in pivots), None)
    if free is None:
        return None
    vec = {columns[free]: 1}
    for p, row in pivots.items():
        if free in row:
            vec[columns[p]] = norm_scalar(-row[free])
    return vec


def invert(matrix, columns):
    """The inverse {column: {row key: scalar}} of a square matrix, nonzero
    entries only, so that sum_r inv[c][r] * matrix[r][c'] = delta_(c c');
    None if the matrix is singular or not square."""
    n = len(columns)
    if len(matrix) != n:
        return None
    keys = list(matrix)
    rows = _indexed(matrix.values(), columns)
    for i, row in enumerate(rows):
        row[n + i] = 1
    pivots = _reduce(rows, n)
    if len(pivots) != n:
        return None
    return {columns[c]: {keys[j - n]: norm_scalar(v)
                         for j, v in row.items() if j >= n}
            for c, row in pivots.items()}
