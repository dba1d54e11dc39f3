"""Exact sparse linear algebra over the coefficient fields.

A matrix maps (row, col) to a scalar; absent keys (and zero values) are zero
entries, so only the nonzero scalars cost anything.  This is the format of
the Hom complexes' matrices.  rank brings a matrix to echelon form, one row
at a time, and counts its pivots; nothing in the package needs a reduced
echelon form or a kernel.  The same field arithmetic serves every field: no
fast path, no floating point.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from .fields import Field, Scalar

Matrix = Mapping[Tuple[int, int], Scalar]
Row = Dict[int, Scalar]  # col -> nonzero scalar


def _axpy(field: Field, row: Row, factor: Scalar, pivot_row: Row) -> None:
    """row -= factor * pivot_row, dropping the entries that cancel."""
    for c, b in pivot_row.items():
        v = field.sub(row.get(c, field.zero), field.mul(factor, b))
        if field.is_zero(v):
            row.pop(c, None)
        else:
            row[c] = v


def rank(field: Field, mat: Matrix) -> int:
    """Rank of a sparse matrix: the pivots of an echelon form of its rows.

    Each pivot row's lowest column is its pivot, and no two share one.  A
    new row is cleared lowest column first: while that column holds a
    pivot, the pivot row times the ratio of the two entries is subtracted,
    which empties the column and leaves entries in higher columns only.  A
    row that is not cleared away becomes the pivot of its lowest column.
    Rows are never normalized, and older pivot rows are never reduced
    against newer ones.
    """
    rows: Dict[int, Row] = {}
    for (r, c), a in mat.items():
        if not field.is_zero(a):
            rows.setdefault(r, {})[c] = a
    pivots: Dict[int, Row] = {}  # pivot column -> its row
    for row in rows.values():
        while row:
            p = min(row)
            pivot_row = pivots.get(p)
            if pivot_row is None:
                pivots[p] = row
                break
            _axpy(field, row, field.mul(row[p], field.inv(pivot_row[p])), pivot_row)
    return len(pivots)
