"""Exact sparse linear algebra over the coefficient fields.

A matrix maps (row, col) to a scalar; absent keys (and zero values) are zero
entries, so only the nonzero scalars cost anything.  This is the format of
the Hom complexes' matrices, and the transpose of a matrix is the same dict
with its keys swapped.  One routine, _reduce, row-reduces a matrix to
reduced echelon form; rank and kernel_basis are its two views.  The same
field arithmetic serves every field: no fast path, no floating point.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

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


def _reduce(field: Field, mat: Matrix) -> Dict[int, Row]:
    """Reduced row echelon form of mat: pivot column -> its row, 1 at the pivot.

    Rows are inserted one at a time.  Each pivot row is zero in every other
    pivot column, so a new row is cleared by subtracting the pivot rows of its
    own pivot columns once each; if anything is left, its lowest column
    becomes a new pivot and is cleared from the older pivot rows.
    """
    rows: Dict[int, Row] = {}
    for (r, c), a in mat.items():
        if not field.is_zero(a):
            rows.setdefault(r, {})[c] = a
    pivots: Dict[int, Row] = {}
    for row in rows.values():
        for p in [c for c in row if c in pivots]:
            _axpy(field, row, row[p], pivots[p])
        if not row:
            continue
        p = min(row)
        inv = field.inv(row[p])
        row = {c: field.mul(inv, a) for c, a in row.items()}
        for other in pivots.values():
            if p in other:
                _axpy(field, other, other[p], row)
        pivots[p] = row
    return pivots


def rank(field: Field, mat: Matrix) -> int:
    """Rank of a sparse matrix."""
    return len(_reduce(field, mat))


def kernel_basis(field: Field, mat: Matrix, ncols: int) -> List[Row]:
    """Basis of {x : A x = 0} for A with columns 0..ncols-1, as sparse vectors.

    One vector per free column f: 1 at f, and minus the pivot rows' entries
    in column f at their pivots.  Swap the keys of A for its left kernel.
    """
    pivots = _reduce(field, mat)
    basis = {f: {f: field.one} for f in range(ncols) if f not in pivots}
    for p, row in pivots.items():
        for f, a in row.items():
            if f != p:
                basis[f][p] = field.neg(a)
    return list(basis.values())
