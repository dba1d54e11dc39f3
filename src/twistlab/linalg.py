"""Exact dense linear algebra over the coefficient fields.

Matrices are lists of rows of scalars.  GF(2) gets a bitmask fast path;
ranks over the rationals use fraction-free (Bareiss) elimination on a
cleared-denominator integer matrix so intermediate entries stay small.
Kernels are computed by plain Gauss-Jordan, which is fine at the matrix
sizes this package produces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence

from .fields import Field, PrimeField, RationalField, Scalar

Matrix = List[List[Scalar]]


def _rows_to_masks(rows: Sequence[Sequence[int]]) -> list[int]:
    masks = []
    for row in rows:
        m = 0
        for j, a in enumerate(row):
            if a & 1:
                m |= 1 << j
        masks.append(m)
    return masks


def _rank_gf2(rows: Sequence[Sequence[int]], ncols: int) -> int:
    masks = _rows_to_masks(rows)
    rank = 0
    for col in range(ncols):
        bit = 1 << col
        pivot = next((i for i in range(rank, len(masks)) if masks[i] & bit), None)
        if pivot is None:
            continue
        masks[rank], masks[pivot] = masks[pivot], masks[rank]
        for i in range(len(masks)):
            if i != rank and masks[i] & bit:
                masks[i] ^= masks[rank]
        rank += 1
        if rank == len(masks):
            break
    return rank


def _rank_bareiss(rows: Sequence[Sequence[Fraction]]) -> int:
    # Clear denominators row by row (row scaling preserves rank), then run
    # fraction-free elimination on the integer matrix.
    m: list[list[int]] = []
    for row in rows:
        den = 1
        for a in row:
            f = Fraction(a)
            den = den * f.denominator // gcd(den, f.denominator)
        m.append([int(Fraction(a) * den) for a in row])
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for i in range(row + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (m[row][col] * m[i][j] - m[i][col] * m[row][j]) // prev
            m[i][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _rank_generic(field: Field, rows: Sequence[Sequence[Scalar]], ncols: int) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if not field.is_zero(m[i][col])), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.inv(m[rank][col])
        for i in range(len(m)):
            if i != rank and not field.is_zero(m[i][col]):
                factor = field.mul(m[i][col], inv)
                m[i] = [field.sub(a, field.mul(factor, b)) for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def rank(field: Field, rows: Sequence[Sequence[Scalar]], ncols: int) -> int:
    """Rank of a matrix given as rows of length ncols."""
    if not rows or ncols == 0:
        return 0
    if isinstance(field, PrimeField) and field.p == 2:
        return _rank_gf2(rows, ncols)
    if isinstance(field, RationalField):
        return _rank_bareiss(rows)
    return _rank_generic(field, rows, ncols)


def kernel_basis(field: Field, rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of {x : A x = 0} as a list of coordinate vectors of length ncols."""
    if ncols == 0:
        return []
    if not rows:
        basis = []
        for j in range(ncols):
            v = [field.zero] * ncols
            v[j] = field.one
            basis.append(v)
        return basis
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if not field.is_zero(m[i][col])), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][col])
        m[r] = [field.mul(inv, a) for a in m[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(m[i][col]):
                factor = m[i][col]
                m[i] = [field.sub(a, field.mul(factor, b)) for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for i, col in enumerate(pivots):
            v[col] = field.neg(m[i][free])
        basis.append(v)
    return basis


def left_kernel_basis(field: Field, rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of {y : y A = 0}; vectors have one entry per row of A."""
    nrows = len(rows)
    transposed = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    return kernel_basis(field, transposed, nrows)
