import random
from fractions import Fraction

import pytest

from twistlab.fields import GF2, QQ, PrimeField
from twistlab.linalg import rank

from support import kernel_basis

GF3 = PrimeField(3)
GF5 = PrimeField(5)
FIELDS = [GF2, GF3, GF5, QQ]
FIELD_IDS = ["gf2", "gf3", "gf5", "qq"]


def dense_rank(field, rows, ncols):
    """Reference: plain dense Gauss-Jordan elimination on a copy of rows."""
    m = [list(r) for r in rows]
    rk = 0
    for col in range(ncols):
        pivot = next((i for i in range(rk, len(m)) if not field.is_zero(m[i][col])), None)
        if pivot is None:
            continue
        m[rk], m[pivot] = m[pivot], m[rk]
        inv = field.inv(m[rk][col])
        m[rk] = [field.mul(inv, a) for a in m[rk]]
        for i in range(len(m)):
            if i != rk and not field.is_zero(m[i][col]):
                factor = m[i][col]
                m[i] = [field.sub(a, field.mul(factor, b)) for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


def sparse(rows):
    return {(r, c): a for r, row in enumerate(rows) for c, a in enumerate(row) if a}


def dense(vec, n, field):
    return [vec.get(c, field.zero) for c in range(n)]


def random_rows(rng, field, nrows, ncols, density):
    def entry():
        if rng.random() >= density:
            return field.zero
        if field == QQ:
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5))
        return rng.randrange(1, field.p)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    # plant dependent rows and zero columns
    if nrows >= 2 and rng.random() < 0.5:
        rows[-1] = list(rows[0])
    if nrows >= 3 and rng.random() < 0.3:
        rows[1] = [field.add(a, b) for a, b in zip(rows[0], rows[2])]
    if ncols and rng.random() < 0.3:
        col = rng.randrange(ncols)
        for row in rows:
            row[col] = field.zero
    return rows


def random_cases(field, seed, trials=60):
    rng = random.Random(seed)
    for _ in range(trials):
        nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
        yield random_rows(rng, field, nrows, ncols, rng.choice([0.15, 0.4, 0.9])), ncols


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_rank_matches_generic_elimination(field):
    for rows, ncols in random_cases(field, 1):
        assert rank(field, sparse(rows)) == dense_rank(field, rows, ncols)


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=["gf2", "gf3", "qq"])
def test_rank_clears_a_row_in_several_rounds(field):
    # p0, p1, p2 are pivot rows of columns 0, 1, 2, each reaching into the next
    # column.  Clearing x p0 + y p1 + z p2 subtracts p0 at column 0, which
    # leaves y p1 + z p2: that meets p1 at column 1, and what is left meets p2.
    # The row cancels after three rounds; with e4 added, e4 is left.
    one, o = field.one, field.zero
    c = one if field == GF2 else field.from_int(2)
    x, y, z = (one, one, one) if field == GF2 else (field.from_int(3), c, field.neg(one))
    p0, p1, p2 = [one, c, o, o, o], [o, one, c, o, o], [o, o, one, c, o]

    def combination(*terms):
        out = [o] * 5
        for k, row in terms:
            out = [field.add(a, field.mul(k, b)) for a, b in zip(out, row)]
        return out

    cleared = combination((x, p0), (y, p1), (z, p2))
    left = combination((x, p0), (y, p1), (z, p2), (one, [o, o, o, o, one]))
    rows = [p0, p1, p2, cleared, left]
    assert rank(field, sparse(rows[:4])) == 3 == dense_rank(field, rows[:4], 5)
    assert rank(field, sparse(rows)) == 4 == dense_rank(field, rows, 5)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_kernel_vectors_annihilate(field):
    for rows, ncols in random_cases(field, 2):
        basis = kernel_basis(field, sparse(rows), ncols)
        assert len(basis) == ncols - dense_rank(field, rows, ncols)
        vectors = [dense(v, ncols, field) for v in basis]
        assert dense_rank(field, vectors, ncols) == len(basis)  # independent
        for v in vectors:
            for row in rows:
                acc = field.zero
                for a, x in zip(row, v):
                    acc = field.add(acc, field.mul(a, x))
                assert field.is_zero(acc)


def test_left_kernel_annihilates_from_the_left():
    # the left kernel is the kernel of the same matrix with its keys swapped
    for field in FIELDS:
        for rows, ncols in random_cases(field, 3, trials=30):
            mat = sparse(rows)
            basis = kernel_basis(field, {(c, r): a for (r, c), a in mat.items()}, len(rows))
            assert len(basis) == len(rows) - dense_rank(field, rows, ncols)
            for y in basis:
                for c in range(ncols):
                    acc = field.zero
                    for r, a in y.items():
                        acc = field.add(acc, field.mul(a, rows[r][c]))
                    assert field.is_zero(acc)


def test_explicit_zero_entries_count_as_absent():
    assert rank(GF3, {(0, 0): 0, (1, 1): 3}) == 0
    assert rank(QQ, {(0, 0): Fraction(0), (0, 1): Fraction(1, 2)}) == 1


def test_empty_matrix_kernel_is_full():
    assert rank(QQ, {}) == 0
    assert kernel_basis(QQ, {}, 0) == []
    assert kernel_basis(QQ, {}, 3) == [{0: 1}, {1: 1}, {2: 1}]


def test_rationals_exact_on_hilbert_matrix():
    # Hilbert-like matrix: rank must be full despite tiny denominators
    m = [[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)]
    assert rank(QQ, sparse(m)) == 5 == dense_rank(QQ, m, 5)
    # a genuinely singular rational matrix
    m2 = [row[:] for row in m]
    m2[4] = [QQ.add(a, b) for a, b in zip(m[0], m[1])]
    assert rank(QQ, sparse(m2)) == 4 == dense_rank(QQ, m2, 5)
    (v,) = kernel_basis(QQ, sparse(m2), 5)
    assert all(sum(a * v.get(c, 0) for c, a in enumerate(row)) == 0 for row in m2)
