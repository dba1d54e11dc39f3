import random
from fractions import Fraction

import pytest

from twistlab.fields import GF2, QQ, PrimeField
from twistlab.linalg import (
    kernel_basis,
    left_kernel_basis,
    rank,
    _rank_generic,
)


def random_matrix(rng, field, nrows, ncols):
    if field == QQ:
        return [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
    return [[rng.randrange(field.p) for _ in range(ncols)] for _ in range(nrows)]


def mat_vec(field, rows, v):
    return [_dot(field, row, v) for row in rows]


def _dot(field, row, v):
    acc = field.zero
    for a, x in zip(row, v):
        acc = field.add(acc, field.mul(a, x))
    return acc


@pytest.mark.parametrize("field", [GF2, PrimeField(5), QQ], ids=["gf2", "gf5", "qq"])
def test_rank_matches_generic_elimination(field):
    rng = random.Random(1)
    for trial in range(40):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(1, 6)
        m = random_matrix(rng, field, nrows, ncols)
        # plant some dependent rows and zero columns
        if nrows >= 2 and rng.random() < 0.5:
            m[-1] = list(m[0])
        if rng.random() < 0.3:
            col = rng.randrange(ncols)
            for row in m:
                row[col] = field.zero
        assert rank(field, m, ncols) == _rank_generic(field, m, ncols)


@pytest.mark.parametrize("field", [GF2, PrimeField(3), QQ], ids=["gf2", "gf3", "qq"])
def test_kernel_vectors_annihilate(field):
    rng = random.Random(2)
    for trial in range(30):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = random_matrix(rng, field, nrows, ncols)
        basis = kernel_basis(field, m, ncols)
        assert len(basis) == ncols - rank(field, m, ncols)
        for v in basis:
            assert all(field.is_zero(x) for x in mat_vec(field, m, v))


def test_left_kernel_annihilates_from_the_left():
    rng = random.Random(3)
    for trial in range(20):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = random_matrix(rng, QQ, nrows, ncols)
        for y in left_kernel_basis(QQ, m, ncols):
            for c in range(ncols):
                acc = QQ.zero
                for r in range(nrows):
                    acc = QQ.add(acc, QQ.mul(y[r], m[r][c]))
                assert QQ.is_zero(acc)


def test_empty_matrix_kernel_is_full():
    basis = kernel_basis(QQ, [], 3)
    assert len(basis) == 3


def test_bareiss_handles_large_entries_exactly():
    # Hilbert-like matrix: rank must be full despite tiny denominators
    m = [[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)]
    assert rank(QQ, m, 5) == 5
    # a genuinely singular rational matrix
    m2 = [row[:] for row in m]
    m2[4] = [QQ.add(a, b) for a, b in zip(m[0], m[1])]
    assert rank(QQ, m2, 5) == 4
