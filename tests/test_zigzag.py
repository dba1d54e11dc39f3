from fractions import Fraction

import pytest

from twistlab.braid import build_diagram
from twistlab.fields import GF2, QQ, PrimeField, field_from_name
from twistlab.linalg import rank
from twistlab.zigzag import ZigzagAlgebra, hom_basis

A2 = build_diagram("A", 2)
A3 = build_diagram("A", 3)
D4 = build_diagram("D", 4)


class TestFields:
    def test_field_parsing(self):
        assert field_from_name("f2") == GF2
        assert field_from_name("q") == QQ
        assert field_from_name("f5") == PrimeField(5)
        with pytest.raises(ValueError):
            field_from_name("f4")
        with pytest.raises(ValueError):
            field_from_name("banana")

    def test_gf5_arithmetic(self):
        f5 = PrimeField(5)
        assert f5.mul(3, f5.inv(3)) == 1
        assert f5.parse("7") == 2
        assert f5.parse("1/2") == 3
        assert f5.format(f5.neg(1)) == "4"

    def test_rational_format(self):
        assert QQ.format(Fraction(-3, 6)) == "-1/2"
        assert QQ.parse("2/4") == Fraction(1, 2)
        assert QQ.format(Fraction(4, 2)) == "2"


class TestHomBasis:
    def test_dimensions(self):
        assert len(hom_basis(A2, 1, 1)) == 2
        assert len(hom_basis(A2, 1, 2)) == 1
        assert len(hom_basis(A3, 1, 3)) == 0

    def test_dim_matrix_is_2I_plus_adjacency(self):
        for d in (A2, A3, D4):
            alg = ZigzagAlgebra(d)
            for i in d.vertices:
                for j in d.vertices:
                    expect = 2 if i == j else (1 if d.adjacent(i, j) else 0)
                    assert alg.hom_dim(i, j) == expect


@pytest.fixture(params=[GF2, QQ], ids=["gf2", "qq"])
def algebra(request):
    return ZigzagAlgebra(A3, request.param)


class TestComposition:
    def test_back_and_forth_closes_to_loop(self, algebra):
        g12 = algebra.arrow(1, 2)
        g21 = algebra.arrow(2, 1)
        assert algebra.compose(g21, g12).terms == algebra.loop(1).terms

    def test_loop_squares_to_zero(self, algebra):
        l1 = algebra.loop(1)
        assert algebra.compose(l1, l1).is_zero()

    def test_paths_through_distinct_endpoints_vanish(self, algebra):
        # 1 -> 2 -> 3 is a length-2 path between distinct vertices
        assert algebra.compose(algebra.arrow(2, 3), algebra.arrow(1, 2)).is_zero()

    def test_identity_neutral(self, algebra):
        g = algebra.arrow(1, 2)
        assert algebra.compose(algebra.identity(2), g).terms == g.terms
        assert algebra.compose(g, algebra.identity(1)).terms == g.terms

    def test_loop_kills_arrows(self, algebra):
        assert algebra.compose(algebra.loop(2), algebra.arrow(1, 2)).is_zero()
        assert algebra.compose(algebra.arrow(1, 2), algebra.loop(1)).is_zero()

    def test_source_target_mismatch(self, algebra):
        with pytest.raises(ValueError):
            algebra.compose(algebra.arrow(1, 2), algebra.arrow(1, 2))

    def test_associativity_on_all_basis_triples(self, algebra):
        d = algebra.diagram
        basis = [
            b
            for i in d.vertices
            for j in d.vertices
            for b in algebra.hom_basis(i, j)
        ]
        for f in basis:
            for g in basis:
                if g.src != f.tgt:
                    continue
                for h in basis:
                    if h.src != g.tgt:
                        continue
                    fm = algebra.basis_morph(f)
                    gm = algebra.basis_morph(g)
                    hm = algebra.basis_morph(h)
                    lhs = algebra.compose(algebra.compose(hm, gm), fm)
                    rhs = algebra.compose(hm, algebra.compose(gm, fm))
                    assert lhs.terms == rhs.terms


class TestTrace:
    def test_trace_values(self, algebra):
        assert algebra.trace(algebra.loop(1)) == algebra.field.one
        assert algebra.trace(algebra.identity(1)) == algebra.field.zero
        with pytest.raises(ValueError):
            algebra.trace(algebra.arrow(1, 2))

    def test_arrow_pairing(self, algebra):
        assert algebra.pairing(algebra.arrow(1, 2), algebra.arrow(2, 1)) == algebra.field.one

    def test_pairing_perfect_on_every_hom_space(self, algebra):
        d = algebra.diagram
        k = algebra.field
        for i in d.vertices:
            for j in d.vertices:
                bij = algebra.hom_basis(i, j)
                bji = algebra.hom_basis(j, i)
                if not bij:
                    continue
                mat = {
                    (r, c): algebra.pairing(algebra.basis_morph(f), algebra.basis_morph(g))
                    for c, f in enumerate(bij)
                    for r, g in enumerate(bji)
                }
                assert rank(k, mat) == len(bij)


class TestElements:
    def test_unit_inversion(self):
        alg = ZigzagAlgebra(A2, QQ)
        f = alg.add(alg.identity(1).scaled(Fraction(2)), alg.loop(1).scaled(Fraction(3)))
        inv = alg.invert_endo(f)
        assert alg.compose(f, inv).terms == alg.identity(1).terms
        assert alg.compose(inv, f).terms == alg.identity(1).terms

    def test_loop_alone_is_not_a_unit(self, algebra):
        assert not algebra.is_unit(algebra.loop(1))
        with pytest.raises(ValueError):
            algebra.invert_endo(algebra.loop(1))

    def test_zero_coefficients_are_dropped(self, algebra):
        k = algebra.field
        f = algebra.add(algebra.arrow(1, 2), algebra.arrow(1, 2).scaled(k.neg(k.one)))
        assert f.is_zero()

    def test_morph_json_roundtrip(self):
        alg = ZigzagAlgebra(A2, QQ)
        f = alg.add(alg.identity(1).scaled(Fraction(1, 2)), alg.loop(1).scaled(Fraction(-2)))
        back = alg.morph_from_json_obj(f.to_json_obj())
        assert back.terms == f.terms

    def test_corrupt_hook_changes_the_table(self):
        alg = ZigzagAlgebra(A2, GF2, corrupt_compose=True)
        assert alg.compose(alg.arrow(2, 1), alg.arrow(1, 2)).is_zero()
