import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistlab.braid import build_diagram
from twistlab.fields import GF2, QQ, PrimeField, field_from_name
from twistlab.linalg import rank
from twistlab.zigzag import ZigzagAlgebra

A2 = build_diagram("A", 2)
A3 = build_diagram("A", 3)
D4 = build_diagram("D", 4)

# rationals of both types, integral ones also as Fractions: canonical scalars and not
RATIONALS = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
)


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

    def test_rational_integral_values_are_ints(self):
        assert (QQ.zero, QQ.one) == (0, 1)
        assert type(QQ.zero) is int and type(QQ.one) is int
        assert type(QQ.from_int(-3)) is int
        half = QQ.parse("1/2")
        assert type(half) is Fraction
        for value in (QQ.add(half, half), QQ.mul(2, half), QQ.sub(half, QQ.neg(half)), QQ.inv(half), QQ.inv(-1)):
            assert type(value) is int
        assert QQ.parse("4/2") == 2 and type(QQ.parse("4/2")) is int
        assert QQ.parse("-3/6") == Fraction(-1, 2)

    @settings(max_examples=200, deadline=None)
    @given(RATIONALS, RATIONALS)
    def test_rational_arithmetic_agrees_with_fraction(self, a, b):
        fa, fb = Fraction(a), Fraction(b)
        results = [
            (QQ.add(a, b), fa + fb),
            (QQ.sub(a, b), fa - fb),
            (QQ.mul(a, b), fa * fb),
            (QQ.parse(QQ.format(a)), fa),
            (QQ.parse(f"{fa.numerator * 3}/{fa.denominator * 3}"), fa),
        ]
        if fb:
            results.append((QQ.inv(b), 1 / fb))
        else:
            with pytest.raises(ZeroDivisionError):
                QQ.inv(b)
        for got, want in results:
            assert got == want
            assert (type(got) is int) == (want.denominator == 1)
            assert type(got) in (int, Fraction)
        # neg is plain negation: it keeps a canonical scalar canonical
        for x in (a, b):
            if type(x) is int or x.denominator != 1:
                assert QQ.neg(x) == -x and type(QQ.neg(x)) is type(x)
        assert QQ.format(a) == (str(fa.numerator) if fa.denominator == 1 else f"{fa.numerator}/{fa.denominator}")
        assert QQ.is_zero(a) == (not fa) == (not QQ.add(a, QQ.zero))


class TestHomBasis:
    def test_dimensions(self):
        assert len(ZigzagAlgebra(A2).hom_basis(1, 1)) == 2
        assert len(ZigzagAlgebra(A2).hom_basis(1, 2)) == 1
        assert len(ZigzagAlgebra(A3).hom_basis(1, 3)) == 0

    def test_dim_matrix_is_2I_plus_adjacency(self):
        for d in (A2, A3, D4):
            alg = ZigzagAlgebra(d)
            for i in d.vertices:
                for j in d.vertices:
                    expect = 2 if i == j else (1 if d.adjacent(i, j) else 0)
                    assert len(alg.hom_basis(i, j)) == expect


class TestHomTable:
    def test_a2_rules(self):
        table = ZigzagAlgebra(A2).hom_table(1)
        # e o e_1 = a e_1 + b l_1, e o l_1 = a l_1
        assert table[1, 1] == ((0, 0, 0), (0, 1, 1), (1, 1, 0))
        # e_1 -> g_{1,2}; the loop dies
        assert table[1, 2] == ((0, 0, 0),)
        # g_{2,1} o g_{1,2} is the loop of P_1
        assert table[2, 1] == ((0, 1, 0),)
        # e o g_{1,2} = a g_{1,2}
        assert table[2, 2] == ((0, 0, 0),)
        assert table.width == {1: 2, 2: 1}
        assert table.dual == {1: ((0, 1), (1, 0)), 2: ((1, 0),)}

    def test_corrupt_algebra_has_its_own_table(self):
        good, bad = ZigzagAlgebra(A3), ZigzagAlgebra(A3, corrupt_compose=True)
        assert bad.hom_table(2) is not good.hom_table(2)
        assert good.hom_table(2)[1, 2] == ((0, 1, 0),)
        assert bad.hom_table(2)[1, 2] == ()
        assert bad.hom_table(2)[2, 2] == good.hom_table(2)[2, 2]

    def test_offsets_number_the_slots(self):
        table = ZigzagAlgebra(A3).hom_table(1)
        # P_1 has two slots, P_2 one, P_3 none
        assert table.offsets((2, 1, 3, 1)) == [0, 1, 3, 3, 5]
        assert table.offsets((3,)) == [0, 0]
        assert table.offsets(()) == [0]

    def test_replacing_a_rule_clears_the_memo(self):
        alg = ZigzagAlgebra(A3, GF2)
        table = alg.hom_table(1)
        one = alg.scalar(GF2.one)
        cells, ok, cone = table.record(1, 1, one)
        assert table.memo == {(1, 1, one): (cells, ok, cone)} and ok
        # a rule built on first use leaves the memo as it is
        table[2, 1]
        assert len(table.memo) == 1
        rule = table[1, 1]
        table[1, 1] = ()
        assert table.memo == {}
        assert table.record(1, 1, one) == ((), False, ())
        table[1, 1] = rule
        assert table.memo == {}
        assert table.record(1, 1, one) == (cells, ok, cone)

    def test_rules_are_built_on_first_use(self):
        table = ZigzagAlgebra(D4, GF2).hom_table(3)
        assert dict(table) == {}
        table[2, 3]
        assert list(table) == [(2, 3)]

    def test_rules_agree_with_compose(self):
        for d in (A3, D4):
            for fld in (GF2, QQ, PrimeField(3)):
                alg = ZigzagAlgebra(d, fld)
                k = alg.field
                for j in d.vertices:
                    table = alg.hom_table(j)
                    for i in d.vertices:
                        for l in d.vertices:
                            if not alg.hom_basis(i, l):
                                continue
                            coefs = {k.zero, k.one, k.parse("2"), k.parse("-1")}
                            entries = {(a, b if i == l else k.zero) for a in coefs for b in coefs} - {(k.zero, k.zero)}
                            for e, (slot, f) in itertools.product(entries, enumerate(table.basis[i])):
                                image = alg.compose(j, i, l, e, f)
                                coords = () if image is None else alg.coordinates(j, l, image)
                                want = {s2: c for s2, c in enumerate(coords) if c}
                                got = {s2: e[kk] for s, s2, kk in table[i, l] if s == slot and e[kk]}
                                assert got == want, (j, i, l, e, slot)


@pytest.fixture(params=[GF2, QQ], ids=["gf2", "qq"])
def algebra(request):
    return ZigzagAlgebra(A3, request.param)


def identity(alg, i):
    return alg.hom_basis(i, i)[0]


def loop(alg, i):
    return alg.hom_basis(i, i)[1]


def arrow(alg, i, j):
    (g,) = alg.hom_basis(i, j)
    return g


def compose(alg, i, j, l, g, f):
    """g o f, with None for the zero morphism on either side."""
    return None if g is None or f is None else alg.compose(i, j, l, g, f)


def basis_triples(alg):
    """(i, j, f) for every basis morphism f: P_i -> P_j."""
    d = alg.diagram
    return [(i, j, f) for i in d.vertices for j in d.vertices for f in alg.hom_basis(i, j)]


class TestComposition:
    def test_back_and_forth_closes_to_loop(self, algebra):
        assert algebra.compose(1, 2, 1, arrow(algebra, 2, 1), arrow(algebra, 1, 2)) == loop(algebra, 1)

    def test_loop_squares_to_zero(self, algebra):
        l1 = loop(algebra, 1)
        assert algebra.compose(1, 1, 1, l1, l1) is None

    def test_paths_through_distinct_endpoints_vanish(self, algebra):
        # 1 -> 2 -> 3 is a length-2 path between distinct vertices
        assert algebra.compose(1, 2, 3, arrow(algebra, 2, 3), arrow(algebra, 1, 2)) is None

    def test_identity_neutral(self, algebra):
        g = arrow(algebra, 1, 2)
        assert algebra.compose(1, 2, 2, identity(algebra, 2), g) == g
        assert algebra.compose(1, 1, 2, g, identity(algebra, 1)) == g
        for i, j, f in basis_triples(algebra):
            assert algebra.compose(i, j, j, algebra.scalar(algebra.field.one), f) == f
            assert algebra.compose(i, i, j, f, algebra.scalar(algebra.field.one)) == f

    def test_loop_kills_arrows(self, algebra):
        assert algebra.compose(1, 2, 2, loop(algebra, 2), arrow(algebra, 1, 2)) is None
        assert algebra.compose(1, 1, 2, arrow(algebra, 1, 2), loop(algebra, 1)) is None

    def test_source_target_mismatch(self, algebra):
        # entries carry no vertices, so typing is checked against the labels
        # they sit between: no arrow 1 -> 3, no loop term on an arrow
        assert algebra.in_hom(1, 2, arrow(algebra, 1, 2))
        assert not algebra.in_hom(1, 3, arrow(algebra, 1, 2))
        k = algebra.field
        assert not algebra.in_hom(1, 2, (k.one, k.one))
        assert not algebra.in_hom(1, 1, (k.zero, k.zero))
        assert not algebra.in_hom(1, 4, identity(algebra, 1))

    def test_associativity_on_all_basis_triples(self, algebra):
        triples = basis_triples(algebra)
        for i, j, f in triples:
            for j2, l, g in triples:
                if j2 != j:
                    continue
                for l2, m, h in triples:
                    if l2 != l:
                        continue
                    lhs = compose(algebra, i, l, m, h, algebra.compose(i, j, l, g, f))
                    rhs = compose(algebra, i, j, m, algebra.compose(j, l, m, h, g), f)
                    assert lhs == rhs

    def test_bilinear_in_basis_coordinates(self, algebra):
        # g o f for combinations of basis morphisms is the sum of the products
        # of their basis morphisms, read off the table of the module docstring
        k = algebra.field
        d = algebra.diagram

        def product_slot(i, j, l, s, t):
            """The slot in hom_basis(i, l) of (basis s of Hom(P_j, P_l)) o (basis t of Hom(P_i, P_j)), None for 0."""
            if i == j and t == 0:  # the identity of P_i: the product is the other factor
                return s
            if j == l and s == 0:  # the identity of P_j
                return t
            if i == l != j:  # an arrow and its way back close to the loop
                return 1
            return None

        coefs = [k.from_int(n) for n in (0, 1, 2, -1)]
        for i in d.vertices:
            for j in d.vertices:
                for l in d.vertices:
                    nf, ng, nout = (len(algebra.hom_basis(*p)) for p in ((i, j), (j, l), (i, l)))
                    if not nf or not ng:
                        continue
                    for fc in itertools.product(coefs, repeat=nf):
                        for gc in itertools.product(coefs, repeat=ng):
                            if not any(fc) or not any(gc):
                                continue
                            f = fc + (k.zero,) * (2 - nf)
                            g = gc + (k.zero,) * (2 - ng)
                            expect = [k.zero] * nout
                            for t, ft in enumerate(fc):
                                for s_, gs in enumerate(gc):
                                    slot = product_slot(i, j, l, s_, t)
                                    if slot is not None:
                                        expect[slot] = k.add(expect[slot], k.mul(gs, ft))
                            got = algebra.compose(i, j, l, g, f)
                            got = [k.zero] * nout if got is None else list(algebra.coordinates(i, l, got))
                            assert got == expect, (i, j, l, f, g)


class TestTrace:
    def test_trace_values(self, algebra):
        assert algebra.trace(1, 1, loop(algebra, 1)) == algebra.field.one
        assert algebra.trace(1, 1, identity(algebra, 1)) == algebra.field.zero
        with pytest.raises(ValueError):
            algebra.trace(1, 2, arrow(algebra, 1, 2))

    def test_arrow_pairing(self, algebra):
        assert algebra.pairing(1, 2, arrow(algebra, 1, 2), arrow(algebra, 2, 1)) == algebra.field.one

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
                    (r, c): algebra.pairing(i, j, f, g)
                    for c, f in enumerate(bij)
                    for r, g in enumerate(bji)
                }
                assert rank(k, mat) == len(bij)
                # and the dual basis is dual slot by slot
                for c, f in enumerate(bij):
                    for r, g in enumerate(algebra.dual_basis(i, j)):
                        assert algebra.pairing(i, j, f, g) == (k.one if r == c else k.zero)


class TestElements:
    def test_unit_inversion(self):
        alg = ZigzagAlgebra(A2, QQ)
        f = alg.plus(alg.times(Fraction(2), identity(alg, 1)), alg.times(Fraction(3), loop(alg, 1)))
        assert alg.is_unit(1, 1, f)
        inv = alg.inverse(f)
        assert inv == (Fraction(1, 2), Fraction(-3, 4))
        assert alg.compose(1, 1, 1, f, inv) == identity(alg, 1)
        assert alg.compose(1, 1, 1, inv, f) == identity(alg, 1)

    def test_loop_alone_is_not_a_unit(self, algebra):
        assert not algebra.is_unit(1, 1, loop(algebra, 1))
        assert not algebra.is_unit(1, 2, arrow(algebra, 1, 2))
        with pytest.raises(ValueError):
            algebra.inverse(loop(algebra, 1))

    def test_zero_coefficients_are_dropped(self, algebra):
        k = algebra.field
        g = arrow(algebra, 1, 2)
        assert algebra.plus(g, algebra.times(k.neg(k.one), g)) is None
        assert algebra.plus(None, g) == g and algebra.plus(g, None) == g
        cell = {"src": 1, "tgt": 1, "terms": [{"kind": "id", "coef": "1"}, {"kind": "id", "coef": "-1"}]}
        assert algebra.entry_from_json_obj(cell) == (1, 1, None)
        assert algebra.entry_to_json_obj(1, 1, None) == {"src": 1, "tgt": 1, "terms": []}

    def test_morph_json_roundtrip(self):
        alg = ZigzagAlgebra(A2, QQ)
        f = alg.plus(alg.times(Fraction(1, 2), identity(alg, 1)), alg.times(Fraction(-2), loop(alg, 1)))
        obj = alg.entry_to_json_obj(1, 1, f)
        assert obj == {"src": 1, "tgt": 1, "terms": [{"kind": "id", "coef": "1/2"}, {"kind": "loop", "coef": "-2"}]}
        assert alg.entry_from_json_obj(obj) == (1, 1, f)
        g = alg.times(Fraction(3), arrow(alg, 2, 1))
        assert alg.entry_from_json_obj(alg.entry_to_json_obj(2, 1, g)) == (2, 1, g)
        for bad in (
            {"src": 1, "tgt": 2, "terms": [{"kind": "loop", "coef": "1"}]},
            {"src": 1, "tgt": 1, "terms": [{"kind": "arrow", "coef": "1"}]},
            {"src": 1, "tgt": 3, "terms": []},
            {"src": 1, "tgt": 1, "terms": [{"kind": "path", "coef": "1"}]},
        ):
            with pytest.raises(ValueError):
                alg.entry_from_json_obj(bad)

    def test_corrupt_hook_changes_the_table(self):
        alg = ZigzagAlgebra(A2, GF2, corrupt_compose=True)
        assert alg.compose(1, 2, 1, arrow(alg, 2, 1), arrow(alg, 1, 2)) is None
        # every other product is untouched
        assert alg.compose(1, 2, 2, identity(alg, 2), arrow(alg, 1, 2)) == arrow(alg, 1, 2)
        assert alg.compose(1, 1, 1, loop(alg, 1), identity(alg, 1)) == loop(alg, 1)
