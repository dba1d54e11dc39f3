import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from twistlab import complexes, twists
from twistlab.acceptance import twist_corpus
from twistlab.braid import build_diagram, diagram_from_name, equivalent, word
from twistlab.complexes import (
    ChainMap,
    complex_to_json_obj,
    cone,
    hom_dims,
    make_complex,
    minimize,
    profile,
    projective,
    shift,
    sum_of_projectives,
)
from twistlab.fields import GF2, QQ, PrimeField, field_from_name
from twistlab.twists import (
    TwoTermObject,
    is_left_proper,
    is_right_proper,
    is_twist_image,
    iso_to_sum,
    reflect_minus,
    reflect_plus,
    twist,
    twist_inv,
    twist_inv_word,
    twist_word,
    two_term_of,
    two_term_reflect,
)
from twistlab.zigzag import ZigzagAlgebra

from support import direct_sum, key, reference_twist, reference_twist_inv

A2 = build_diagram("A", 2)
A3 = build_diagram("A", 3)
D4 = build_diagram("D", 4)
A4 = build_diagram("A", 4)
GF3 = PrimeField(3)


@pytest.fixture(params=[GF2, QQ], ids=["gf2", "qq"])
def alg(request):
    return ZigzagAlgebra(A2, request.param)


class TestTwist:
    def test_twist_of_own_projective_is_shift(self, alg):
        p1 = projective(alg, 1)
        assert iso_to_sum(twist(1, p1), shift(p1, 1))

    def test_twist_fixes_non_adjacent(self):
        algebra = ZigzagAlgebra(A3)
        p3 = projective(algebra, 3)
        t = twist(1, p3)
        assert key(t) == key(p3)

    def test_twist_of_adjacent_is_arrow_cone(self, alg):
        t = twist(1, projective(alg, 2))
        assert t.summands == {-1: (1,), 0: (2,)}
        assert t.diffs[-1][(0, 0)] == alg.hom_basis(1, 2)[0]

    def test_twist_word_identity(self, alg):
        lam = sum_of_projectives(alg)
        assert key(twist_word(word(A2, ()), lam)) == key(lam)

    def test_braid_relation_on_lambda(self, alg):
        lam = sum_of_projectives(alg)
        t1 = twist_word(word(A2, (1, 2, 1)), lam)
        t2 = twist_word(word(A2, (2, 1, 2)), lam)
        assert is_twist_image(t1, word(A2, (2, 1, 2)), lam)
        assert is_twist_image(t2, word(A2, (1, 2, 1)), lam)

    def test_commuting_twists(self):
        algebra = ZigzagAlgebra(A3)
        lam = sum_of_projectives(algebra)
        assert is_twist_image(twist_word(word(A3, (1, 3)), lam), word(A3, (3, 1)), lam)

    def test_word_complex_diagram_mismatch(self, alg):
        with pytest.raises(ValueError):
            twist_word(word(A3, (1,)), sum_of_projectives(alg))

    def test_d_squared_zero_along_words(self, alg):
        lam = sum_of_projectives(alg)
        t = lam
        for letter in (1, 2, 1, 1, 2):
            t = twist(letter, t)
            t.check()

    @pytest.mark.parametrize("field", ["f2", "f3"])
    def test_evaluation_is_checked_against_the_hom_complex(self, monkeypatch, field):
        # each scalar of Hom(P_2, X)'s differential in turn is dropped (GF(2)) or
        # negated (GF(3)): evaluation is then no chain map, and twist must say so
        algebra = ZigzagAlgebra(A3, field_from_name(field))
        neg = algebra.field.neg
        x = twist_word(word(A3, (2, 1, 3)), sum_of_projectives(algebra))
        real = twists.hom_complex
        cells = [(d, rc) for d, mat in real(2, x).mats.items() for rc in mat]
        assert len(cells) >= 4
        for d, rc in cells:

            def changed(j, y, d=d, rc=rc):
                hc = real(j, y)
                mat = hc.mats[d] = dict(hc.mats[d])
                a = mat.pop(rc)
                if neg(a) != a:
                    mat[rc] = neg(a)
                return hc

            monkeypatch.setattr(twists, "hom_complex", changed)
            with pytest.raises(ValueError, match="cone of an invalid chain map"):
                twist(2, x)

    @pytest.mark.parametrize("pair, mistyped", [((1, 2), "loop on an arrow"), ((1, 3), "arrow between non-neighbours")])
    def test_mistyped_hom_basis_is_rejected(self, monkeypatch, pair, mistyped):
        # the Hom table types its basis once, when it is built; twist takes its
        # evaluation entries from that basis and must refuse a mistyped one
        real = ZigzagAlgebra.hom_basis

        def patched(self, i, j):
            if (i, j) != pair:
                return real(self, i, j)
            one = self.field.one
            return ((one, one),) if mistyped == "loop on an arrow" else ((one, self.field.zero),)

        monkeypatch.setattr(ZigzagAlgebra, "hom_basis", patched)
        algebra = ZigzagAlgebra(A3)
        with pytest.raises(ValueError, match=rf"hom_basis\({pair[0]}, {pair[1]}\)"):
            twist(1, sum_of_projectives(algebra))

    def test_long_chain_digest(self):
        # sha256 of the JSON of t_w(Lambda) over GF(2) for the 40-letter A4 word CI
        # recovers (843 summands), pinned before twist wrote its cone in place
        letters = (2, 3, 1, 4, 2, 1, 4, 3, 1, 2, 3, 2, 1, 3, 2, 1, 3, 2, 3, 1,
                   3, 4, 2, 4, 3, 1, 3, 1, 3, 2, 4, 3, 4, 2, 3, 1, 4, 3, 4, 3)
        algebra = ZigzagAlgebra(A4)
        t = twist_word(word(A4, letters), sum_of_projectives(algebra))
        assert sum(map(len, t.summands.values())) == 843
        digest = hashlib.sha256(json.dumps(complex_to_json_obj(t), sort_keys=True).encode()).hexdigest()
        assert digest == "9daadeab82d9cc212e3f882e57001d09a684a6384493edcea4cf9b23c564350b"


class TestTwistMatchesTheCheckedCone:
    """twist writes its cone into the elimination index; the public path builds a ChainMap, cone() and minimize."""

    @pytest.mark.parametrize("corrupt", [False, True], ids=["sound", "corrupt"])
    @pytest.mark.parametrize("field", ["f2", "q", "f3"])
    @pytest.mark.parametrize("name, max_len", [("A3", 3), ("D4", 2), ("A4", 2)])
    def test_entry_for_entry(self, name, max_len, field, corrupt):
        alg = ZigzagAlgebra(diagram_from_name(name), field_from_name(field), corrupt_compose=corrupt)
        one = alg.scalar(alg.field.one)
        # cone(id_{P_k}): P_k in degree -1 onto P_k in degree 0 by the identity,
        # a unit in X's own block, the only input that puts one there
        units = [cone(ChainMap(projective(alg, k), projective(alg, k), {0: {(0, 0): one}}))
                 for k in alg.diagram.vertices]
        corpus = twist_corpus(alg, max_len)
        checked = 0
        for w, t in corpus.items():
            m = min(t.summands)
            for x in (t, *(direct_sum(t, shift(u, -m)) for u in units)):
                for i in alg.diagram.vertices:
                    assert key(twist(i, x)) == key(reference_twist(i, x)), (name, field, corrupt, w, key(x), i)
                    checked += 1
        rank = alg.diagram.rank
        assert checked == len(corpus) * (1 + rank) * rank


class TestTwistInverse:
    def test_inverse_of_own_projective(self, alg):
        p1 = projective(alg, 1)
        assert iso_to_sum(twist_inv(1, p1), shift(p1, -1))

    def test_inverse_of_adjacent(self, alg):
        t = twist_inv(1, projective(alg, 2))
        assert t.summands == {0: (2,), 1: (1,)}
        assert t.diffs[0][(0, 0)] == alg.hom_basis(2, 1)[0]

    def test_roundtrips_on_small_corpus(self, alg):
        lam = sum_of_projectives(alg)
        p1, p2 = projective(alg, 1), projective(alg, 2)
        empty, w = word(A2, ()), word(A2, (1, 2))
        # (X, w, B) with X = t_w(B)
        objects = [(lam, empty, lam), (p1, empty, p1), (p2, empty, p2), (twist_word(w, lam), w, lam)]
        for x, w, base in objects:
            for i in (1, 2):
                assert is_twist_image(twist_inv(i, twist(i, x)), w, base)
                assert is_twist_image(twist(i, twist_inv(i, x)), w, base)

    def test_word_inverse(self, alg):
        lam = sum_of_projectives(alg)
        w = word(A2, (1, 2, 2, 1))
        assert iso_to_sum(twist_inv_word(w, twist_word(w, lam)), lam)


# sha256 over the JSON of every twist image T_w of the corpus and of every
# twist_inv(i, T_w), pinned before twist_inv cancelled its identity pivots in bulk
CORPUS_DIGESTS = [
    ("A3", 4, "f2", "0fe3727adfc50ce1c2ad53f468822a91f113084da6358c5422fef92470f33796"),
    ("A3", 4, "q", "452c65e11cbc78dcd4b775bc7791482488ee67899248547bd17a7339452b214d"),
    ("A3", 4, "f3", "107be3c553e8d4daed96edc3582b266dddc6cd1694d359d1cdf03f41b9869d55"),
    ("D4", 3, "f2", "60ad2052cf79d22bd5f04a767eb113114d80e4fa6258c2c94e8e12544730f048"),
    ("D4", 3, "q", "5b7db02e9be70d1735498c9288bb87535c6a1b3baf57021f3f1eedf14fef8f0f"),
    ("D4", 3, "f3", "aa4335c931c55d2ba456f190df01dbf304508797ec83973f3526c9d9376a9429"),
]


def _corpus_algebras(max_lens):
    for name, max_len in max_lens:
        for field in ("f2", "q", "f3"):
            yield name, max_len, field, ZigzagAlgebra(diagram_from_name(name), field_from_name(field))


class TestTwistInvOutputs:
    """twist_inv's bulk cancellation leaves every output of the elimination kernel as it was."""

    @pytest.mark.parametrize("name, max_len, field, digest", CORPUS_DIGESTS)
    def test_corpus_digest(self, name, max_len, field, digest):
        alg = ZigzagAlgebra(diagram_from_name(name), field_from_name(field))
        h = hashlib.sha256()
        for w, t in twist_corpus(alg, max_len).items():
            h.update(json.dumps([w, complex_to_json_obj(t)], sort_keys=True).encode())
            for i in alg.diagram.vertices:
                h.update(json.dumps([i, complex_to_json_obj(twist_inv(i, t))], sort_keys=True).encode())
        assert h.hexdigest() == digest

    def test_matches_minimizing_the_whole_complex(self):
        checked = 0
        for name, max_len, field, alg in _corpus_algebras((("A3", 3), ("D4", 2))):
            for w, t in twist_corpus(alg, max_len).items():
                for i in alg.diagram.vertices:
                    got = complex_to_json_obj(twist_inv(i, t))
                    assert got == complex_to_json_obj(reference_twist_inv(i, t)), (name, field, w, i)
                    checked += 1
        assert checked == 3 * (40 * 3 + 21 * 4)


def _full_profile(x):
    """The profile from every row's Hom complex, in profile()'s key order (vertex, then degree)."""
    return [((j, d), h) for j in x.diagram.vertices for d, h in hom_dims(j, x).items()]


PROFILE_CORPORA = (("A2", 6), ("A3", 5), ("D4", 4), ("A4", 4), ("D5", 3), ("E6", 3))


class TestProfileOfTwistImages:
    """profile() computes every row from its Hom complex and lists them by vertex, then degree."""

    @pytest.mark.parametrize("field", ["f2", "q", "f3"])
    @pytest.mark.parametrize("corrupt", [False, True], ids=["sound", "corrupt"])
    def test_corpus_profiles_equal_the_full_computation(self, field, corrupt):
        checked = 0
        for name, max_len in PROFILE_CORPORA:
            alg = ZigzagAlgebra(diagram_from_name(name), field_from_name(field), corrupt_compose=corrupt)
            for w, t in twist_corpus(alg, max_len).items():
                assert list(profile(t).items()) == _full_profile(t), (name, w)
                checked += 1
        assert checked == 127 + 364 + 341 + 341 + 156 + 259

    def test_one_hom_complex_per_vertex_once(self, monkeypatch):
        alg = ZigzagAlgebra(D4)
        t = twist_word(word(D4, (2, 1, 2)), sum_of_projectives(alg))
        built = []
        real = complexes.hom_complex
        monkeypatch.setattr(complexes, "hom_complex", lambda j, y: built.append(j) or real(j, y))
        first = profile(t)
        assert built == list(D4.vertices)
        assert profile(t) == first
        assert built == list(D4.vertices)


def two_term(algebra, side, left, right, arrows):
    """Build a TwoTermObject with given summand tuples and 0/1 arrow pattern."""
    phi = {(r, c): algebra.hom_basis(left[c], right[r])[0] for r, c in arrows}
    return TwoTermObject(algebra, side, left, right, phi)


class TestTwoTerm:
    def test_stalk_reading(self, alg):
        tt = two_term_of(projective(alg, 2))
        assert tt is not None
        assert tt.side == 0 and tt.lsupp() == frozenset() and tt.rsupp() == {2}

    def test_arrow_cone_reading(self, alg):
        c = make_complex(alg, {-1: (1,), 0: (2,)}, {-1: {(0, 0): alg.hom_basis(1, 2)[0]}})
        tt = two_term_of(c)
        assert tt is not None
        assert tt.left == {1: 1} and tt.right == {2: 1}

    def test_reading_sorts_summands_and_moves_phi_with_them(self):
        algebra = ZigzagAlgebra(A3, QQ)
        two = QQ.from_int(2)
        c = make_complex(
            algebra,
            {-1: (3, 1), 0: (2,)},
            {-1: {(0, 0): algebra.times(two, algebra.hom_basis(3, 2)[0]), (0, 1): algebra.hom_basis(1, 2)[0]}},
        )
        tt = two_term_of(c)
        assert tt.left_order == (1, 3)
        assert tt.phi[(0, 0)] == algebra.hom_basis(1, 2)[0]
        assert tt.phi[(0, 1)] == algebra.times(two, algebra.hom_basis(3, 2)[0])

    def test_wide_complex_is_not_two_term(self, alg):
        lam = sum_of_projectives(alg)
        t = twist_word(word(A2, (1, 2)), lam)
        assert two_term_of(minimize(t)) is None

    def test_mixed_colors_rejected(self, alg):
        assert two_term_of(sum_of_projectives(alg)) is None

    def test_stalk_properness(self, alg):
        tt = two_term_of(projective(alg, 2))
        assert is_left_proper(tt)
        assert not is_right_proper(tt)

    def test_arrow_cone_is_proper_both_ways(self, alg):
        c = make_complex(alg, {-1: (1,), 0: (2,)}, {-1: {(0, 0): alg.hom_basis(1, 2)[0]}})
        tt = two_term_of(c)
        assert is_right_proper(tt)
        assert is_left_proper(tt)

    def test_split_cone_is_not_right_proper(self, alg):
        # zero connecting map: P_1[1] (+) P_2 splits off the right summand
        tt = two_term(alg, 0, (1,), (2,), arrows=set())
        assert not is_right_proper(tt)
        assert not is_left_proper(tt)

    def test_json_export_shape(self, alg):
        tt = two_term(alg, 0, (1,), (2,), arrows={(0, 0)})
        obj = tt.to_json_obj()
        assert obj["side"] == 0
        assert obj["left"] == {"1": 1} and obj["right"] == {"2": 1}
        assert obj["phi"][0][0]["terms"][0]["kind"] == "arrow"

    def test_json_export_writes_absent_cells_as_zero_morphisms(self):
        algebra = ZigzagAlgebra(A3)
        tt = two_term(algebra, 0, (1, 3), (2,), arrows={(0, 0)})
        assert tt.to_json_obj()["phi"] == [
            [
                {"src": 1, "tgt": 2, "terms": [{"kind": "arrow", "coef": "1"}]},
                {"src": 3, "tgt": 2, "terms": []},
            ]
        ]

    def test_assemble_round_trip(self, alg):
        tt = two_term(alg, 0, (1,), (2,), arrows={(0, 0)})
        assert two_term_of(tt.assemble()).to_json_obj() == tt.to_json_obj()


class TestReflection:
    def test_left_proper_stalk_reflects_to_arrow_cone(self, alg):
        tt = two_term_of(projective(alg, 2))
        pred = two_term_reflect(tt, {1})
        assert pred.left_dict() == {2: 1}
        assert pred.right_dict() == {1: 1}
        computed = reflect_minus(tt, {1})
        assert iso_to_sum(twist(1, shift(computed, -1)), projective(alg, 2))  # computed = t_1^-1(P_2)[1]
        got = two_term_of(computed)
        assert got.left == pred.left_dict() and got.right == pred.right_dict()

    def test_right_proper_cone_reflects_to_stalk(self, alg):
        tt = two_term(alg, 0, (1,), (2,), arrows={(0, 0)})
        pred = two_term_reflect(tt, {2})
        assert pred.left_dict() == {} and pred.right_dict() == {1: 1}
        got = two_term_of(reflect_plus(tt, {2}))
        assert got.left == pred.left_dict() and got.right == pred.right_dict()

    def test_d4_branch_reflection(self):
        algebra = ZigzagAlgebra(D4)
        tt = two_term_of(projective(algebra, 2))
        # color(2) = 1 under the fixed coloring, so the stalk sits on side 0
        assert tt.side == 0
        pred = two_term_reflect(tt, {1, 3, 4})
        assert pred.right_dict() == {1: 1, 3: 1, 4: 1}
        got = two_term_of(reflect_minus(tt, {1, 3, 4}))
        assert got.left == pred.left_dict() and got.right == pred.right_dict()

    def test_unsupported_delta_rejected(self, alg):
        tt = two_term_of(projective(alg, 2))
        with pytest.raises(ValueError):
            two_term_reflect(tt, set())
        with pytest.raises(ValueError):
            two_term_reflect(tt, {1, 2})  # mixed colors

    def test_improper_object_rejected(self, alg):
        tt = two_term(alg, 0, (1,), (2,), arrows=set())
        with pytest.raises(ValueError):
            two_term_reflect(tt, {2})


class TestMinDegreeDrift:
    def test_drift_stays_in_window(self):
        from twistlab.reconstruct import min_degree

        algebra = ZigzagAlgebra(A3)
        lam = sum_of_projectives(algebra)
        for letters in [(1,), (2, 1), (1, 2, 3), (2, 2, 1)]:
            t = twist_word(word(A3, letters), lam)
            m = min_degree(t)
            for i in A3.vertices:
                m2 = min_degree(twist(i, t))
                assert m - 1 <= m2 <= m


# -- exact isomorphism on random words -------------------------------------------


def _rewrites(diagram, letters):
    """Every word one commutation or braid relation away from letters."""
    out = []
    for k in range(len(letters) - 1):
        i, j = letters[k], letters[k + 1]
        if i != j and not diagram.adjacent(i, j):
            out.append(letters[:k] + (j, i) + letters[k + 2:])
        if k + 2 < len(letters) and letters[k + 2] == i and diagram.adjacent(i, j):
            out.append(letters[:k] + (j, i, j) + letters[k + 3:])
    return out


@st.composite
def word_pairs(draw):
    """(diagram, w, u): u is w after a few relations, or w with one letter changed."""
    diagram = draw(st.sampled_from([A3, D4, A4]))
    vertices = list(diagram.vertices)
    w = tuple(draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=8)))
    u = w
    if draw(st.booleans()):
        k = draw(st.integers(0, len(w) - 1))
        u = w[:k] + (draw(st.sampled_from([v for v in vertices if v != w[k]])),) + w[k + 1:]
    else:
        for _ in range(draw(st.integers(1, 4))):
            options = _rewrites(diagram, u)
            if options:
                u = draw(st.sampled_from(options))
    return diagram, w, u


FIELDS = st.sampled_from([GF2, QQ, GF3])


@settings(max_examples=25, deadline=None)
@given(word_pairs(), FIELDS, st.data())
def test_twist_and_inverse_are_mutually_inverse_exactly(case, field, data):
    diagram, w, _ = case
    lam = sum_of_projectives(ZigzagAlgebra(diagram, field))
    w = word(diagram, w)
    x = twist_word(w, lam)
    i = data.draw(st.sampled_from(list(diagram.vertices)))
    assert is_twist_image(twist_inv(i, twist(i, x)), w, lam)
    assert is_twist_image(twist(i, twist_inv(i, x)), w, lam)


@settings(max_examples=60, deadline=None)
@given(word_pairs(), FIELDS)
def test_category_verdict_agrees_with_the_oracle(case, field):
    diagram, w, u = case
    lam = sum_of_projectives(ZigzagAlgebra(diagram, field))
    w, u = word(diagram, w), word(diagram, u)
    assert is_twist_image(twist_word(u, lam), w, lam) == equivalent(w, u)
