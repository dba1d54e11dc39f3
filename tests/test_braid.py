import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from twistlab.braid import (
    MAX_RANK,
    build_diagram,
    braid_class,
    canonical_form,
    diagram_from_json_obj,
    diagram_from_name,
    equivalent,
    layer,
    layered_from_json_obj,
    left_divisible_by,
    neighbors,
    parse_letters,
    word,
)

from support import flatten

A2 = build_diagram("A", 2)
A3 = build_diagram("A", 3)
D4 = build_diagram("D", 4)


class TestDiagrams:
    def test_a2_is_the_unique_tree_on_two_vertices(self):
        assert sorted(A2.edges) == [(1, 2)]
        assert A2.coloring == (0, 1)

    def test_d4_star_with_center_2(self):
        assert sorted(D4.edges) == [(1, 2), (2, 3), (2, 4)]
        assert neighbors(D4, 2) == {1, 3, 4}

    def test_e6_branch_at_4(self):
        e6 = build_diagram("E", 6)
        assert sorted(e6.edges) == [(1, 3), (2, 4), (3, 4), (4, 5), (5, 6)]
        assert neighbors(e6, 4) == {2, 3, 5}

    @pytest.mark.parametrize("family,rank", [("E", 5), ("E", 9), ("D", 3), ("A", 1), ("F", 4)])
    def test_illegal_pairs_rejected(self, family, rank):
        with pytest.raises(ValueError):
            build_diagram(family, rank)

    def test_rank_is_bounded(self):
        assert build_diagram("D", MAX_RANK).rank == MAX_RANK
        with pytest.raises(ValueError, match=f"rank {MAX_RANK + 1} is above"):
            build_diagram("A", MAX_RANK + 1)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"family": "A", "rank": 2.5}, "rank must be a JSON integer"),
            ({"family": "A", "rank": "3"}, "rank must be a JSON integer"),
            ({"family": ["A"], "rank": 2}, "family must be a JSON string"),
        ],
        ids=["float-rank", "string-rank", "list-family"],
    )
    def test_diagram_json_fields_are_typed(self, obj, message):
        with pytest.raises(ValueError, match=message):
            diagram_from_json_obj(obj)

    def test_neighbors_examples(self):
        assert neighbors(A3, 2) == {1, 3}
        assert neighbors(A3, 1) == {2}
        with pytest.raises(ValueError):
            neighbors(A3, 7)

    def test_coloring_is_proper_everywhere(self):
        for name in ("A2", "A5", "D4", "D6", "E6", "E7", "E8"):
            d = diagram_from_name(name)
            assert d.color(1) == 0
            for a, b in d.edges:
                assert d.color(a) != d.color(b)

    def test_diagram_json_roundtrip(self):
        assert diagram_from_json_obj(D4.to_json_obj()) == D4


class TestOracle:
    def test_braid_relation(self):
        assert equivalent(word(A2, (1, 2, 1)), word(A2, (2, 1, 2)))

    def test_commutation(self):
        assert equivalent(word(A3, (1, 3)), word(A3, (3, 1)))

    def test_distinct_generators(self):
        assert not equivalent(word(A2, (1,)), word(A2, (2,)))

    def test_length_preserved(self):
        assert not equivalent(word(A2, (1,)), word(A2, (1, 1)))

    def test_diagram_mismatch(self):
        with pytest.raises(ValueError):
            equivalent(word(A2, (1,)), word(A3, (1,)))

    def test_left_divisible_examples(self):
        rem = left_divisible_by(word(A2, (1, 2, 1)), 2)
        assert rem is not None and equivalent(word(A2, (2,) + rem.letters), word(A2, (1, 2, 1)))
        assert left_divisible_by(word(A2, (1, 2)), 2) is None
        assert left_divisible_by(word(A2, ()), 1) is None

    def test_left_divisible_agrees_with_class_scan(self):
        for letters in [(1, 2, 1, 2), (2, 1, 1), (1, 2, 2, 1)]:
            w = word(A2, letters)
            cls = braid_class(w)
            for j in (1, 2):
                expected = any(u[0] == j for u in cls)
                assert (left_divisible_by(w, j) is not None) == expected

    def test_no_divisor_query_answers(self):
        # in D4, 1, 3 and 4 commute pairwise and are all adjacent to 2
        w = word(D4, (1, 3, 4, 2))
        assert left_divisible_by(w, 2) is None
        other = word(D4, (4, 1, 3, 2))
        assert equivalent(other, w)
        assert not equivalent(other, word(D4, (2, 1, 3, 4)))
        assert left_divisible_by(other, 4).letters == (1, 3, 2)
        assert left_divisible_by(other, 2) is None

    def test_module_state_stays_bounded(self):
        from twistlab import braid

        def sizes():
            out = {}
            for name, obj in vars(braid).items():
                if hasattr(obj, "cache_info"):
                    out[name] = obj.cache_info().currsize
                elif isinstance(obj, (dict, list, set)):
                    out[name] = len(obj)
            return out

        rng = random.Random(11)
        diagrams = [diagram_from_name("A4"), diagram_from_name("E8")]

        def queries(count):
            for _ in range(count):
                d = rng.choice(diagrams)
                w = word(d, [rng.randint(1, d.rank) for _ in range(30)])
                u = word(d, [rng.randint(1, d.rank) for _ in range(30)])
                equivalent(w, u)
                left_divisible_by(w, rng.randint(1, d.rank))
                canonical_form(u)

        queries(4)  # both diagrams' tables are built by now
        before = sizes()
        queries(200)
        assert sizes() == before
        assert braid._weyl.cache_info().maxsize is not None


def words_strategy(diagram, max_len=6):
    return st.lists(
        st.sampled_from(list(diagram.vertices)), min_size=0, max_size=max_len
    ).map(lambda ls: word(diagram, tuple(ls)))


@settings(max_examples=60, deadline=None)
@given(words_strategy(A3))
def test_layer_flatten_roundtrip(w):
    assert equivalent(flatten(layer(w)), w)


@settings(max_examples=40, deadline=None)
@given(words_strategy(D4, max_len=5))
def test_layer_parity(w):
    lw = layer(w)
    for k, sl in enumerate(lw.slices):
        for j in sl:
            assert D4.color(j) == k % 2


@settings(max_examples=40, deadline=None)
@given(words_strategy(A2, max_len=5), st.sampled_from([1, 2]))
def test_equivalence_stable_under_appending(w, j):
    for u in braid_class(w):
        assert equivalent(word(A2, (j,) + u), word(A2, (j,) + w.letters))
        assert equivalent(word(A2, u + (j,)), word(A2, w.letters + (j,)))


class TestLayering:
    def test_a3_greedy_example(self):
        lw = layer(word(A3, (2, 1)))
        assert [sorted(s) for s in lw.slices] == [[], [2], [1]]

    def test_commuting_same_color_share_a_slice(self):
        lw = layer(word(A3, (1, 3)))
        assert [sorted(s) for s in lw.slices] == [[1, 3]]

    def test_d4_worked_example(self):
        # the branch vertex has color 1 here, so the layering starts at slice 1
        lw = layer(word(D4, (2, 1, 3, 4, 2, 1, 3, 4, 2, 4)))
        assert [sorted(s) for s in lw.slices] == [
            [], [2], [1, 3, 4], [2], [1, 3, 4], [2], [4],
        ]

    def test_flatten_examples(self):
        from twistlab.braid import LayeredWord

        lw = LayeredWord(A2, (frozenset(), frozenset({2}), frozenset({1})))
        assert flatten(lw).letters == (2, 1)
        lw2 = LayeredWord(A3, (frozenset({1, 3}),))
        assert flatten(lw2).letters == (1, 3)

    def test_slice_parity_enforced(self):
        from twistlab.braid import LayeredWord

        with pytest.raises(ValueError):
            LayeredWord(A2, (frozenset({2}),))

    def test_layered_json_roundtrip(self):
        lw = layer(word(D4, (2, 1, 3, 4)))
        back = layered_from_json_obj(lw.to_json_obj())
        assert back.slices == lw.slices


class TestParsing:
    def test_word_formats(self):
        assert parse_letters("1,2,1") == (1, 2, 1)
        assert parse_letters("s1 s2") == (1, 2)
        assert parse_letters("") == ()
        with pytest.raises(ValueError):
            parse_letters("1,x")

    def test_word_json_roundtrip(self):
        w = word(D4, (2, 1, 3))
        assert w.to_json_obj() == {"diagram": {"family": "D", "rank": 4}, "letters": [2, 1, 3]}

    def test_bad_letters_rejected(self):
        with pytest.raises(ValueError):
            word(A2, (3,))


def test_canonical_form_constant_on_classes():
    w = word(A2, (1, 2, 1, 1))
    c = canonical_form(w)
    for u in braid_class(w):
        assert canonical_form(word(A2, u)) == c


# Every word of these corpora, checked against the exhaustive BFS class.
EXHAUSTIVE = [("A2", 7), ("A3", 6), ("D4", 5), ("A4", 5), ("D5", 4), ("E6", 4)]


@pytest.mark.parametrize("name,max_len", EXHAUSTIVE)
def test_normal_form_oracle_matches_class_enumeration(name, max_len):
    d = diagram_from_name(name)
    for n in range(max_len + 1):
        cls_of = {}
        prev = None
        for letters in itertools.product(d.vertices, repeat=n):
            if letters not in cls_of:
                cls = braid_class(word(d, letters))
                cls_of.update((u, cls) for u in cls)
            cls = cls_of[letters]
            w = word(d, letters)
            assert canonical_form(w) == min(cls)
            if prev is not None:
                assert equivalent(w, word(d, prev)) == (prev in cls)
            prev = letters
            for j in d.vertices:
                rem = left_divisible_by(w, j)
                assert (rem is not None) == any(u[:1] == (j,) for u in cls)
                if rem is not None:
                    assert (j,) + rem.letters in cls


def _weyl_image(d, letters):
    """The reflection action of the word on K_0 = Z^rank, as its images of e_1 .. e_rank.

    s_i sends x to x - (sum_j c_ij x_j) e_i, with c the Cartan matrix.
    """
    images = []
    for k in d.vertices:
        x = [int(v == k) for v in d.vertices]
        for i in reversed(letters):
            x[i - 1] -= 2 * x[i - 1] - sum(x[j - 1] for j in d.vertices if d.adjacent(i, j))
        images.append(tuple(x))
    return images


def _rewrite(d, letters, rng, moves):
    """Apply random commutation and braid moves to a letter sequence."""
    u = list(letters)
    for _ in range(moves):
        i = rng.randrange(len(u) - 1)
        a, b = u[i], u[i + 1]
        if a != b and not d.adjacent(a, b):
            u[i], u[i + 1] = b, a
        elif i + 2 < len(u) and u[i + 2] == a and d.adjacent(a, b):
            u[i : i + 3] = [b, a, b]
    return tuple(u)


@pytest.mark.parametrize("name", ["A4", "D5", "E8"])
def test_long_words(name):
    d = diagram_from_name(name)
    rng = random.Random(name)
    changed = 0
    for _ in range(5):
        letters = tuple(rng.randint(1, d.rank) for _ in range(40))
        w = word(d, letters)
        c = canonical_form(w)
        assert equivalent(word(d, c), w)
        assert canonical_form(word(d, c)) == c
        assert c <= letters
        u = _rewrite(d, letters, rng, 400)
        assert equivalent(word(d, u), w)
        assert canonical_form(word(d, u)) == c
        for _ in range(5):
            v = list(u)
            k = rng.randrange(len(v))
            v[k] = rng.choice([j for j in d.vertices if j != v[k]])
            if _weyl_image(d, v) != _weyl_image(d, letters):
                changed += 1
                assert not equivalent(word(d, v), w)
    assert changed > 0


# A15 and D11 are the largest root systems that fit byte tables; A16 and D12
# take the str tables.
@pytest.mark.parametrize("name", ["A15", "D11", "A16", "D12"])
def test_high_rank_diagrams(name):
    d = diagram_from_name(name)
    assert neighbors(d, d.rank) == {d.rank - 1}
    rng = random.Random(name)
    for _ in range(40):
        base = rng.randint(1, d.rank - 2)
        pool = [base, base + 1, base + 2, rng.randint(1, d.rank)]
        letters = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
        w = word(d, letters)
        assert equivalent(flatten(layer(w)), w)
        cls = braid_class(w)
        assert canonical_form(w) == min(cls)
        assert all(equivalent(word(d, u), w) for u in cls)
        for j in set(pool):
            rem = left_divisible_by(w, j)
            assert (rem is not None) == any(u[:1] == (j,) for u in cls)
            if rem is not None:
                assert (j,) + rem.letters in cls
