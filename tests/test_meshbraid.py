import pytest

from twistlab.braid import build_diagram, equivalent, layer, left_divisible_by, word
from twistlab.meshbraid import (
    MINUS_INF,
    BraidMove,
    CommuteMove,
    DecoratedSet,
    MeshError,
    apply_moves,
    braid_move,
    check_mesh_relations,
    chi_boundary,
    chi_of_layered,
    commute_move,
    decorated_from_json_obj,
    find_left_divisor,
    mesh,
    tau,
    to_decorated,
    to_dot,
    word_of,
)

A2 = build_diagram("A", 2)
A3 = build_diagram("A", 3)
D4 = build_diagram("D", 4)

D4_WORD = (2, 1, 3, 4, 2, 1, 3, 4, 2, 4)


def a2_standard():
    return to_decorated(layer(word(A2, (1, 2, 1))), chi_boundary(A2, 1))


def d4_standard():
    return to_decorated(layer(word(D4, D4_WORD)), chi_boundary(D4, 2))


class TestDecorated:
    def test_a2_theta(self):
        s = a2_standard()
        assert s.theta == {(0, 1): 1, (1, 2): 1, (2, 1): 0}

    def test_d4_theta_values(self):
        # recomputed from the definitions; the source text displays these in a
        # figure with the coloring flipped, shifting every slice index by one
        s = d4_standard()
        assert s.theta[(3, 2)] == 2
        assert s.theta[(6, 4)] == 0
        rest = {v: t for v, t in s.theta.items() if v not in ((3, 2), (6, 4))}
        assert set(rest.values()) == {1}

    def test_empty_word(self):
        s = to_decorated(layer(word(A2, ())), chi_boundary(A2, 1))
        assert s.vertices == frozenset()
        assert word_of(s).letters == ()

    def test_parity_enforced(self):
        with pytest.raises(MeshError):
            DecoratedSet(A2, frozenset({(0, 2)}), {(0, 2): 1}, chi_boundary(A2, 1))

    def test_theta_domain_enforced(self):
        with pytest.raises(MeshError):
            DecoratedSet(A2, frozenset({(0, 1)}), {}, chi_boundary(A2, 1))

    def test_json_roundtrip(self):
        s = d4_standard()
        back = decorated_from_json_obj(s.to_json_obj())
        assert back.vertices == s.vertices
        assert back.theta == s.theta
        assert back.boundary == s.boundary


class TestTauMesh:
    def test_a2_tau_and_mesh(self):
        s = a2_standard()
        assert tau(s, (2, 1)) == (0, 1)
        assert mesh(s, (0, 1), (2, 1)) == {(1, 2)}

    def test_infinite_tau(self):
        s = a2_standard()
        t = tau(s, (0, 1))
        assert t[0] == MINUS_INF and t[1] == 1
        assert mesh(s, t, (0, 1)) == frozenset()

    def test_d4_last_vertex(self):
        s = d4_standard()
        assert tau(s, (6, 4)) == (4, 4)
        assert mesh(s, (4, 4), (6, 4)) == {(5, 2)}

    def test_tau_requires_membership(self):
        with pytest.raises(MeshError):
            tau(a2_standard(), (4, 1))


class TestMeshRelations:
    def test_construction_always_satisfies(self):
        for letters in [(1,), (1, 2), (2, 2, 1), (1, 2, 1, 2)]:
            s = to_decorated(layer(word(A2, letters)), chi_boundary(A2, letters[0]))
            assert check_mesh_relations(s)

    def test_broken_theta_detected(self):
        s = a2_standard()
        broken = DecoratedSet(A2, s.vertices, {(0, 1): 1, (1, 2): 1, (2, 1): 1}, dict(s.boundary))
        assert not check_mesh_relations(broken)

    def test_word_of_reads_slices(self):
        s = d4_standard()
        assert equivalent(word_of(s), word(D4, D4_WORD))


class TestChi:
    def test_a2_values(self):
        assert chi_of_layered(layer(word(A2, (1, 2, 1)))) == {(0, 1): 1, (1, 2): 1, (2, 1): 0}

    def test_seed_alone(self):
        assert chi_of_layered(layer(word(A2, (1,)))) == {(0, 1): 1}

    def test_d4_matches_theta(self):
        lw = layer(word(D4, D4_WORD))
        assert chi_of_layered(lw) == d4_standard().theta

    def test_non_singleton_start_rejected(self):
        with pytest.raises(MeshError):
            chi_of_layered(layer(word(A3, (1, 3))))

    def test_gapped_word_diverges_from_theta(self):
        # (1,1,2): the infinite mesh at the first 2 sees both occurrences of 1,
        # while the two-step recurrence only sees the nearer one
        lw = layer(word(A2, (1, 1, 2)))
        s = to_decorated(lw, chi_boundary(A2, 1))
        assert chi_of_layered(lw) != s.theta


class TestCommute:
    def test_legal_move(self):
        s = to_decorated(layer(word(A2, (1,))), chi_boundary(A2, 1))
        s = s.replaced([], {(3, 2): 1})
        moved = commute_move(s, (3, 2), -1)
        assert (1, 2) in moved.vertices and (3, 2) not in moved.vertices
        assert equivalent(word_of(moved), word_of(s))

    def test_blocked_by_neighbor(self):
        s = a2_standard()
        with pytest.raises(MeshError):
            commute_move(s, (0, 1), 1)

    def test_blocked_by_occupied_target(self):
        s = to_decorated(layer(word(A2, (1, 2, 1, 2, 1))), chi_boundary(A2, 1))
        with pytest.raises(MeshError):
            commute_move(s, (0, 1), 1)

    def test_theta_transported(self):
        s = a2_standard().replaced([], {(5, 2): 7})
        moved = commute_move(s, (5, 2), 1)
        assert moved.theta[(7, 2)] == 7


class TestBraid:
    def test_worked_a2_example(self):
        s = a2_standard()
        out = braid_move(s, (0, 1), (1, 2), (2, 1))
        assert out.vertices == frozenset({(1, 2), (2, 1), (3, 2)})
        assert out.theta == {(1, 2): 0, (2, 1): 1, (3, 2): 1}
        assert word_of(out).letters == (2, 1, 2)
        assert check_mesh_relations(out)

    def test_shape_validated(self):
        s = a2_standard()
        with pytest.raises(MeshError):
            braid_move(s, (0, 1), (1, 2), (4, 1))

    def test_occupied_d_blocks(self):
        s = to_decorated(layer(word(A2, (1, 2, 1, 2))), chi_boundary(A2, 1))
        with pytest.raises(MeshError):
            braid_move(s, (0, 1), (1, 2), (2, 1))

    def test_moves_json_roundtrip(self):
        moves = (CommuteMove((3, 2), -1), BraidMove((0, 1), (1, 2), (2, 1)))
        assert [m.to_json_obj() for m in moves] == [
            {"move": "commute", "vertex": [3, 2], "direction": -1},
            {"move": "braid", "a": [0, 1], "b": [1, 2], "c": [2, 1]},
        ]


class TestSolver:
    def test_a2_one_braiding(self):
        s = a2_standard()
        j, cert = find_left_divisor(s)
        assert j == 2
        assert len(cert) == 1 and isinstance(cert[0], BraidMove)
        final = apply_moves(s, cert)
        assert equivalent(word_of(final), word(A2, (1, 2, 1)))

    def test_already_minimal_zero(self):
        # zero vertex already sits alone at the minimal slice
        s = to_decorated(layer(word(A2, (1, 1))), chi_boundary(A2, 1))
        # theta: (0,1) -> 1, (2,1) -> -1: fails the hypotheses
        with pytest.raises(MeshError):
            find_left_divisor(s)

    def test_trivial_instance(self):
        # a single vertex with theta zero and seed elsewhere
        d = A2
        s = DecoratedSet(d, frozenset({(1, 2)}), {(1, 2): 0}, {1: -1, 2: 0})
        # mesh relation at (1,2): theta + boundary(2) = 0 = empty sum: holds
        j, cert = find_left_divisor(s)
        assert j == 2 and cert == ()

    def test_d4_example(self):
        s = d4_standard()
        j, cert = find_left_divisor(s)
        assert j != 2
        final = apply_moves(s, cert)
        assert equivalent(word_of(final), word(D4, D4_WORD))
        assert check_mesh_relations(final)
        zero = next(v for v in final.vertices if final.theta[v] == 0)
        assert zero[1] == j
        assert all(v[0] >= zero[0] for v in final.vertices)
        assert left_divisible_by(word(D4, D4_WORD), j) is not None

    def test_hypotheses_validated(self):
        s = a2_standard()
        bad = DecoratedSet(A2, s.vertices, dict(s.theta), {1: 0, 2: 0})
        with pytest.raises(MeshError):
            find_left_divisor(bad)

    def test_certificate_moves_replay_with_checks(self):
        s = d4_standard()
        _, cert = find_left_divisor(s)
        # replay prefix by prefix: every intermediate state is legal
        state = s
        for mv in cert:
            state = apply_moves(state, [mv])
            assert check_mesh_relations(state)


class TestDot:
    def test_dot_contains_theta_labels(self):
        s = a2_standard()
        dot = to_dot(s)
        assert "digraph" in dot
        assert '"1:1"' in dot and '"1:0"' in dot

    def test_dot_empty_set(self):
        s = to_decorated(layer(word(A2, ())), chi_boundary(A2, 1))
        assert "digraph" in to_dot(s)
