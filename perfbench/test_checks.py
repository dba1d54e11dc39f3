"""The benchmark's own checks agree with twistlab on small exhaustive corpora.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import random

import pytest

import checks
import layers
import make_pool
import program
import workloads

CORPORA = (("A3", 4), ("D4", 3), ("A4", 3))


@pytest.fixture
def prog():
    return program.load()


def _words(name: str, max_len: int):
    n = checks.rank_of(name)
    return [w for k in range(max_len + 1) for w in itertools.product(range(1, n + 1), repeat=k)]


@pytest.mark.parametrize("name,max_len", CORPORA)
def test_normal_form_decides_what_the_oracle_decides(prog, name, max_len):
    B = prog.braid
    d = B.diagram_from_name(name)
    g = checks.Garside(name)
    words = _words(name, max_len)
    by_oracle = {w: B.canonical_form(B.word(d, w)) for w in words}
    assert workloads._blocks(by_oracle) == workloads._blocks({w: g.normal_form(w) for w in words})
    for w in words:
        assert g.lexmin(w) == by_oracle[w]
        for j in d.vertices:
            rem = B.left_divisible_by(B.word(d, w), j)
            assert (rem is not None) == (j in g.left_divisors(w))
            if rem is not None:
                assert g.equal((j,) + tuple(rem.letters), w)


@pytest.mark.parametrize("name,max_len", CORPORA)
def test_class_size_counts_the_class(prog, name, max_len):
    B = prog.braid
    d = B.diagram_from_name(name)
    g = checks.Garside(name)
    for w in _words(name, max_len)[:: 7]:
        assert make_pool.class_size(g, w) == len(B.braid_class(B.word(d, w)))


def test_rewrite_stays_in_the_class():
    rng = random.Random(0)
    g = checks.Garside("E6")
    for _ in range(50):
        w = tuple(rng.randint(1, 6) for _ in range(12))
        assert g.equal(workloads.rewrite("E6", w, rng, 30), w)


@pytest.mark.parametrize("field", ["f2", "q", "f3"])
@pytest.mark.parametrize("name,max_len", [("A3", 3), ("D4", 2)])
def test_complex_checks_accept_every_twist_image(prog, name, max_len, field):
    C, T, B = prog.complexes, prog.twists, prog.braid
    alg = workloads._algebra(prog, name, field)
    lam = C.sum_of_projectives(alg)
    rank = checks.rank_of(name)
    for w in _words(name, max_len):
        t = C.minimize(T.twist_word(B.word(alg.diagram, w), lam))
        obj = C.complex_to_json_obj(t)
        assert checks.complex_problems(obj, field) == []
        k0 = checks.k0_class(name, w)
        assert checks.summand_class(obj, rank) == k0
        prof = {f"{j},{d}": h for (j, d), h in C.profile(t).items()}
        assert checks.profile_euler(prof, rank) == checks.hom_euler(name, k0)


def _cell(src, tgt, kind, coef="1"):
    return {"src": src, "tgt": tgt, "terms": [{"kind": kind, "coef": coef}]}


def test_complex_checks_reject_broken_complexes():
    # P1 -> P2 -> P1 by arrows composes to the loop: d^2 != 0 over any field
    loop = {"degrees": {"0": [1], "1": [2], "2": [1]}, "diffs": {"0": [[_cell(1, 2, "arrow")]], "1": [[_cell(2, 1, "arrow")]]}}
    assert any("d^2" in p for p in checks.complex_problems(loop, "f2"))
    # an identity entry P1 -> P1 is contractible: not minimal
    unit = {"degrees": {"0": [1], "1": [1]}, "diffs": {"0": [[_cell(1, 1, "id", "2")]]}}
    assert any("minimal" in p for p in checks.complex_problems(unit, "q"))
    # over GF(2) the coefficient 2 vanishes, so the same complex has zero differential
    assert checks.complex_problems(unit, "f2") == []


def test_trace_wraps_name_imports_and_repeats_exactly():
    def one_round():
        prog = program.load()
        tracer = layers.Tracer()
        tracer.install(prog)
        alg = workloads._algebra(prog, "A3", "q")
        lam = prog.complexes.sum_of_projectives(alg)
        w = prog.braid.word(alg.diagram, (1, 2, 3, 1))
        rec, _ = prog.reconstruct.recover_trace(prog.twists.twist_word(w, lam))
        tracer.uninstall()
        assert prog.reconstruct.profile is prog.complexes.profile  # restored
        return {k: v for k, (v, unit) in tracer.metrics().items() if unit != "s"}

    first, second = one_round(), one_round()
    assert first == second
    # reconstruct calls profile through its own name import
    assert first["complexes.profile.calls"] > 0
    assert first["reconstruct.peel.calls"] == 4
    assert first["zigzag.compose.calls"] > 0


def test_missing_function_reports_zero_calls():
    prog = program.load()
    del prog.twists.twist_inv
    tracer = layers.Tracer()
    tracer.install(prog)
    tracer.uninstall()
    assert tracer.metrics()["twists.twist_inv.calls"] == (0, "count")
