"""Acceptance gate: one test per criterion, at the stated corpus scales.

Run with `pytest tests/test_acceptance.py -v -s` to see the one-line verdict
per criterion.  Everything is exact; the only tolerances are the runtime
budgets, which sit far above the measured times.
"""

import dataclasses

import pytest

from twistlab import acceptance
from twistlab.acceptance import Scale, profile_partition, selftest_scale
from twistlab.braid import BraidWord, canonical_form, diagram_from_name
from twistlab.fields import GF2, field_from_name
from twistlab.zigzag import ZigzagAlgebra

from support import _image_classes

SCALE = Scale()


def report(result, budget_seconds=None):
    print(result.line(), flush=True)
    assert result.passed, result.line()
    if budget_seconds is not None:
        assert result.seconds < budget_seconds, (
            f"criterion {result.number} exceeded its runtime budget: "
            f"{result.seconds:.1f}s >= {budget_seconds}s"
        )


def test_criterion_1_configuration_sanity():
    report(acceptance.criterion_configuration_sanity(GF2, SCALE), budget_seconds=1.0)


def test_criterion_2_twist_axioms():
    report(acceptance.criterion_twist_axioms(GF2, SCALE), budget_seconds=60.0)


def test_criterion_3_braid_relations():
    report(acceptance.criterion_braid_relations(GF2, SCALE), budget_seconds=300.0)


def test_criterion_4_faithfulness():
    report(acceptance.criterion_faithfulness(GF2, SCALE), budget_seconds=1800.0)


def test_criterion_5_reconstruction():
    report(acceptance.criterion_reconstruction(GF2, SCALE), budget_seconds=1800.0)


def test_criterion_6_degree_bounds():
    report(acceptance.criterion_degree_bounds(GF2, SCALE))


def test_criterion_7_two_term():
    result = acceptance.criterion_two_term(GF2, SCALE)
    report(result, budget_seconds=300.0)
    assert result.details == "2068 properness checks, 2324 reflections, 25 chain stages"


def test_criterion_8_mesh():
    result = acceptance.criterion_mesh(GF2, SCALE)
    report(result, budget_seconds=300.0)
    assert result.details == "9158 moves, 650 chi checks, 141 solver instances"


def test_criterion_9_characteristic_independence():
    report(acceptance.criterion_characteristic_independence(SCALE))


@pytest.mark.parametrize("diagram", ["A4", "A5", "D5", "D6", "E6", "E7"])
def test_criterion_8_off_the_full_scale(diagram):
    """layer may move a letter of the other colour ahead of the first one; chi seeds at the first slice."""
    report(acceptance.criterion_mesh(GF2, selftest_scale(diagram, 2)))


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_criterion_7_catches_a_wrong_prediction_in_one_direction(monkeypatch, direction):
    real = acceptance.two_term_reflect

    def wrong(tt, delta):
        left, right = real(tt, delta)
        k = min(delta)
        if (tt.algebra.diagram.color(k) != tt.side) == (direction == "forward"):
            left = {**left, k: left.get(k, 0) + 1}
        return left, right

    monkeypatch.setattr(acceptance, "two_term_reflect", wrong)
    result = acceptance.criterion_two_term(GF2, SCALE)
    assert not result.passed
    assert f": {direction} reflection mismatch on " in result.details


@pytest.mark.parametrize("kind, move", [("commutation", "commute_move"), ("braiding", "braid_move")])
def test_criterion_8_catches_a_wrong_theta_from_one_move_kind(monkeypatch, kind, move):
    real = getattr(acceptance, move)

    def wrong(s, *args):
        s2 = real(s, *args)
        return dataclasses.replace(s2, theta={v: t + 1 for v, t in s2.theta.items()})

    monkeypatch.setattr(acceptance, move, wrong)
    result = acceptance.criterion_mesh(GF2, SCALE)
    assert not result.passed
    assert f": {kind} " in result.details


SWEEP_CORPORA = (("A2", 6), ("A3", 5), ("D4", 4), ("A4", 4), ("D5", 3), ("E6", 3))


@pytest.mark.parametrize("field", ["f2", "q", "f3"])
def test_profile_partition_is_the_normal_form_partition(field):
    """The benchmark's corpus-sweep check: equal keys exactly on equal braids, on each of its corpora."""
    for name, max_len in SWEEP_CORPORA:
        d = diagram_from_name(name)
        keys = profile_partition(ZigzagAlgebra(d, field_from_name(field)), max_len)
        normal_forms = {w: canonical_form(BraidWord(d, w)) for w in keys}
        assert acceptance._groups(keys) == acceptance._groups(normal_forms), (name, max_len)


CROSS_CHECK_CORPORA = (("A2", 6), ("A3", 5), ("D4", 4))


@pytest.mark.parametrize("field", ["f2", "q", "f3"])
def test_peel_partition_is_the_reference_partition(field):
    """The two deciders check each other: criterion 4's peel sequences against the inverse chains of _image_classes."""
    for name, max_len in CROSS_CHECK_CORPORA:
        corpus, peels = acceptance._recovered_corpus(name, field_from_name(field), False, max_len)
        assert acceptance._groups(peels) == acceptance._groups(_image_classes(corpus)), (name, max_len)


@pytest.mark.parametrize(
    "criterion, text",
    [
        (acceptance.criterion_faithfulness, "A3 l<=3: the image of (1, 2) does not recover"),
        (acceptance.criterion_reconstruction, "A3: the image of (1, 2) does not recover: "),
        (acceptance.criterion_characteristic_independence, "exception: NotTwistImage("),
    ],
    ids=["4", "5", "9"],
)
def test_a_word_that_does_not_recover_fails_the_criterion(criterion, text):
    scale = selftest_scale("A3", 3)
    result = criterion(scale=scale, corrupt=True)
    assert not result.passed
    assert result.details.startswith(text)


def test_sampled_words_stay_out_of_the_shared_corpus():
    scale = dataclasses.replace(selftest_scale("A2", 2), faithfulness_corpora=(("A2", 2),), sample_longer=5)
    report(acceptance.criterion_reconstruction(GF2, scale))
    corpus, peels = acceptance._recovered_corpus("A2", GF2, False, 2)
    assert len(corpus) == len(peels) == 7
    assert acceptance.criterion_reconstruction(GF2, scale).details == "12 round trips"
