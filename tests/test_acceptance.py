"""Acceptance gate: one test per criterion, at the stated corpus scales.

Run with `pytest tests/test_acceptance.py -v -s` to see the one-line verdict
per criterion.  Everything is exact; the only tolerances are the runtime
budgets, which sit far above the measured times.
"""

import pytest

from twistlab import acceptance
from twistlab.acceptance import Scale, profile_partition, selftest_scale
from twistlab.braid import BraidWord, canonical_form, diagram_from_name
from twistlab.fields import GF2, field_from_name
from twistlab.zigzag import ZigzagAlgebra

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
    report(acceptance.criterion_two_term(GF2, SCALE), budget_seconds=300.0)


def test_criterion_8_mesh():
    report(acceptance.criterion_mesh(GF2, SCALE), budget_seconds=300.0)


def test_criterion_9_characteristic_independence():
    report(acceptance.criterion_characteristic_independence(SCALE))


@pytest.mark.parametrize("diagram", ["A4", "A5", "D5", "D6", "E6", "E7"])
def test_criterion_8_off_the_full_scale(diagram):
    """layer may move a letter of the other colour ahead of the first one; chi seeds at the first slice."""
    report(acceptance.criterion_mesh(GF2, selftest_scale(diagram, 2)))


SWEEP_CORPORA = (("A2", 6), ("A3", 5), ("D4", 4), ("A4", 4), ("D5", 3), ("E6", 3))


@pytest.mark.parametrize("field", ["f2", "q", "f3"])
def test_profile_partition_is_the_normal_form_partition(field):
    """The benchmark's corpus-sweep check: equal keys exactly on equal braids, on each of its corpora."""
    for name, max_len in SWEEP_CORPORA:
        d = diagram_from_name(name)
        keys = profile_partition(ZigzagAlgebra(d, field_from_name(field)), max_len)
        normal_forms = {w: canonical_form(BraidWord(d, w)) for w in keys}
        assert acceptance._groups(keys) == acceptance._groups(normal_forms), (name, max_len)
