"""Recovering a positive braid word from its twist image.

Peeling one letter works like this: at the lowest degree m of the minimal
T, take the smallest summand label j0 of T^m.  It is a left divisor of the
hidden word; applying the inverse twist along j0 strips it.  Iterating until
what is left is isomorphic to the sum of all projectives recovers a word
equal to the original in the braid monoid, of the same length.

Why j0 is a left divisor.  The paper peels a vertex j admitting a long
morphism P_j -> T[m], a homology class killed by precomposition with every
neighbour arrow.  Every label j of T^m carries one: the loop l_j into a
P_j summand of T^m.  It is a cocycle (T is minimal, so every differential
entry out of P_j is a loop or an arrow, and both kill l_j), it is no
coboundary (T^{m-1} = 0), and l_j g_{k,j} = 0 for every neighbour k.  In a
sound algebra only P_j summands carry long morphisms (an arrow P_j -> P_l
composed with g_{l,j} is l's loop, which no coboundary at m cancels), so
j0 is also the smallest vertex a scan for long morphisms would pick.
tests/support.py keeps that scan as the reference.  No step builds a Hom
complex: twist_inv reads Hom(P_j0, T) straight off T's differential.

Why the loop ends.  Degree d of t_j^-1 T holds T^d plus one copy of P_j
per basis element of Hom^{d-1}(P_j, T).  T^{m-1} = 0, so nothing lands
below m, and degree m is T^m, where every summand labelled j cancels
against the copy of its loop slot.  minimize only removes summands.  So
each peel raises m or shrinks T^m by at least one: the pair (-m, |T^m|)
strictly falls, by how twist_inv is built, on any minimal input and in any
ZigzagAlgebra.  A nonempty word's image has m < 0, so the first component
stays positive and the loop is finite.

Inputs that are not twist images fail with NotTwistImage instead of
returning garbage, so this module doubles as a validator.  The word ends
when the minimal T is isomorphic to Lambda, which twists.iso_to_sum reads
off T's summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterator, Optional, Tuple

from .braid import BraidWord
from .complexes import ProjComplex, minimize, sum_of_projectives
from .twists import iso_to_sum, twist_inv


class NotTwistImage(Exception):
    """The complex is not (recognizably) the twist image of a positive word."""


def min_degree(t: ProjComplex) -> int:
    """Smallest k with Hom^k(Lambda, T) nonzero: the lowest summand degree of the minimal T."""
    return _lowest_degree(minimize(t))


def _lowest_degree(t: ProjComplex) -> int:
    """min_degree of a minimal T."""
    if t.is_zero():
        raise NotTwistImage("zero object has no extremal degree")
    return min(t.summands)


def peel(t: ProjComplex) -> Tuple[int, ProjComplex]:
    """One reconstruction step: the smallest label j0 of the minimal T's lowest degree, and t_j0^-1 T.

    The stripped complex is minimal.  The image of a nonempty word has
    strictly negative minimal degree, so anything else is rejected outright
    (the empty word is the caller's base case).
    """
    t = minimize(t)
    m = _lowest_degree(t)
    if m >= 0:
        raise NotTwistImage("minimal degree is non-negative: nothing to peel")
    j = min(t.summands[m])
    return j, twist_inv(j, t)


@dataclass(frozen=True)
class PeelStep:
    vertex: int
    min_degree: int


def _peel_log(t: ProjComplex) -> Iterator[PeelStep]:
    """The peel steps of T, each yielded as soon as it is made, until what is left is isomorphic to Lambda.

    Termination guard: a genuine image of a nonempty word has strictly
    negative minimal degree, and each peel strictly decreases the pair
    (-min degree, number of summands at the minimal degree)
    lexicographically (the module docstring says why).  Any violation marks
    the input as not a twist image, so the log is finite on arbitrary
    complexes.
    """
    lam = sum_of_projectives(t.algebra)
    current = minimize(t)
    previous: Optional[Tuple[int, int]] = None
    while not iso_to_sum(current, lam):
        m = _lowest_degree(current)
        potential = (-m, len(current.summands[m]))
        if previous is not None and potential >= previous:
            raise NotTwistImage("peeling failed to make progress")
        if m >= 0:
            raise NotTwistImage("minimal degree is non-negative but the object is not the projective sum")
        j, current = peel(current)
        yield PeelStep(j, m)
        previous = potential


def recover_trace(t: ProjComplex) -> Tuple[BraidWord, Tuple[PeelStep, ...]]:
    """recover_word plus the per-step peel log."""
    steps = tuple(_peel_log(t))
    return BraidWord(t.diagram, tuple(s.vertex for s in steps)), steps


def recover_word(t: ProjComplex) -> BraidWord:
    """The positive word whose twist image is T (up to monoid equality)."""
    return recover_trace(t)[0]


def isomorphic_images(t1: ProjComplex, t2: ProjComplex) -> bool:
    """Decide T1 = T2 up to isomorphism, for twist images of Lambda, by comparing their peel logs.

    T1 = T2 gives equal logs: each step (letter and minimal degree) is read
    off the minimal complex, which is unique up to isomorphism
    (Khovanov-Seidel 2002), and twist_inv is a functor.  Equal logs, of
    letters v, give T1 = t_v(Lambda) = T2, because each log ends only where
    iso_to_sum certifies Lambda.  So the cost is two peel logs walked side
    by side, each a strictly falling run of peels, and never an inverse
    chain along a word that may be wrong.  The walk stops at the first step
    where the logs differ, so unequal images cost only the peels of their
    common prefix and one more each.  When one log ends first, the other
    complex is still peeled to its end.  Raises NotTwistImage when a
    complex fails to recover before the logs part.
    """
    if t1.algebra != t2.algebra:
        raise ValueError("the complexes live over different algebras")
    logs = _peel_log(t1), _peel_log(t2)
    for s1, s2 in zip_longest(*logs):
        if s1 is None or s2 is None:
            # one complex is Lambda after a prefix of the other's log: the other must still recover
            for _ in logs[0] if s2 is None else logs[1]:
                pass
            return False
        if s1 != s2:
            return False
    return True
