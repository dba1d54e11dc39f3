"""Recovering a positive braid word from its twist image.

Peeling one letter works like this: at the minimal nonzero degree m of T,
look for a vertex j admitting a long morphism P_j -> T[m], i.e. a homology
class killed by precomposition with every neighbour arrow.  Such a j is a
left divisor of the hidden word; applying the inverse twist strips it.
Iterating until what is left is isomorphic to the sum of all projectives
recovers a word equal to the original in the braid monoid, of the same length.

Inputs that are not twist images fail with NotTwistImage instead of
returning garbage, so this module doubles as a validator.

One recovery step builds Hom(P_j, T) once for each vertex j, in a
HomComplexes map, and reads everything from it: the profile (and with it
the minimal degree and the termination potential) and the long-morphism
spaces of peel, for j and its neighbours alike, and the inverse twist that
strips the peeled letter.  profile, peel, long_morphism_dim and twist_inv
take the map wherever they take T, and read T from it.
The map is dropped when the step ends; only the small profile stays
memoized on T.  The word ends when the minimal T is isomorphic to Lambda,
which twists.iso_to_sum reads off T's summands with no Hom complex at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from . import linalg
from .braid import BraidWord
from .complexes import (
    HomComplexes,
    HomProfile,
    ProjComplex,
    minimize,
    profile,
    sum_of_projectives,
)
from .fields import Scalar
from .twists import iso_to_sum, twist_inv


class NotTwistImage(Exception):
    """The complex is not (recognizably) the twist image of a positive word."""


# a complex T, or the HomComplexes map of T that a recovery step holds
Subject = Union["ProjComplex", "HomComplexes"]


def _min_degree(prof: HomProfile) -> int:
    if not prof:
        raise NotTwistImage("zero object has no extremal degree")
    return min(d for (_, d) in prof)


def min_degree(t: ProjComplex) -> int:
    """Smallest k with Hom^k(Lambda, T) nonzero."""
    return _min_degree(profile(t))


def _long_space(j: int, homs: HomComplexes, r: int) -> Dict[Tuple[int, int], Scalar]:
    """Constraints cutting {f in Hom^r(P_j, T) : f cocycle, [f g_{k,j}] = 0 for all k} out of Hom^r.

    A sparse matrix with one column per basis element of Hom^r(P_j, T): the
    cocycle rows, then for each neighbour k the rows that make f g_{k,j} a
    coboundary.
    """
    alg = homs.complex.algebra
    k_field = alg.field
    labels = homs.complex.summands.get(r, ())
    vj = homs[j]
    rows = dict(vj.mats.get(r, {}))
    n = vj.dim(r + 1)
    for nb in alg.diagram.neighbors(j):
        vk = homs[nb]
        if vk.dim(r) == 0:
            continue
        (gamma,) = alg.hom_basis(nb, j)
        index = {item: i for i, item in enumerate(vk.basis[r])}
        pre: Dict[int, Dict[int, Scalar]] = {}  # f g_{k,j} in vk's basis: row -> {col: coefficient}
        for c, (s, slot) in enumerate(vj.basis[r]):
            lab = labels[s]
            image = alg.compose(nb, j, lab, alg.hom_basis(j, lab)[slot], gamma)
            if image is None:
                continue
            for slot2, coef in enumerate(alg.coordinates(nb, lab, image)):
                if coef:
                    pre.setdefault(index[(s, slot2)], {})[c] = coef
        bmat = vk.mats.get(r - 1)
        if bmat is None:
            annihilators = [{i: k_field.one} for i in pre]
        else:
            # never reached by peel: into a lowest summand a loop is a cocycle, not a coboundary
            transposed = {(c, i): a for (i, c), a in bmat.items()}
            annihilators = linalg.kernel_basis(k_field, transposed, vk.dim(r))
        for y in annihilators:
            for i, a in y.items():
                for c, b in pre.get(i, {}).items():
                    rows[(n, c)] = k_field.add(rows.get((n, c), k_field.zero), k_field.mul(a, b))
            n += 1
    return rows


def long_morphism_dim(j: int, t: Subject, r: int) -> int:
    """Dimension of the space of long-morphism classes P_j -> T[r]."""
    homs = HomComplexes.of(t)
    vj = homs[j]
    dim_r = vj.dim(r)
    if dim_r == 0:
        return 0
    return dim_r - linalg.rank(vj.field, _long_space(j, homs, r)) - vj.rank_at(r - 1)


def peel(t: Subject) -> Tuple[int, ProjComplex]:
    """One reconstruction step: find a peelable letter at the minimal degree.

    Ties break to the smallest vertex; the stripped complex is minimized.
    The image of a nonempty word has strictly negative minimal degree, so
    anything else is rejected outright (the empty word is the caller's base
    case).
    """
    homs = HomComplexes.of(t)
    t = homs.complex
    m = _min_degree(profile(homs))
    if m >= 0:
        raise NotTwistImage("minimal degree is non-negative: nothing to peel")
    for j in t.diagram.vertices:
        if long_morphism_dim(j, homs, m) > 0:
            return j, twist_inv(j, homs)
    raise NotTwistImage(f"no long morphism at the minimal degree {m}")


@dataclass(frozen=True)
class PeelStep:
    vertex: int
    min_degree: int


def recover_trace(t: ProjComplex) -> Tuple[BraidWord, Tuple[PeelStep, ...]]:
    """recover_word plus the per-step peel log.

    Termination guard: a genuine image of a nonempty word has strictly
    negative minimal degree, and each peel strictly decreases the pair
    (-min degree, dimension at the minimal degree) lexicographically, the
    first component staying positive.  Any violation marks the input as not
    a twist image, so the loop is finite on arbitrary complexes.
    """
    letters: List[int] = []
    steps: List[PeelStep] = []
    lam = sum_of_projectives(t.algebra)
    current = minimize(t)
    previous: Optional[Tuple[int, int]] = None
    while not iso_to_sum(current, lam):
        homs = HomComplexes(current)
        prof = profile(homs)
        m = _min_degree(prof)
        potential = (-m, sum(h for (_, k), h in prof.items() if k == m))
        if previous is not None and potential >= previous:
            raise NotTwistImage("peeling failed to make progress")
        if m >= 0:
            raise NotTwistImage("minimal degree is non-negative but the object is not the projective sum")
        j, current = peel(homs)
        letters.append(j)
        steps.append(PeelStep(j, m))
        if not current.summands:
            raise NotTwistImage("peeling failed to make progress")
        previous = potential
    return BraidWord(t.diagram, tuple(letters)), tuple(steps)


def recover_word(t: ProjComplex) -> BraidWord:
    """The positive word whose twist image is T (up to monoid equality)."""
    return recover_trace(t)[0]

