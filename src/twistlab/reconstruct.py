"""Recovering a positive braid word from its twist image.

Peeling one letter works like this: at the minimal nonzero degree m of T,
look for a vertex j admitting a long morphism P_j -> T[m], i.e. a homology
class killed by precomposition with every neighbour arrow.  Such a j is a
left divisor of the hidden word; applying the inverse twist strips it.
Iterating until what is left is isomorphic to the sum of all projectives
recovers a word equal to the original in the braid monoid, of the same length.

Every label j of T^m carries a long morphism: the loop l_j into a P_j
summand of T^m.  It is a cocycle (T is minimal, so every differential
entry out of P_j is a loop or an arrow, and both kill l_j), it is no
coboundary (T^{m-1} = 0), and l_j g_{k,j} = 0 for every neighbour k.  Only
compositions that corrupt_compose leaves alone enter, so this holds in
every ZigzagAlgebra.  Ties break to the smallest vertex with a long
morphism, so with j0 the smallest label of T^m a peel probes only the
vertices below j0, in ascending order, and takes j0 when none of them has
one: the letter that a scan of every vertex would pick.  In a sound algebra
those probes always miss (an arrow P_j -> P_l composed with g_{l,j} is l's
loop, which no coboundary at m cancels, so only P_j summands carry long
morphisms); with corrupt_compose, which drops that product, a vertex below
j0 can win.

Inputs that are not twist images fail with NotTwistImage instead of
returning garbage, so this module doubles as a validator.

A recovery step reads only the two lowest degrees of the minimal T.  Its
minimal degree m is T's lowest summand degree, since the loop l_j into a
summand P_j of T^m is a nonzero class, as above.  The step builds the
Hom complexes of the brutal truncation sigma_{<=m+1} T, degrees m and m+1
with the differential between them, in a HomComplexes map, each on first
use.  H^m and the long-morphism spaces at m read nothing else, so the map
gives the termination potential and peel's long morphisms, for j and its
neighbours alike.  The one full Hom complex of a step, Hom(P_j, T) for
the peeled letter j, is built inside twist_inv.  The word ends when the
minimal T is isomorphic to Lambda, which twists.iso_to_sum reads off T's
summands with no Hom complex at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from . import linalg
from .braid import BraidWord
from .complexes import (
    HomComplexes,
    ProjComplex,
    make_complex,
    minimize,
    sum_of_projectives,
)
from .fields import Scalar
from .twists import iso_to_sum, twist_inv


class NotTwistImage(Exception):
    """The complex is not (recognizably) the twist image of a positive word."""


# a complex T, or a HomComplexes map (a recovery step holds the one of T's two lowest degrees)
Subject = Union["ProjComplex", "HomComplexes"]


def min_degree(t: ProjComplex) -> int:
    """Smallest k with Hom^k(Lambda, T) nonzero: the lowest summand degree of the minimal T."""
    return bottom(minimize(t))[0]


def bottom(t: ProjComplex) -> Tuple[int, HomComplexes]:
    """For a minimal T: its minimal degree m and the HomComplexes map of the brutal truncation sigma_{<=m+1} T."""
    if t.is_zero():
        raise NotTwistImage("zero object has no extremal degree")
    m = min(t.summands)
    kept = {d: t.summands[d] for d in (m, m + 1) if d in t.summands}
    return m, HomComplexes(make_complex(t.algebra, kept, {m: t.diffs.get(m, {})}))


def _long_space(j: int, homs: HomComplexes, r: int) -> Dict[Tuple[int, int], Scalar]:
    """Constraints cutting {f in Hom^r(P_j, T) : f cocycle, [f g_{k,j}] = 0 for all k} out of Hom^r.

    A sparse matrix with one column per basis element of Hom^r(P_j, T): the
    cocycle rows, then for each neighbour k the rows that make f g_{k,j} a
    coboundary.  The basis morphism of summand s at slot, column
    offsets[r][s] + slot of Hom(P_j, T), composed with g_{k,j} is the one at
    offsets[r][s] + slot2 of Hom(P_k, T), slot2 read off the Hom table's
    precomposition rule.
    """
    alg = homs.complex.algebra
    k_field = alg.field
    labels = homs.complex.summands.get(r, ())
    table = alg.hom_table(j)
    one = k_field.one
    vj = homs[j]
    vj_offs = vj.offsets[r]
    rows = dict(vj.mats.get(r, {}))
    n = vj.dim(r + 1)
    for nb in alg.diagram.neighbors(j):
        vk = homs[nb]
        vk_offs = vk.offsets.get(r)
        if vk_offs is None:
            continue
        # f g_{k,j} in vk's basis, read off the Hom table: row -> {col: coefficient}
        pre: Dict[int, Dict[int, Scalar]] = {}
        for s, lab in enumerate(labels):
            offk, offj = vk_offs[s], vj_offs[s]
            for slot, slot2 in table.precomposition(nb, lab).items():
                pre.setdefault(offk + slot2, {})[offj + slot] = one
        bmat = vk.mats.get(r - 1)
        if bmat is None:
            annihilators = [{i: one} for i in pre]
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


def peel(t: ProjComplex, at: Optional[Tuple[int, HomComplexes]] = None) -> Tuple[int, ProjComplex]:
    """One reconstruction step: find a peelable letter at the minimal degree.

    at is bottom(t) for a minimal t, when the caller holds it already.  Ties
    break to the smallest vertex with a long morphism P_j -> T[m]; the
    stripped complex is minimized.  The smallest label j0 of T^m has one
    (the loop into its summand, see the module docstring), so only the
    vertices below j0 are probed, in ascending order, and j0 is the letter
    when none of them has one.  The image of a nonempty word has strictly
    negative minimal degree, so anything else is rejected outright (the
    empty word is the caller's base case).
    """
    if at is None:
        t = minimize(t)
        at = bottom(t)
    m, homs = at
    if m >= 0:
        raise NotTwistImage("minimal degree is non-negative: nothing to peel")
    j0 = min(t.summands[m])
    vertices = t.diagram.vertices
    j = next((j for j in vertices[: vertices.index(j0)] if long_morphism_dim(j, homs, m) > 0), j0)
    return j, twist_inv(j, t)


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
        m, homs = at = bottom(current)
        potential = (-m, sum(homs[j].homology_dims().get(m, 0) for j in current.diagram.vertices))
        if previous is not None and potential >= previous:
            raise NotTwistImage("peeling failed to make progress")
        if m >= 0:
            raise NotTwistImage("minimal degree is non-negative but the object is not the projective sum")
        j, current = peel(current, at)
        letters.append(j)
        steps.append(PeelStep(j, m))
        if not current.summands:
            raise NotTwistImage("peeling failed to make progress")
        previous = potential
    return BraidWord(t.diagram, tuple(letters)), tuple(steps)


def recover_word(t: ProjComplex) -> BraidWord:
    """The positive word whose twist image is T (up to monoid equality)."""
    return recover_trace(t)[0]

