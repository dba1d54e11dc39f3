"""Spherical twist functors on complexes of projectives, and two-term calculus.

The twist along P_i is computed at the cochain level: tensor the two-term
bimodule complex with X, i.e. build one copy of P_i per basis element of the
Hom complex Hom(P_i, X), map it to X by evaluation, take the cone, minimize.
The inverse twist dualizes: copies of P_i indexed by the same basis land one
degree higher, and X maps into them by the trace-pairing dual basis
(coevaluation).  Both functors minimize their output, so repeated twisting
stays small.  The complexes and two-term connecting maps built here hold
nonzero entries only, in the sparse Matrix format of complexes, and every
entry comes from the algebra: the Hom complex's basis element at position
offsets[d][s] + slot (as in complexes.HomComplex), slot slot of summand s
labelled l, is evaluated by hom_basis(i, l)[slot] and coevaluated by
dual_basis(i, l)[slot], both read from the algebra's Hom table of i
(zigzag.HomTable), not rebuilt per slot.  Positions are computed from the
offsets that the table numbers (HomTable.offsets), never looked up.
Neither functor builds the Hom complex: the scalar a that its
differential holds at (offsets[d+1][r] + slot2, offsets[d][c] + slot) is
g[k] for X's entry g at (r, c) and a triple (slot, slot2, k) of the
Hom-table rule for g's labels.  These nonzero cells (slot, slot2, g[k])
depend on g and its labels alone, so each functor reads them from the Hom
table's memo (HomTable.record), worked out once per distinct entry, in
the pass over X's differential that writes its cone, with the entry -a
times the identity that each cell gives the copies of P_i.  JSON views
are the only dense form.

twist writes the cone of evaluation straight into the row and column
indexes of the elimination core, complexes.eliminate: one pass per degree
of X numbers the Hom basis, lays out the cone's labels and writes the
evaluation entries, then one pass over X's differential writes the rest.
Degree d holds the copies for the basis of Hom^{d+1}, then X^d.  Its
entries are -a times the identity between copies, the basis morphism from
each copy to its summand, and X's own differential, each indexed at the
(row, col) position that cone() gives it.  The units among them seed the
core's pivots: every entry of X between equal labels is asked whether it
is a unit, the evaluation entries of basis[i] once per twist, and -a times
the identity always is one.  No source complex, no chain map and no cone
complex are built, and nothing is indexed twice.  The check that cone()
makes runs in the same pass.  It makes the checks of ChainMap.is_valid:
every evaluation entry is a basis entry of the Hom table, and the table
types each of those once, when it is built (a mistyped one raises
ValueError there); and ev_{d+1} o d_src = d_X o ev_d, whose cells
(r, offsets[d][c] + slot) depend on X's entry g at (r, c) and its labels
alone.  So the check is composed once per distinct entry that the memo
holds (past its cap, once per occurrence), with its cells, and the memo
keeps the verdict: a failing one raises cone()'s ValueError on every call
that meets that entry.  cone() itself stays the checked entry point for
chain maps from outside (see complexes.py), and tests/test_twists.py
checks twist entry for entry against minimize(cone()) of evaluation built
as a ChainMap.

twist_inv writes its cone into the core's indexes too, in the cone's own
positions: degree d holds X^d, then the copies for the basis of
Hom^{d-1}, summand s's slot at len(X^d) + offsets[d-1][s] + slot, as
tests/support.py's reference_twist_inv places them.  It cancels its
predictable pivots before the core sees them.  Each summand s of X^d
labelled i has two slots, the identity (slot 0) and the loop (slot 1),
and the dual of the loop slot is the identity: s maps to its loop slot's
copy by a unit.  These pairs form an identity block, since no matched
pivot's row or column meets another: the loop slot's copy of s gets an
entry from X^d at s alone, and s sends entries to its own two copies
alone.  So eliminating them all is one Schur-complement step D' = D - C B
with no inverse, C the other entries of the pivot columns and B those of
the pivot rows, and it equals the pivot-by-pivot elimination in exact
arithmetic.  A pair is read off the slot, since only a summand labelled i
has a slot 1.  twist_inv writes no entry into or out of either member,
writes D' - D in their place, leaving out every cell whose terms cancel,
and hands both positions to eliminate, whose readback drops them with the
summands its own pivots remove.  Removing positions never reorders the
ones that stay, so the core pops the same pivots, and on minimal
complexes the output matches, entry for entry, that of minimizing the
whole unreduced complex: tests/test_twists.py checks it against such a
reference and pins a digest of a corpus of outputs.

The concrete model is the omega = 0 one: all Hom spaces between
projectives are concentrated in degree 0, so no twist carries a shift.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from .braid import BraidWord
from .complexes import (
    Index,
    Matrix,
    ProjComplex,
    eliminate,
    hom_dims,
    make_complex,
    matrix_to_json_obj,
    minimize,
    shift,
)
from .zigzag import Entry, ZigzagAlgebra


def twist(i: int, x: ProjComplex) -> ProjComplex:
    """t_i(X): the cone of evaluation P_i (x) Hom(P_i, X) -> X, checked, indexed for elimination and minimized.

    Each entry sits where cone() would put it (see the module docstring):
    the basis morphism basis[l][slot] from the copy at offsets[s] + slot to
    its summand s, labelled l, X's own differential, and, for each entry g
    of it and each triple (slot, slot2, k) of its Hom-table rule with g[k]
    nonzero, -g[k] times the identity between copies, read with the check's
    verdict from the memo record of g (HomTable.record).
    """
    alg = x.algebra
    table = alg.hom_table(i)
    basis, memo = table.basis, table.memo
    is_unit = alg.is_unit
    xs = x.summands
    # the slots of basis[i] whose evaluation entry, an endomorphism of P_i, is a unit
    unit_slots = [slot for slot, e in enumerate(basis[i]) if is_unit(i, i, e)]
    # one pass per degree d of X, top down, so that dim(d + 1) is known:
    # offsets[d] numbers Hom^d (HomTable.offsets), degree d of the cone holds
    # dim(d + 1) copies, then X^d, and degree d - 1 holds the copies for
    # Hom^d, each column holding one evaluation entry, written first
    offsets: Dict[int, list] = {}
    dim: Dict[int, int] = {}
    labels: Dict[int, Tuple[int, ...]] = {}
    # degree d: rows are the copies for Hom^{d+2}, then X^{d+1}; columns the copies for Hom^{d+1}, then X^d
    by_row: Dict[int, Index] = {}
    by_col: Dict[int, Index] = {}
    units = []
    for d in sorted(xs, reverse=True):
        labs = xs[d]
        row_x = dim.get(d + 1, 0)
        labels[d] = (i,) * row_x + labs
        by_row.setdefault(d, {})
        by_col.setdefault(d, {})
        offs = table.offsets(labs)
        if not offs[-1]:
            continue
        offsets[d] = offs
        dim[d] = offs[-1]
        if d - 1 not in xs:
            labels[d - 1] = (i,) * offs[-1]
        rr = by_row[d - 1] = {}
        cc = by_col[d - 1] = {}
        for s, lab in enumerate(labs):
            n, r = offs[s], row_x + s
            row = rr[r] = {}
            for slot, e in enumerate(basis[lab]):
                row[n + slot] = e
                cc[n + slot] = {r: e}
            if lab == i:
                for slot in unit_slots:
                    units.append((d - 1, r, n + slot))
    for d, mat in x.diffs.items():
        rows, cols = xs[d + 1], xs[d]
        row_x, col_x = dim.get(d + 2, 0), dim.get(d + 1, 0)
        rr, cc, below_r, below_c = by_row[d], by_col[d], by_row.get(d - 1), by_col.get(d - 1)
        col0, row0 = offsets.get(d), offsets.get(d + 1)
        for (r, c), g in mat.items():
            lr, lc = rows[r], cols[c]
            at_r, at_c = row_x + r, col_x + c
            rr.setdefault(at_r, {})[at_c] = cc.setdefault(at_c, {})[at_r] = g
            if lr == lc and is_unit(lc, lr, g):
                units.append((d, at_r, at_c))
            if not basis[lc]:
                continue
            # the copies of c map to those of r in degree d - 1 by -a times the
            # identity, a unit, for each cell a of g's block of Hom(P_i, X)'s
            # differential; the chain-map check's cells (r, col0[c] + slot) are
            # g's alone, so its verdict is the memo's for g (HomTable.record)
            _, ok, cone = memo.get((lc, lr, g)) or table.record(lc, lr, g)
            if not ok:
                raise ValueError("cone of an invalid chain map")
            for slot, slot2, m in cone:
                at_r, at_c = row0[r] + slot2, col0[c] + slot
                below_r.setdefault(at_r, {})[at_c] = below_c.setdefault(at_c, {})[at_r] = m
                units.append((d - 1, at_r, at_c))
    return eliminate(alg, labels, by_row, by_col, units)


def twist_inv(i: int, x: ProjComplex) -> ProjComplex:
    """Quasi-inverse twist, built from the trace-pairing dual basis, its identity pivots cancelled in bulk.

    Degree d holds X^d, then the copies of P_i for Hom^{d-1}, the copy of
    summand s's slot at len(X^d) + offsets[d-1][s] + slot, as in the cone.
    The differential sends X^d to X^{d+1} by X's own, each summand s to
    its copies by dual slots, and copies to copies by minus the Hom
    complex's differential, read off X's (see the module docstring).  A
    summand s labelled i and its loop slot's copy cancel, and neither is
    written: a copy column whose scalar in the row of that copy is a picks
    up a times X's differential out of s in each row of X, and a times the
    loop in the row of the copy of s's slot 0.  eliminate drops both
    positions with those its own pivots remove.
    """
    alg = x.algebra
    table = alg.hom_table(i)
    dual, memo = table.dual, table.memo
    times, plus, is_unit = alg.times, alg.plus, alg.is_unit
    loop = dual[i][0]
    xs = x.summands
    # one pass per degree d of X, bottom up, so that dim(d - 1) is known:
    # offsets[d] numbers Hom^d, degree d of the cone holds X^d, then the
    # copies for Hom^{d-1}, and each summand of X^d not labelled i maps to
    # its copies, never between equal labels
    offsets: Dict[int, list] = {}
    dim: Dict[int, int] = {}
    labels: Dict[int, Tuple[int, ...]] = {}
    by_row: Dict[int, Index] = defaultdict(dict)
    by_col: Dict[int, Index] = defaultdict(dict)
    dropped: Dict[int, set] = defaultdict(set)
    units = []
    for d in sorted(xs):
        labs = xs[d]
        labels[d] = labs + (i,) * dim.get(d - 1, 0)
        offs = table.offsets(labs)
        if not offs[-1]:
            continue
        offsets[d] = offs
        dim[d] = offs[-1]
        if d + 1 not in xs:
            labels[d + 1] = (i,) * offs[-1]
        row_x = len(xs.get(d + 1, ()))
        rr, cc = by_row[d], by_col[d]
        for s, lab in enumerate(labs):
            n = row_x + offs[s]
            if lab == i:
                dropped[d].add(s)
                dropped[d + 1].add(n + 1)
                continue
            col = cc[s] = {}
            for slot, e in enumerate(dual[lab]):
                rr[n + slot] = {s: e}
                col[n + slot] = e
    # X's differential, top down, so that its entries out of X^{d+1}, kept
    # by column in out_of, are known when the copy cells of degree d + 1
    # need them; entries into or out of a summand labelled i are not written
    out_of: Dict[int, list] = {}
    for d in sorted(x.diffs, reverse=True):
        rows, cols = xs[d + 1], xs[d]
        rr, cc = by_row[d], by_col[d]
        above = out_of if d + 1 in x.diffs else {}
        out_of = {}
        col_x, row_x = len(rows), len(xs.get(d + 2, ()))
        col0, row0 = offsets.get(d), offsets.get(d + 1)
        # the copy cells of degree d + 1 sum several terms, so they are added
        # up first and only the cells that do not cancel are written; the
        # scalar a of Hom(P_i, X)'s differential and its copy entry -a times
        # the identity are read off the memo record of the X entry g that owns it
        acc: Dict[Tuple[int, int], Optional[Entry]] = {}
        for (r, c), g in x.diffs[d].items():
            lr, lc = rows[r], cols[c]
            if lc == i:
                if lr != i:
                    out_of.setdefault(c, []).append((r, g))
            elif lr != i:
                rr.setdefault(r, {})[c] = cc.setdefault(c, {})[r] = g
                if lr == lc and is_unit(lc, lr, g):
                    units.append((d, r, c))
            if not table[lc, lr]:
                continue
            cells, _, cone = memo.get((lc, lr, g)) or table.record(lc, lr, g)
            # slot 1 is the loop slot, which only a summand labelled i has
            for (slot, slot2, a), (_, _, m) in zip(cells, cone):
                if slot == 1:
                    continue
                at_r, at_c = row_x + row0[r] + slot2, col_x + col0[c] + slot
                if slot2 == 1:
                    for r2, e in above.get(r, ()):
                        acc[r2, at_c] = plus(acc.get((r2, at_c)), times(a, e))
                    at_r -= 1
                    acc[at_r, at_c] = plus(acc.get((at_r, at_c)), times(a, loop))
                else:
                    acc[at_r, at_c] = plus(acc.get((at_r, at_c)), m)
        rr, cc = by_row[d + 1], by_col[d + 1]
        for (r, c), m in acc.items():
            if m is not None:
                rr.setdefault(r, {})[c] = cc.setdefault(c, {})[r] = m
                # copy rows are labelled i, as copy columns are
                if r >= row_x and is_unit(i, i, m):
                    units.append((d + 1, r, c))
    return eliminate(alg, labels, by_row, by_col, units, dropped)


def twist_word(w: BraidWord, x: ProjComplex) -> ProjComplex:
    """Apply t_{i_1} o ... o t_{i_k} for w = s_{i_1} ... s_{i_k} (rightmost first)."""
    if w.diagram != x.diagram:
        raise ValueError("word and complex live over different diagrams")
    out = x
    for letter in reversed(w.letters):
        out = twist(letter, out)
    return out


def twist_inv_word(w: BraidWord, x: ProjComplex) -> ProjComplex:
    """Inverse of twist_word(w, -): apply the inverse twists leftmost first."""
    if w.diagram != x.diagram:
        raise ValueError("word and complex live over different diagrams")
    out = x
    for letter in w.letters:
        out = twist_inv(letter, out)
    return out


# -- isomorphism ---------------------------------------------------------------


def iso_to_sum(m: ProjComplex, base: ProjComplex) -> bool:
    """Decide m = base up to isomorphism, for a minimal m and a sum of projectives base in a single degree.

    Minimal complexes are unique up to isomorphism (Khovanov-Seidel 2002),
    so m must hold base's summands in base's degree.
    """
    if len(base.summands) != 1 or m.algebra != base.algebra:
        raise ValueError("the base must be a sum of projectives in a single degree, over the same algebra")
    ((d, labels),) = base.summands.items()
    return len(m.summands) == 1 and sorted(m.summands.get(d, ())) == sorted(labels)


def is_twist_image(t: ProjComplex, w: BraidWord, base: ProjComplex) -> bool:
    """Decide t = t_w(base) for a given word w: exactly when the minimized t_w^-1(t) is base.

    The cost is an inverse chain along w, which is cheap when w is t's word
    and can grow without bound when it is not.  So it serves where the word
    is known to be right, or where base is not Lambda; images of Lambda
    under words not known to be equal are compared by their peel sequences
    (reconstruct.isomorphic_images).  Both routes end in iso_to_sum.
    """
    return iso_to_sum(minimize(twist_inv_word(w, t)), base)


# -- two-term objects --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TwoTermObject:
    """Cone data of a map from color-u projectives to color-(u+1) projectives.

    left_order / right_order list the summands (sorted by vertex); phi is the
    connecting matrix (rows indexed by right summands), with arrow-only
    entries since the two sides have opposite colors.  The object is frozen,
    and phi is not to be changed either; _proper is the memo of _is_proper,
    colour -> verdict.
    """

    algebra: ZigzagAlgebra
    side: int
    left_order: Tuple[int, ...]
    right_order: Tuple[int, ...]
    phi: Matrix
    _proper: Dict[int, bool] = dataclasses.field(default_factory=dict, init=False, repr=False)

    @property
    def left(self) -> Dict[int, int]:
        return dict(Counter(self.left_order))

    @property
    def right(self) -> Dict[int, int]:
        return dict(Counter(self.right_order))

    def lsupp(self) -> frozenset[int]:
        return frozenset(self.left_order)

    def rsupp(self) -> frozenset[int]:
        return frozenset(self.right_order)

    def assemble(self) -> ProjComplex:
        """The underlying complex: left summands in degree -1, right in degree 0."""
        return make_complex(self.algebra, {-1: self.left_order, 0: self.right_order}, {-1: self.phi})

    def to_json_obj(self) -> dict:
        return {
            "side": self.side,
            "left": {str(j): m for j, m in sorted(self.left.items())},
            "right": {str(j): m for j, m in sorted(self.right.items())},
            "phi": matrix_to_json_obj(self.algebra, self.phi, self.right_order, self.left_order),
        }


def two_term_of(x: ProjComplex) -> Optional[TwoTermObject]:
    """Read a minimized complex as a two-term object, if it is one.

    Requires concentration in degrees {-1, 0} with uniform colors: degree -1
    of color u, degree 0 of color u+1.  Single-color stalks qualify with the
    missing side empty.
    """
    alg = x.algebra
    d = alg.diagram
    degs = set(x.degrees())
    if not degs <= {-1, 0}:
        return None
    lefts = x.summands.get(-1, ())
    rights = x.summands.get(0, ())
    left_colors = {d.color(j) for j in lefts}
    right_colors = {d.color(j) for j in rights}
    if len(left_colors) > 1 or len(right_colors) > 1:
        return None
    if lefts and rights:
        u = left_colors.pop()
        if right_colors.pop() != (u + 1) % 2:
            return None
    elif rights:
        u = (right_colors.pop() + 1) % 2
    elif lefts:
        u = left_colors.pop()
    else:
        u = 0
    left_perm = sorted(range(len(lefts)), key=lambda c: (lefts[c], c))
    right_perm = sorted(range(len(rights)), key=lambda r: (rights[r], r))
    # phi's row n is the differential's row right_perm[n], and so on for columns
    row_at = {r: n for n, r in enumerate(right_perm)}
    col_at = {c: n for n, c in enumerate(left_perm)}
    phi = {(row_at[r], col_at[c]): m for (r, c), m in x.diffs.get(-1, {}).items()}
    return TwoTermObject(
        alg,
        u,
        tuple(lefts[c] for c in left_perm),
        tuple(rights[r] for r in right_perm),
        phi,
    )


def _is_proper(tt: TwoTermObject, color: int) -> bool:
    """For each vertex l of the given colour, dim Hom*(P_l, X) = the sum of the other side's multiplicities at l's neighbours.

    The other side is the one not of that colour: the right side for the
    left side's colour, and the left side for the right side's.  Decided
    once per colour and kept on tt.
    """
    verdict = tt._proper.get(color)
    if verdict is None:
        d = tt.algebra.diagram
        x = tt.assemble()
        other = tt.right if color == tt.side else tt.left
        verdict = tt._proper[color] = all(
            sum(hom_dims(l, x).values()) == sum(other.get(k, 0) for k in d.neighbors(l))
            for l in d.vertices
            if d.color(l) == color
        )
    return verdict


def is_right_proper(tt: TwoTermObject) -> bool:
    """No right summand splits off: for each l of the right side's colour, dim Hom*(P_l, X) = sum of neighbour left mults.

    Hom*(P_l, X) is hom_dims(l, X).  Criterion 7 checks this against the
    definition, independent rows of phi into each label, on every candidate.
    """
    return _is_proper(tt, (tt.side + 1) % 2)


def is_left_proper(tt: TwoTermObject) -> bool:
    """No left summand splits off: for each l of the left side's colour, dim Hom*(P_l, X) = sum of neighbour right mults.

    Hom*(P_l, X) is hom_dims(l, X).  Criterion 7 checks this against the
    definition, independent columns of phi out of each label, on every candidate.
    """
    return _is_proper(tt, tt.side)


def two_term_reflect(tt: TwoTermObject, delta: Iterable[int]) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Predicted (left, right) multiplicities of the reflected object t_Delta^{+/-} X, zeros left out.

    Delta of color side+1 reflects a right-proper object forward (t^+);
    Delta of color side reflects a left-proper object backward (t^-).  The
    reflection replaces the side of Delta's colour: its new multiplicity at
    k in Delta is the sum of the other side's multiplicities at the
    neighbours of k minus its old one at k.  The shift then swaps the
    sides, so forward gives (new, old left) and backward (old right, new).
    """
    d = tt.algebra.diagram
    delta = frozenset(delta)
    if not delta:
        raise ValueError("empty reflection set")
    colors = {d.color(j) for j in delta}
    if len(colors) != 1:
        raise ValueError("reflection set must be single-colored")
    (color,) = colors
    forward = color != tt.side
    side, other, old = ("right", tt.left, tt.right) if forward else ("left", tt.right, tt.left)
    if not _is_proper(tt, color):
        raise ValueError(f"object is not {side}-proper")
    if not old.keys() <= delta:
        raise ValueError(f"{side[0]}supp must be contained in the reflection set")
    new = {}
    for k in sorted(delta):
        m = sum(other.get(j, 0) for j in d.neighbors(k)) - old.get(k, 0)
        if m < 0:
            raise ValueError("negative predicted multiplicity (properness violated)")
        if m:
            new[k] = m
    return (new, other) if forward else (other, new)


def reflect(x: ProjComplex, delta: Iterable[int], forward: bool) -> ProjComplex:
    """Forward t_Delta^+ X = (prod of twists over Delta)(X)[-1], else t_Delta^- X = (prod of inverse twists)(X)[1], minimized.

    The product applies Delta's letters in ascending order.
    """
    step = twist if forward else twist_inv
    for k in sorted(set(delta)):
        x = step(k, x)
    return minimize(shift(x, -1 if forward else 1))
