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
offsets[d][s] + slot, slot slot of summand s labelled l, is evaluated by
hom_basis(i, l)[slot] and coevaluated by dual_basis(i, l)[slot], both read
from the algebra's Hom table of i (zigzag.HomTable), not rebuilt per slot.
Positions are computed from the offsets, never looked up; only the
chain-map check, which must know the summand that owns a position, lists
the owners of one degree.  The Hom complex's scalar matrices are sparse
too, so the copies of P_i get a differential entry scalar(a), a times the
identity, for each nonzero scalar a, read straight from its entries.  JSON
views are the only dense form.  Each functor builds the one Hom complex
Hom(P_i, X) it needs.

twist writes the cone of evaluation straight into the row and column
indexes of the elimination core, complexes.eliminate.  Degree d holds the
copies for the basis of Hom^{d+1}, then X^d.  Its entries are -a times the
identity between copies, the basis morphism from each copy to its summand,
and X's own differential, each indexed at the (row, col) position that
cone() gives it.  Every entry between equal labels is asked whether it is
a unit, and the units seed the core's pivots.  No source complex, no chain
map and no cone complex are built, and nothing is indexed twice.  The check
that cone() makes still runs, in _check_evaluation, before the cone is
written.  It makes the checks of ChainMap.is_valid: every evaluation entry
is a basis entry of the Hom table, and the table types each of those once,
when it is built (a mistyped one raises ValueError there); and in each
degree d, ev_{d+1} o d_src = d_X o ev_d is composed entry by entry.  A
failure raises cone()'s ValueError.  cone() itself stays the checked entry
point for chain maps from outside (see complexes.py), and
tests/test_twists.py checks twist entry for entry against minimize(cone())
of evaluation built as a ChainMap.

The inverse twist cancels its predictable pivots before the core sees
them.  Each summand s of X^d labelled i has two slots, the identity
(slot 0) and the loop (slot 1), and the dual of the loop slot is the
identity: s maps to its loop slot's copy by a unit.  These pairs form an
identity block, since no matched pivot's row or column meets another:
the loop slot's copy of s gets an entry from X^d at s alone, and s sends
entries to its own two copies alone.  So eliminating them all is one
Schur-complement step D' = D - C B with no inverse, C the other entries
of the pivot columns and B those of the pivot rows, and it equals the
pivot-by-pivot elimination in exact arithmetic.  twist_inv writes that
reduced complex, without the summands labelled i or their loop copies,
into the core's indexes as twist does, leaving out every cell whose terms
cancel, and the core eliminates the rest.  Summands that stay keep their
order, so on minimal complexes the output matches, entry for entry, that of
minimizing the whole unreduced complex: tests/test_twists.py checks it
against such a reference and pins a digest of a corpus of outputs.

The concrete model is the omega = 0 one: all Hom spaces between
projectives are concentrated in degree 0, so no twist carries a shift.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from .braid import BraidWord
from .complexes import (
    HomComplex,
    Index,
    Matrix,
    ProjComplex,
    eliminate,
    hom_complex,
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
    -a times the identity between copies for each scalar a of hc, the
    basis morphism basis[l][slot] from the copy at offsets[s] + slot to
    its summand s, labelled l, and X's own differential.  Every entry
    between equal labels is asked whether it is a unit.
    """
    alg = x.algebra
    hc = hom_complex(i, x)
    basis = alg.hom_table(i).basis
    _check_evaluation(i, x, hc, basis)
    is_unit, neg, scalar = alg.is_unit, alg.field.neg, alg.scalar
    xs = x.summands
    labels = {d: (i,) * hc.dim(d + 1) + xs.get(d, ()) for d in set(xs) | {d - 1 for d in hc.offsets}}
    by_row: Dict[int, Index] = {}
    by_col: Dict[int, Index] = {}
    units = []
    for d in labels:
        # rows: the copies for Hom^{d+2}, then X^{d+1}; columns: the copies for Hom^{d+1}, then X^d
        row_x, col_x = hc.dim(d + 2), hc.dim(d + 1)
        rr: Index = {}
        cc: Index = {}
        if col_x:
            # each copy column holds one evaluation entry, written first
            offs = hc.offsets[d + 1]
            for s, lab in enumerate(xs[d + 1]):
                n, r = offs[s], row_x + s
                row = rr[r] = {}
                for slot, e in enumerate(basis[lab]):
                    row[n + slot] = e
                    cc[n + slot] = {r: e}
                    if lab == i and is_unit(i, i, e):
                        units.append((d, r, n + slot))
            for (r, c), a in hc.mats.get(d + 1, {}).items():
                m = rr.setdefault(r, {})[c] = cc[c][r] = scalar(neg(a))
                if is_unit(i, i, m):
                    units.append((d, r, c))
        mat = x.diffs.get(d)
        if mat:
            rows, cols = xs[d + 1], xs[d]
            for (r, c), g in mat.items():
                rr.setdefault(row_x + r, {})[col_x + c] = cc.setdefault(col_x + c, {})[row_x + r] = g
                if rows[r] == cols[c] and is_unit(cols[c], rows[r], g):
                    units.append((d, row_x + r, col_x + c))
        by_row[d], by_col[d] = rr, cc
    return eliminate(alg, labels, by_row, by_col, units)


def _check_evaluation(i: int, x: ProjComplex, hc: HomComplex, basis: Dict[int, Tuple[Entry, ...]]) -> None:
    """Raise ValueError, as cone() does, unless evaluation P_i (x) Hom(P_i, X) -> X is a chain map.

    The checks are those of ChainMap.is_valid.  Every evaluation entry is
    a basis entry of the Hom table, which typed each of them once, when it
    was built.  So what is left is, per degree d of the Hom complex, that
    ev_{d+1} o d_src - d_X o ev_d vanish, summed from compositions of
    nonzero entries.
    """
    alg = x.algebra
    compose, plus, times, scalar = alg.compose, alg.plus, alg.times, alg.scalar
    neg_one = alg.field.neg(alg.field.one)
    for d, offs in hc.offsets.items():
        acc: Dict[Tuple[int, int], Optional[Entry]] = {}
        labels_above = x.summands.get(d + 1, ())
        mat = hc.mats.get(d)
        if mat:
            # ev_{d+1} o d_src: the copy k above belongs to summand s, which it evaluates into
            above = hc.offsets[d + 1]
            owner = [s for s, n in enumerate(above[1:]) for _ in range(n - above[s])]
            for (k, c), a in mat.items():
                s = owner[k]
                lab = labels_above[s]
                term = compose(i, i, lab, basis[lab][k - above[s]], scalar(a))
                if term is not None:
                    acc[(s, c)] = plus(acc.get((s, c)), term)
        # -d_X o ev_d: each entry of X's differential out of s meets the copies of s
        labels = x.summands[d]
        for (r, s), g in x.diffs.get(d, {}).items():
            lab, n = labels[s], offs[s]
            for slot, e in enumerate(basis[lab]):
                term = compose(i, lab, labels_above[r], g, e)
                if term is not None:
                    c = n + slot
                    acc[(r, c)] = plus(acc.get((r, c)), times(neg_one, term))
        if any(m is not None for m in acc.values()):
            raise ValueError("cone of an invalid chain map")


def twist_inv(i: int, x: ProjComplex) -> ProjComplex:
    """Quasi-inverse twist, built from the trace-pairing dual basis, its identity pivots cancelled in bulk.

    Degree d holds X^d then the copies of P_i for Hom^{d-1}; the
    differential sends X^d to X^{d+1} by X's own, each summand s to its
    copies, at offsets[s] + slot, by dual slots, and copies to copies by
    -hc.  Every summand s labelled i (and none else) meets the copy of its
    loop slot, at offsets[s] + 1, by the identity; the module docstring
    says why all of these pairs cancel at once.  A copy column c with
    a = hc[offsets[s] + 1, c] picks up a times X's differential out of s
    in each row of X, and a times the loop in the row of the copy at
    offsets[s].
    """
    hc = hom_complex(i, x)
    alg = x.algebra
    dual = alg.hom_table(i).dual
    times, plus, neg, is_unit = alg.times, alg.plus, alg.field.neg, alg.is_unit
    loop = dual[i][0]
    # new position of each summand of X that stays: those not labelled i
    x_at = {
        d: {s: n for n, s in enumerate(s for s, lab in enumerate(labels) if lab != i)}
        for d, labels in x.summands.items()
    }
    # per degree d: new position of each copy for Hom^d that stays, every
    # copy but the loop slot's of a summand s labelled i; and for those s,
    # the position of the loop slot's copy and the new position of the
    # identity slot's copy
    copy_at: Dict[int, Dict[int, int]] = {}
    loop_of: Dict[int, Dict[int, int]] = {}
    loop_row: Dict[int, Dict[int, int]] = {}
    for d, offs in hc.offsets.items():
        at: Dict[int, int] = {}
        lo, lr = {}, {}
        for s, lab in enumerate(x.summands[d]):
            n = offs[s]
            if lab == i:
                lo[n + 1], lr[s] = s, len(at)
                at[n] = len(at)
            else:
                for p in range(n, offs[s + 1]):
                    at[p] = len(at)
        copy_at[d], loop_of[d], loop_row[d] = at, lo, lr
    labels: Dict[int, Tuple[int, ...]] = {}
    for d in set(x.summands) | {d + 1 for d in hc.offsets}:
        labs = tuple(lab for lab in x.summands.get(d, ()) if lab != i) + (i,) * len(copy_at.get(d - 1, ()))
        if labs:
            labels[d] = labs
    # rows: X^{d+1} then the copies for Hom^d; columns: X^d then the
    # copies for Hom^{d-1}, each part in its order above
    by_row: Dict[int, Index] = {}
    by_col: Dict[int, Index] = {}
    units = []
    for d, cols in labels.items():
        rows = labels.get(d + 1, ())
        row_x, col_x = x_at.get(d + 1, {}), x_at.get(d, {})
        row_copy, col_copy = copy_at.get(d, {}), copy_at.get(d - 1, {})
        x_rows, x_cols = len(row_x), len(col_x)
        rr: Index = {}
        cc: Index = {}
        out_of: Dict[int, list] = {}  # s labelled i -> X's differential out of s, in the new rows
        for (r, c), g in x.diffs.get(d, {}).items():
            if r in row_x:
                if c in col_x:
                    r, c = row_x[r], col_x[c]
                    rr.setdefault(r, {})[c] = cc.setdefault(c, {})[r] = g
                    if rows[r] == cols[c] and is_unit(cols[c], rows[r], g):
                        units.append((d, r, c))
                else:
                    out_of.setdefault(c, []).append((row_x[r], g))
        if row_copy:
            # a summand not labelled i to its copies, never between equal
            # labels; each of those copy rows holds this one entry so far
            offs = hc.offsets[d]
            for s, lab in enumerate(x.summands[d]):
                if lab != i:
                    n, c = offs[s], col_x[s]
                    col = cc.setdefault(c, {})
                    for slot, e in enumerate(dual[lab]):
                        r = x_rows + row_copy[n + slot]
                        rr[r] = {c: e}
                        col[r] = e
        # the copy columns sum several terms in a cell, so they are added up
        # first and only the cells that do not cancel are written
        acc: Dict[Tuple[int, int], Optional[Entry]] = {}
        owners, loops = loop_of.get(d, {}), loop_row.get(d, {})
        for (r, c), a in hc.mats.get(d - 1, {}).items():
            if c not in col_copy:
                continue
            col = x_cols + col_copy[c]
            if r in row_copy:
                cell = (x_rows + row_copy[r], col)
                acc[cell] = plus(acc.get(cell), alg.scalar(neg(a)))
                continue
            s = owners[r]
            for row, g in out_of.get(s, ()):
                acc[(row, col)] = plus(acc.get((row, col)), times(a, g))
            cell = (x_rows + loops[s], col)
            acc[cell] = plus(acc.get(cell), times(a, loop))
        for (r, c), m in acc.items():
            if m is not None:
                rr.setdefault(r, {})[c] = cc.setdefault(c, {})[r] = m
                # copy rows are labelled i, as copy columns are
                if r >= x_rows and is_unit(i, i, m):
                    units.append((d, r, c))
        by_row[d], by_col[d] = rr, cc
    return eliminate(alg, labels, by_row, by_col, units)


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
    """The one place that decides isomorphism: t = t_w(base) exactly when the minimized t_w^-1(t) is base."""
    return iso_to_sum(minimize(twist_inv_word(w, t)), base)


# -- two-term objects --------------------------------------------------------


@dataclass(eq=False)
class TwoTermObject:
    """Cone data of a map from color-u projectives to color-(u+1) projectives.

    left_order / right_order list the summands (sorted by vertex); phi is the
    connecting matrix (rows indexed by right summands), with arrow-only
    entries since the two sides have opposite colors.
    """

    algebra: ZigzagAlgebra
    side: int
    left_order: Tuple[int, ...]
    right_order: Tuple[int, ...]
    phi: Matrix

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


@dataclass(frozen=True)
class TwoTermPrediction:
    """Predicted multiplicities for a reflected two-term object."""

    side: int
    left: Tuple[Tuple[int, int], ...]
    right: Tuple[Tuple[int, int], ...]

    def left_dict(self) -> Dict[int, int]:
        return {j: m for j, m in self.left if m}

    def right_dict(self) -> Dict[int, int]:
        return {j: m for j, m in self.right if m}


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


def _total_hom_dim(l: int, x: ProjComplex) -> int:
    return sum(hom_dims(l, x).values())


def is_right_proper(tt: TwoTermObject) -> bool:
    """No right summand splits off: dim Hom*(X, P_l) = sum of neighbour left mults."""
    d = tt.algebra.diagram
    assembled = tt.assemble()
    left = tt.left
    for l in d.vertices:
        if d.color(l) == (tt.side + 1) % 2:
            expected = sum(left.get(k, 0) for k in d.neighbors(l))
            if _total_hom_dim(l, assembled) != expected:
                return False
    return True


def is_left_proper(tt: TwoTermObject) -> bool:
    """No left summand splits off: dim Hom*(X, P_l) = sum of neighbour right mults."""
    d = tt.algebra.diagram
    assembled = tt.assemble()
    right = tt.right
    for l in d.vertices:
        if d.color(l) == tt.side % 2:
            expected = sum(right.get(k, 0) for k in d.neighbors(l))
            if _total_hom_dim(l, assembled) != expected:
                return False
    return True


def two_term_reflect(tt: TwoTermObject, delta: Iterable[int]) -> TwoTermPrediction:
    """Predicted multiplicities of the reflected object t_Delta^{+/-} X.

    Delta of color side+1 reflects a right-proper object forward (t^+);
    Delta of color side reflects a left-proper object backward (t^-).  In
    both directions the new multiplicity at k in Delta is the sum of the
    old multiplicities at the neighbours of k minus the old one at k.
    """
    d = tt.algebra.diagram
    delta = frozenset(delta)
    if not delta:
        raise ValueError("empty reflection set")
    colors = {d.color(j) for j in delta}
    if len(colors) != 1:
        raise ValueError("reflection set must be single-colored")
    color = colors.pop()
    u = tt.side
    if color == (u + 1) % 2:
        if not is_right_proper(tt):
            raise ValueError("object is not right-proper")
        if not tt.rsupp() <= delta:
            raise ValueError("rsupp must be contained in the reflection set")
        left = tt.left
        right = tt.right
        new = {}
        for k in delta:
            new[k] = sum(left.get(j, 0) for j in d.neighbors(k)) - right.get(k, 0)
            if new[k] < 0:
                raise ValueError("negative predicted multiplicity (properness violated)")
        return TwoTermPrediction(
            (u + 1) % 2,
            tuple(sorted(new.items())),
            tuple(sorted(left.items())),
        )
    if color == u % 2:
        if not is_left_proper(tt):
            raise ValueError("object is not left-proper")
        if not tt.lsupp() <= delta:
            raise ValueError("lsupp must be contained in the reflection set")
        left = tt.left
        right = tt.right
        new = {}
        for j in delta:
            new[j] = sum(right.get(k, 0) for k in d.neighbors(j)) - left.get(j, 0)
            if new[j] < 0:
                raise ValueError("negative predicted multiplicity (properness violated)")
        return TwoTermPrediction(
            (u + 1) % 2,
            tuple(sorted(right.items())),
            tuple(sorted(new.items())),
        )
    raise ValueError("unreachable")


def reflect_plus(tt: TwoTermObject, delta: Iterable[int]) -> ProjComplex:
    """The actual object t_Delta^+ X = (prod of twists over Delta)(X)[-1], minimized."""
    out = tt.assemble()
    for k in sorted(set(delta)):
        out = twist(k, out)
    return minimize(shift(out, -1))


def reflect_minus(tt: TwoTermObject, delta: Iterable[int]) -> ProjComplex:
    """The actual object t_Delta^- X = (prod of inverse twists over Delta)(X)[1], minimized."""
    out = tt.assemble()
    for k in sorted(set(delta)):
        out = twist_inv(k, out)
    return minimize(shift(out, 1))
