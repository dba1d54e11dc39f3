"""Bounded complexes of direct sums of indecomposable projectives.

Grading is cohomological: differentials raise degree by one, the entry at
(row r, col c) of the matrix attached to degree d is a morphism from the
c-th summand in degree d to the r-th summand in degree d+1.  The cone of a
chain map f: X -> Y carries X^{d+1} (+) Y^d in degree d with differential
[[-D_X, 0], [F, D_Y]]; a shift by n multiplies the differential by (-1)^n.

Matrices are sparse: a Matrix maps (row, col) to a nonzero entry, and an
absent key is a zero entry.  An entry is the zigzag module's pair of scalars
(see zigzag.py); it does not say which Hom space it lies in, so the summand
labels of its row and column are passed with it to every method of the
algebra that composes, inverts or writes it.  A matrix's shape is that of
the summand tuples it sits between, which the complex (or chain map) already
holds.  Differentials, chain-map blocks and two-term connecting maps all use
this one format; the JSON view (complex_to_json_obj) is the only dense form,
and complex_from_json_obj reads dense rows and keeps their nonzero entries.
The scalar matrices of Hom complexes are sparse the same way, with nonzero
scalars as entries, which is the format linalg reduces.  A Hom complex
numbers its basis by position: summand s's slot k, a slot naming a basis
morphism of the algebra, sits at s's offset plus k, so no basis element is
stored.  The algebra's Hom table numbers the slots (zigzag.HomTable.offsets)
for hom_complex and for the twists alike, and hom_complex reads each
differential entry's nonzero cells from the table's memo
(zigzag.HomTable.record), which says where postcomposition with the entry
sends each basis slot; it composes nothing but what a new entry's record
needs.

cone() is the checked entry point for chain maps from outside the package
(a ChainMap built by a caller): it checks that f is a chain map on every
call.  The check composes nonzero entries only, so it costs in proportion
to the nonzero entries of the blocks and differentials, not to their
cells.  cone() builds the cone complex alone, not the maps Y -> C -> X[1].
The twist writes its cone of evaluation into the elimination index itself,
reading Hom(P_i, X) off X's differential through the same Hom table
instead of building a HomComplex, and makes the same check entry by entry
in that pass (see twists.py).

minimize() strips contractible summand pairs by Gaussian elimination: any
entry P_i -> P_i whose identity coefficient is a unit can be split off, the
parallel block picking up the correction delta - gamma phi^{-1} beta.  Pivot
order is deterministic (lowest degree, then lowest row, then lowest column)
so outputs are reproducible.  The elimination works on indexes alone: each
degree's entries sit in a row index (row -> {col: entry}) and a column
index (col -> {row: entry}), and the output is read back from the row
index.  It has one front and one core.  minimize() is the front for a
complex: it builds both indexes and the list of unit entries from the
complex's differentials.  eliminate() is the core, and the twists write
their cones straight into its indexes instead (see twists.py), so a cone
is never built as a complex first.  A degree that lost no summand keeps
its label tuple and its positions, and only the degrees that lost one get
a position map.  A pivot costs its row and
column plus one correction per pair of other entries in them, and phi is
inverted only when there is such a pair: most pivots of the twist path
have none.

Memoized, for the life of the object that holds it (nothing outlives it):
- eliminate() marks its output minimal, and minimize() returns a minimal
  input unchanged;
- a complex keeps its profile(), and hands out a fresh copy on each call;
- an algebra's Hom table keeps, for at most HomTable.MEMO_CAP entries, each
  entry's cells and the twist's check verdict (zigzag.HomTable.record),
  which hom_complex and both twists read.
Hom complexes themselves are not kept on their complex.  A ProjComplex is
frozen; the two memo fields are set here alone, through object.__setattr__.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .braid import DynkinDiagram, json_int
from .fields import Field, Scalar
from .zigzag import Entry, ZigzagAlgebra

Matrix = Dict[Tuple[int, int], Entry]
Index = Dict[int, Dict[int, Entry]]  # one degree's entries, row -> {col: entry} or col -> {row: entry}


@dataclass(frozen=True, eq=False)
class ProjComplex:
    """A bounded complex, frozen; its dicts are not to be changed either.

    summands maps degree -> the ordered vertex labels of the summands in that
    degree; diffs maps degree d -> the nonzero entries of the differential
    d -> d+1.  Degrees without summands and empty matrices are dropped on
    normalization (see make_complex); zero morphisms are no entries at all
    (see zigzag.py).  _minimal and _profile are the memos of minimize() and
    profile(), which eliminate() and profile() set.
    """

    algebra: ZigzagAlgebra
    summands: Dict[int, Tuple[int, ...]]
    diffs: Dict[int, Matrix]
    _minimal: bool = dataclasses.field(default=False, init=False, repr=False)
    _profile: Optional[HomProfile] = dataclasses.field(default=None, init=False, repr=False)

    @property
    def diagram(self) -> DynkinDiagram:
        return self.algebra.diagram

    def degrees(self) -> list[int]:
        return sorted(self.summands)

    def is_zero(self) -> bool:
        return not self.summands

    def check(self) -> None:
        """Validate entry positions and typing, and d^2 = 0 (JSON input).

        Raises AssertionError explicitly, so the check also runs under -O.
        """
        alg, sm = self.algebra, self.summands
        for d, mat in self.diffs.items():
            if not _well_typed(alg, mat, sm.get(d + 1, ()), sm.get(d, ())):
                raise AssertionError(f"entry out of range or mistyped at degree {d}")
        for d in self.diffs:
            prod: Dict[Tuple[int, int], Optional[Entry]] = {}
            labels = sm.get(d, ()), sm.get(d + 1, ()), sm.get(d + 2, ())
            _add_products(alg, prod, self.diffs.get(d + 1), self.diffs[d], *labels)
            if any(m is not None for m in prod.values()):
                raise AssertionError(f"d^2 != 0 between degrees {d} and {d+2}")


def make_complex(
    algebra: ZigzagAlgebra,
    summands: Mapping[int, Iterable[int]],
    diffs: Mapping[int, Matrix],
) -> ProjComplex:
    """A complex from its summand labels and the nonzero entries of its differentials."""
    sm = {d: tuple(labels) for d, labels in summands.items() if tuple(labels)}
    dd = {d: mat for d, mat in diffs.items() if mat and d in sm and d + 1 in sm}
    return ProjComplex(algebra, sm, dd)


def _well_typed(algebra: ZigzagAlgebra, mat: Matrix, rows: Sequence[int], cols: Sequence[int]) -> bool:
    """Every entry of mat sits inside the rows x cols shape and is a nonzero morphism cols[c] -> rows[r]."""
    return all(
        0 <= r < len(rows) and 0 <= c < len(cols) and algebra.in_hom(cols[c], rows[r], m)
        for (r, c), m in mat.items()
    )


def _by_col(a: Matrix) -> Dict[int, List[Tuple[int, Entry]]]:
    """col -> [(row, entry)] over the entries of a."""
    out: Dict[int, List[Tuple[int, Entry]]] = {}
    for (r, c), m in a.items():
        out.setdefault(c, []).append((r, m))
    return out


def _placed(mat: Optional[Matrix], r0: int, c0: int) -> Matrix:
    """mat with its entries moved down r0 rows and right c0 columns."""
    return {(r + r0, c + c0): m for (r, c), m in mat.items()} if mat else {}


def _add_products(
    algebra: ZigzagAlgebra,
    acc: Dict[Tuple[int, int], Optional[Entry]],
    a: Optional[Matrix],
    b: Optional[Matrix],
    src: Sequence[int],
    mid: Sequence[int],
    tgt: Sequence[int],
    sign: Optional[Scalar] = None,
) -> None:
    """acc[(r, c)] += sign * (a o b)[r][c], composing nonzero entries only.

    b maps the summands labelled src to those labelled mid, and a maps mid
    to tgt; a cell of acc whose sum cancels holds None.
    """
    if not a or not b:
        return
    a_cols = _by_col(a)
    for (k, c), m in b.items():
        i, j = src[c], mid[k]
        for r, g in a_cols.get(k, ()):
            term = algebra.compose(i, j, tgt[r], g, m)
            if term is None:
                continue
            if sign is not None:
                term = algebra.times(sign, term)
            acc[(r, c)] = algebra.plus(acc.get((r, c)), term)


@dataclass(eq=False)
class ChainMap:
    """A degreewise matrix of morphisms commuting with the differentials."""

    src: ProjComplex
    tgt: ProjComplex
    blocks: Dict[int, Matrix]  # degree d -> matrix from src^d to tgt^d

    def is_valid(self) -> bool:
        alg = self.src.algebra
        if alg != self.tgt.algebra:
            return False
        xs, ys = self.src.summands, self.tgt.summands
        for d, mat in self.blocks.items():
            if not _well_typed(alg, mat, ys.get(d, ()), xs.get(d, ())):
                return False
        # f_{d+1} o d_X - d_Y o f_d, summed from the nonzero entries only
        neg_one = alg.field.neg(alg.field.one)
        for d in set(self.src.diffs) | set(self.blocks):
            acc: Dict[Tuple[int, int], Optional[Entry]] = {}
            x_here, x_next, y_here, y_next = xs.get(d, ()), xs.get(d + 1, ()), ys.get(d, ()), ys.get(d + 1, ())
            _add_products(alg, acc, self.blocks.get(d + 1), self.src.diffs.get(d), x_here, x_next, y_next)
            _add_products(alg, acc, self.tgt.diffs.get(d), self.blocks.get(d), x_here, y_here, y_next, neg_one)
            if any(m is not None for m in acc.values()):
                return False
        return True


# -- basic constructors -----------------------------------------------------


def projective(algebra: ZigzagAlgebra, i: int) -> ProjComplex:
    """The stalk complex with P_i in degree 0."""
    if not 1 <= i <= algebra.diagram.rank:
        raise ValueError(f"unknown vertex {i}")
    return make_complex(algebra, {0: (i,)}, {})


def sum_of_projectives(algebra: ZigzagAlgebra) -> ProjComplex:
    """The direct sum of all P_i in degree 0."""
    return make_complex(algebra, {0: tuple(algebra.diagram.vertices)}, {})


def shift(x: ProjComplex, n: int) -> ProjComplex:
    """X[n]: degree d of the result is degree d+n of X; differential times (-1)^n."""
    if n == 0:
        return x
    alg = x.algebra
    sm = {d - n: labels for d, labels in x.summands.items()}
    sign = alg.field.one if n % 2 == 0 else alg.field.neg(alg.field.one)
    dd = {d - n: {rc: alg.times(sign, m) for rc, m in mat.items()} for d, mat in x.diffs.items()}
    return make_complex(alg, sm, dd)


def cone(f: ChainMap) -> ProjComplex:
    """The cone of f: X -> Y, after checking that f is a chain map."""
    if not f.is_valid():
        raise ValueError("cone of an invalid chain map")
    x, y = f.src, f.tgt
    alg = x.algebra
    k = alg.field
    neg_one = k.neg(k.one)
    sm: Dict[int, Tuple[int, ...]] = {}
    degs = set()
    for d in x.summands:
        degs.add(d - 1)
    degs |= set(y.summands)
    for d in degs:
        sm[d] = x.summands.get(d + 1, ()) + y.summands.get(d, ())
    dd: Dict[int, Matrix] = {}
    for d in sm:
        # rows: X^{d+2} then Y^{d+1}; columns: X^{d+1} then Y^d
        xr, xc = len(x.summands.get(d + 2, ())), len(x.summands.get(d + 1, ()))
        mat = {rc: alg.times(neg_one, m) for rc, m in x.diffs.get(d + 1, {}).items()}
        mat.update(_placed(f.blocks.get(d + 1), xr, 0))
        mat.update(_placed(y.diffs.get(d), xr, xc))
        dd[d] = mat
    return make_complex(alg, sm, dd)


# -- minimal models -----------------------------------------------------------


def minimize(x: ProjComplex) -> ProjComplex:
    """Strip contractible pairs until no unit identity entry remains.

    Indexes each differential by row and by column, queues every unit entry
    between equal labels, and hands all of it to eliminate(), whose output
    keeps x's label tuple in every degree that lost no summand.  The output
    is marked minimal, and a minimal input is returned as is.
    """
    if x._minimal:
        return x
    is_unit = x.algebra.is_unit
    labels = x.summands
    by_row: Dict[int, Index] = {}
    by_col: Dict[int, Index] = {}
    units: List[Tuple[int, int, int]] = []
    for d, mat in x.diffs.items():
        rr: Index = {}
        cc: Index = {}
        rows, cols = labels[d + 1], labels[d]
        for (r, c), m in mat.items():
            rr.setdefault(r, {})[c] = m
            cc.setdefault(c, {})[r] = m
            if rows[r] == cols[c] and is_unit(cols[c], rows[r], m):
                units.append((d, r, c))
        by_row[d], by_col[d] = rr, cc
    return eliminate(x.algebra, labels, by_row, by_col, units)


def eliminate(
    alg: ZigzagAlgebra,
    labels: Mapping[int, Tuple[int, ...]],
    by_row: Dict[int, Index],
    by_col: Dict[int, Index],
    units: List[Tuple[int, int, int]],
    dropped: Optional[Dict[int, set]] = None,
) -> ProjComplex:
    """The minimal complex left by Gaussian elimination on an indexed complex, which it consumes.

    labels maps each degree to its nonempty label tuple; by_row[d] and
    by_col[d] hold the nonzero entries of the differential d -> d+1 by row
    and by column (a degree with no entries may have empty indexes or
    none); units lists (degree, row, col) of every unit entry between
    equal labels; dropped, if given, maps degrees to sets of input
    positions that are gone already and that no entry touches (twist_inv's
    cancelled pairs), and is consumed too.  Entries keep their input (row,
    col) positions until the end: removing summands never reorders the ones
    that stay, so a heap of units keyed by (degree, row, col) pops pivots
    in the order of the module docstring, and a pivot reads its row and its
    column, and drops the summands it removes, without a scan.  A pivot whose row or
    column holds no other entry makes no correction, and then phi is not
    inverted at all.  Stale heap items (entries since removed or changed)
    are skipped when popped; every entry that becomes a unit is pushed
    again.  The output is read back from the row index: the summands
    of a degree that lost some are renumbered through a position map, made
    for those degrees alone, and every entry is re-keyed into a (row, col)
    Matrix, through the maps of its row's and column's degrees where they
    have one.
    """
    is_unit, compose, plus = alg.is_unit, alg.compose, alg.plus
    heappop, heappush = heapq.heappop, heapq.heappush
    neg_one = alg.field.neg(alg.field.one)
    queue = units
    heapq.heapify(queue)

    dropped = defaultdict(set, dropped or ())  # degree -> the input positions it lost, for those that lost any
    while queue:
        d, pr, pc = heappop(queue)
        rr = by_row[d]
        row = rr.get(pr)
        phi = row.get(pc) if row else None
        if phi is None:
            continue
        rows = labels[d + 1]
        v = rows[pr]
        if not is_unit(v, v, phi):
            continue
        cc = by_col[d]
        # the pivot row and column leave degree d: unlink them, then correct
        # the block they span by delta - gamma phi^{-1} beta
        del rr[pr]
        col = cc.pop(pc)
        del row[pc], col[pr]
        for c2 in row:
            del cc[c2][pr]
        for r2 in col:
            del rr[r2][pc]
        if row and col:
            cols = labels[d]
            neg_phi_inv = alg.times(neg_one, alg.inverse(phi))
            for r2, g in col.items():
                # -g phi^{-1}: nonzero, as phi is a unit
                g_phi = compose(v, v, rows[r2], g, neg_phi_inv)
                r2_row, r2_lab = rr[r2], rows[r2]
                for c2, b in row.items():
                    corr = compose(cols[c2], v, r2_lab, g_phi, b)
                    if corr is None:
                        continue
                    new = plus(r2_row.get(c2), corr)
                    if new is None:
                        del r2_row[c2], cc[c2][r2]
                    else:
                        r2_row[c2] = cc[c2][r2] = new
                        if r2_lab == cols[c2] and is_unit(cols[c2], r2_lab, new):
                            heappush(queue, (d, r2, c2))
        # the pivot column's summand is a row of degree d-1, the pivot row's
        # summand a column of degree d+1
        below = by_row.get(d - 1)
        if below:
            below_c = by_col[d - 1]
            for c2 in below.pop(pc, ()):
                del below_c[c2][pc]
        above = by_col.get(d + 1)
        if above:
            above_r = by_row[d + 1]
            for r2 in above.pop(pr, ()):
                del above_r[r2][pr]
        dropped[d].add(pc)
        dropped[d + 1].add(pr)

    # a degree that lost no summand keeps its tuple and its positions, and
    # has no position map: only the degrees in dropped are remapped
    summands = dict(labels)
    position: Dict[int, Dict[int, int]] = {}  # degree -> input index -> output index
    for d, gone in dropped.items():
        labs = labels[d]
        keep = [s for s in range(len(labs)) if s not in gone]
        if keep:
            summands[d] = tuple(map(labs.__getitem__, keep))
            position[d] = dict(zip(keep, range(len(keep))))
        else:
            del summands[d]
    diffs: Dict[int, Matrix] = {}
    for d, rr in by_row.items():
        at_row, at_col = position.get(d + 1), position.get(d)
        mat = {}
        for r, row in rr.items():
            if at_row is not None:
                r = at_row[r]
            if at_col is None:
                for c, m in row.items():
                    mat[r, c] = m
            else:
                for c, m in row.items():
                    mat[r, at_col[c]] = m
        if mat:
            diffs[d] = mat
    out = ProjComplex(alg, summands, diffs)
    object.__setattr__(out, "_minimal", True)
    return out


# -- Hom complexes and profiles -----------------------------------------------


@dataclass(eq=False)
class HomComplex:
    """The cochain-level Hom(P_j, X): sparse scalar matrices over the base field.

    The basis of Hom^d runs summand by summand and, within a summand s of
    label l, slot by slot through the algebra's hom_basis(vertex, l); only
    summands labelled vertex or a neighbour of it have slots.  offsets[d][s]
    is the position of summand s's first slot, so its slot k sits at
    offsets[d][s] + k, and offsets[d][-1] is dim(d); a degree of dimension
    0 has no offsets.  mats[d] is the matrix of postcomposition with the
    differential from degree d to d+1, rows and columns numbered by those
    positions in degrees d+1 and d.  It maps (row, col) to a nonzero scalar
    (the linalg format), and a degree whose differential is zero has no
    matrix.
    """

    field: Field
    vertex: int
    offsets: Dict[int, List[int]]
    mats: Dict[int, Dict[Tuple[int, int], Scalar]]

    def dim(self, d: int) -> int:
        offs = self.offsets.get(d)
        return offs[-1] if offs else 0

    def degrees(self) -> list[int]:
        return sorted(self.offsets)

    def rank_at(self, d: int) -> int:
        """Rank of the differential from degree d."""
        mat = self.mats.get(d)
        return 0 if mat is None else linalg.rank(self.field, mat)

    def homology_dims(self) -> Dict[int, int]:
        """degree -> dim H^degree, nonzero ones only, in ascending degree order.

        Each rank is read once: the rank out of d is the rank into d + 1.
        """
        out = {}
        last, into = None, 0
        for d in self.degrees():
            if last != d - 1:
                into = 0  # degree d - 1 has dimension 0, so no matrix
            rank = self.rank_at(d)
            h = self.offsets[d][-1] - rank - into
            if h:
                out[d] = h
            last, into = d, rank
        return out


def hom_complex(j: int, x: ProjComplex) -> HomComplex:
    """Hom(P_j, X), numbered by j's Hom table (HomTable.offsets), each differential entry's cells read from its memo."""
    table = x.algebra.hom_table(j)
    memo = table.memo
    offsets = {d: table.offsets(labels) for d, labels in x.summands.items()}
    offsets = {d: offs for d, offs in offsets.items() if offs[-1]}
    mats: Dict[int, Dict[Tuple[int, int], Scalar]] = {}
    for d, diff in x.diffs.items():
        col0, row0 = offsets.get(d), offsets.get(d + 1)
        if col0 is None or row0 is None:
            continue
        cols, rows = x.summands[d], x.summands[d + 1]
        # distinct entries fill distinct blocks, and a rule's (slot, slot2)
        # pairs are distinct: every cell is written at most once
        mat = {}
        for (r, c), e in diff.items():
            lc, lr = cols[c], rows[r]
            if not table[lc, lr]:
                continue
            cells = (memo.get((lc, lr, e)) or table.record(lc, lr, e))[0]
            r0, c0 = row0[r], col0[c]
            for slot, slot2, a in cells:
                mat[r0 + slot2, c0 + slot] = a
        if mat:
            mats[d] = mat
    return HomComplex(x.algebra.field, j, offsets, mats)


def hom_dims(j: int, x: ProjComplex) -> Dict[int, int]:
    """Degreewise dimensions of Hom*(P_j, X) (derived Hom, exact ranks)."""
    return hom_complex(j, x).homology_dims()


HomProfile = Dict[Tuple[int, int], int]


def profile(x: ProjComplex) -> HomProfile:
    """(vertex, degree) -> dim Hom^degree(P_vertex, X), an invariant of X up to isomorphism.

    Keys run by vertex, then by degree.  Computed once per complex, one Hom
    complex per vertex; every call returns a fresh dict, so callers cannot
    alter the memo.
    """
    if x._profile is None:
        rows = {(j, d): h for j in x.diagram.vertices for d, h in hom_dims(j, x).items()}
        object.__setattr__(x, "_profile", rows)
    return dict(x._profile)


# -- serialization -------------------------------------------------------------


def matrix_to_json_obj(
    algebra: ZigzagAlgebra, mat: Matrix, rows: Sequence[int], cols: Sequence[int]
) -> List[list]:
    """The JSON view of a matrix: one cell per (row, col), an absent one as a zero morphism.

    Every cell starts as the zero cell, and the nonzero entries then replace
    theirs, so entry_to_json_obj runs once per entry, not once per cell.
    """
    out = [[{"src": src, "tgt": tgt, "terms": []} for src in cols] for tgt in rows]
    cell = algebra.entry_to_json_obj
    for (r, c), m in mat.items():
        out[r][c] = cell(cols[c], rows[r], m)
    return out


def complex_to_json_obj(x: ProjComplex) -> dict:
    sm = x.summands
    return {
        "degrees": {str(d): list(sm[d]) for d in x.degrees()},
        "diffs": {str(d): matrix_to_json_obj(x.algebra, x.diffs[d], sm[d + 1], sm[d]) for d in sorted(x.diffs)},
    }


def _json_dict(obj, what: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ValueError(f"{what} must be a JSON object")
    return obj


def complex_from_json_obj(algebra: ZigzagAlgebra, obj: Mapping) -> ProjComplex:
    """Read the dense JSON view back: check every cell, keep the nonzero ones."""
    rank = algebra.diagram.rank
    sm: Dict[int, Tuple[int, ...]] = {}
    obj = _json_dict(obj, "a complex")
    for d, labels in _json_dict(obj.get("degrees", {}), "degrees").items():
        labels = sm[int(d)] = tuple(json_int(v, f"degree {d}: a vertex label") for v in labels)
        if not all(1 <= v <= rank for v in labels):
            raise ValueError(f"degree {d}: vertex labels must lie in 1..{rank}")
    dd: Dict[int, Matrix] = {}
    for d, rows in _json_dict(obj.get("diffs", {}), "diffs").items():
        d = int(d)
        row_labels, col_labels = sm.get(d + 1, ()), sm.get(d, ())
        if len(rows) != len(row_labels):
            raise ValueError(f"degree {d}: {len(rows)} rows for {len(row_labels)} summands in degree {d + 1}")
        mat = dd[d] = {}
        for r, row in enumerate(rows):
            if len(row) != len(col_labels):
                raise ValueError(f"degree {d}, row {r}: {len(row)} cells for {len(col_labels)} summands")
            for c, cell in enumerate(row):
                if cell is None:
                    continue
                src, tgt, m = algebra.entry_from_json_obj(cell)
                if (src, tgt) != (col_labels[c], row_labels[r]):
                    raise ValueError(f"entry typing mismatch at {d}[{r}][{c}]")
                if m is not None:
                    mat[(r, c)] = m
    out = make_complex(algebra, sm, dd)
    out.check()
    return out
