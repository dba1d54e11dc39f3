"""Test-only constructions that the package itself does not need.

direct_sum, cone_triangle, key and flatten build or compare objects for
tests; the package's code paths never call them.  reference_hom_complex is
the entry-by-entry Hom complex (compose each basis morphism with each
differential entry, read the coordinates of the product), against which the
table-driven complexes.hom_complex is checked; reference_basis lists its
basis as (summand, slot) pairs, and implied_basis expands a Hom complex's
offsets into the same pairs.  reference_twist is the twist through the
public path (a ChainMap of evaluation, the checked cone(), minimize),
against which twists.twist's cone written into the elimination index is
checked; reference_twist_inv is the inverse twist with every contractible
pair left to minimize, against which twists.twist_inv's bulk cancellation
is checked.  Both twists lay out their cones in the positions these two
give them.  _reduce brings a sparse scalar matrix to reduced echelon form
and kernel_basis reads a basis of its kernel off that form; linalg.rank
stops at an echelon form, and only long_morphism_dim needs a kernel.

Long morphisms are the paper's notion of a peelable letter: a class in
H^r(Hom(P_j, T)) killed by precomposition with every neighbour arrow.
long_morphism_dim measures them on a HomComplexes map (each vertex's Hom
complex built on first use), composing with the arrows through the slot
rules of _precomposition, and reference_peel_letter is the letter of a
scan of every vertex for one at T's minimal degree, against which
reconstruct.peel's smallest bottom label is checked.

_image_classes is the reference decider for isomorphism of corpus images:
it buckets the images by their summand labels per degree and runs the
inverse chain along each bucket member's word (is_twist_image).  The
acceptance criteria partition by peel sequences instead
(reconstruct.isomorphic_images), and the tests check the two partitions
against each other.
"""

from typing import Dict, List, Tuple

from twistlab import linalg
from twistlab.acceptance import _shape_key
from twistlab.braid import BraidWord, LayeredWord
from twistlab.complexes import (
    ChainMap,
    HomComplex,
    Matrix,
    ProjComplex,
    cone,
    hom_complex,
    make_complex,
    minimize,
    shift,
)
from twistlab.fields import Field
from twistlab.linalg import Row, _axpy
from twistlab.twists import is_twist_image
from twistlab.zigzag import HomTable, ZigzagAlgebra, _product_slots


def direct_sum(x: ProjComplex, y: ProjComplex) -> ProjComplex:
    """X (+) Y: X's summands first in every degree, Y's block below and right of X's."""
    if x.algebra != y.algebra:
        raise ValueError("direct sum of complexes over different algebras")
    sm = {d: x.summands.get(d, ()) + y.summands.get(d, ()) for d in set(x.summands) | set(y.summands)}
    dd = {}
    for d in set(x.diffs) | set(y.diffs):
        r0, c0 = len(x.summands.get(d + 1, ())), len(x.summands.get(d, ()))
        dd[d] = {**x.diffs.get(d, {}), **{(r + r0, c + c0): m for (r, c), m in y.diffs.get(d, {}).items()}}
    return make_complex(x.algebra, sm, dd)


def cone_triangle(f: ChainMap) -> tuple[ProjComplex, ChainMap, ChainMap]:
    """The cone C of f: X -> Y plus the canonical maps Y -> C and C -> X[1]."""
    cone_complex = cone(f)
    x, y = f.src, f.tgt
    alg = x.algebra
    identity = alg.scalar(alg.field.one)
    inc_blocks: dict = {}
    proj_blocks: dict = {}
    for d in cone_complex.summands:
        xc = len(x.summands.get(d + 1, ()))
        inc_blocks[d] = {(xc + r, r): identity for r in range(len(y.summands.get(d, ())))}
        proj_blocks[d] = {(r, r): identity for r in range(xc)}
    inclusion = ChainMap(y, cone_complex, inc_blocks)
    projection = ChainMap(cone_complex, shift(x, 1), proj_blocks)
    return cone_complex, inclusion, projection


def reference_twist(i: int, x: ProjComplex) -> ProjComplex:
    """The twist as the minimized cone() of evaluation P_i (x) Hom(P_i, X) -> X, a ChainMap checked there."""
    hc = hom_complex(i, x)
    alg = x.algebra
    # the source: a copy of P_i per Hom-complex basis slot, summand s's slot k
    # at offsets[d][s] + k, with a times the identity for each scalar a of hc
    src = make_complex(
        alg,
        {d: (i,) * hc.dim(d) for d in hc.degrees()},
        {d: {rc: alg.scalar(a) for rc, a in mat.items()} for d, mat in hc.mats.items()},
    )
    blocks = {
        d: {
            (s, offs[s] + slot): e
            for s, lab in enumerate(x.summands[d])
            for slot, e in enumerate(alg.hom_basis(i, lab))
        }
        for d, offs in hc.offsets.items()
    }
    return minimize(cone(ChainMap(src, x, blocks)))


def reference_twist_inv(i: int, x: ProjComplex) -> ProjComplex:
    """The inverse twist as one complex, X plus a copy of P_i per Hom-complex basis slot, minimized whole."""
    hc = hom_complex(i, x)
    alg = x.algebra
    dual = alg.hom_table(i).dual
    neg = alg.field.neg
    summands = {}
    degs = set(x.summands) | {d + 1 for d in hc.degrees()}
    for d in degs:
        summands[d] = x.summands.get(d, ()) + (i,) * hc.dim(d - 1)
    # rows: X^{d+1} then the copies of P_i for Hom^d, summand s's slot k at
    # offsets[d][s] + k; columns: X^d then the copies for Hom^{d-1}
    diffs = {}
    for d in degs:
        x_rows, x_cols = len(x.summands.get(d + 1, ())), len(x.summands.get(d, ()))
        mat: Matrix = dict(x.diffs.get(d, {}))
        for s, offset in enumerate(hc.offsets.get(d, ())[:-1]):
            for slot, e in enumerate(dual[x.summands[d][s]]):
                mat[(x_rows + offset + slot, s)] = e
        for (r, c), a in hc.mats.get(d - 1, {}).items():
            mat[(x_rows + r, x_cols + c)] = alg.scalar(neg(a))
        diffs[d] = mat
    return minimize(make_complex(alg, summands, diffs))


class HomComplexes(dict):
    """vertex j -> hom_complex(j, x), each built on first use, kept while the map lives."""

    def __init__(self, x: ProjComplex) -> None:
        super().__init__()
        self.complex = x

    def __missing__(self, j: int) -> HomComplex:
        hc = self[j] = hom_complex(j, self.complex)
        return hc

    @classmethod
    def of(cls, x) -> "HomComplexes":
        """x itself if it is already a map, else a new, empty map of the complex x."""
        return x if isinstance(x, HomComplexes) else cls(x)


_PRE: Dict[Tuple[ZigzagAlgebra, int, int, int], Dict[int, int]] = {}


def _precomposition(table: HomTable, k: int, l: int) -> Dict[int, int]:
    """slot -> slot2 where table.basis[l][slot] o g_{k,j} is the basis morphism slot2 of Hom(P_k, P_l), j = table.vertex.

    k is a neighbour of j; slots whose product is zero are absent.  Each
    rule is derived on first use and kept in _PRE.
    """
    alg, j = table.algebra, table.vertex
    key = (alg, j, k, l)
    rule = _PRE.get(key)
    if rule is None:
        (arrow,) = alg.hom_basis(k, j)
        rule = _PRE[key] = {
            slot: slot2 for slot, f in enumerate(table.basis[l]) for slot2 in _product_slots(alg, k, j, l, f, arrow)
        }
    return rule


def _long_space(j: int, homs: HomComplexes, r: int) -> dict:
    """Constraints cutting {f in Hom^r(P_j, T) : f cocycle, [f g_{k,j}] = 0 for all k} out of Hom^r.

    A sparse matrix with one column per basis element of Hom^r(P_j, T): the
    cocycle rows, then for each neighbour k the rows that make f g_{k,j} a
    coboundary.  The basis morphism of summand s at slot, column
    offsets[r][s] + slot of Hom(P_j, T), composed with g_{k,j} is the one at
    offsets[r][s] + slot2 of Hom(P_k, T), slot2 read off _precomposition.
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
        pre = {}
        for s, lab in enumerate(labels):
            offk, offj = vk_offs[s], vj_offs[s]
            for slot, slot2 in _precomposition(table, nb, lab).items():
                pre.setdefault(offk + slot2, {})[offj + slot] = one
        bmat = vk.mats.get(r - 1)
        if bmat is None:
            annihilators = [{i: one} for i in pre]
        else:
            # into a lowest summand a loop is a cocycle, not a coboundary, so
            # only degrees above the minimum reach this
            transposed = {(c, i): a for (i, c), a in bmat.items()}
            annihilators = kernel_basis(k_field, transposed, vk.dim(r))
        for y in annihilators:
            for i, a in y.items():
                for c, b in pre.get(i, {}).items():
                    rows[(n, c)] = k_field.add(rows.get((n, c), k_field.zero), k_field.mul(a, b))
            n += 1
    return rows


def _reduce(field: Field, mat: linalg.Matrix) -> Dict[int, Row]:
    """Reduced row echelon form of mat: pivot column -> its row, 1 at the pivot.

    Rows are inserted one at a time.  Each pivot row is zero in every other
    pivot column, so a new row is cleared by subtracting the pivot rows of its
    own pivot columns once each; if anything is left, its lowest column
    becomes a new pivot and is cleared from the older pivot rows.
    """
    rows: Dict[int, Row] = {}
    for (r, c), a in mat.items():
        if not field.is_zero(a):
            rows.setdefault(r, {})[c] = a
    pivots: Dict[int, Row] = {}
    for row in rows.values():
        for p in [c for c in row if c in pivots]:
            _axpy(field, row, row[p], pivots[p])
        if not row:
            continue
        p = min(row)
        inv = field.inv(row[p])
        row = {c: field.mul(inv, a) for c, a in row.items()}
        for other in pivots.values():
            if p in other:
                _axpy(field, other, other[p], row)
        pivots[p] = row
    return pivots


def kernel_basis(field: Field, mat: linalg.Matrix, ncols: int) -> List[Row]:
    """Basis of {x : A x = 0} for A with columns 0..ncols-1, as sparse vectors.

    One vector per free column f: 1 at f, and minus the pivot rows' entries
    in column f at their pivots.  Swap the keys of A for its left kernel.
    """
    pivots = _reduce(field, mat)
    basis = {f: {f: field.one} for f in range(ncols) if f not in pivots}
    for p, row in pivots.items():
        for f, a in row.items():
            if f != p:
                basis[f][p] = field.neg(a)
    return list(basis.values())


def long_morphism_dim(j: int, t, r: int) -> int:
    """Dimension of the space of long-morphism classes P_j -> T[r]; t is a complex or its HomComplexes map."""
    homs = HomComplexes.of(t)
    vj = homs[j]
    dim_r = vj.dim(r)
    if dim_r == 0:
        return 0
    return dim_r - linalg.rank(vj.field, _long_space(j, homs, r)) - vj.rank_at(r - 1)


def reference_peel_letter(t: ProjComplex):
    """For a minimal T: the smallest vertex j with a long morphism P_j -> T[m] at T's minimal degree m, or None."""
    m = min(t.summands)
    homs = HomComplexes(t)
    return next((j for j in t.diagram.vertices if long_morphism_dim(j, homs, m) > 0), None)


def key(x: ProjComplex) -> tuple:
    """Hashable encoding of a presentation; isomorphic complexes (summands reordered, say) can differ."""
    deg_part = tuple((d, x.summands[d]) for d in x.degrees())
    diff_part = tuple((d, tuple(sorted(mat.items()))) for d, mat in sorted(x.diffs.items()))
    return (deg_part, diff_part)


def flatten(lw: LayeredWord) -> BraidWord:
    """Concatenate the slices, each emitted in ascending vertex order."""
    return BraidWord(lw.diagram, tuple(j for sl in lw.slices for j in sorted(sl)))


def reference_basis(j: int, x: ProjComplex) -> dict:
    """degree -> the (summand, slot) pairs of Hom(P_j, X)'s basis, summand by summand, read off hom_basis alone."""
    alg = x.algebra
    basis = {}
    for d, labels in x.summands.items():
        items = tuple((s, slot) for s, lab in enumerate(labels) for slot in range(len(alg.hom_basis(j, lab))))
        if items:
            basis[d] = items
    return basis


def implied_basis(hc: HomComplex) -> dict:
    """degree -> the (summand, slot) pairs that hc's offsets place at positions 0, 1, ..."""
    return {
        d: tuple((s, slot) for s in range(len(offs) - 1) for slot in range(offs[s + 1] - offs[s]))
        for d, offs in hc.offsets.items()
    }


def reference_hom_complex(j: int, x: ProjComplex) -> HomComplex:
    """Hom(P_j, X) by composing every basis morphism with every differential entry."""
    alg = x.algebra
    basis = reference_basis(j, x)
    index, offsets = {}, {}
    for d, items in basis.items():
        index[d] = {item: n for n, item in enumerate(items)}
        # summand s's first slot sits after the slots of the summands before it
        offsets[d] = [sum(1 for t, _ in items if t < s) for s in range(len(x.summands[d]) + 1)]
    mats = {}
    for d in basis:
        if d + 1 not in basis or d not in x.diffs:
            continue
        labels, row_labels = x.summands[d], x.summands[d + 1]
        mat = {}
        for cidx, (s, slot) in enumerate(basis[d]):
            f = alg.hom_basis(j, labels[s])[slot]
            for (r, c), entry in x.diffs[d].items():
                if c != s:
                    continue
                image = alg.compose(j, labels[s], row_labels[r], entry, f)
                if image is None:
                    continue
                for slot2, coef in enumerate(alg.coordinates(j, row_labels[r], image)):
                    if coef:
                        row = index[d + 1][(r, slot2)]
                        assert (row, cidx) not in mat
                        mat[(row, cidx)] = coef
        if mat:
            mats[d] = mat
    return HomComplex(alg.field, j, offsets, mats)


def _image_classes(corpus: Dict[Tuple[int, ...], ProjComplex]) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """word -> the first corpus word with an isomorphic image: shape keys bucket, is_twist_image decides."""
    lam = corpus[()]
    reps: Dict[tuple, List[Tuple[int, ...]]] = {}
    classes: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for w, t in corpus.items():
        bucket = reps.setdefault(_shape_key(t), [])
        classes[w] = next((r for r in bucket if is_twist_image(t, BraidWord(lam.diagram, r), lam)), w)
        if classes[w] == w:
            bucket.append(w)
    return classes
