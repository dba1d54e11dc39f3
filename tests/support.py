"""Test-only constructions that the package itself does not need.

direct_sum, cone_triangle, key and flatten build or compare objects for
tests; the package's code paths never call them.  reference_hom_complex is
the entry-by-entry Hom complex (compose each basis morphism with each
differential entry, read the coordinates of the product), against which the
table-driven complexes.hom_complex is checked; reference_basis lists its
basis as (summand, slot) pairs, and implied_basis expands a Hom complex's
offsets into the same pairs.  reference_twist_inv is the inverse twist with
every contractible pair left to minimize, against which twists.twist_inv's
bulk cancellation is checked.  reference_peel_letter is the letter of a scan
of every vertex for a long morphism, against which reconstruct.peel's scan
below the smallest bottom label is checked.
"""

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
from twistlab.reconstruct import bottom, long_morphism_dim


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


def reference_peel_letter(t: ProjComplex):
    """For a minimal T: the smallest vertex j with a long morphism P_j -> T[m] at T's minimal degree m, or None."""
    m, homs = bottom(t)
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
