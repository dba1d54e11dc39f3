"""The zigzag algebra of an ADE diagram, exposed category-style.

Rather than one big path algebra, we work with the Hom spaces between the
indecomposable projectives P_i.  Each Hom(P_i, P_j) has a distinguished basis:

    i = j:        identity e_i and loop l_i          (dimension 2)
    i adjacent j: a single arrow g_{i,j}: P_i -> P_j (dimension 1)
    otherwise:    zero                               (dimension 0)

Composition: identities are neutral, a back-and-forth pair of arrows through a
neighbour closes to the loop (g_{j,i} o g_{i,j} = l_i), every other product of
non-identity basis morphisms vanishes.  The trace form picks out the loop
coefficient; it makes every pairing Hom(P_i,P_j) x Hom(P_j,P_i) -> k perfect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .braid import DynkinDiagram
from .fields import Field, GF2, Scalar

KIND_ID = "id"
KIND_LOOP = "loop"
KIND_ARROW = "arrow"


@dataclass(frozen=True)
class MorphBasisElement:
    kind: str
    src: int
    tgt: int

    def __post_init__(self) -> None:
        if self.kind in (KIND_ID, KIND_LOOP):
            if self.src != self.tgt:
                raise ValueError(f"{self.kind} morphism needs src == tgt")
        elif self.kind != KIND_ARROW:
            raise ValueError(f"unknown morphism kind {self.kind!r}")


@dataclass(frozen=True)
class MorphElement:
    """A linear combination of basis morphisms with a fixed source and target."""

    algebra: "ZigzagAlgebra"
    src: int
    tgt: int
    terms: tuple[tuple[MorphBasisElement, Scalar], ...]

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, b: MorphBasisElement) -> Scalar:
        for bb, c in self.terms:
            if bb == b:
                return c
        return self.algebra.field.zero

    def id_coeff(self) -> Scalar:
        if self.src == self.tgt:
            for b, c in self.terms:
                if b.kind == KIND_ID:
                    return c
        return self.algebra.field.zero

    def __add__(self, other: "MorphElement") -> "MorphElement":
        return self.algebra.add(self, other)

    def __neg__(self) -> "MorphElement":
        return self.algebra.scale(self.algebra.field.neg(self.algebra.field.one), self)

    def __sub__(self, other: "MorphElement") -> "MorphElement":
        return self + (-other)

    def scaled(self, c: Scalar) -> "MorphElement":
        return self.algebra.scale(c, self)

    def compose(self, other: "MorphElement") -> "MorphElement":
        """self o other (apply other first)."""
        return self.algebra.compose(self, other)

    def to_json_obj(self) -> dict:
        fmt = self.algebra.field.format
        return {
            "src": self.src,
            "tgt": self.tgt,
            "terms": [{"kind": b.kind, "coef": fmt(c)} for b, c in self.terms],
        }


_KIND_ORDER = {KIND_ID: 0, KIND_LOOP: 1, KIND_ARROW: 2}


def _term_key(term: tuple[MorphBasisElement, Scalar]) -> tuple:
    b = term[0]
    return (_KIND_ORDER[b.kind], b.src, b.tgt)


@dataclass(frozen=True)
class ZigzagAlgebra:
    """Hom spaces and composition for the zigzag algebra of a diagram over a field.

    corrupt_compose is a debug hook used by the self-test: it deliberately
    drops the arrow-arrow product so downstream invariants must fail.
    """

    diagram: DynkinDiagram
    field: Field = GF2
    corrupt_compose: bool = False

    # -- basis -----------------------------------------------------------

    def hom_basis(self, i: int, j: int) -> tuple[MorphBasisElement, ...]:
        if not (1 <= i <= self.diagram.rank and 1 <= j <= self.diagram.rank):
            raise ValueError(f"unknown vertex pair ({i}, {j})")
        if i == j:
            return (MorphBasisElement(KIND_ID, i, i), MorphBasisElement(KIND_LOOP, i, i))
        if self.diagram.adjacent(i, j):
            return (MorphBasisElement(KIND_ARROW, i, j),)
        return ()

    def hom_dim(self, i: int, j: int) -> int:
        return len(self.hom_basis(i, j))

    # -- element constructors -------------------------------------------

    def morph(self, src: int, tgt: int, coeffs: Mapping[MorphBasisElement, Scalar]) -> MorphElement:
        rank = self.diagram.rank
        terms = []
        for b, c in coeffs.items():
            if b.src != src or b.tgt != tgt:
                raise ValueError(f"basis element {b} does not map {src} -> {tgt}")
            # b in hom_basis(src, tgt), without building the basis: id and
            # loop already force src == tgt, an arrow needs an edge
            if not (1 <= src <= rank and 1 <= tgt <= rank):
                raise ValueError(f"unknown vertex pair ({src}, {tgt})")
            if b.kind == KIND_ARROW and not self.diagram.adjacent(src, tgt):
                raise ValueError(f"{b} is not a basis element of Hom(P_{src}, P_{tgt})")
            if not self.field.is_zero(c):
                terms.append((b, c))
        if len(terms) > 1:
            terms.sort(key=_term_key)
        return MorphElement(self, src, tgt, tuple(terms))

    def basis_morph(self, b: MorphBasisElement, c: Optional[Scalar] = None) -> MorphElement:
        c = self.field.one if c is None else c
        return self.morph(b.src, b.tgt, {b: c})

    def identity(self, i: int) -> MorphElement:
        return self.basis_morph(MorphBasisElement(KIND_ID, i, i))

    def loop(self, i: int) -> MorphElement:
        return self.basis_morph(MorphBasisElement(KIND_LOOP, i, i))

    def arrow(self, i: int, j: int) -> MorphElement:
        if not self.diagram.adjacent(i, j):
            raise ValueError(f"vertices {i}, {j} are not adjacent")
        return self.basis_morph(MorphBasisElement(KIND_ARROW, i, j))

    # -- linear structure -------------------------------------------------

    def add(self, f: MorphElement, g: MorphElement) -> MorphElement:
        if (f.src, f.tgt) != (g.src, g.tgt):
            raise ValueError("adding morphisms with different source/target")
        acc: dict[MorphBasisElement, Scalar] = dict(f.terms)
        for b, c in g.terms:
            acc[b] = self.field.add(acc.get(b, self.field.zero), c)
        return self.morph(f.src, f.tgt, acc)

    def scale(self, c: Scalar, f: MorphElement) -> MorphElement:
        if not f.terms or c == self.field.one:
            return f
        return self.morph(f.src, f.tgt, {b: self.field.mul(c, a) for b, a in f.terms})

    # -- composition ------------------------------------------------------

    def _compose_basis(self, g: MorphBasisElement, f: MorphBasisElement) -> Optional[MorphBasisElement]:
        # g o f with f: i -> j, g: j -> l; returns the single basis element
        # of the product or None when the product is zero.
        if f.kind == KIND_ID:
            return g
        if g.kind == KIND_ID:
            return f
        if g.kind == KIND_ARROW and f.kind == KIND_ARROW:
            if g.tgt == f.src and not self.corrupt_compose:
                return MorphBasisElement(KIND_LOOP, f.src, f.src)
            return None
        # any product involving a loop (other than with an identity) vanishes
        return None

    def compose(self, g: MorphElement, f: MorphElement) -> MorphElement:
        if g.src != f.tgt:
            raise ValueError(f"cannot compose: g has source {g.src}, f has target {f.tgt}")
        acc: dict[MorphBasisElement, Scalar] = {}
        for bg, cg in g.terms:
            for bf, cf in f.terms:
                b = self._compose_basis(bg, bf)
                if b is not None:
                    acc[b] = self.field.add(acc.get(b, self.field.zero), self.field.mul(cg, cf))
        return self.morph(f.src, g.tgt, acc)

    # -- trace form ---------------------------------------------------------

    def trace(self, f: MorphElement) -> Scalar:
        if f.src != f.tgt:
            raise ValueError("trace is defined for endomorphisms only")
        return f.coeff(MorphBasisElement(KIND_LOOP, f.src, f.src))

    def pairing(self, f: MorphElement, g: MorphElement) -> Scalar:
        """trace(g o f) for f: i -> j, g: j -> i."""
        return self.trace(self.compose(g, f))

    def dual_basis_element(self, b: MorphBasisElement) -> MorphBasisElement:
        """The trace-dual of a basis element: id <-> loop, arrow (i,j) -> arrow (j,i)."""
        if b.kind == KIND_ID:
            return MorphBasisElement(KIND_LOOP, b.src, b.src)
        if b.kind == KIND_LOOP:
            return MorphBasisElement(KIND_ID, b.src, b.src)
        return MorphBasisElement(KIND_ARROW, b.tgt, b.src)

    # -- units ---------------------------------------------------------------

    def is_unit(self, f: MorphElement) -> bool:
        return f.src == f.tgt and not self.field.is_zero(f.id_coeff())

    def invert_endo(self, f: MorphElement) -> MorphElement:
        """Inverse of a unit a*id + b*loop, namely (1/a)*id - (b/a^2)*loop."""
        if not self.is_unit(f):
            raise ValueError("morphism is not invertible")
        k = self.field
        a = f.id_coeff()
        b = f.coeff(MorphBasisElement(KIND_LOOP, f.src, f.src))
        a_inv = k.inv(a)
        coeffs = {MorphBasisElement(KIND_ID, f.src, f.src): a_inv}
        if not k.is_zero(b):
            coeffs[MorphBasisElement(KIND_LOOP, f.src, f.src)] = k.neg(k.mul(b, k.mul(a_inv, a_inv)))
        return self.morph(f.src, f.src, coeffs)

    # -- serialization ---------------------------------------------------------

    def morph_from_json_obj(self, obj: Mapping) -> MorphElement:
        src, tgt = int(obj["src"]), int(obj["tgt"])
        coeffs: dict[MorphBasisElement, Scalar] = {}
        for t in obj.get("terms", ()):
            b = MorphBasisElement(str(t["kind"]), src, tgt)
            c = self.field.parse(str(t["coef"]))
            coeffs[b] = self.field.add(coeffs.get(b, self.field.zero), c)
        return self.morph(src, tgt, coeffs)


def hom_basis(diagram: DynkinDiagram, i: int, j: int) -> tuple[MorphBasisElement, ...]:
    """Distinguished basis of Hom(P_i, P_j); see the module docstring."""
    return ZigzagAlgebra(diagram).hom_basis(i, j)


def trace(f: MorphElement) -> Scalar:
    return f.algebra.trace(f)


def compose(g: MorphElement, f: MorphElement) -> MorphElement:
    return f.algebra.compose(g, f)
