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

Entries.  A morphism P_i -> P_j is at most two scalars, so every matrix entry
(of a differential, a chain-map block or a two-term connecting map) is a
nonzero pair (a, b) of field scalars: a is the identity coefficient when
i = j and the arrow coefficient when i != j; b is the loop coefficient, and
it is 0 when i != j.  The pair is also the entry's coordinate vector in the
basis above, cut to the dimension of Hom(P_i, P_j): slot 0 is e_i or g_{i,j},
slot 1 is l_i.  An entry does not know i and j; the summand labels of its
row and column do, and every method below that needs them takes them.  A
zero morphism is no entry at all: matrices leave its cell out, and compose
and plus return None for it.  Scalars are canonical (a residue in range(p),
or a rational that is an int when integral and a Fraction otherwise), so
zero is the only falsy scalar.

Hom tables.  hom_table(j) holds, for one vertex j, what Hom(P_j, -) does
on the projectives: the bases hom_basis(j, l) and dual_basis(j, l) of every
label l (each basis entry typed once, when the table is built), the slot
width of each basis, and, for each pair (i, l), the rule by which
postcomposition with an entry e: P_i -> P_l moves the basis slots of
Hom(P_j, P_i) to those of Hom(P_j, P_l).  A rule is a tuple of triples
(slot, slot2, k): e o basis[slot] has coefficient e[k] at slot2.  Rules
are derived from compose on basis entries, the first time each pair is
asked for, so a corrupt_compose algebra gets its own corrupt rules.  An
algebra keeps its tables, at most one per vertex, each of at most rank^2
rules.  With them a Hom complex is read off a differential's entries
without composing any of them, but for the one check that a new entry's
memo record composes.  A table also memoizes, per label pair
and entry e, the nonzero cells (slot, slot2, e[k]) that e owns in
Hom(P_j, X)'s differential and the twist's evaluation check for e
(HomTable.record), so both are worked out once per distinct entry, not
once per occurrence, and it numbers the basis slots of a degree's
summands (HomTable.offsets).  The memo holds at most HomTable.MEMO_CAP
records; twist images over GF(2), GF(3) and QQ use at most 8 per label
pair.

This is the only module that knows the entry format: the rest of the package
builds, combines and reads entries through ZigzagAlgebra's methods and Hom
tables, and the dense JSON cell {"src", "tgt", "terms": [{"kind", "coef"}]}
exists only in entry_to_json_obj and entry_from_json_obj.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Tuple

from .braid import DynkinDiagram, json_int
from .fields import Field, GF2, Scalar

Entry = Tuple[Scalar, Scalar]


@dataclass(frozen=True)
class ZigzagAlgebra:
    """Hom spaces and composition for the zigzag algebra of a diagram over a field.

    corrupt_compose is a debug hook used by the self-test: it deliberately
    drops the arrow-arrow product so downstream invariants must fail.
    """

    diagram: DynkinDiagram
    field: Field = GF2
    corrupt_compose: bool = False
    _tables: Dict[int, HomTable] = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    # -- bases ---------------------------------------------------------------

    def hom_basis(self, i: int, j: int) -> Tuple[Entry, ...]:
        """The distinguished basis of Hom(P_i, P_j) as entries, slot by slot."""
        if not (1 <= i <= self.diagram.rank and 1 <= j <= self.diagram.rank):
            raise ValueError(f"unknown vertex pair ({i}, {j})")
        one, zero = self.field.one, self.field.zero
        if i == j:
            return ((one, zero), (zero, one))
        if self.diagram.adjacent(i, j):
            return ((one, zero),)
        return ()

    def dual_basis(self, i: int, j: int) -> Tuple[Entry, ...]:
        """The basis of Hom(P_j, P_i) that the trace pairing makes dual to hom_basis(i, j).

        Slot by slot: e_i <-> l_i, and g_{i,j} -> g_{j,i}.  Both are the
        basis of the other Hom space in reverse slot order.
        """
        return self.hom_basis(i, j)[::-1]

    def coordinates(self, i: int, j: int, e: Entry) -> Tuple[Scalar, ...]:
        """The coordinates of e: P_i -> P_j in hom_basis(i, j)."""
        return e if i == j else e[:1]

    def in_hom(self, i: int, j: int, e: Entry) -> bool:
        """e is a nonzero entry of Hom(P_i, P_j) (a check for entries from outside)."""
        if not (1 <= i <= self.diagram.rank and 1 <= j <= self.diagram.rank):
            return False
        a, b = e
        if i == j:
            return bool(a or b)
        return self.diagram.adjacent(i, j) and bool(a) and not b

    def scalar(self, c: Scalar) -> Entry:
        """c times the identity of any P_i, for a nonzero scalar c."""
        return (c, self.field.zero)

    def hom_table(self, j: int) -> HomTable:
        """The Hom table of vertex j (see the module docstring), built on first use and kept with the algebra."""
        table = self._tables.get(j)
        if table is None:
            table = self._tables[j] = HomTable(self, j)
        return table

    # -- linear structure and composition ---------------------------------------

    def plus(self, e: Optional[Entry], f: Optional[Entry]) -> Optional[Entry]:
        """e + f for entries of one Hom space, None standing for zero on both sides."""
        if e is None:
            return f
        if f is None:
            return e
        add = self.field.add
        a, b = add(e[0], f[0]), add(e[1], f[1])
        return (a, b) if a or b else None

    def times(self, c: Scalar, e: Entry) -> Entry:
        """c * e for a nonzero scalar c."""
        mul = self.field.mul
        return (mul(c, e[0]), mul(c, e[1]))

    def compose(self, i: int, j: int, l: int, g: Entry, f: Entry) -> Optional[Entry]:
        """g o f for f: P_i -> P_j and g: P_j -> P_l, or None when it is zero.

        When i = j or j = l one factor is an endomorphism: identities are
        neutral, so the identity (or arrow) coefficient is ga * fa, and the
        loop kills arrows, so a loop coefficient survives only when all three
        vertices agree.  Otherwise both factors are arrows, and their product
        is ga * fa times the loop when the path returns to i, else zero.
        """
        k = self.field
        if i == j or j == l:
            a = k.mul(g[0], f[0])
            b = k.add(k.mul(g[0], f[1]), k.mul(g[1], f[0])) if i == l else k.zero
        elif i == l and not self.corrupt_compose:
            a, b = k.zero, k.mul(g[0], f[0])
        else:
            return None
        return (a, b) if a or b else None

    # -- trace form ------------------------------------------------------------

    def trace(self, i: int, j: int, e: Entry) -> Scalar:
        """The loop coefficient of an endomorphism e of P_i."""
        if i != j:
            raise ValueError("trace is defined for endomorphisms only")
        return e[1]

    def pairing(self, i: int, j: int, f: Entry, g: Entry) -> Scalar:
        """trace(g o f) for f: P_i -> P_j, g: P_j -> P_i."""
        gf = self.compose(i, j, i, g, f)
        return self.field.zero if gf is None else self.trace(i, i, gf)

    # -- units -----------------------------------------------------------------

    def is_unit(self, i: int, j: int, e: Entry) -> bool:
        """e: P_i -> P_j is invertible: an endomorphism a*e_i + b*l_i with a != 0."""
        return i == j and bool(e[0])

    def inverse(self, e: Entry) -> Entry:
        """Inverse of a unit a*e_i + b*l_i, namely (1/a)*e_i - (b/a^2)*l_i."""
        a, b = e
        if not a:
            raise ValueError("morphism is not invertible")
        k = self.field
        a_inv = k.inv(a)
        return (a_inv, k.neg(k.mul(b, k.mul(a_inv, a_inv))))

    # -- serialization -----------------------------------------------------------

    def _kinds(self, i: int, j: int) -> Tuple[str, ...]:
        """The JSON kinds of the slots of hom_basis(i, j)."""
        if i == j:
            return ("id", "loop")
        return ("arrow",) if self.diagram.adjacent(i, j) else ()

    def entry_to_json_obj(self, i: int, j: int, e: Optional[Entry]) -> dict:
        """The JSON cell of e: P_i -> P_j, its nonzero terms in slot order; None is the zero cell."""
        terms = []
        if e is not None:
            fmt = self.field.format
            terms = [{"kind": kind, "coef": fmt(c)} for kind, c in zip(self._kinds(i, j), e) if c]
        return {"src": i, "tgt": j, "terms": terms}

    def entry_from_json_obj(self, obj: Mapping) -> Tuple[int, int, Optional[Entry]]:
        """(src, tgt, entry) of a JSON cell; every term is checked, repeated kinds add up."""
        src, tgt = json_int(obj["src"], "src"), json_int(obj["tgt"], "tgt")
        if not (1 <= src <= self.diagram.rank and 1 <= tgt <= self.diagram.rank):
            raise ValueError(f"unknown vertex pair ({src}, {tgt})")
        kinds = self._kinds(src, tgt)
        k = self.field
        coefs = [k.zero, k.zero]
        for t in obj.get("terms", ()):
            kind = str(t["kind"])
            if kind not in kinds:
                raise ValueError(f"{kind!r} is not a basis morphism of Hom(P_{src}, P_{tgt})")
            slot = kinds.index(kind)
            coefs[slot] = k.add(coefs[slot], k.parse(str(t["coef"])))
        a, b = coefs
        return src, tgt, ((a, b) if a or b else None)


Rule = Tuple[Tuple[int, int, int], ...]
Cells = Tuple[Tuple[int, int, Scalar], ...]
Record = Tuple[Cells, bool, Tuple[Tuple[int, int, Entry], ...]]


class HomTable(dict):
    """(i, l) -> the postcomposition rule of Hom(P_j, -) for entries P_i -> P_l, each derived on first use.

    basis[l] and dual[l] are hom_basis(j, l) and dual_basis(j, l), and
    width[l] is the number of slots of basis[l].  Each entry of basis is typed
    once, here, with in_hom: twist uses them as evaluation entries P_j ->
    P_l without checking them again, and a mistyped one raises ValueError.
    A product of basis morphisms is a basis morphism or zero, so a rule's
    coefficients are entries of e; and the basis of Hom(P_i, P_l) sends one
    basis morphism to distinct products, so no two triples of a rule share
    (slot, slot2).

    memo maps (i, l, e) to the record that record() returns for an entry e:
    P_i -> P_l, and holds at most MEMO_CAP of them; past the cap a record
    is worked out and not stored.  Replacing a rule clears the memo, so
    every record it holds was read from the table's current rules and its
    readers take it as it is.  Records are asked for entries whose source
    label has a slot, i in j's closed neighbourhood, and whose target l is
    i or next to it: at most 16 label pairs.  Twist images over GF(2),
    GF(3) and QQ have at most 8 distinct entries per label pair, so they
    fill at most half the cap.
    """

    MEMO_CAP = 256

    def __init__(self, algebra: ZigzagAlgebra, j: int) -> None:
        super().__init__()
        self.algebra, self.vertex = algebra, j
        self.basis = {l: algebra.hom_basis(j, l) for l in algebra.diagram.vertices}
        self.dual = {l: algebra.dual_basis(j, l) for l in algebra.diagram.vertices}
        for l, entries in self.basis.items():
            if not all(algebra.in_hom(j, l, e) for e in entries):
                raise ValueError(f"hom_basis({j}, {l}) holds an entry outside Hom(P_{j}, P_{l})")
        self.width = {l: len(b) for l, b in self.basis.items()}
        self.memo: Dict[Tuple[int, int, Entry], Record] = {}

    def __missing__(self, key: Tuple[int, int]) -> Rule:
        i, l = key
        alg, j = self.algebra, self.vertex
        rule = []
        for slot, f in enumerate(self.basis[i]):
            for k, g in enumerate(alg.hom_basis(i, l)):
                rule.extend((slot, slot2, k) for slot2 in _product_slots(alg, j, i, l, g, f))
        self[key] = rule = tuple(rule)
        return rule

    def __setitem__(self, key: Tuple[int, int], rule: Rule) -> None:
        # records read from a replaced rule are void; a new pair has none yet
        if key in self:
            self.memo.clear()
        super().__setitem__(key, rule)

    def offsets(self, labels: Tuple[int, ...]) -> List[int]:
        """The position of each summand's first basis slot, for summands labelled labels, then the dimension."""
        return list(accumulate(map(self.width.__getitem__, labels), initial=0))

    def record(self, i: int, l: int, e: Entry) -> Record:
        """(cells, ok, cone) for an entry e: P_i -> P_l, worked out and kept in the memo while it has room.

        cells are the triples (slot, slot2, e[k]) of the rule self[i, l]
        with e[k] nonzero: Hom(P_j, X)'s differential holds e[k] at (slot2,
        slot) of e's block.  ok is the twist's evaluation check for e: for
        each slot of basis[i], the sum over its cells of basis[l][slot2] o
        (e[k] times the identity) equals e o basis[i][slot].  cone holds,
        cell by cell, (slot, slot2, -e[k] times the identity), the entry the
        twist writes between copies.
        """
        alg, j, basis = self.algebra, self.vertex, self.basis
        cells = tuple((slot, slot2, e[k]) for slot, slot2, k in self[i, l] if e[k])
        acc: Dict[int, Optional[Entry]] = {}
        for slot, slot2, a in cells:
            term = alg.compose(j, j, l, basis[l][slot2], alg.scalar(a))
            if term is not None:
                acc[slot] = alg.plus(acc.get(slot), term)
        ok = all(acc.get(slot) == alg.compose(j, i, l, e, f) for slot, f in enumerate(basis[i]))
        cone = tuple((slot, slot2, alg.scalar(alg.field.neg(a))) for slot, slot2, a in cells)
        record = (cells, ok, cone)
        if len(self.memo) < self.MEMO_CAP:
            self.memo[i, l, e] = record
        return record


def _product_slots(alg: ZigzagAlgebra, i: int, j: int, l: int, g: Entry, f: Entry) -> Tuple[int, ...]:
    """The slots of hom_basis(i, l) at which g o f is nonzero, for basis morphisms f: P_i -> P_j and g: P_j -> P_l.

    Each such coefficient is one (a product of basis morphisms is a basis
    morphism or zero); anything else raises.
    """
    image = alg.compose(i, j, l, g, f)
    if image is None:
        return ()
    one = alg.field.one
    coords = alg.coordinates(i, l, image)
    if any(c and c != one for c in coords):
        raise ValueError("a product of basis morphisms is not a basis morphism")
    return tuple(slot for slot, c in enumerate(coords) if c)
