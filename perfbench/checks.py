"""Output checks that share no code with twistlab.

Everything here works on plain data: diagrams as (family, rank) names, words
as tuples of letters, complexes as the JSON encoding that
``complex_to_json_obj`` emits.  The checks are:

- ``complex_problems``: d^2 = 0 and minimality, composing entries with the
  three zigzag rules (identities are neutral, an arrow followed by the arrow
  back is the loop, every other product vanishes);
- ``k0_class`` / ``summand_class``: the alternating summand count of a twist
  image against the reflection action on K_0;
- ``profile_euler``: the Euler characteristic of a hom profile;
- ``Garside``: the left-greedy normal form of a positive braid, built on the
  Weyl group's integer reflection representation.  It decides equality,
  left divisibility and the lexicographically smallest representative.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Word = Tuple[int, ...]


# -- diagrams ------------------------------------------------------------------


def edges(name: str) -> frozenset:
    """Edge set of an ADE diagram in twistlab's labelling (see its README)."""
    family, rank = name[0].upper(), int(name[1:])
    if family == "A":
        pairs = [(i, i + 1) for i in range(1, rank)]
    elif family == "D":
        pairs = [(1, 2), (2, 3), (2, 4)] + [(i, i + 1) for i in range(4, rank)]
    elif family == "E":
        pairs = [(1, 3), (3, 4), (2, 4)] + [(i, i + 1) for i in range(4, rank)]
    else:
        raise ValueError(f"unknown diagram {name!r}")
    return frozenset(frozenset(p) for p in pairs)


def rank_of(name: str) -> int:
    return int(name[1:])


def adjacency(name: str) -> Dict[int, Tuple[int, ...]]:
    es = edges(name)
    n = rank_of(name)
    return {i: tuple(j for j in range(1, n + 1) if frozenset((i, j)) in es) for i in range(1, n + 1)}


# -- coefficients ----------------------------------------------------------------


class Coeffs:
    """Parse and combine the coefficient strings of one field ("q" or "f<p>")."""

    def __init__(self, field: str) -> None:
        self.p = None if field == "q" else int(field[1:])

    def parse(self, text: str):
        value = Fraction(text)
        if self.p is None:
            return value
        return value.numerator * pow(value.denominator, -1, self.p) % self.p

    def is_zero(self, value) -> bool:
        return value == 0 if self.p is None else value % self.p == 0

    def reduce(self, value):
        return value if self.p is None else value % self.p


# -- complexes in their JSON encoding ------------------------------------------------


def _entry(cell, coeffs: Coeffs) -> Dict[str, object]:
    """kind -> coefficient of one matrix cell, zero terms dropped."""
    out = {}
    if cell is None:
        return out
    for term in cell.get("terms", ()):
        c = coeffs.parse(str(term["coef"]))
        if not coeffs.is_zero(c):
            out[term["kind"]] = coeffs.reduce(out.get(term["kind"], 0) + c)
    return out


def _compose(g: Dict[str, object], g_src: int, g_tgt: int, f: Dict[str, object], f_src: int):
    """g o f for f: f_src -> g_src and g: g_src -> g_tgt, as kind -> coefficient."""
    out: Dict[str, object] = {}
    for gk, gc in g.items():
        for fk, fc in f.items():
            if fk == "id":
                kind = gk
            elif gk == "id":
                kind = fk
            elif gk == "arrow" and fk == "arrow" and g_tgt == f_src:
                kind = "loop"
            else:
                continue
            out[kind] = out.get(kind, 0) + gc * fc
    return out


def complex_problems(obj: dict, field: str) -> List[str]:
    """Violations of d^2 = 0 and of minimality in a JSON-encoded complex."""
    coeffs = Coeffs(field)
    labels = {int(d): [int(v) for v in ls] for d, ls in obj.get("degrees", {}).items()}
    mats = {}
    problems = []
    for d, rows in obj.get("diffs", {}).items():
        d = int(d)
        sparse = {}
        for r, row in enumerate(rows):
            for c, cell in enumerate(row):
                e = _entry(cell, coeffs)
                if not e:
                    continue
                src, tgt = labels[d][c], labels[d + 1][r]
                if cell["src"] != src or cell["tgt"] != tgt:
                    problems.append(f"entry {d}[{r}][{c}] is typed {cell['src']}->{cell['tgt']}")
                if "id" in e and src == tgt:
                    problems.append(f"entry {d}[{r}][{c}] has a unit identity coefficient: not minimal")
                sparse[(r, c)] = e
        mats[d] = sparse
    for d, lower in mats.items():
        upper = mats.get(d + 1)
        if not upper:
            continue
        by_row: Dict[int, List[Tuple[int, dict]]] = {}
        for (k, c), f in lower.items():
            by_row.setdefault(k, []).append((c, f))
        total: Dict[Tuple[int, int], dict] = {}
        for (r, k), g in upper.items():
            for c, f in by_row.get(k, ()):
                prod = _compose(g, labels[d + 1][k], labels[d + 2][r], f, labels[d][c])
                acc = total.setdefault((r, c), {})
                for kind, v in prod.items():
                    acc[kind] = acc.get(kind, 0) + v
        for (r, c), acc in total.items():
            if any(not coeffs.is_zero(v) for v in acc.values()):
                problems.append(f"d^2 != 0 from degree {d} at [{r}][{c}]")
    return problems


def summand_class(obj: dict, rank: int) -> Tuple[int, ...]:
    """Alternating count of each P_i over the degrees of a JSON-encoded complex."""
    x = [0] * rank
    for d, ls in obj.get("degrees", {}).items():
        sign = -1 if int(d) % 2 else 1
        for v in ls:
            x[int(v) - 1] += sign
    return tuple(x)


def k0_class(name: str, letters: Sequence[int]) -> Tuple[int, ...]:
    """[t_w(Lambda)] in K_0: apply x -> x - (sum_j c_ij x_j) e_i, rightmost letter first."""
    adj = adjacency(name)
    x = [1] * rank_of(name)
    for i in reversed(letters):
        x[i - 1] -= 2 * x[i - 1] + sum(x[j - 1] for j in adj[i])
    return tuple(x)


def profile_euler(profile_obj: Dict[str, int], rank: int) -> Tuple[int, ...]:
    """sum_d (-1)^d dim Hom^d(P_j, X) for each j, from a "j,d" -> dim mapping."""
    chi = [0] * rank
    for key, h in profile_obj.items():
        j, d = (int(s) for s in key.split(","))
        chi[j - 1] += -h if d % 2 else h
    return tuple(chi)


def hom_euler(name: str, k0: Sequence[int]) -> Tuple[int, ...]:
    """Euler characteristic of Hom(P_j, X) predicted from [X]: 2 x_j + sum of neighbours."""
    adj = adjacency(name)
    return tuple(2 * k0[j - 1] + sum(k0[i - 1] for i in adj[j]) for j in range(1, len(k0) + 1))


# -- Garside normal form --------------------------------------------------------------


class Garside:
    """Left-greedy normal form of positive braids of one ADE diagram.

    A simple braid is stored as the Weyl group element it maps to, as a pair
    (columns of w, columns of w^-1) in the basis of simple roots.  The right
    descents of w are the s with w(alpha_s) < 0; the left descents are those
    of w^-1.  A word's normal form is the tuple of its factors' columns.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.n = rank_of(name)
        adj = adjacency(name)
        self.cartan = [[2 if i == j else (-1 if j in adj[i] else 0) for j in range(1, self.n + 1)] for i in range(1, self.n + 1)]
        ident = tuple(tuple(1 if k == j else 0 for k in range(self.n)) for j in range(self.n))
        self.identity = (ident, ident)

    # Weyl group arithmetic on columns (0-based generator s)
    def _reflect(self, s: int, v: Tuple[int, ...]) -> Tuple[int, ...]:
        row = self.cartan[s]
        c = sum(row[k] * v[k] for k in range(self.n))
        if not c:
            return v
        return tuple(v[k] - c if k == s else v[k] for k in range(self.n))

    def _right(self, cols, s: int):
        ws = cols[s]
        row = self.cartan[s]
        return tuple(
            tuple(cols[j][k] - row[j] * ws[k] for k in range(self.n)) if row[j] else cols[j]
            for j in range(self.n)
        )

    def _left(self, cols, s: int):
        return tuple(self._reflect(s, c) for c in cols)

    def times(self, elt, s: int):
        """w s for generator s (1-based)."""
        s -= 1
        fwd, inv = elt
        return (self._right(fwd, s), self._left(inv, s))

    def times_left(self, s: int, elt):
        """s w for generator s (1-based)."""
        s -= 1
        fwd, inv = elt
        return (self._left(fwd, s), self._right(inv, s))

    def right_descents(self, elt) -> frozenset:
        return frozenset(s + 1 for s, col in enumerate(elt[0]) if all(v <= 0 for v in col))

    def left_descents(self, elt) -> frozenset:
        return frozenset(s + 1 for s, col in enumerate(elt[1]) if all(v <= 0 for v in col))

    def reduced_word(self, elt) -> Word:
        out = []
        while elt != self.identity:
            s = min(self.left_descents(elt))
            out.append(s)
            elt = self.times_left(s, elt)
        return tuple(out)

    # normal forms
    def factors(self, letters: Iterable[int]) -> list:
        """The left-greedy normal form of a word, as a list of simple elements."""
        nf: list = []
        for s in letters:
            if nf and s not in self.right_descents(nf[-1]):
                nf[-1] = self.times(nf[-1], s)
            else:
                nf.append(self.times(self.identity, s))
            self._settle(nf)
        return nf

    def _settle(self, nf: list) -> None:
        # Make every adjacent pair left-weighted: L(q) must lie in R(p).
        changed = True
        while changed:
            changed = False
            for i in range(len(nf) - 1, 0, -1):
                p, q = nf[i - 1], nf[i]
                while True:
                    extra = self.left_descents(q) - self.right_descents(p)
                    if not extra:
                        break
                    t = min(extra)
                    p = self.times(p, t)
                    q = self.times_left(t, q)
                    changed = True
                nf[i - 1], nf[i] = p, q
            while nf and nf[-1] == self.identity:
                nf.pop()

    def normal_form(self, letters: Iterable[int]) -> tuple:
        return tuple(f[0] for f in self.factors(letters))

    def equal(self, u: Sequence[int], v: Sequence[int]) -> bool:
        return len(u) == len(v) and self.normal_form(u) == self.normal_form(v)

    def left_divisors(self, letters: Sequence[int]) -> frozenset:
        nf = self.factors(letters)
        return self.left_descents(nf[0]) if nf else frozenset()

    def strip(self, s: int, letters: Sequence[int]) -> Optional[Word]:
        """A word for s^-1 x if s left-divides x, else None."""
        nf = self.factors(letters)
        if not nf or s not in self.left_descents(nf[0]):
            return None
        rest = self.reduced_word(self.times_left(s, nf[0]))
        for f in nf[1:]:
            rest += self.reduced_word(f)
        return rest

    def lexmin(self, letters: Sequence[int]) -> Word:
        """The lexicographically smallest word equal to x in the monoid."""
        out: List[int] = []
        current: Optional[Word] = tuple(letters)
        while current:
            s = min(self.left_divisors(current))
            out.append(s)
            current = self.strip(s, current)
        return tuple(out)
