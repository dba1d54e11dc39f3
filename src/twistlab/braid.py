"""ADE Dynkin diagrams, positive braid words and the word oracle.

The oracle decides equality and left divisibility in the positive braid
monoid B_Gamma^+ by its left-greedy normal form (Deligne 1972; Dehornoy et al.,
*Foundations of Garside Theory*, 2015).  A simple braid is stored as the Weyl
group element it maps to, a permutation of the root system; a word's normal
form is the sequence of simple factors x_1 ... x_k in which every left descent
of x_{i+1} is a right descent of x_i.  Each letter costs at most one pass over
the factors, so the queries are polynomial in the word length.  ``braid_class``
keeps the exhaustive breadth-first closure as a reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

_FAMILIES = ("A", "D", "E")
# the largest rank build_diagram accepts: the oracle's root tables grow as rank^4
MAX_RANK = 32


@dataclass(frozen=True)
class DynkinDiagram:
    """An ADE diagram with canonical labels 1..rank and a fixed 2-coloring.

    A_n is the path 1-2-...-n.  D_n has the degree-3 vertex at label 2 with
    leaves 1, 3 and tail 4..n.  E_n has the branch vertex at label 4: the path
    1-3-4-5-...-n plus the edge 2-4.  The coloring is the proper 2-coloring
    with vertex 1 colored 0.
    """

    family: str
    rank: int
    edges: frozenset[tuple[int, int]]
    coloring: tuple[int, ...]

    @property
    def vertices(self) -> range:
        return range(1, self.rank + 1)

    def color(self, j: int) -> int:
        return self.coloring[j - 1]

    def neighbors(self, j: int) -> frozenset[int]:
        if not 1 <= j <= self.rank:
            raise ValueError(f"unknown vertex {j} in {self.family}{self.rank}")
        return _adjacency(self)[j]

    def adjacent(self, i: int, j: int) -> bool:
        a, b = min(i, j), max(i, j)
        return (a, b) in self.edges

    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def to_json_obj(self) -> dict:
        return {"family": self.family, "rank": self.rank}


def _edge_set(family: str, rank: int) -> frozenset[tuple[int, int]]:
    if family == "A":
        if rank < 2:
            raise ValueError("A_n needs rank >= 2")
        pairs = [(i, i + 1) for i in range(1, rank)]
    elif family == "D":
        if rank < 4:
            raise ValueError("D_n needs rank >= 4")
        pairs = [(1, 2), (2, 3), (2, 4)] + [(i, i + 1) for i in range(4, rank)]
    elif family == "E":
        if rank not in (6, 7, 8):
            raise ValueError("E_n needs rank in {6, 7, 8}")
        pairs = [(1, 3), (3, 4), (2, 4)] + [(i, i + 1) for i in range(4, rank)]
    else:
        raise ValueError(f"unknown family {family!r} (expected A, D or E)")
    return frozenset((min(a, b), max(a, b)) for a, b in pairs)


def build_diagram(family: str, rank: int) -> DynkinDiagram:
    """Construct the canonical ADE diagram for (family, rank), rank at most MAX_RANK."""
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} is above the largest supported rank, {MAX_RANK}")
    family = family.upper()
    edges = _edge_set(family, rank)
    # BFS 2-coloring from vertex 1; the diagram is a tree, so this is unique.
    colors = {1: 0}
    frontier = [1]
    adj: dict[int, set[int]] = {v: set() for v in range(1, rank + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in colors:
                colors[w] = 1 - colors[v]
                frontier.append(w)
    coloring = tuple(colors[v] for v in range(1, rank + 1))
    return DynkinDiagram(family, rank, edges, coloring)


def diagram_from_name(name: str) -> DynkinDiagram:
    name = name.strip().upper()
    if len(name) < 2 or name[0] not in _FAMILIES or not name[1:].isdigit():
        raise ValueError(f"cannot parse diagram name {name!r} (expected e.g. A3, D4, E6)")
    return build_diagram(name[0], int(name[1:]))


def json_int(v: object, what: str) -> int:
    """v, which must be a JSON integer: an int, not a bool, a float or a string."""
    if type(v) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {v!r}")
    return v


def diagram_from_json_obj(obj: Mapping) -> DynkinDiagram:
    family = obj["family"]
    if not isinstance(family, str):
        raise ValueError(f"a diagram's family must be a JSON string, got {family!r}")
    return build_diagram(family, json_int(obj["rank"], "a diagram's rank"))


def neighbors(diagram: DynkinDiagram, j: int) -> frozenset[int]:
    return diagram.neighbors(j)


@lru_cache(maxsize=32)  # bounded: at most 32 diagrams, each a few hundred bytes
def _adjacency(diagram: DynkinDiagram) -> dict[int, frozenset[int]]:
    return {v: frozenset(a + b - v for a, b in diagram.edges if v in (a, b)) for v in diagram.vertices}


# The identity table on byte codes
_ID = bytes(range(256))


class _Weyl(NamedTuple):
    """A diagram's simple reflections acting on its roots.

    With npos positive roots, roots r < npos are positive, alpha_i is
    r = i - 1 and root r + npos is -(root r).  A Weyl group element x is a
    table whose entry r codes the index of x(root r): a 256-byte table fixing
    the bytes past the roots while the roots fit in a byte (up to A15, D11 and
    E8), a str of length 2 npos past that.  Both spell the group law alike:
    s * x is x.translate(s), x * s is s.translate(x), and x^-1 is
    invert(x, ident).
    """

    ident: bytes | str
    neg: int | str  # entry r of a table codes a negative root exactly when it is >= neg
    refl: tuple  # refl[i]: the table of s_{i+1}
    digit: bytes | str  # digit[r] codes "1" when root r is negative, else "0"
    invert: Callable


@lru_cache(maxsize=32)  # bounded: at most 32 diagrams; tables of E8 take 2 kB, of A_n O(n^3) bytes
def _weyl(diagram: DynkinDiagram) -> _Weyl:
    adj = _adjacency(diagram)

    def reflect(i: int, x: tuple[int, ...]) -> tuple[int, ...]:
        # s_i(x) = x - <x, alpha_i> alpha_i, and <x, alpha_i> = 2 x_i - sum of x_j over j ~ i
        return x[: i - 1] + (sum(x[j - 1] for j in adj[i]) - x[i - 1],) + x[i:]

    # s_i permutes the positive roots other than alpha_i, so closing the simple
    # roots under the simple reflections while staying positive finds them all;
    # images[r] lists s_1(root r), ..., s_rank(root r)
    pos = [tuple(int(k == i) for k in diagram.vertices) for i in diagram.vertices]
    index = {x: r for r, x in enumerate(pos)}
    images = []
    for x in pos:
        images.append([reflect(i, x) for i in diagram.vertices])
        for y in images[-1]:
            if min(y) >= 0 and y not in index:
                index[y] = len(pos)
                pos.append(y)
    npos = len(pos)

    wide = 2 * npos > 256

    def table(entries: list[int]) -> bytes | str:
        return "".join(map(chr, entries)) if wide else bytes(entries) + _ID[2 * npos :]

    refl = []
    for i in diagram.vertices:
        # the one image off the positive roots is s_i(alpha_i) = -alpha_i, and
        # s_i(-x) = -s_i(x) gives the images of the negative roots
        half = [index.get(row[i - 1], npos + i - 1) for row in images]
        refl.append(table(half + [(r + npos) % (2 * npos) for r in half]))
    ident = table(list(range(2 * npos)))
    digit = table([ord("0")] * npos + [ord("1")] * npos)
    return _Weyl(ident, ident[npos], tuple(refl), digit, _invert_str if wide else bytes.maketrans)


def _invert_str(x: str, ident: str) -> str:
    return ident.translate(str.maketrans(x, ident))


@dataclass(frozen=True)
class BraidWord:
    """A positive braid word; the empty letter sequence is the identity."""

    diagram: DynkinDiagram
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        for s in self.letters:
            if not 1 <= s <= self.diagram.rank:
                raise ValueError(f"letter {s} is not a vertex of {self.diagram.name()}")

    def __len__(self) -> int:
        return len(self.letters)

    def to_json_obj(self) -> dict:
        return {"diagram": self.diagram.to_json_obj(), "letters": list(self.letters)}


def word(diagram: DynkinDiagram, letters: Iterable[int]) -> BraidWord:
    return BraidWord(diagram, tuple(letters))


@dataclass(frozen=True)
class LayeredWord:
    """A braid word sliced by parity: slice k only holds vertices of color k mod 2."""

    diagram: DynkinDiagram
    slices: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        for k, sl in enumerate(self.slices):
            for j in sl:
                if self.diagram.color(j) != k % 2:
                    raise ValueError(f"vertex {j} has color {self.diagram.color(j)}, cannot sit in slice {k}")

    def to_json_obj(self) -> dict:
        return {"diagram": self.diagram.to_json_obj(), "slices": [sorted(sl) for sl in self.slices]}


def layered_from_json_obj(obj: Mapping) -> LayeredWord:
    if not isinstance(obj, Mapping):
        raise ValueError("a layered word must be a JSON object")
    d = diagram_from_json_obj(obj["diagram"])
    return LayeredWord(d, tuple(frozenset(json_int(v, "a vertex") for v in sl) for sl in obj["slices"]))


def _neighbor_moves(diagram: DynkinDiagram, letters: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    n = len(letters)
    for i in range(n - 1):
        a, b = letters[i], letters[i + 1]
        if a != b and not diagram.adjacent(a, b):
            yield letters[:i] + (b, a) + letters[i + 2 :]
    for i in range(n - 2):
        a, b, c = letters[i], letters[i + 1], letters[i + 2]
        if a == c and diagram.adjacent(a, b):
            yield letters[:i] + (b, a, b) + letters[i + 3 :]


def braid_class(w: BraidWord) -> frozenset[tuple[int, ...]]:
    """The full set of letter sequences monoid-equal to w (BFS closure).

    Exponential in the word length: the reference the normal form is tested against.
    """
    seen = {w.letters}
    frontier = [w.letters]
    while frontier:
        nxt = []
        for u in frontier:
            for v in _neighbor_moves(w.diagram, u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return frozenset(seen)


def _descents(W: _Weyl, x) -> int:
    """The right descents of x, bit rank - 1 - i set for s_{i+1}; x^-1's are x's left descents."""
    return int(x[: len(W.refl)].translate(W.digit), 2)


def _lowest(W: _Weyl, mask: int) -> int:
    """The index i of the least letter s_{i+1} in a nonzero descent mask."""
    return len(W.refl) - mask.bit_length()


def _weight(W: _Weyl, a, b):
    """Move letters from the left of b to the right of a until (a, b) is left-weighted.

    Returns the new pair, or None when (a, b) already was.  The pair is
    left-weighted when every left descent of b is a right descent of a.
    """
    b_inv = W.invert(b, W.ident)
    free = _descents(W, b_inv) & ~_descents(W, a)
    if not free:
        return None
    while free:
        s = W.refl[_lowest(W, free)]
        a = s.translate(a)  # a * s
        b_inv = s.translate(b_inv)  # (s * b)^-1 = b^-1 * s
        free = _descents(W, b_inv) & ~_descents(W, a)
    return a, W.invert(b_inv, W.ident)


def _normal_form(w: BraidWord) -> list:
    """The left-greedy normal form of w: its simple factors, none trivial."""
    W = _weyl(w.diagram)
    nf = []
    for letter in w.letters:
        s = W.refl[letter - 1]
        if not nf or nf[-1][letter - 1] >= W.neg:
            nf.append(s)  # s is a right descent of x_k, so (x_k, s) is left-weighted
            continue
        nf[-1] = s.translate(nf[-1])
        # settle the pairs from the right; the domino rule keeps the new tails
        # left-weighted, so the first pair that needs no move ends the pass.
        # No tail becomes trivial: a left-weighted (a, b) with b != 1 has no
        # simple product, so neither has any right multiple of it.
        for k in range(len(nf) - 1, 0, -1):
            pair = _weight(W, nf[k - 1], nf[k])
            if pair is None:
                break
            nf[k - 1], nf[k] = pair
    return nf


def _strip(W: _Weyl, nf: list, i: int) -> None:
    """Divide the normal form nf on the left by s_{i+1}, a left descent of its head.

    The head of u x_2 ... x_k is the head of u x_2, so one left-to-right pass
    makes nf normal again.
    """
    nf[0] = nf[0].translate(W.refl[i])
    for k in range(len(nf)):
        if nf[k] == W.ident:
            del nf[k]  # a trivial factor: the rest is already normal
            return
        pair = _weight(W, nf[k], nf[k + 1]) if k + 1 < len(nf) else None
        if pair is None:
            return
        nf[k], nf[k + 1] = pair


def _lex_least(W: _Weyl, nf: list) -> tuple[int, ...]:
    """The lexicographically least word of a normal form, which it consumes.

    Its first letter is the least left descent of the head.
    """
    letters = []
    while nf:
        i = _lowest(W, _descents(W, W.invert(nf[0], W.ident)))
        letters.append(i + 1)
        _strip(W, nf, i)
    return tuple(letters)


def canonical_form(w: BraidWord) -> tuple[int, ...]:
    """Deterministic class representative: the lexicographically least word."""
    return _lex_least(_weyl(w.diagram), _normal_form(w))


def equivalent(w1: BraidWord, w2: BraidWord) -> bool:
    """Monoid equality in B_Gamma^+: equal lengths and equal normal forms."""
    if w1.diagram != w2.diagram:
        raise ValueError("words over different diagrams")
    return len(w1.letters) == len(w2.letters) and _normal_form(w1) == _normal_form(w2)


def left_divisible_by(w: BraidWord, j: int) -> Optional[BraidWord]:
    """A remainder w' with w = s_j w' if one exists, else None.

    s_j divides w on the left exactly when it is a left descent of the head of
    w's normal form.  The remainder returned spells each factor of its own
    normal form as that factor's lexicographically least word.
    """
    if not 1 <= j <= w.diagram.rank:
        raise ValueError(f"unknown vertex {j}")
    W = _weyl(w.diagram)
    nf = _normal_form(w)
    if not nf or W.invert(nf[0], W.ident)[j - 1] < W.neg:
        return None
    _strip(W, nf, j - 1)
    return BraidWord(w.diagram, tuple(c for x in nf for c in _lex_least(W, [x])))


def layer(w: BraidWord) -> LayeredWord:
    """Greedy parity layering.

    Each letter s_j (color u) goes into the smallest slice k = u (mod 2)
    strictly greater than the slice of every earlier letter equal or adjacent
    to j.  Flattening the result is monoid-equal to w (commutations only).
    """
    d = w.diagram
    last_slice: dict[int, int] = {}
    placed: list[tuple[int, int]] = []
    top = -1
    for j in w.letters:
        u = d.color(j)
        m = last_slice.get(j, -1)
        for k in d.neighbors(j):
            m = max(m, last_slice.get(k, -1))
        k = m + 1
        if k % 2 != u:
            k += 1
        last_slice[j] = k
        placed.append((k, j))
        top = max(top, k)
    slices = [set() for _ in range(top + 1)]
    for k, j in placed:
        slices[k].add(j)
    return LayeredWord(d, tuple(frozenset(s) for s in slices))


def parse_letters(text: str) -> tuple[int, ...]:
    """Parse a word given as comma- or space-separated vertex labels."""
    text = text.strip()
    if not text or text in ("e", "eps", "epsilon"):
        return ()
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    try:
        return tuple(int(p.lstrip("s")) for p in parts if p)
    except ValueError as exc:
        raise ValueError(f"cannot parse word {text!r}") from exc
