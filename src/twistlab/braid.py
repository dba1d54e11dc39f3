"""ADE Dynkin diagrams, positive braid words and the exhaustive rewriting oracle.

Positive braid relations preserve word length, so the set of words equal to a
given one in the braid monoid is finite: it is the closure under single
applications of commutation moves (swap two adjacent non-neighbouring letters)
and braid moves (aba -> bab for neighbouring a, b).  Equality and
left-divisibility are decided by breadth-first search over that closure; no
Garside machinery is used.  Practical up to word length ~10 on rank <= 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

_FAMILIES = ("A", "D", "E")


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
    """Construct the canonical ADE diagram for (family, rank)."""
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


def diagram_from_json_obj(obj: Mapping) -> DynkinDiagram:
    return build_diagram(str(obj["family"]), int(obj["rank"]))


def neighbors(diagram: DynkinDiagram, j: int) -> frozenset[int]:
    return diagram.neighbors(j)


_ADJ_CACHE: dict[DynkinDiagram, dict[int, frozenset[int]]] = {}


def _adjacency(diagram: DynkinDiagram) -> dict[int, frozenset[int]]:
    cached = _ADJ_CACHE.get(diagram)
    if cached is None:
        adj: dict[int, set[int]] = {v: set() for v in diagram.vertices}
        for a, b in diagram.edges:
            adj[a].add(b)
            adj[b].add(a)
        cached = {v: frozenset(ws) for v, ws in adj.items()}
        _ADJ_CACHE[diagram] = cached
    return cached


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


def word_from_json_obj(obj: Mapping) -> BraidWord:
    return word(diagram_from_json_obj(obj["diagram"]), (int(s) for s in obj["letters"]))


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
    return LayeredWord(d, tuple(frozenset(int(v) for v in sl) for sl in obj["slices"]))


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


_CLASS_CACHE: dict[tuple[DynkinDiagram, tuple[int, ...]], frozenset[tuple[int, ...]]] = {}


def braid_class(w: BraidWord) -> frozenset[tuple[int, ...]]:
    """The full set of letter sequences monoid-equal to w (BFS closure)."""
    key = (w.diagram, w.letters)
    cached = _CLASS_CACHE.get(key)
    if cached is not None:
        return cached
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
    result = frozenset(seen)
    for u in seen:
        _CLASS_CACHE[(w.diagram, u)] = result
    return result


def canonical_form(w: BraidWord) -> tuple[int, ...]:
    """Deterministic class representative (lexicographically smallest)."""
    return min(braid_class(w))


def equivalent(w1: BraidWord, w2: BraidWord) -> bool:
    """Monoid equality in B_Gamma^+, decided by exhaustive rewriting."""
    if w1.diagram != w2.diagram:
        raise ValueError("words over different diagrams")
    if len(w1.letters) != len(w2.letters):
        return False
    return w2.letters in braid_class(w1)


def left_divisible_by(w: BraidWord, j: int) -> Optional[BraidWord]:
    """A remainder w' with w = s_j w' if one exists, else None.

    BFS with early exit: stops as soon as some representative starts with s_j.
    """
    if not 1 <= j <= w.diagram.rank:
        raise ValueError(f"unknown vertex {j}")
    if not w.letters:
        return None
    cached = _CLASS_CACHE.get((w.diagram, w.letters))
    if cached is not None:
        best = min((u for u in cached if u[0] == j), default=None)
        return None if best is None else BraidWord(w.diagram, best[1:])
    if w.letters[0] == j:
        return BraidWord(w.diagram, w.letters[1:])
    seen = {w.letters}
    frontier = [w.letters]
    while frontier:
        nxt = []
        for u in frontier:
            for v in _neighbor_moves(w.diagram, u):
                if v not in seen:
                    if v[0] == j:
                        return BraidWord(w.diagram, v[1:])
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    result = frozenset(seen)
    for u in seen:
        _CLASS_CACHE[(w.diagram, u)] = result
    return None


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


def flatten(lw: LayeredWord) -> BraidWord:
    """Concatenate the slices, each emitted in ascending vertex order."""
    letters: list[int] = []
    for sl in lw.slices:
        letters.extend(sorted(sl))
    return BraidWord(lw.diagram, tuple(letters))


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
