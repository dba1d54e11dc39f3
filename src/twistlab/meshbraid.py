"""Words as decorated vertex sets of the translation quiver, and the braiding solver.

A finite set of vertices (n, j) of the translation quiver (slice n, diagram
vertex j of color n mod 2) encodes the positive word read off slice by slice.
A decoration theta on the set plus boundary values at slice -infinity obeys
the mesh relations when every vertex b satisfies

    theta(b) + theta(tau(b)) = sum of theta over mesh(tau(b), b),

tau(b) being the nearest same-column predecessor (possibly imaginary) and the
mesh collecting the neighbouring-column vertices strictly between the two.

Commutation slides a vertex two slices sideways when nothing blocks it;
braiding trades the configuration (n,j), (n+1,k), (n+2,j) for
(n+1,k), (n+2,j), (n+3,k) while permuting theta.  Both preserve the word and
the mesh relations, which makes certificates of moves independently checkable.

find_left_divisor implements the lexicographic descent: walk the chain of
meshes from the unique theta-zero vertex, align with commutations, braid at
the terminal triple, repeat; when the zero vertex's mesh dries up it commutes
to the front and its column is a left divisor of the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from .braid import BraidWord, DynkinDiagram, LayeredWord

ZVert = Tuple[int, int]  # (slice, diagram vertex)
MINUS_INF = float("-inf")
ImaginaryVert = Tuple[float, int]


class MeshError(ValueError):
    """Raised when a move or solver precondition fails."""


@dataclass(eq=False)
class DecoratedSet:
    """A finite theta-decorated subset of the translation quiver.

    boundary holds theta at the imaginary vertices (-infinity, j), one value
    per diagram vertex.  Treat instances as immutable.
    """

    diagram: DynkinDiagram
    vertices: frozenset[ZVert]
    theta: Dict[ZVert, int]
    boundary: Dict[int, int]

    def __post_init__(self) -> None:
        for (n, j) in self.vertices:
            if self.diagram.color(j) != n % 2:
                raise MeshError(f"vertex ({n}, {j}) violates the parity of the translation quiver")
        if set(self.theta) != set(self.vertices):
            raise MeshError("theta must be defined on exactly the vertex set")
        if set(self.boundary) != set(self.diagram.vertices):
            raise MeshError("boundary must assign a value to every diagram vertex")

    def theta_of(self, v: Union[ZVert, ImaginaryVert]) -> int:
        if v[0] == MINUS_INF:
            return self.boundary[v[1]]
        return self.theta[v]  # type: ignore[index]

    def slices(self) -> Dict[int, list[int]]:
        out: Dict[int, list[int]] = {}
        for (n, j) in self.vertices:
            out.setdefault(n, []).append(j)
        return {n: sorted(js) for n, js in sorted(out.items())}

    def replaced(self, remove: Iterable[ZVert], add: Mapping[ZVert, int]) -> "DecoratedSet":
        verts = set(self.vertices)
        theta = dict(self.theta)
        for v in remove:
            verts.discard(v)
            theta.pop(v, None)
        for v, value in add.items():
            verts.add(v)
            theta[v] = value
        return DecoratedSet(self.diagram, frozenset(verts), theta, dict(self.boundary))

    def to_json_obj(self) -> dict:
        return {
            "diagram": self.diagram.to_json_obj(),
            "vertices": [list(v) for v in sorted(self.vertices)],
            "theta": {f"{n},{j}": self.theta[(n, j)] for (n, j) in sorted(self.vertices)},
            "boundary": {str(j): v for j, v in sorted(self.boundary.items())},
        }


def decorated_from_json_obj(obj: Mapping) -> DecoratedSet:
    from .braid import diagram_from_json_obj, json_int

    if not isinstance(obj, Mapping):
        raise MeshError("a decorated set must be a JSON object")
    d = diagram_from_json_obj(obj["diagram"])
    vertices = frozenset((json_int(n, "a vertex's n"), json_int(j, "a vertex's label")) for n, j in obj["vertices"])
    theta: Dict[ZVert, int] = {}
    for key, value in obj.get("theta", {}).items():
        n, j = key.split(",")
        theta[(int(n), int(j))] = json_int(value, "a theta value")
    boundary = {int(j): json_int(v, "a boundary value") for j, v in obj["boundary"].items()}
    return DecoratedSet(d, vertices, theta, boundary)


def tau(s: DecoratedSet, b: ZVert) -> Union[ZVert, ImaginaryVert]:
    """Nearest same-column predecessor of b, or the imaginary (-inf, column)."""
    if b not in s.vertices:
        raise MeshError(f"vertex {b} is not in the set")
    n, j = b
    best = None
    for (m, k) in s.vertices:
        if k == j and m < n and (best is None or m > best):
            best = m
    if best is None:
        return (MINUS_INF, j)
    return (best, j)


def mesh(s: DecoratedSet, a: Union[ZVert, ImaginaryVert], b: ZVert) -> frozenset[ZVert]:
    """Vertices of neighbouring columns strictly between a and b."""
    t = b[1]
    nbs = s.diagram.neighbors(t)
    return frozenset(
        c for c in s.vertices if c[1] in nbs and a[0] < c[0] < b[0]
    )


def check_mesh_relations(s: DecoratedSet) -> bool:
    for b in s.vertices:
        t = tau(s, b)
        total = sum(s.theta_of(c) for c in mesh(s, t, b))
        if s.theta_of(b) + s.theta_of(t) != total:
            return False
    return True


def word_of(s: DecoratedSet) -> BraidWord:
    """The braid word read slice by slice (ascending vertex order inside a slice)."""
    letters: List[int] = []
    for _, js in s.slices().items():
        letters.extend(js)
    return BraidWord(s.diagram, tuple(letters))


def to_decorated(lw: LayeredWord, boundary: Mapping[int, int]) -> DecoratedSet:
    """Decorate the vertex set of a layered word by the mesh recurrence.

    theta is forced: processing slices left to right, theta(b) is the mesh
    sum minus theta(tau(b)), so the result satisfies mesh relations by
    construction.
    """
    d = lw.diagram
    boundary = {j: int(boundary[j]) for j in d.vertices}
    vertices = frozenset((k, j) for k, sl in enumerate(lw.slices) for j in sl)
    s = DecoratedSet(d, vertices, {v: 0 for v in vertices}, boundary)
    theta: Dict[ZVert, int] = {}
    for b in sorted(vertices):
        t = tau(s, b)
        total = 0
        for c in mesh(s, t, b):
            total += theta[c]
        prev = theta[t] if t[0] != MINUS_INF else boundary[t[1]]
        theta[b] = total - prev
    return DecoratedSet(d, vertices, theta, boundary)


def chi_boundary(diagram: DynkinDiagram, i: int) -> Dict[int, int]:
    """Boundary -1 at i and 0 elsewhere (the reconstruction seeding)."""
    if not 1 <= i <= diagram.rank:
        raise MeshError(f"unknown vertex {i}")
    return {j: (-1 if j == i else 0) for j in diagram.vertices}


def chi_of_layered(lw: LayeredWord) -> Dict[ZVert, int]:
    """The positivity recurrence values on the vertex set of a layered word.

    Requires the first nonempty slice to be a singleton {i}; seeds chi(i) = 1
    there and then chi(n, k) = sum of chi(n-1, neighbours) - chi(n-2, k),
    missing vertices counting as 0.  Coincides with to_decorated under the
    boundary that is -1 at i and 0 elsewhere.
    """
    occupied = [(k, sl) for k, sl in enumerate(lw.slices) if sl]
    if not occupied:
        return {}
    k0, first = occupied[0]
    if len(first) != 1:
        raise MeshError("the first nonempty slice must be a singleton")
    d = lw.diagram
    chi: Dict[ZVert, int] = {}

    def chi_at(n: int, j: int) -> int:
        return chi.get((n, j), 0)

    for k, sl in occupied:
        for j in sorted(sl):
            if k == k0:
                chi[(k, j)] = 1
            else:
                chi[(k, j)] = sum(chi_at(k - 1, t) for t in d.neighbors(j)) - chi_at(k - 2, j)
    return chi


# -- moves ---------------------------------------------------------------------


@dataclass(frozen=True)
class CommuteMove:
    vertex: ZVert
    direction: int  # +1 moves two slices right, -1 two slices left

    def to_json_obj(self) -> dict:
        return {"move": "commute", "vertex": list(self.vertex), "direction": self.direction}


@dataclass(frozen=True)
class BraidMove:
    a: ZVert
    b: ZVert
    c: ZVert

    def to_json_obj(self) -> dict:
        return {"move": "braid", "a": list(self.a), "b": list(self.b), "c": list(self.c)}


Move = Union["CommuteMove", "BraidMove"]  # strings: see fields.Field
MoveCertificate = Tuple[Move, ...]


def commute_move(s: DecoratedSet, a: ZVert, direction: int) -> DecoratedSet:
    """Slide a two slices sideways; requires an empty target and a clear gap."""
    if direction not in (1, -1):
        raise MeshError("direction must be +1 or -1")
    if a not in s.vertices:
        raise MeshError(f"vertex {a} is not in the set")
    n, j = a
    target = (n + 2 * direction, j)
    if target in s.vertices:
        raise MeshError(f"target slot {target} is occupied")
    between = n + direction
    for k in s.diagram.neighbors(j):
        if (between, k) in s.vertices:
            raise MeshError(f"neighbour ({between}, {k}) blocks the commutation")
    return s.replaced([a], {target: s.theta[a]})


def braid_move(s: DecoratedSet, a: ZVert, b: ZVert, c: ZVert) -> DecoratedSet:
    """Apply the braiding (n,j),(n+1,k),(n+2,j) -> (n+1,k),(n+2,j),(n+3,k)."""
    n, j = a
    k = b[1]
    if b != (n + 1, k) or c != (n + 2, j):
        raise MeshError("vertices do not form a braid-shaped triple")
    if not s.diagram.adjacent(j, k):
        raise MeshError(f"columns {j} and {k} are not adjacent")
    for v in (a, b, c):
        if v not in s.vertices:
            raise MeshError(f"vertex {v} is not in the set")
    for t in s.diagram.neighbors(j):
        if t != k and (n + 1, t) in s.vertices:
            raise MeshError(f"({n + 1}, {t}) blocks the braiding")
    for l in s.diagram.neighbors(k):
        if l != j and (n + 2, l) in s.vertices:
            raise MeshError(f"({n + 2}, {l}) blocks the braiding")
    d = (n + 3, k)
    if d in s.vertices:
        raise MeshError(f"target slot {d} is occupied")
    return s.replaced(
        [a],
        {b: s.theta[c], c: s.theta[b], d: s.theta[a]},
    )


def apply_moves(s: DecoratedSet, moves: Iterable[Move]) -> DecoratedSet:
    """Replay a certificate with full precondition checking."""
    for mv in moves:
        if isinstance(mv, CommuteMove):
            s = commute_move(s, mv.vertex, mv.direction)
        elif isinstance(mv, BraidMove):
            s = braid_move(s, mv.a, mv.b, mv.c)
        else:
            raise MeshError(f"unknown move {mv!r}")
    return s


# -- the left-divisor solver ----------------------------------------------------


def _check_divisor_hypotheses(s: DecoratedSet) -> Tuple[ZVert, int]:
    zeros = [v for v in s.vertices if s.theta[v] == 0]
    negatives = [v for v in s.vertices if s.theta[v] < 0]
    if negatives or len(zeros) != 1:
        raise MeshError("theta must be non-negative with exactly one zero vertex")
    seeds = [j for j, v in s.boundary.items() if v == -1]
    others = [j for j, v in s.boundary.items() if v not in (0, -1)]
    if len(seeds) != 1 or others:
        raise MeshError("boundary must be -1 at exactly one vertex and 0 elsewhere")
    return zeros[0], seeds[0]


_MAX_BRAIDINGS = 1_000_000


def find_left_divisor(s: DecoratedSet) -> Tuple[int, MoveCertificate]:
    """A letter j != i left-dividing the word, with a replayable move certificate.

    Hypotheses: mesh relations hold, theta >= 0 with exactly one zero vertex,
    boundary -1 at exactly one vertex i and 0 elsewhere.  The certificate
    transforms the set into one whose unique zero vertex occupies the minimal
    slice, in column j.
    """
    zero, seed = _check_divisor_hypotheses(s)
    if not check_mesh_relations(s):
        raise MeshError("mesh relations do not hold")
    moves: List[Move] = []
    braidings = 0
    while True:
        zero = next(v for v in s.vertices if s.theta[v] == 0)
        t0 = tau(s, zero)
        if t0[0] == MINUS_INF:
            if mesh(s, t0, zero):
                raise MeshError("internal invariant breach: nonempty infinite mesh at the zero vertex")
            # slide the zero vertex to the minimal occupied slice
            while any(v != zero and v[0] < zero[0] for v in s.vertices):
                s = commute_move(s, zero, -1)
                moves.append(CommuteMove(zero, -1))
                zero = (zero[0] - 2, zero[1])
            j = zero[1]
            if j == seed:
                raise MeshError("internal invariant breach: divisor equals the seed vertex")
            return j, tuple(moves)
        s, step_moves = _descent_step(s, zero)
        moves.extend(step_moves)
        braidings += 1
        if braidings > _MAX_BRAIDINGS:
            raise MeshError("internal invariant breach: descent exceeded the braiding budget")


def _commute_to(s: DecoratedSet, v: ZVert, target_slice: int, moves: List[Move]) -> Tuple[DecoratedSet, ZVert]:
    while v[0] != target_slice:
        direction = 1 if target_slice > v[0] else -1
        s = commute_move(s, v, direction)
        moves.append(CommuteMove(v, direction))
        v = (v[0] + 2 * direction, v[1])
    return s, v


def _descent_step(s: DecoratedSet, zero: ZVert):
    """One chain walk ending in a single braiding (one descent step)."""
    moves: List[Move] = []
    chain = [zero]
    taus: List[ZVert] = [tau(s, zero)]  # type: ignore[list-item]
    while True:
        am = chain[-1]
        tam = taus[-1]
        m = mesh(s, tam, am)
        if not m:
            raise MeshError("internal invariant breach: empty mesh during the descent")
        if len(m) == 1:
            break
        prev_tau = taus[-2] if len(taus) >= 2 else None
        candidates = sorted(v for v in m if v != prev_tau)
        nxt = candidates[0]
        # slide tau(a_m) right so it sits just before the chosen vertex
        s, tam = _commute_to(s, tam, nxt[0] - 1, moves)
        taus[-1] = tam
        t_next = tau(s, nxt)
        if t_next[0] == MINUS_INF:
            raise MeshError("internal invariant breach: chain hit an infinite mesh")
        chain.append(nxt)
        taus.append(t_next)  # type: ignore[arg-type]
    ak = chain[-1]
    tak = taus[-1]
    (x,) = mesh(s, tak, ak)
    # align: tau(a_k) just left of x, a_k just right of x
    s, tak = _commute_to(s, tak, x[0] - 1, moves)
    s, ak = _commute_to(s, ak, x[0] + 1, moves)
    n = tak[0]
    # global right shift clears the braiding side conditions
    shifted = sorted(
        (v for v in s.vertices if v[0] >= n + 2 and v != ak),
        key=lambda v: (-v[0], v[1]),
    )
    for v in shifted:
        s = commute_move(s, v, 1)
        moves.append(CommuteMove(v, 1))
    s = braid_move(s, tak, x, ak)
    moves.append(BraidMove(tak, x, ak))
    return s, moves


# -- DOT export ---------------------------------------------------------------------


def to_dot(s: DecoratedSet, pad: int = 1) -> str:
    """Graphviz rendering of a translation-quiver window around the set."""
    d = s.diagram
    if s.vertices:
        lo = min(n for n, _ in s.vertices) - pad
        hi = max(n for n, _ in s.vertices) + pad
    else:
        lo, hi = 0, 1
    lines = [
        "digraph zgamma {",
        "  rankdir=LR;",
        '  node [shape=circle, fontsize=10];',
    ]
    for n in range(lo, hi + 1):
        slice_nodes = []
        for j in d.vertices:
            if d.color(j) != n % 2:
                continue
            name = f'"v{n}_{j}"'
            if (n, j) in s.vertices:
                lines.append(f'  {name} [label="{j}:{s.theta[(n, j)]}", style=filled, fillcolor=lightblue];')
            else:
                lines.append(f'  {name} [label="{j}", style=dashed, color=gray];')
            slice_nodes.append(name)
        if slice_nodes:
            lines.append(f"  {{ rank=same; {'; '.join(slice_nodes)} }}")
    for n in range(lo, hi):
        for (a, b) in d.edges:
            for (src, tgt) in ((a, b), (b, a)):
                if d.color(src) == n % 2:
                    lines.append(f'  "v{n}_{src}" -> "v{n + 1}_{tgt}" [color=gray];')
    lines.append("}")
    return "\n".join(lines)
