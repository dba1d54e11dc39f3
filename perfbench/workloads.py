"""The four workloads: their inputs, their ops and the checks on each output.

A workload turns a seed into plain inputs (diagram names, field names,
letter tuples), binds them to a freshly loaded program, and yields ops.  An
op is a callable that makes the calls of one CLI command and returns plain
data; its check, run outside the timed section, compares that data with
``checks``, which shares no code with twistlab.

``twist-long``, ``recover-roundtrip`` and ``word-oracle`` draw their words
from ``pool.json`` (see ``make_pool.py``): the pool holds, per diagram, strata
of words of nearly equal cost, and a seed picks one word from each stratum.
Every seed therefore gets different words with the same cost profile, which
is what keeps a run's figures steady from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import checks

POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")

Word = Tuple[int, ...]


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], List[str]]


def load_pool() -> dict:
    with open(POOL) as fh:
        return json.load(fh)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _pick(strata: Sequence[Sequence[dict]], rng: random.Random) -> List[Word]:
    return [tuple(rng.choice(stratum)["w"]) for stratum in strata]


def rewrite(name: str, letters: Word, rng: random.Random, moves: int) -> Word:
    """A word equal to letters in the monoid, by random commutation and braid moves."""
    es = checks.edges(name)
    w = list(letters)
    for _ in range(moves):
        options = []
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a != b and frozenset((a, b)) not in es:
                options.append((i, 2))
        for i in range(len(w) - 2):
            if w[i] == w[i + 2] and frozenset((w[i], w[i + 1])) in es:
                options.append((i, 3))
        if not options:
            break
        i, span = rng.choice(options)
        if span == 2:
            w[i], w[i + 1] = w[i + 1], w[i]
        else:
            w[i], w[i + 1], w[i + 2] = w[i + 1], w[i], w[i + 1]
    return tuple(w)


class Checker:
    """Caches the Garside structures and normal forms a run's checks need."""

    def __init__(self) -> None:
        self._garside: Dict[str, checks.Garside] = {}
        self._normal_forms: Dict[Tuple[str, Word], tuple] = {}

    def garside(self, name: str) -> checks.Garside:
        g = self._garside.get(name)
        if g is None:
            g = self._garside[name] = checks.Garside(name)
        return g

    def normal_form(self, name: str, w: Word) -> tuple:
        nf = self._normal_forms.get((name, w))
        if nf is None:
            nf = self._normal_forms[name, w] = self.garside(name).normal_form(w)
        return nf


def _algebra(prog, d: str, f: str):
    return prog.zigzag.ZigzagAlgebra(prog.braid.diagram_from_name(d), prog.fields.field_from_name(f))


# -- twist-long ------------------------------------------------------------------


class TwistLong:
    """One op is ``twistlab twist``: twist_word on Lambda, minimize, JSON, profile."""

    name = "twist-long"

    def inputs(self, pool: dict, seed: int) -> list:
        rng = _rng(self.name, seed)
        specs = [(d, w) for d in sorted(pool[self.name]) for w in _pick(pool[self.name][d], rng)]
        rng.shuffle(specs)
        return specs

    def warm_up(self, prog) -> None:
        for d in ("A4", "D5", "E6"):
            self._op(prog, _algebra(prog, d, "f2"), (1, 2, 3, 2)).run()

    def bind(self, prog, specs: list, checker: Checker) -> List[Op]:
        algebras = {d: _algebra(prog, d, "f2") for d in {d for d, _ in specs}}
        return [self._op(prog, algebras[d], w) for d, w in specs]

    @staticmethod
    def _op(prog, alg, letters: Word) -> Op:
        C, T, R, B = prog.complexes, prog.twists, prog.reconstruct, prog.braid
        name = alg.diagram.name()
        w = B.word(alg.diagram, letters)
        lam = C.sum_of_projectives(alg)

        def run():
            t = C.minimize(T.twist_word(w, lam))
            obj = C.complex_to_json_obj(t)
            prof = {f"{j},{d}": h for (j, d), h in sorted(C.profile(t).items())}
            lo = R.min_degree(t)
            hi = max(d for (_, d) in C.profile(t))
            return obj, prof, lo, hi

        def check(out) -> List[str]:
            obj, prof, lo, hi = out
            rank = checks.rank_of(name)
            problems = checks.complex_problems(obj, "f2")
            k0 = checks.k0_class(name, letters)
            if checks.summand_class(obj, rank) != k0:
                problems.append("alternating summand count differs from the K_0 class")
            if checks.profile_euler(prof, rank) != checks.hom_euler(name, k0):
                problems.append("profile Euler characteristic differs from the K_0 class")
            degrees = [int(k.split(",")[1]) for k in prof]
            if (lo, hi) != (min(degrees), max(degrees)):
                problems.append("extremal degrees differ from the profile")
            return [f"{name} {letters}: {p}" for p in problems]

        return Op(run, check)


# -- recover-roundtrip -----------------------------------------------------------------


class RecoverRoundtrip:
    """One op is ``twistlab recover --word``: twist_word, recover_trace, equivalent."""

    name = "recover-roundtrip"

    def inputs(self, pool: dict, seed: int) -> list:
        rng = _rng(self.name, seed)
        specs = []
        for group in sorted(pool[self.name]):
            d, f = group.split("/")
            specs.extend((d, f, w) for w in _pick(pool[self.name][group], rng))
        rng.shuffle(specs)
        return specs

    def warm_up(self, prog) -> None:
        for d in ("A4", "D5", "E6"):
            for f in ("f2", "q", "f3"):
                self._op(prog, _algebra(prog, d, f), (1, 2, 1), Checker()).run()

    def bind(self, prog, specs: list, checker: Checker) -> List[Op]:
        algebras = {(d, f): _algebra(prog, d, f) for d, f, _ in specs}
        return [self._op(prog, algebras[d, f], w, checker) for d, f, w in specs]

    @staticmethod
    def _op(prog, alg, letters: Word, checker: Checker) -> Op:
        C, T, R, B = prog.complexes, prog.twists, prog.reconstruct, prog.braid
        name = alg.diagram.name()
        w = B.word(alg.diagram, letters)
        lam = C.sum_of_projectives(alg)

        def run():
            t = T.twist_word(w, lam)
            rec, steps = R.recover_trace(t)
            verified = B.equivalent(rec, w)
            return tuple(rec.letters), tuple((s.vertex, s.min_degree) for s in steps), verified

        def check(out) -> List[str]:
            rec, steps, verified = out
            problems = []
            if verified is not True:
                problems.append("equivalent() did not verify the recovered word")
            if not checker.garside(name).equal(rec, letters):
                problems.append(f"recovered {rec} is not equal to the source word")
            if tuple(j for j, _ in steps) != rec or any(m >= 0 for _, m in steps):
                problems.append(f"peel log {steps} does not match the word")
            return [f"{name} {letters}: {p}" for p in problems]

        return Op(run, check)


# -- word-oracle -------------------------------------------------------------------------


def _query(prog, kind: str, d, args) -> Callable[[], object]:
    B = prog.braid
    if kind == "eq":
        w1, w2 = B.word(d, args[0]), B.word(d, args[1])
        return lambda: B.equivalent(w1, w2)
    if kind == "div":
        w, j = B.word(d, args[0]), args[1]

        def div():
            rem = B.left_divisible_by(w, j)
            return None if rem is None else tuple(rem.letters)

        return div
    w = B.word(d, args[0])
    return lambda: tuple(B.canonical_form(w))


class WordOracle:
    """One op is one query of ``braid``: equivalent, left_divisible_by or canonical_form.

    Each class gets four queries.  The first is cold (its kind rotates with the
    stratum, so each kind is run cold) and enumerates the class; the other
    three ask about other words of the same class and read the cache.
    """

    name = "word-oracle"
    KINDS = ("eq", "div", "canon")

    def inputs(self, pool: dict, seed: int) -> list:
        rng = _rng(self.name, seed)
        groups = []
        for d in sorted(pool[self.name]):
            g = checks.Garside(d)
            for k, w in enumerate(_pick(pool[self.name][d], rng)):
                groups.append(self._queries(d, g, w, self.KINDS[k % 3], rng))
        rng.shuffle(groups)
        return [q for group in groups for q in group]

    def _queries(self, d: str, g: checks.Garside, w: Word, cold: str, rng: random.Random) -> list:
        n = checks.rank_of(d)
        moves = 2 * len(w)
        divisors = g.left_divisors(w)
        others = [j for j in range(1, n + 1) if j not in divisors]

        def partner(base: Word) -> Word:
            if rng.random() < 0.5:
                return rewrite(d, base, rng, moves)
            while True:
                u = list(rewrite(d, base, rng, moves))
                u[rng.randrange(len(u))] = rng.randint(1, n)
                if not g.equal(u, base):
                    return tuple(u)

        if cold == "div" and not others:
            cold = "eq"
        if cold == "eq":
            first = (d, "eq", (w, partner(w)))
        elif cold == "div":
            first = (d, "div", (w, rng.choice(others)))
        else:
            first = (d, "canon", (w,))
        w2, w3 = rewrite(d, w, rng, moves), rewrite(d, w, rng, moves)
        return [
            first,
            (d, "eq", (w2, partner(w))),
            (d, "div", (w3, rng.randint(1, n))),
            (d, "canon", (w3,)),
        ]

    def warm_up(self, prog) -> None:
        for d in ("A4", "D5", "E6"):
            diagram = prog.braid.diagram_from_name(d)
            for kind, args in (("eq", ((1, 2, 1, 3), (2, 1, 2, 3))), ("div", ((1, 3, 2, 1), 2)), ("canon", ((2, 3, 2, 1),))):
                _query(prog, kind, diagram, args)()

    def bind(self, prog, specs: list, checker: Checker) -> List[Op]:
        diagrams = {d: prog.braid.diagram_from_name(d) for d in {s[0] for s in specs}}
        return [Op(_query(prog, kind, diagrams[d], args), self._check(d, kind, args, checker)) for d, kind, args in specs]

    @staticmethod
    def _check(d: str, kind: str, args, checker: Checker) -> Callable[[object], List[str]]:
        def check(out) -> List[str]:
            g = checker.garside(d)
            if kind == "eq":
                expect = g.equal(args[0], args[1])
                ok = out is expect
            elif kind == "div":
                w, j = args
                if j in g.left_divisors(w):
                    ok = out is not None and g.equal((j,) + out, w)
                else:
                    ok = out is None
            else:
                ok = out == g.lexmin(args[0])
            return [] if ok else [f"{d} {kind}{args}: wrong answer {out!r}"]

        return check


# -- corpus-sweep ---------------------------------------------------------------------------


class CorpusSweep:
    """One op is ``acceptance.profile_partition(alg, L)`` with default arguments.

    The corpora are full: every word up to the length bound, for every bound
    up to the top one over GF(2) and up to one less over QQ (the top QQ
    corpora would double a round's time).  They do not depend on the seed,
    which only orders the ops.
    """

    name = "corpus-sweep"
    CORPORA = (("A2", 6), ("A3", 5), ("D4", 4), ("A4", 4), ("D5", 3), ("E6", 3))
    FIELDS = ("f2", "q")

    def inputs(self, pool: dict, seed: int) -> list:
        specs = [(d, "f2", n) for d, top in self.CORPORA for n in range(1, top + 1)]
        specs += [(d, "q", n) for d, top in self.CORPORA for n in range(1, top)]
        _rng(self.name, seed).shuffle(specs)
        return specs

    def warm_up(self, prog) -> None:
        for f in self.FIELDS:
            prog.acceptance.profile_partition(_algebra(prog, "A2", f), 2)

    def bind(self, prog, specs: list, checker: Checker) -> List[Op]:
        algebras = {(d, f): _algebra(prog, d, f) for d, f, _ in specs}
        return [self._op(prog, algebras[d, f], n, checker) for d, f, n in specs]

    @staticmethod
    def _op(prog, alg, max_len: int, checker: Checker) -> Op:
        A = prog.acceptance
        name = alg.diagram.name()

        def run():
            return A.profile_partition(alg, max_len)

        def check(keys) -> List[str]:
            words = _all_words(checks.rank_of(name), max_len)
            if set(keys) != set(words):
                return [f"{name}<={max_len}: the partition does not cover the corpus"]
            if _blocks(keys) != _blocks({w: checker.normal_form(name, w) for w in words}):
                return [f"{name}<={max_len}: profile partition differs from the normal-form partition"]
            return []

        return Op(run, check)


def _all_words(rank: int, max_len: int) -> List[Word]:
    out: List[Word] = [()]
    frontier: List[Word] = [()]
    for _ in range(max_len):
        frontier = [w + (i,) for w in frontier for i in range(1, rank + 1)]
        out.extend(frontier)
    return out


def _blocks(mapping: dict) -> frozenset:
    buckets: dict = {}
    for k, v in mapping.items():
        buckets.setdefault(v, set()).add(k)
    return frozenset(frozenset(b) for b in buckets.values())


WORKLOADS = {w.name: w for w in (TwistLong(), RecoverRoundtrip(), WordOracle(), CorpusSweep())}
