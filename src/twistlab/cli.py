"""Command-line surface: twists, word recovery, equality checks, mesh solving, self-test.

JSON on stdin/stdout, diagnostics on stderr.  Exit codes: 0 success or true,
1 legitimate negative (unequal words, not a twist image), 2 input error,
3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

from . import acceptance
from .braid import (
    BraidWord,
    DynkinDiagram,
    diagram_from_name,
    equivalent,
    layer,
    layered_from_json_obj,
    left_divisible_by,
    parse_letters,
)
from .complexes import (
    ProjComplex,
    complex_from_json_obj,
    complex_to_json_obj,
    minimize,
    profile,
    projective,
    sum_of_projectives,
)
from .fields import Field, field_from_name
from .meshbraid import (
    MeshError,
    apply_moves,
    chi_boundary,
    check_mesh_relations,
    decorated_from_json_obj,
    find_left_divisor,
    to_decorated,
    to_dot,
    word_of,
)
from .reconstruct import NotTwistImage, isomorphic_images, recover_trace
from .twists import twist_word
from .zigzag import ZigzagAlgebra

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BREACH = 3

# selftest's corpus budget: the D4 words up to 5 letters, the largest corpus the full-scale sweep runs
MAX_SELFTEST_WORDS = 1365
# twist's output budget: the cells of the dense JSON differentials, sum over d of |T^{d+1}| |T^d|
# (the 40-letter A4 word that CI recovers needs 63,178)
MAX_TWIST_CELLS = 250_000


@dataclass
class RunConfig:
    diagram: DynkinDiagram
    field: Field
    max_len: int
    fmt: str


class InputError(Exception):
    pass


def _config(args) -> RunConfig:
    try:
        diagram = diagram_from_name(args.diagram)
        field = field_from_name(args.field)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.max_len < 0:
        raise InputError("--max-len must be non-negative")
    return RunConfig(diagram, field, args.max_len, args.format)


def _parse_word(config: RunConfig, text: str) -> BraidWord:
    try:
        return BraidWord(config.diagram, parse_letters(text))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _emit(config: RunConfig, payload: dict, text_lines=None) -> None:
    if config.fmt == "text" and text_lines is not None:
        print("\n".join(text_lines))
    else:
        print(json.dumps(payload, sort_keys=True))


def _object_spec(config: RunConfig, algebra: ZigzagAlgebra, spec: str) -> ProjComplex:
    spec = spec.strip()
    if spec in ("L", "Lambda", "lambda", "sum"):
        return sum_of_projectives(algebra)
    if spec.upper().startswith("P") and spec[1:].isdigit():
        return projective(algebra, int(spec[1:]))
    if spec == "-":
        try:
            return complex_from_json_obj(algebra, json.load(sys.stdin))
        except (ValueError, KeyError, TypeError, AssertionError, RecursionError) as exc:
            raise InputError(f"bad complex on stdin: {exc}") from exc
    raise InputError(f"unknown object spec {spec!r} (use L, P<i> or - for stdin)")


def cmd_twist(args) -> int:
    config = _config(args)
    algebra = ZigzagAlgebra(config.diagram, config.field)
    w = _parse_word(config, args.word)
    x = _object_spec(config, algebra, args.object)
    t = minimize(twist_word(w, x))
    cells = sum(len(labels) * len(t.summands.get(d + 1, ())) for d, labels in t.summands.items())
    if cells > MAX_TWIST_CELLS:
        raise InputError(f"the image needs {cells} dense matrix cells, more than the limit of {MAX_TWIST_CELLS}")
    prof = profile(t)
    payload = {
        "complex": complex_to_json_obj(t),
        "profile": {f"{j},{d}": h for (j, d), h in sorted(prof.items())},
    }
    if not t.is_zero():
        payload["min_degree"] = min(d for (_, d) in prof)
        payload["max_degree"] = max(d for (_, d) in prof)
    lines = [f"T = twist of {list(w.letters)} applied to the input object"]
    lines.append(f"degrees: {t.degrees()}; summands: { {d: list(t.summands[d]) for d in t.degrees()} }")
    lines.append(f"profile: {payload['profile']}")
    _emit(config, payload, lines)
    return EXIT_OK


def cmd_recover(args) -> int:
    config = _config(args)
    algebra = ZigzagAlgebra(config.diagram, config.field)
    source_word = None
    if args.word is not None:
        source_word = _parse_word(config, args.word)
        t = twist_word(source_word, sum_of_projectives(algebra))
    else:
        t = _object_spec(config, algebra, "-")
    try:
        rec, steps = recover_trace(t)
    except NotTwistImage as exc:
        print(f"not a twist image: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    # recover_trace returns only once the minimized t_rec^-1(T) is Lambda, which
    # decides T = t_rec(Lambda); a source word is checked by the braid oracle too
    verified = source_word is None or equivalent(rec, source_word)
    payload = {
        "word": list(rec.letters),
        "verified": verified,
        "peels": [{"j": s.vertex, "min_degree": s.min_degree} for s in steps],
    }
    _emit(config, payload, [f"word: {list(rec.letters)}", f"verified: {verified}"])
    if not verified:
        print("recovered word failed verification", file=sys.stderr)
        return EXIT_BREACH
    return EXIT_OK


def cmd_braid_eq(args) -> int:
    config = _config(args)
    w1 = _parse_word(config, args.w1)
    w2 = _parse_word(config, args.w2)
    payload = {"mode": args.mode}
    verdicts = {}
    if args.mode in ("oracle", "both"):
        verdicts["oracle"] = equivalent(w1, w2)
    if args.mode in ("category", "both"):
        lam = sum_of_projectives(ZigzagAlgebra(config.diagram, config.field))
        try:
            verdicts["category"] = isomorphic_images(twist_word(w1, lam), twist_word(w2, lam))
        except NotTwistImage as exc:
            print(f"a twist image does not recover (invariant breach): {exc}", file=sys.stderr)
            return EXIT_BREACH
    payload.update(verdicts)
    if len(verdicts) == 2 and verdicts["oracle"] != verdicts["category"]:
        payload["equal"] = None
        _emit(config, payload, ["verdict disagreement (invariant breach)"])
        print("oracle and category verdicts disagree", file=sys.stderr)
        return EXIT_BREACH
    equal = next(iter(verdicts.values()))
    payload["equal"] = equal
    _emit(config, payload, [f"equal: {equal}"])
    return EXIT_OK if equal else EXIT_NEGATIVE


def cmd_mesh_solve(args) -> int:
    config = _config(args)
    if args.decorated:
        try:
            s = decorated_from_json_obj(json.load(sys.stdin))
        except (MeshError, ValueError, KeyError, TypeError, RecursionError) as exc:
            raise InputError(f"bad decorated set on stdin: {exc}") from exc
    elif args.layered:
        try:
            lw = layered_from_json_obj(json.load(sys.stdin))
            seed = args.seed_vertex
            if seed is None:
                first = next((sl for sl in lw.slices if sl), None)
                if first is None or len(first) != 1:
                    raise InputError("cannot infer the seed vertex; pass --seed-vertex")
                seed = next(iter(first))
            s = to_decorated(lw, chi_boundary(lw.diagram, seed))
        except (MeshError, ValueError, KeyError, TypeError, RecursionError) as exc:
            raise InputError(f"bad layered word on stdin: {exc}") from exc
    else:
        if args.word is None:
            raise InputError("pass a word, --layered or --decorated")
        w = _parse_word(config, args.word)
        if not w.letters:
            raise InputError("the empty word has no left divisors")
        seed = args.seed_vertex if args.seed_vertex is not None else w.letters[0]
        s = to_decorated(layer(w), chi_boundary(config.diagram, seed))
    initial_word = word_of(s)
    try:
        j, cert = find_left_divisor(s)
    except MeshError as exc:
        raise InputError(f"hypotheses not satisfied: {exc}") from exc
    final = apply_moves(s, cert)
    replay_ok = (
        check_mesh_relations(final)
        and equivalent(word_of(final), initial_word)
        and left_divisible_by(initial_word, j) is not None
    )
    payload = {
        "divisor": j,
        "certificate": [m.to_json_obj() for m in cert],
        "replay_ok": replay_ok,
        "word": list(initial_word.letters),
    }
    if config.fmt == "dot":
        print(to_dot(final))
        return EXIT_OK if replay_ok else EXIT_BREACH
    _emit(config, payload, [f"divisor: s_{j}", f"moves: {len(cert)}", f"replay ok: {replay_ok}"])
    if not replay_ok:
        print("certificate replay failed", file=sys.stderr)
        return EXIT_BREACH
    return EXIT_OK


def cmd_selftest(args) -> int:
    config = _config(args)
    try:
        seed = int(os.environ.get("TWISTLAB_SEED", "0"))
    except ValueError as exc:
        raise InputError(f"TWISTLAB_SEED must be an integer: {exc}") from exc
    if args.sample_longer < 0:
        raise InputError("--sample-longer must be non-negative")
    # every rank is at least 2, so 11 letters already exceed the budget
    words = sum(config.diagram.rank**k for k in range(min(config.max_len, 11) + 1))
    if words > MAX_SELFTEST_WORDS:
        raise InputError(f"--max-len {config.max_len} gives more than {MAX_SELFTEST_WORDS} words")
    if args.sample_longer > MAX_SELFTEST_WORDS:
        raise InputError(f"--sample-longer {args.sample_longer} asks for more than {MAX_SELFTEST_WORDS} words")
    scale = acceptance.selftest_scale(config.diagram.name(), config.max_len)
    scale = replace(scale, seed=seed, sample_longer=args.sample_longer)
    results = acceptance.run_all(config.field, scale, corrupt=args.debug_corrupt_compose)
    for r in results:
        print(r.line())
    if all(r.passed for r in results):
        return EXIT_OK
    return EXIT_BREACH


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Exact spherical-twist engine over ADE zigzag algebras",
    )
    parser.add_argument("--diagram", default="A3", help="A<n>, D<n> or E<n> (default A3)")
    parser.add_argument("--field", default="f2", help="f<p> or q (default f2)")
    parser.add_argument("--max-len", type=int, default=5, help="corpus length bound")
    parser.add_argument("--format", choices=("json", "text", "dot"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_twist = sub.add_parser("twist", help="apply a twist word to an object")
    p_twist.add_argument("word", help="comma/space separated letters, empty for identity")
    p_twist.add_argument("--object", default="L", help="L, P<i>, or - for a JSON complex on stdin")
    p_twist.set_defaults(fn=cmd_twist)

    p_rec = sub.add_parser("recover", help="recover a braid word from a twist image")
    p_rec.add_argument("--word", default=None, help="round-trip mode: twist this word first; else read a JSON complex from stdin")
    p_rec.set_defaults(fn=cmd_recover)

    p_eq = sub.add_parser("braid-eq", help="decide monoid equality of two words")
    p_eq.add_argument("w1")
    p_eq.add_argument("w2")
    p_eq.add_argument("--mode", choices=("oracle", "category", "both"), default="both")
    p_eq.set_defaults(fn=cmd_braid_eq)

    p_mesh = sub.add_parser("mesh-solve", help="find a left divisor via mesh braiding")
    p_mesh.add_argument("word", nargs="?", default=None)
    p_mesh.add_argument("--layered", action="store_true", help="read a layered word JSON from stdin")
    p_mesh.add_argument("--decorated", action="store_true", help="read a decorated set JSON from stdin")
    p_mesh.add_argument("--seed-vertex", type=int, default=None)
    p_mesh.set_defaults(fn=cmd_mesh_solve)

    p_self = sub.add_parser("selftest", help="run the acceptance criteria at the configured scale")
    p_self.add_argument("--debug-corrupt-compose", action="store_true", help=argparse.SUPPRESS)
    p_self.add_argument("--sample-longer", type=int, default=0, help="extra sampled round-trips beyond the bound")
    p_self.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:  # pragma: no cover
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
