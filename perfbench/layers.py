"""Per-layer spans and counts, recorded from the benchmark's side of each call.

``Tracer.install`` wraps public functions of a loaded program.  A function
imported by name into other modules (``reconstruct`` imports ``profile``,
``acceptance`` imports ``twist``, ...) is wrapped at every module reference,
not only where it is defined, so calls between layers are seen too.  A
function that does not exist reports 0 calls.

Timed targets record spans (name, start, duration, parent) and self time:
a span's duration minus the time of the timed spans nested in it.  Counted
targets only count calls; they sit on the hottest paths, where a span would
cost more than the call.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# metric prefix -> (module, attribute path)
TIMED = {
    "twists.twist": ("twists", "twist"),
    "twists.twist_inv": ("twists", "twist_inv"),
    "complexes.cone_triangle": ("complexes", "cone_triangle"),
    "complexes.chainmap_is_valid": ("complexes", "ChainMap.is_valid"),
    "complexes.minimize": ("complexes", "minimize"),
    "complexes.hom_complex": ("complexes", "hom_complex"),
    "complexes.profile": ("complexes", "profile"),
    "linalg.rank": ("linalg", "rank"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "reconstruct.recover_trace": ("reconstruct", "recover_trace"),
    "reconstruct.peel": ("reconstruct", "peel"),
    "reconstruct.long_morphism_dim": ("reconstruct", "long_morphism_dim"),
    "braid.braid_class": ("braid", "braid_class"),
    "braid.equivalent": ("braid", "equivalent"),
    "braid.left_divisible_by": ("braid", "left_divisible_by"),
    "acceptance.twist_corpus": ("acceptance", "twist_corpus"),
    "acceptance.profile_partition": ("acceptance", "profile_partition"),
}
COUNTED = {
    "complexes.profile_key": ("complexes", "profile_key"),
    "braid.canonical_form": ("braid", "canonical_form"),
    "zigzag.compose": ("zigzag", "ZigzagAlgebra.compose"),
    "zigzag.morph": ("zigzag", "ZigzagAlgebra.morph"),
}
MAX_SPANS = 200_000


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    hits: int = 0


def _resolve(prog, module: str, path: str):
    """(owner, attribute, function) for a dotted attribute path, or None."""
    owner = getattr(prog, module, None)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    return None if fn is None else (owner, attr, fn)


class Tracer:
    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {name: Stat() for name in (*TIMED, *COUNTED)}
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self._stack: List[List[float]] = []  # [span id, child seconds]
        self._next_id = 0
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if len(spans) < MAX_SPANS:
                    spans.append((sid, name, start, elapsed, parent))
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(stat, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------------

    def install(self, prog) -> None:
        """Wrap every reference to each target in the program's modules."""
        modules = [prog.package] + [getattr(prog, m) for m in vars(prog) if m != "package"]
        hooks = {"reconstruct.long_morphism_dim": _count_hit}
        for table, make in ((TIMED, None), (COUNTED, self._counted)):
            for name, (module, path) in table.items():
                found = _resolve(prog, module, path)
                if found is None:
                    continue
                owner, attr, fn = found
                wrapped = make(name, fn) if make else self._timed(name, fn, hooks.get(name))
                if "." in path:
                    self._set(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        out: Dict[str, Tuple[float, str]] = {}
        for name in TIMED:
            out[f"{name}.calls"] = (self.stats[name].calls, "count")
            out[f"{name}.self_s"] = (self.stats[name].self_s, "s")
        for name in COUNTED:
            out[f"{name}.calls"] = (self.stats[name].calls, "count")
        peels = self.stats["reconstruct.peel"].calls
        probes = self.stats["reconstruct.long_morphism_dim"]
        out["reconstruct.profile_per_peel"] = (self.stats["complexes.profile"].calls / peels if peels else 0.0, "calls/peel")
        out["reconstruct.long_morphism_hit_ratio"] = (probes.hits / probes.calls if probes.calls else 0.0, "ratio")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, elapsed, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "seconds": elapsed, "parent": parent}))
                fh.write("\n")
            if self.dropped:
                fh.write(json.dumps({"dropped": self.dropped}) + "\n")


def _count_hit(stat: Stat, result) -> None:
    if result:
        stat.hits += 1
