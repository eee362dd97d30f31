"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of the qmds layers from outside the
package: every module-level name (and every function held in a module-level
dict, such as the CLI's constructor tables) that refers to a public function
of gf, linalg, grs, mpc, quantum, verify or cli is replaced by a wrapper, so
a call is seen whichever import site it goes through.  `Field.__init__` is
wrapped to count field builds; per-element `Field` operations never are.

Each call records one span (layer, name, item, parent span, start, end,
field size).  Spans stay in memory until the run ends.  A layer's self time
is the duration of its spans minus the time their child spans cover.  The
counters below are deterministic: they depend only on the items run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from math import comb
from pathlib import Path
from time import perf_counter

LAYERS = ("gf", "linalg", "grs", "mpc", "quantum", "verify", "cli")

# fields above this size have no q^2 x q^2 add table, so addition goes
# through the per-digit fallback in qmds.gf
ADD_TABLE_CAP = 512

SPAN_FIELDS = ("layer", "name", "item", "parent", "start", "end", "q2")
LAYER, NAME, ITEM, PARENT, START, END, Q2 = range(len(SPAN_FIELDS))


def _matrix_key(m) -> tuple:
    """The matrix with its field, as a value: equal keys mean equal inputs."""
    f = m.field
    return (f.p, f.t, tuple(f.modulus), m.cols, tuple(map(tuple, m.data)))


def _q2(args):
    """Size of the field a linalg or grs call works in, when an argument shows it."""
    for a in args:
        f = getattr(a, "field", None)
        if f is not None:
            return f.q2
        q = getattr(a, "q", None)
        if isinstance(q, int):  # ConstructionParams
            return q * q
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple] = []
        self._enumeration_classes = None
        self._quantum_params = None

    # -- counters, run after the wrapped call returns -------------------------

    def _count_repeat(self, prefix: str, key: tuple) -> None:
        seen = self._seen[prefix]
        if key in seen:
            self.counts[prefix + "_repeats"] += 1
        else:
            seen.add(key)

    def _on_elim(self, args, kwargs, ok, result):
        m = args[0]
        self.counts["linalg.elim_calls"] += 1
        self.counts["linalg.elim_cells"] += m.rows * m.cols
        self._count_repeat("linalg.elim", _matrix_key(m))

    def _on_gram(self, args, kwargs, ok, result):
        g = args[0].generator
        self.counts["grs.gram_calls"] += 1
        self.counts["grs.gram_mults"] += g.rows * g.rows * g.cols
        self._count_repeat("grs.gram", _matrix_key(g))

    def _on_product(self, args, kwargs, ok, result):
        self.counts["mpc.product_calls"] += 1

    def _on_floor(self, args, kwargs, ok, result):
        code = args[0]
        w = args[1] if len(args) > 1 else kwargs["w"]
        self.counts["verify.floor_calls"] += 1
        # C(n, w-1) subsets when the loop runs: exact for a pass, a ceiling
        # for a fail; none when the call raised or returned before the loop
        # because w - 1 exceeds the dimension n - k of the dual
        if ok and 1 < w and w - 1 <= code.n - code.k:
            self.counts["verify.floor_subsets"] += comb(code.n, w - 1)

    def _on_enum(self, args, kwargs, ok, result):
        if not ok:  # EnumerationTooLarge: nothing was enumerated
            return
        code = args[0]
        self.counts["verify.enum_calls"] += 1
        self.counts["verify.enum_classes"] += self._enumeration_classes(code)
        self._count_repeat("verify.enum", _matrix_key(code.generator))

    def _on_field(self, args, kwargs, ok, result):
        if ok:
            self.counts["gf.field_builds"] += 1

    def _on_quantum(self, args, kwargs, ok, result):
        # count records once, at the outermost quantum call
        parent = self._stack[-1] if self._stack else -1
        if not ok or (parent >= 0 and self.spans[parent][LAYER] == "quantum"):
            return
        if isinstance(result, list):
            self.counts["quantum.records"] += len(result)
        elif isinstance(result, self._quantum_params):
            self.counts["quantum.records"] += 1

    def _hook(self, layer: str, name: str):
        if layer == "linalg" and name in ("rank", "nullspace", "rref", "inverse"):
            return self._on_elim
        if layer == "quantum":
            return self._on_quantum
        return {
            ("grs", "hermitian_gram"): self._on_gram,
            ("mpc", "matrix_product"): self._on_product,
            ("verify", "min_distance_at_least"): self._on_floor,
            ("verify", "min_distance_exact"): self._on_enum,
            ("gf", "Field"): self._on_field,
        }.get((layer, name))

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        hook = self._hook(layer, name)
        spans, stack = self.spans, self._stack
        field_sized = layer in ("linalg", "grs")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, self.item, stack[-1] if stack else -1, 0.0, 0.0,
                    _q2(args) if field_sized else None]
            stack.append(len(spans))
            spans.append(span)
            ok, result = False, None
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                span[END] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(args, kwargs, ok, result)

        return traced

    def install(self) -> None:
        """Wrap every public function of the layers at every qmds import site."""
        mods = {layer: sys.modules[f"qmds.{layer}"] for layer in LAYERS}
        self._enumeration_classes = mods["verify"].enumeration_classes
        self._quantum_params = mods["quantum"].QuantumParams
        wrapped = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (
                    name.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(layer, name, obj))

        def swap(val):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                return hit[1]
            if isinstance(val, tuple) and any(id(v) in wrapped for v in val):
                return tuple(swap(v) for v in val)
            return val

        for modname, mod in list(sys.modules.items()):
            if modname != "qmds" and not modname.startswith("qmds."):
                continue
            for attr, val in list(vars(mod).items()):
                new = swap(val)
                if new is not val:
                    self._patches.append((setattr, mod, attr, val))
                    setattr(mod, attr, new)
                elif isinstance(val, dict):
                    for key, entry in list(val.items()):
                        new = swap(entry)
                        if new is not entry:
                            self._patches.append((dict.__setitem__, val, key, entry))
                            val[key] = new
        field_cls = mods["gf"].Field
        self._patches.append((setattr, field_cls, "__init__", field_cls.__init__))
        field_cls.__init__ = self._wrap("gf", "Field", field_cls.__init__)

    def uninstall(self) -> None:
        for setter, target, key, old in reversed(self._patches):
            setter(target, key, old)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, s))) + "\n")

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics over everything traced; wall_s is the time spent in the library."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self_s: dict[str, float] = defaultdict(float)
        large_s: dict[str, float] = defaultdict(float)
        incl_s: dict[tuple, float] = defaultdict(float)
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            own = dur - child[i]
            self_s[s[LAYER]] += own
            if s[Q2] is not None and s[Q2] > ADD_TABLE_CAP:
                large_s[s[LAYER]] += own
            incl_s[(s[LAYER], s[NAME])] += dur
        c = self.counts

        def frac(part, whole):
            return part / whole if whole else 0.0

        floor_s = incl_s[("verify", "min_distance_at_least")]
        enum_s = incl_s[("verify", "min_distance_exact")]
        return {
            "gf.field_builds": c["gf.field_builds"],
            "gf.build_s": self_s["gf"],
            "linalg.elim_calls": c["linalg.elim_calls"],
            "linalg.elim_cells": c["linalg.elim_cells"],
            "linalg.elim_repeats": c["linalg.elim_repeats"],
            "linalg.elim_repeat_frac": frac(c["linalg.elim_repeats"], c["linalg.elim_calls"]),
            "linalg.self_s": self_s["linalg"],
            "linalg.self_frac": frac(self_s["linalg"], wall_s),
            "linalg.large_field_s": large_s["linalg"],
            "grs.gram_calls": c["grs.gram_calls"],
            "grs.gram_mults": c["grs.gram_mults"],
            "grs.gram_repeats": c["grs.gram_repeats"],
            "grs.gram_repeat_frac": frac(c["grs.gram_repeats"], c["grs.gram_calls"]),
            "grs.self_s": self_s["grs"],
            "grs.self_frac": frac(self_s["grs"], wall_s),
            "grs.large_field_s": large_s["grs"],
            "mpc.product_calls": c["mpc.product_calls"],
            "mpc.mixer_prefix_s": incl_s[("mpc", "mixer_prefix_distances")],
            "mpc.self_s": self_s["mpc"],
            "quantum.records": c["quantum.records"],
            "quantum.self_s": self_s["quantum"],
            "verify.floor_calls": c["verify.floor_calls"],
            "verify.floor_subsets": c["verify.floor_subsets"],
            "verify.floor_s": floor_s,
            "verify.floor_frac": frac(floor_s, wall_s),
            "verify.floor_subsets_per_s": frac(c["verify.floor_subsets"], floor_s),
            "verify.enum_calls": c["verify.enum_calls"],
            "verify.enum_classes": c["verify.enum_classes"],
            "verify.enum_repeats": c["verify.enum_repeats"],
            "verify.enum_repeat_frac": frac(c["verify.enum_repeats"], c["verify.enum_calls"]),
            "verify.enum_s": enum_s,
            "verify.enum_frac": frac(enum_s, wall_s),
            "verify.enum_classes_per_s": frac(c["verify.enum_classes"], enum_s),
            "cli.construct_s": incl_s[("cli", "cmd_construct")],
            "cli.verify_s": incl_s[("cli", "cmd_verify")],
            "cli.load_s": incl_s[("cli", "load_code_file")],
            "trace.spans": len(spans),
        }
