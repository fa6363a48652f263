"""Per-layer tracing of chernforge from outside the program.

``Tracer.install`` wraps each hooked function at every place its name
is bound: on the class that defines it (aliases such as
``GaussRat.__radd__`` included) and in every chernforge module that
imported it.  Wrappers record only while an operation is open, so the
benchmark's own checks are never counted.  A span is kept in memory for
every call of a timed layer and written out at the end; ``GaussRat``
arithmetic is only counted, since it runs millions of times.

Self time is a span's duration minus the time its traced children
cover.  The tracer reads term counts of wedge operands from
``to_text()`` with the clock stopped, so that work shows in no span.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from types import FunctionType

COUNT, SPAN, PAIRS = "count", "span", "pairs"

# (layer, module, attribute path or "*" for every public function, mode)
HOOKS = (
    ("scalars.ops", "chernforge.scalars", "GaussRat.__add__", COUNT),
    ("scalars.ops", "chernforge.scalars", "GaussRat.__radd__", COUNT),
    ("scalars.ops", "chernforge.scalars", "GaussRat.__sub__", COUNT),
    ("scalars.ops", "chernforge.scalars", "GaussRat.__rsub__", COUNT),
    ("scalars.ops", "chernforge.scalars", "GaussRat.__mul__", COUNT),
    ("scalars.ops", "chernforge.scalars", "GaussRat.__rmul__", COUNT),
    ("scalars.ops", "chernforge.scalars", "GaussRat.__truediv__", COUNT),
    ("scalars.ops", "chernforge.scalars", "GaussRat.__neg__", COUNT),
    ("forms.wedge", "chernforge.forms", "TorusForm.wedge", PAIRS),
    ("forms.pullback", "chernforge.forms", "TorusForm.pullback", SPAN),
    ("forms.d", "chernforge.forms", "TorusForm.d", SPAN),
    ("forms.fiber_integrate", "chernforge.forms", "TorusForm.fiber_integrate_t", SPAN),
    ("forms.fiber_integrate", "chernforge.forms", "TorusForm.fiber_integrate_circle", SPAN),
    ("forms.eq", "chernforge.forms", "TorusForm.__eq__", SPAN),
    ("forms.chern_transform", "chernforge.forms", "chern_transform", SPAN),
    ("forms.text", "chernforge.forms", "TorusForm.to_text", SPAN),
    ("forms.text", "chernforge.forms", "parse_form", SPAN),
    ("bundles.chern_character", "chernforge.bundles", "DiagBundle.chern_character", SPAN),
    ("bundles.suspend", "chernforge.bundles", "OddKCycle.suspend", SPAN),
    ("diffchar.cup", "chernforge.diffchar", "DiffChar.cup", SPAN),
    ("diffchar.curvature", "chernforge.diffchar", "DiffChar.curvature", SPAN),
    ("diffchar.chern_class", "chernforge.diffchar", "chern_class", SPAN),
    ("diffchar.chern_class_via_ch", "chernforge.diffchar", "chern_class_via_ch", SPAN),
    ("diffchar.same_class", "chernforge.diffchar", "DiffChar.same_class", SPAN),
    ("diffchar.odd_chern_class", "chernforge.diffchar", "odd_chern_class", SPAN),
    ("symfun.expand_in_roots", "chernforge.symfun", "expand_in_roots", SPAN),
    ("symfun.verify_sum_identity", "chernforge.symfun", "verify_sum_identity", SPAN),
    ("symfun.chern_polynomial", "chernforge.symfun", "chern_polynomial", SPAN),
    ("generators", "chernforge.generators", "*", SPAN),
    ("verify.run_suite", "chernforge.verify", "run_suite", SPAN),
    ("config.parse_config", "chernforge.config", "parse_config", SPAN),
    ("cli.main", "chernforge.cli", "main", SPAN),
)

# Reported metrics: (name, layer, field, unit).  After each group, the
# end-to-end figure it should move (see README.md).
METRICS = (
    ("scalars.ops", "scalars.ops", "calls", "count"),
    ("forms.wedge.calls", "forms.wedge", "calls", "count"),
    ("forms.wedge.self_s", "forms.wedge", "self_s", "s"),
    ("forms.wedge.term_pairs", "forms.wedge", "term_pairs", "count"),
    ("forms.pullback.calls", "forms.pullback", "calls", "count"),
    ("forms.pullback.self_s", "forms.pullback", "self_s", "s"),
    ("forms.d.calls", "forms.d", "calls", "count"),
    ("forms.d.self_s", "forms.d", "self_s", "s"),
    ("forms.fiber_integrate.calls", "forms.fiber_integrate", "calls", "count"),
    ("forms.fiber_integrate.self_s", "forms.fiber_integrate", "self_s", "s"),
    ("forms.eq.calls", "forms.eq", "calls", "count"),
    ("forms.eq.self_s", "forms.eq", "self_s", "s"),
    ("forms.chern_transform.calls", "forms.chern_transform", "calls", "count"),
    ("forms.chern_transform.self_s", "forms.chern_transform", "self_s", "s"),
    ("bundles.chern_character.calls", "bundles.chern_character", "calls", "count"),
    ("bundles.chern_character.self_s", "bundles.chern_character", "self_s", "s"),
    ("bundles.suspend.self_s", "bundles.suspend", "self_s", "s"),
    ("forms.text.self_s", "forms.text", "self_s", "s"),
    ("config.parse_config.self_s", "config.parse_config", "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("diffchar.cup.calls", "diffchar.cup", "calls", "count"),
    ("diffchar.cup.self_s", "diffchar.cup", "self_s", "s"),
    ("diffchar.curvature.calls", "diffchar.curvature", "calls", "count"),
    ("diffchar.curvature.self_s", "diffchar.curvature", "self_s", "s"),
    ("diffchar.chern_class.calls", "diffchar.chern_class", "calls", "count"),
    ("diffchar.chern_class.self_s", "diffchar.chern_class", "self_s", "s"),
    ("diffchar.chern_class_via_ch.self_s", "diffchar.chern_class_via_ch", "self_s", "s"),
    ("diffchar.same_class.self_s", "diffchar.same_class", "self_s", "s"),
    ("diffchar.odd_chern_class.self_s", "diffchar.odd_chern_class", "self_s", "s"),
    ("symfun.expand_in_roots.self_s", "symfun.expand_in_roots", "self_s", "s"),
    ("symfun.verify_sum_identity.self_s", "symfun.verify_sum_identity", "self_s", "s"),
    ("symfun.chern_polynomial.calls", "symfun.chern_polynomial", "calls", "count"),
    ("symfun.chern_polynomial.self_s", "symfun.chern_polynomial", "self_s", "s"),
    ("generators.self_s", "generators", "self_s", "s"),
    ("verify.run_suite.self_s", "verify.run_suite", "self_s", "s"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in HOOKS))
FIELDS = ("calls", "self_s", "term_pairs")


def _resolve(module_name: str, path: str) -> list[FunctionType]:
    module = sys.modules.get(module_name)
    if module is None:
        return []
    if path == "*":
        return [value for name, value in vars(module).items()
                if isinstance(value, FunctionType) and not name.startswith("_")
                and value.__module__ == module_name]
    owner = module
    for part in path.split("."):
        owner = vars(owner).get(part) if hasattr(owner, "__dict__") else None
    return [owner] if isinstance(owner, FunctionType) else []


def _term_count(form) -> int:
    """Terms of a form, read from its canonical text: one per line."""
    text = inspect.unwrap(type(form).to_text)(form)
    return 0 if text == "0" else text.count("\n") + 1


class Tracer:
    """Wraps the hooked functions and aggregates spans per layer."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.excluded = 0.0
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.stats = {layer: dict.fromkeys(FIELDS, 0) for layer in LAYERS}
        self.missing: list[str] = []
        self.bindings: list[tuple] = []

    def now(self) -> float:
        """Clock that stands still while the tracer counts terms."""
        return time.perf_counter() - self.excluded

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "chernforge" or name.startswith("chernforge.")]
        owners = {id(m): m for m in modules}
        for module in modules:
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__.startswith("chernforge"):
                    owners[id(value)] = value
        wrappers: dict[int, tuple] = {}
        for layer, module_name, path, mode in HOOKS:
            targets = _resolve(module_name, path)
            if not targets:
                self.missing.append(f"{layer}: {module_name}.{path}")
            for func in targets:
                if id(func) not in wrappers:
                    wrappers[id(func)] = (func, self._wrap(func, layer, mode))
        for owner in owners.values():
            for attr, value in list(vars(owner).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(owner, attr, entry[1])
                    self.bindings.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.bindings):
            setattr(owner, attr, value)
        self.bindings.clear()

    def _wrap(self, func, layer: str, mode: str):
        tracer = self
        stats = self.stats[layer]
        layer_index = LAYERS.index(layer)

        if mode == COUNT:
            def counted(*args, **kwargs):
                if tracer.active:
                    stats["calls"] += 1
                return func(*args, **kwargs)
            counted.__wrapped__ = func
            return counted

        def spanned(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            if mode == PAIRS:
                paused = time.perf_counter()
                tracer.active = False
                try:
                    stats["term_pairs"] += _term_count(args[0]) * _term_count(args[1])
                finally:
                    tracer.active = True
                    tracer.excluded += time.perf_counter() - paused
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans) + len(stack), tracer.now(), 0.0]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = tracer.now()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                stats["calls"] += 1
                stats["self_s"] += duration - frame[2]
                tracer.spans.append((frame[0], parent, tracer.op, layer_index,
                                     frame[1], end))
        spanned.__wrapped__ = func
        return spanned

    # -- operations and results ------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op
        self.active = True

    def end(self) -> None:
        self.active = False

    def metrics(self) -> dict[str, float]:
        return {name: self.stats[layer][field] for name, layer, field, _ in METRICS}

    def missing_metrics(self) -> list[str]:
        gone = {entry.split(":", 1)[0] for entry in self.missing}
        return [name for name, layer, _, _ in METRICS if layer in gone]

    def write_spans(self, path: str, labels: list[str]) -> None:
        """One JSON line per span: id, parent, op, layer, start, end (s)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps({"layers": LAYERS, "ops": labels,
                                     "missing": self.missing}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
