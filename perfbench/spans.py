"""Spans around the public functions of each library module.

The benchmark treats each module of the package as a layer and times it
from outside: :class:`Tracer` replaces every listed function, in every
loaded package module that binds it, by a wrapper that records a span
(function, start, end, parent span, operation id). Internal calls go
through module globals, so ``condense`` inside ``analysis`` is traced too.
Spans stay in memory, in flat arrays, until :meth:`Tracer.write` dumps
them; :meth:`Tracer.restore` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# Layer -> public functions timed in it. ``generators`` runs only in set-up.
LAYERS: dict[str, tuple[str, ...]] = {
    "quiver": ("condense", "ancestors", "descendants", "ancestor_of",
               "induced_subquiver"),
    "analysis": ("heights", "height", "critical_ancestors", "is_normal",
                 "phylogenetic_status", "is_phylogenetic_quiver", "analyze",
                 "universal_evolution", "verify_universal_bounded"),
    "clades": ("clade", "is_regular", "clade_height", "clade_report"),
    "esequence": ("validate_esequence", "realize_esequence",
                  "evolutionary_sequence", "build_forest",
                  "terminal_ultrametric", "induce_prec", "validate_prec",
                  "reconstruct", "esequence_isomorphic"),
    "metric": ("validate_space", "underline_d", "is_trim", "quotient_u",
               "quotient_v", "tower_u", "tower_v", "classify_map", "balls"),
    "serialize": ("loads", "dumps", "quiver_from_obj", "report_to_obj",
                  "esequence_from_obj", "esequence_to_obj", "space_from_csv",
                  "tower_to_obj", "forest_to_newick"),
    "cli": ("main",),
}

SPAN_NAMES: tuple[str, ...] = tuple(
    f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns
)


PACKAGE = "phyloquiver"


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.active = False  # spans are recorded only while this is set
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for code, span in enumerate(SPAN_NAMES):
            layer, fn = span.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{layer}"], fn)
            wrapper = self._wrap(code, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, code: int, fn):
        clock = time.perf_counter
        stack = self._stack
        name, start, end = self.name, self.start, self.end
        parent, op_id = self.parent, self.op_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(name)
            name.append(code)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def self_times(self) -> array:
        """Seconds of each span not covered by its direct children. Calls
        are nested on one thread, so children never overlap."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{SPAN_NAMES[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_id[i]}\n")
