"""Per-layer spans for the traced benchmark run.

``Tracer.install`` replaces each traced library function by one wrapper in
every ``steinberg`` module namespace that binds it, so calls through any
import path are seen.  The wrapper calls the original object, so the
library's own ``lru_cache`` objects keep counting real hits and misses.
Spans stay in memory as ``(name, start, end, parent, counters)`` and are
reduced to per-function totals when the run ends.  The workload processes
of an untraced run never import this module.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Layer -> traced public functions.  Layers are the modules of the package.
TRACED = {
    "rootdata": ("build_root_system",),
    "weyl": ("generate", "weyl_orbit"),
    "characters": ("weyl_character", "tensor", "require_w_invariant"),
    "grothendieck": (
        "char_to_class", "char_to_class_by_peeling", "class_to_char",
        "tensor_delta_expansion", "steinberg_delta_multiplicity",
        "frobenius_contract_class", "pr_block", "block_decompose",
    ),
    "linkage": ("linked", "fundamental_alcove_rep"),
    "cli": ("build_parser", "run"),
}

# Work counters: names, and their values from (args, result, cache missed).
COUNTERS = {
    "characters.tensor": (("pairs", "support"), lambda a, r, m: (len(a[0]) * len(a[1]), len(r))),
    "characters.weyl_character": (("misses", "support"), lambda a, r, m: (m, len(r))),
    "weyl.generate": (("order",), lambda a, r, m: (r.order if m else 0,)),
    "linkage.linked": (("true",), lambda a, r, m: (int(r),)),
}


class Tracer:
    """Records one span per call of a traced function while not paused."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.paused = False

    def install(self):
        """Wrap every traced function the imported ``steinberg`` modules bind."""
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules.get(f"steinberg.{layer}")
            if module is None:
                continue
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "steinberg" and not modname.startswith("steinberg."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counters = COUNTERS.get(name, ((), None))[1]
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            misses = cache_info().misses if cache_info else 0
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                counts = None
                if counters is not None and result is not None:
                    missed = cache_info().misses - misses if cache_info else 0
                    counts = counters(args, result, missed)
                spans[idx] = (name, start, end, parent, counts)

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self) -> dict:
        """Per-function ``calls``, ``self_s`` and work counters, by name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {f"{layer}.{name}": _empty(f"{layer}.{name}")
               for layer, names in TRACED.items() for name in names}
        for (name, start, end, _, counts), inner in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - inner
            for key, value in zip(COUNTERS.get(name, ((),))[0], counts or ()):
                entry[key] += value
        return out


def _empty(name):
    entry = {"calls": 0, "self_s": 0.0}
    entry.update(dict.fromkeys(COUNTERS.get(name, ((),))[0], 0))
    return entry


def merge(totals_list) -> dict:
    """Sum per-function totals from several traced processes."""
    out = {}
    for totals in totals_list:
        for name, entry in totals.items():
            into = out.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                into[key] += value
    return out
