"""Span recorder for the traced run, installed from outside the library.

``Tracer.install`` replaces the public functions and methods of each
layer module with wrappers, in the defining module and in every other
bslat module that imported them by name.  A call that crosses into another
layer opens a span (id, parent span, request, layer, name, start, end);
a call that stays inside the caller's layer only counts.  A layer's self
time is the duration of its spans minus the time covered by their child
spans.  The hottest leaves are wrapped by count-only wrappers, so the
tracing cost stays small enough to report as ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "bsgroup", "exactnum", "tree", "isometry", "lattice", "lab")

# Leaves called so often that a span each would swamp what is measured.
COUNT_ONLY = {
    ("tree", "act"): "tree.act_calls",
    ("tree", "act_inverse"): "tree.act_calls",
    ("exactnum", "p_valuation"): "exactnum.valuation_calls",
    ("exactnum", "nadic_residue"): "exactnum.nadic_residue_calls",
}

# Calls counted one for one, with a span as usual.
CALL_COUNTS = {
    ("cli", "main"): "cli.commands",
    ("tree", "LevelPermAutomorphism.__post_init__"): "tree.levelperm_built",
    ("bsgroup", "normal_form_of"): "bsgroup.normal_form_calls",
    ("lattice", "classify"): "lattice.classify_calls",
    ("isometry", "ArithmeticIsometry.compose"): "isometry.compose_calls",
}

COUNTS = (
    "cli.commands",
    "lab.closure_pairs",
    "lab.group_elements",
    "tree.act_calls",
    "tree.cone_labels",
    "tree.levelperm_built",
    "exactnum.valuation_calls",
    "exactnum.nadic_residue_calls",
    "bsgroup.normal_form_calls",
    "lattice.classify_calls",
    "isometry.compose_calls",
)

# Every per-layer metric a traced run reports, with its unit.
METRICS = {
    **{
        f"{layer}.{kind}": unit
        for layer in LAYERS
        for kind, unit in (("calls", "count"), ("self_s", "s"), ("share", "ratio"))
    },
    "trace.overhead_s": "s",
    **{name: "count" for name in COUNTS},
    "lab.closure_coverage": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = 0
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        # (n, k) -> [pairs checked, |G|**2] over verify_closure calls
        self.closure = {}
        # open spans: [span id, layer, start, time covered by children]
        self._stack = [[0, None, 0.0, 0.0]]
        self._next_id = 1

    # ------------------------------------------------------------ hooks

    def _closure(self, args, kwargs, pairs):
        group = args[0]
        self.counts["lab.closure_pairs"] += pairs
        cell = self.closure.setdefault((group.n, group.k), [0, 0])
        cell[0] += pairs
        cell[1] += len(group) ** 2

    def _group_built(self, args, kwargs, result):
        self.counts["lab.group_elements"] += len(args[0])

    def _cone(self, args, kwargs, result):
        w = args[1] if len(args) > 1 else kwargs["w"]
        depth = args[2] if len(args) > 2 else kwargs["depth"]
        self.counts["tree.cone_labels"] += sum(w.n**i for i in range(1, depth + 1))

    # ------------------------------------------------------------ wrappers

    def _counting(self, layer, func, counter):
        calls, counts = self.calls, self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            counts[counter] += 1
            return func(*args, **kwargs)

        return wrapper

    def _spanning(self, layer, name, func):
        calls, counts, stack, spans = (
            self.calls, self.counts, self._stack, self.spans
        )
        counter = CALL_COUNTS.get((layer, name))
        after = {
            ("lab", "LevelPermGroup.verify_closure"): self._closure,
            ("lab", "LevelPermGroup.__post_init__"): self._group_built,
            ("tree", "restrict_to_up"): self._cone,
        }.get((layer, name))

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if counter is not None:
                counts[counter] += 1
            if stack[-1][1] == layer:
                result = func(*args, **kwargs)
            else:
                frame = [self._next_id, layer, perf_counter(), 0.0]
                self._next_id += 1
                stack.append(frame)
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    duration = end - frame[2]
                    self.self_s[layer] += duration - frame[3]
                    stack[-1][3] += duration
                    spans.append((frame[0], stack[-1][0], self.request,
                                  layer, name, frame[2], end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap(self, layer, name, func):
        counter = COUNT_ONLY.get((layer, name))
        if counter is not None:
            return self._counting(layer, func, counter)
        return self._spanning(layer, name, func)

    def install(self, modules: dict):
        """Wrap every layer in ``modules`` (layer name -> module)."""
        cli = modules["cli"]
        imported_by_cli = {
            id(obj)
            for obj in vars(cli).values()
            if inspect.isfunction(obj) and obj.__module__ != cli.__name__
        }
        replaced = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    if name.startswith("_") and id(obj) not in imported_by_cli:
                        continue
                    replaced[id(obj)] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj) and not name.startswith("_"):
                    self._wrap_methods(layer, obj)
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])

    def _wrap_methods(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__post_init__", "__call__"):
                continue
            is_static = isinstance(member, staticmethod)
            func = member.__func__ if is_static else member
            if not inspect.isfunction(func):
                continue
            wrapped = self._wrap(layer, f"{cls.__name__}.{attr}", func)
            setattr(cls, attr, staticmethod(wrapped) if is_static else wrapped)

    # ------------------------------------------------------------ results

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer metrics of one traced pass that took ``wall_s``."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.share"] = self.self_s[layer] / wall_s
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        for name in COUNTS:
            out[name] = self.counts[name]
        squares = sum(cell[1] for cell in self.closure.values())
        out["lab.closure_coverage"] = (
            out["lab.closure_pairs"] / squares if squares else 0.0
        )
        return out

    def coverage_by_size(self) -> dict:
        return {
            f"n={n},k={k}": pairs / squares
            for (n, k), (pairs, squares) in sorted(self.closure.items())
        }

    def write_spans(self, path):
        """All spans as tab-separated lines, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id\tparent\trequest\tlayer\tname\tstart\tend\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")
