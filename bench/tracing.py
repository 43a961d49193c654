"""Spans around the public functions of each `treelab` layer, for the traced run.

`Tracer.install` replaces each listed function by a wrapper, both in its
defining module and in every `treelab` module that imported the name (so
`cli` and `paths` calls are seen too); `uninstall` puts the originals back.
Only the traced run installs it: end-to-end numbers are measured without.

A span is [layer, start, end, parent span index, query id, raised].  Spans
stay in memory until `write`.  A call made while a span of the same layer is
open (recursion, or one `save_*` calling another) opens no span of its own,
so self time is never double-counted.  A layer's self time is the time inside
its spans minus the time inside their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (layer, defining module, public functions); the layer name is the metric prefix
LAYERS = (
    ("automata.product_algebra", "treelab.automata", ("product_algebra",)),
    ("automata.smallest_trees", "treelab.automata", ("smallest_trees",)),
    ("automata.reachable_elements", "treelab.automata", ("reachable_elements",)),
    ("automata.evaluate", "treelab.automata", ("evaluate",)),
    ("syntactic.syntactic_algebra", "treelab.syntactic", ("syntactic_algebra",)),
    ("paths.path_nfa", "treelab.paths", ("path_nfa",)),
    ("paths.determinize", "treelab.paths", ("determinize",)),
    ("paths.dtta_to_dbta", "treelab.paths", ("dtta_to_dbta",)),
    ("transduce.dtop_preimage", "treelab.transduce", ("dtop_preimage",)),
    ("transduce.matrix_power_language", "treelab.transduce", ("matrix_power_language",)),
    ("transduce.dtop_apply", "treelab.transduce", ("dtop_apply",)),
    ("cascade.ctl_compile", "treelab.cascade", ("ctl_compile",)),
    ("cascade.random_formula_corpus", "treelab.cascade", ("random_formula_corpus",)),
    ("cascade.cascade_flatten", "treelab.cascade", ("cascade_flatten",)),
    ("cascade.ctl_eval", "treelab.cascade", ("ctl_eval",)),
    ("trees.parse_tree", "treelab.trees", ("parse_tree",)),
    ("trees.render_tree", "treelab.trees", ("render_tree",)),
    ("trees.enumerate_trees", "treelab.trees", ("enumerate_trees",)),
    ("cli.load", "treelab.cli",
     ("load_alphabet", "load_dbta", "load_dtta", "load_dtop", "load_matrix")),
    ("cli.save", "treelab.cli",
     ("save_alphabet", "save_algebra", "save_dbta", "save_dtta", "save_dtop", "save_matrix")),
    ("cli.main", "treelab.cli", ("main",)),
)

# product carriers (|A| * |B|) are grouped by these upper bounds, then "gt1024"
PRODUCT_BUCKETS = (64, 256, 1024)
BUCKET_NAMES = tuple(f"le{b}" for b in PRODUCT_BUCKETS) + ("gt1024",)

# (metric, unit, better) for every per-layer number the traced run reports
METRICS = tuple(
    (f"{layer}.{stat}", unit, "lower")
    for layer, _, _ in LAYERS
    for stat, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))
) + (
    ("automata.product_algebra.cells", "count", "lower"),
    ("automata.product.reached_ratio", "ratio", "higher"),
    ("syntactic.syntactic_algebra.carrier_in", "count", "lower"),
    ("syntactic.syntactic_algebra.carrier_out", "count", "lower"),
    ("paths.determinize.states", "count", "lower"),
    ("paths.dtta_to_dbta.carrier", "count", "lower"),
    ("transduce.dtop_preimage.carrier", "count", "lower"),
    ("transduce.matrix_power_language.carrier", "count", "lower"),
    ("cascade.ctl_compile.letters", "count", "lower"),
    ("cascade.random_formula_corpus.kept_ratio", "ratio", "higher"),
    ("cascade.cascade_flatten.carrier", "count", "lower"),
    ("trees.parse_tree.nodes", "count", "lower"),
    ("automata.evaluate.nodes", "count", "lower"),
    ("trees.enumerate_trees.trees", "count", "lower"),
) + tuple(
    (f"automata.product_algebra.carrier_{bucket}.{stat}", unit, "lower")
    for bucket in BUCKET_NAMES
    for stat, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.layer_self_share", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
)


def _bucket(carrier: int) -> str:
    for bound, name in zip(PRODUCT_BUCKETS, BUCKET_NAMES):
        if carrier <= bound:
            return name
    return BUCKET_NAMES[-1]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.buckets: dict[int, str] = {}  # product span index -> carrier bucket
        self.products: dict[int, object] = {}  # id -> product algebras of this query
        self.patched: list[tuple] = []

    def begin(self) -> None:
        """Start the next query: its spans share a new query id."""
        self.query += 1
        self.products.clear()

    def install(self) -> None:
        modules = [
            module for name, module in sorted(sys.modules.items())
            if name == "treelab" or name.startswith("treelab.")
        ]
        for layer, module_name, names in LAYERS:
            defining = importlib.import_module(module_name)
            for name in names:
                original = getattr(defining, name)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self.patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                if layer == "automata.evaluate":
                    self.counts["automata.evaluate.nodes"] += 1
                return fn(*args, **kwargs)
            index = len(spans)
            span = [layer, perf_counter(), 0.0, stack[-1] if stack else -1, self.query, False]
            stack.append(index)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            self._count(layer, index, args, result)
            return result

        return traced

    def _count(self, layer: str, index: int, args, result) -> None:
        """Work counts at the layer boundary, read from arguments and results."""
        counts = self.counts
        if layer == "automata.product_algebra":
            a, b = args[0], args[1]
            counts[layer + ".cells"] += sum(
                (a.size * b.size) ** letter.arity for letter in a.alphabet.letters
            )
            self.buckets[index] = _bucket(a.size * b.size)
            self.products[id(result)] = result
        elif layer in ("automata.smallest_trees", "automata.reachable_elements"):
            algebra = args[0]
            if id(algebra) in self.products:
                counts["product.reached"] += len(result)
                counts["product.carrier"] += algebra.size
        elif layer == "automata.evaluate":
            counts[layer + ".nodes"] += 1
        elif layer == "syntactic.syntactic_algebra":
            counts[layer + ".carrier_in"] += args[0].algebra.size
            counts[layer + ".carrier_out"] += result.minimal.algebra.size
        elif layer == "paths.determinize":
            counts[layer + ".states"] += result.n_states
        elif layer in ("paths.dtta_to_dbta", "transduce.dtop_preimage",
                       "transduce.matrix_power_language", "cascade.cascade_flatten"):
            counts[layer + ".carrier"] += result.algebra.size
        elif layer == "cascade.ctl_compile":
            counts[layer + ".letters"] += sum(len(l.alphabet.letters) for l in result.layers)
        elif layer == "cascade.random_formula_corpus":
            counts["corpus.kept"] += len(result)
        elif layer == "trees.parse_tree":
            text = args[0]
            counts[layer + ".nodes"] += text.count("(") + text.count(",") + 1
        elif layer == "trees.enumerate_trees":
            counts[layer + ".trees"] += len(result)

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Every per-layer metric of `METRICS`, from the spans and counts."""
        spans = self.spans
        inner = [0.0] * len(spans)
        for layer, start, end, parent, _, _ in spans:
            if parent >= 0:
                inner[parent] += end - start
        out = {name: 0.0 for name, _, _ in METRICS}
        draws = 0
        for index, (layer, start, end, parent, _, raised) in enumerate(spans):
            own = end - start - inner[index]
            out[layer + ".calls"] += 1
            out[layer + ".self_s"] += own
            out[layer + ".errors"] += raised
            if index in self.buckets:
                prefix = f"automata.product_algebra.carrier_{self.buckets[index]}"
                out[prefix + ".calls"] += 1
                out[prefix + ".self_s"] += own
            if layer == "cascade.ctl_compile" and parent >= 0 and (
                spans[parent][0] == "cascade.random_formula_corpus"
            ):
                draws += 1
        for name, value in self.counts.items():
            if name in out:
                out[name] = value
        counts = self.counts
        if counts["product.carrier"]:
            out["automata.product.reached_ratio"] = counts["product.reached"] / counts["product.carrier"]
        if draws:
            out["cascade.random_formula_corpus.kept_ratio"] = counts["corpus.kept"] / draws
        layer_self = sum(
            out[layer + ".self_s"] for layer, _, _ in LAYERS if layer != "cli.main"
        )
        out["trace.overhead_ratio"] = traced_wall / untraced_wall
        out["trace.layer_self_share"] = layer_self / traced_wall
        out["trace.spans"] = len(spans)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for layer, start, end, parent, query, raised in self.spans:
                handle.write(json.dumps({
                    "name": layer, "start": start, "end": end,
                    "parent": parent, "query": query, "error": raised,
                }) + "\n")
