"""In-memory spans around the calls into ontopath's layers, for the traced run.

Wrappers are installed on the names that callers actually look up (the
module globals that the calling module reads at call time), so recursive
calls through a module global produce nested spans.  A span records its
name, start, end, parent span and op id; a layer's self time is its
spans' duration minus the time covered by their child spans.
"""
from __future__ import annotations

import functools
import gzip
from collections import defaultdict
from time import perf_counter


def _witness_sets(counts, args, result):
    counts["depgraph.witness.sets"] += len(result)


def _clipping_hits(counts, args, result):
    counts["rewriter.clipping.hits"] += 1 if result else 0


def _rewrite_branches(counts, args, result):
    counts["rewriter.rewrite_ncq.branches"] += len(result)


def _cypher_arms(counts, args, result):
    counts["cypher.arms"] += result.text.count("\nUNION\n") + 1


def _path_pairs(counts, args, result):
    counts["graph.path_pairs.pairs"] += len(result)


def _chase_growth(counts, args, result):
    base = args[0]
    counts["chase.nodes_added"] += len(result.labels) - len(base.labels)
    counts["chase.edges_added"] += len(result.edges) - len(base.edges)
    counts["chase.labels_added"] += (sum(map(len, result.labels.values()))
                                     - sum(map(len, base.labels.values())))


# (module, global name looked up by callers, span name, extra counter)
WRAPS = (
    ("rewriter", "normalize", "tbox.normalize", None),
    ("depgraph", "normalize", "tbox.normalize", None),
    ("chase", "normalize", "tbox.normalize", None),
    ("rewriter", "build_dependency_graph", "depgraph.build", None),
    ("rewriter", "rewr_concept", "depgraph.rewr_concept", None),
    ("rewriter", "witness", "depgraph.witness", _witness_sets),
    ("rewriter", "rewrite_role", "depgraph.rewrite_role", None),
    ("rewriter", "clipping", "rewriter.clipping", _clipping_hits),
    ("rewriter", "rewrite_ncq", "rewriter.rewrite_ncq", _rewrite_branches),
    ("rewriter", "add_subseteq", "query.add_subseteq", None),
    ("query", "contains_structurally", "query.contains_structurally", None),
    ("rewriter", "canon_query", "query.canon_query", None),
    ("query", "canon_query", "query.canon_query", None),
    ("rewriter", "substitute_role", "query.substitute_role", None),
    ("query", "parse_query", "query.parse", None),
    ("cypher", "emit_cypher", "cypher.emit", _cypher_arms),
    ("graph", "load_graph", "graph.load", None),
    ("graph", "eval_query", "graph.eval_query", None),
    ("chase", "eval_query", "graph.eval_query", None),
    ("graph", "path_pairs", "graph.path_pairs", _path_pairs),
    ("chase", "chase", "chase.chase", _chase_growth),
)


class Tracer:
    """Collects spans and counters while `active`; one thread only."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []     # [name, start, end, parent index, op id]
        self.counts = defaultdict(int)
        self._stack = []
        self._originals = []

    def begin(self, name) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, extra):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if extra is not None:
                extra(tracer.counts, args, result)
            return result

        return wrapper

    def install(self, modules):
        """Wrap every WRAPS entry on the given ontopath module namespace."""
        for module_name, attr, span, extra in WRAPS:
            module = getattr(modules, module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, extra))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def take(self):
        """Hand over the spans and counters gathered so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while one is open")
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts


def layer_totals(spans) -> dict:
    """{span name: [calls, self seconds, total seconds]} over a list of spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {}
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered[index]
        entry[2] += end - start
    return totals


def write_spans(path, batches):
    """Write (label, spans) batches as gzipped CSV, one span per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("batch,index,name,start,end,parent,op\n")
        for label, spans in batches:
            for index, (name, start, end, parent, op) in enumerate(spans):
                out.write(f"{label},{index},{name},{start:.9f},{end:.9f},{parent},{op}\n")
