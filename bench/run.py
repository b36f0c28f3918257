#!/usr/bin/env python3
"""ontopath benchmark: compile, evaluate and check, timed end to end and per layer.

    python3 bench/run.py --workload {sweep,tbox-scale,graph-scale} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Load is a closed loop: one process, one
thread, one operation after another.  Each instance goes through three
operations, as the command line would run them:

* compile: ``rewrite_ncq(q, t).to_uc2rpq()`` plus an ``emit_cypher`` attempt;
* eval: ``eval_query`` of that rewriting on the instance's graph;
* check: rewrite, evaluate, ``certain_answers`` at depth 3, compare.

Every answer set is compared with the instance's reference.  Passes over the
instances, in a seeded order, repeat until ``--seconds`` is used up; an
operation's time is the median over its passes, in reference seconds (see
``speed.py``), and percentiles are taken over instances.  Exact results
(branch and byte counts, outcomes) must repeat from pass to pass, or the
run fails.  ``README.md`` beside this file describes workloads and metrics.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` the run first starts an untraced
copy of itself for half the time, with its own hash seed, then measures
again with spans around every layer, checks that the exact figures match
the untraced copy's, and reports per-layer metrics plus the tracing
overhead.  Spans of the traced run are written to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import Tracer, layer_totals, write_spans  # noqa: E402
from speed import SpeedProbe, kernel  # noqa: E402

CHECK_DEPTH = 3
SETUP_REPEATS = 5
MIN_TRACED_PASSES = 2
# After its first pass, the untraced run stops repeating an operation on the
# instances that were among the eight slowest of its kind.  Every tail has
# ten instances beyond it, so those eight only need to stay beyond it, and
# repeating them would take most of a run.
SETTLED = 8
MODULES = ("tbox", "query", "depgraph", "rewriter", "cypher", "graph", "chase", "errors")
KINDS = ("compile", "eval", "check")


# ---------------------------------------------------------------------------
# Workloads: each maps a seed to its instances, smallest of each family first


def sweep_workload(seed):
    # The instances are the fixed acceptance corpus; the seed orders the ops.
    # Seeded draws of 500 instances from this distribution vary about
    # threefold in total time and in Cypher bytes between seeds, which no
    # regression bound could absorb.
    return gen.sweep_instances()


def tbox_scale_workload(seed):
    rng = random.Random(seed)
    chains = [gen.chain_instance(rng, n, f"chain:{k}")
              for k, n in enumerate(gen.size_grid(10, 35, 24))]
    mixed = [gen.mixed_instance(rng, n, f"mixed:{k}")
             for k, n in enumerate(gen.size_grid(3, 8, 16))]
    return chains + mixed


def graph_scale_workload(seed):
    rng = random.Random(seed)
    return gen.graph_instances(rng, gen.size_grid(100, 1000, 10, geometric=True))


WORKLOADS = {
    "sweep": sweep_workload,
    "tbox-scale": tbox_scale_workload,
    "graph-scale": graph_scale_workload,
}


def family(name):
    return name.replace("@", "-").split("-")[0]


# ---------------------------------------------------------------------------
# Set-up


def import_ontopath():
    """Import ontopath afresh, so that every set-up pays the import."""
    for name in [n for n in sys.modules if n == "ontopath" or n.startswith("ontopath.")]:
        del sys.modules[name]
    importlib.import_module("ontopath")
    return SimpleNamespace(**{n: importlib.import_module(f"ontopath.{n}") for n in MODULES})


@dataclass
class Op:
    instance: gen.Instance
    tbox: object
    query: object
    graph: object
    expected: frozenset | None
    rewriting: object = None  # from the latest compile; eval evaluates it


def prepare(m, instances):
    """Hand the generated texts to the program's parsers and loader."""
    graphs = {}
    ops = []
    for inst in instances:
        graph = graphs.get(inst.graph)
        if graph is None:
            graph = graphs[inst.graph] = m.graph.load_graph(inst.graph)
        ops.append(Op(inst, m.tbox.parse_tbox(inst.tbox), m.query.parse_query(inst.query),
                      graph, inst.expected))
    return ops


def set_up(workload, seed, tracer=None):
    """Import, generate, parse and load, then warm up on the smallest instances.

    Returns (modules, ops, set-up seconds).  The references are computed in
    between and their time is left out: users do not pay for them.
    """
    start = perf_counter()
    m = import_ontopath()
    if tracer is not None:
        tracer.install(m)
        tracer.active = True
        tracer.op = "setup"
    ops = prepare(m, WORKLOADS[workload](seed))
    if tracer is not None:
        tracer.active = False
    prepared = perf_counter()
    add_references(m, ops)
    resumed = perf_counter()
    seen = set()
    for op in ops:
        if family(op.instance.name) not in seen:
            seen.add(family(op.instance.name))
            run_instance(m, op, None)
    return m, ops, (prepared - start) + (perf_counter() - resumed)


def freeze_inputs():
    """Move everything alive now out of the cyclic collector's reach.

    A command-line run holds one instance; a benchmark process holds all of
    them, which would make every full collection during an operation slower
    than it is for a user, and by how much depend on when it happens.
    """
    gc.collect()
    gc.freeze()


def add_references(m, ops):
    """The bounded chase is the reference where no closed form exists."""
    for op in ops:
        if op.expected is None:
            op.expected = frozenset(
                m.chase.certain_answers(op.query, op.graph, op.tbox, CHECK_DEPTH))


# ---------------------------------------------------------------------------
# One instance: compile, eval, check


@dataclass
class Result:
    times: dict = field(default_factory=dict)     # kind -> seconds
    outcomes: dict = field(default_factory=dict)  # kind -> ok/wrong/budget/error
    branches: int = 0
    cypher_bytes: int = 0
    rewritten: bool = False
    unsupported: bool = False
    incomplete: dict = field(default_factory=dict)  # kind -> warnings
    detail: str = ""
    at: float = 0.0      # when it ran, for the speed probe
    scale: float = 1.0   # seconds to reference seconds


def _compile(m, op):
    op.rewriting = m.rewriter.rewrite_ncq(op.query, op.tbox).to_uc2rpq()
    try:
        text = m.cypher.emit_cypher(op.rewriting).text
    except m.errors.UnsupportedPathError:
        text = None
    return op.rewriting, text


def _eval(m, op):
    return m.graph.eval_query(op.rewriting, op.graph)


def _check(m, op):
    u = m.rewriter.rewrite_ncq(op.query, op.tbox).to_uc2rpq()
    got = m.graph.eval_query(u, op.graph)
    certain = m.chase.certain_answers(op.query, op.graph, op.tbox, CHECK_DEPTH)
    return got, certain


def _differs(got, expected) -> str:
    return f"{len(expected - got)} missing, {len(got - expected)} extra"


def run_instance(m, op, tracer, kinds=KINDS) -> Result:
    """Run the operations `kinds` (in KINDS order) on one instance; classify each outcome.

    Eval evaluates the rewriting of the instance's latest compile.
    """
    r = Result()
    for kind, fn in (("compile", _compile), ("eval", _eval), ("check", _check)):
        if kind not in kinds:
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            index = tracer.begin(f"op.{kind}") if tracer is not None else None
            start = perf_counter()
            try:
                value = fn(m, op)
            except m.errors.BudgetExceededError as exc:
                r.outcomes[kind], r.detail = "budget", f"{kind}: {exc}"
            except Exception as exc:  # an op boundary: record, count, go on
                r.outcomes[kind] = "error"
                r.detail = f"{kind}: {type(exc).__name__}: {exc}"
            r.times[kind] = perf_counter() - start
            if index is not None:
                tracer.end(index)
        r.incomplete[kind] = sum("may be incomplete" in str(w.message) for w in caught)
        if kind in r.outcomes:
            for later in KINDS[KINDS.index(kind) + 1:]:
                if later in kinds:
                    r.outcomes[later] = r.outcomes[kind]
            break
        if kind == "compile":
            u, text = value
            r.rewritten, r.branches = True, len(u.branches)
            if text is None:
                r.unsupported = True
            else:
                r.cypher_bytes = len(text.encode())
            r.outcomes[kind] = "ok"
        elif kind == "eval":
            r.outcomes[kind] = "ok" if value == op.expected else "wrong"
            if value != op.expected:
                r.detail = f"eval: {_differs(value, op.expected)}"
        else:
            got, certain = value
            if got == certain == op.expected:
                r.outcomes[kind] = "ok"
            else:
                r.outcomes[kind] = "wrong"
                r.detail = (f"check: rewriting {_differs(got, op.expected)}; "
                            f"chase {_differs(certain, op.expected)}")
    return r


# ---------------------------------------------------------------------------
# Passes


def kinds_to_repeat(first, settled) -> list:
    """Per op, the kinds to run after the first pass: every kind but those
    where the op was among the `settled` slowest."""
    slowest = {}
    for kind in KINDS:
        timed = sorted((i for i, r in enumerate(first) if kind in r.times),
                       key=lambda i: first[i].times[kind])
        slowest[kind] = set(timed[len(timed) - settled:]) if settled else set()
    return [tuple(kind for kind in KINDS if i not in slowest[kind]) for i in range(len(first))]


def run_passes(m, ops, seed, seconds, probe, tracer=None, min_passes=1, settled=0,
               on_pass=None):
    """Repeat passes over the ops in seeded orders until `seconds` is used up.

    Passes after the first leave out each kind of operation on the `settled`
    ops that were slowest at it in the first pass; `on_pass` is called with
    each pass's results.  Returns a list of passes, where passes[k][i] is op
    i's Result in pass k, or None where pass k left it out.
    """
    order_rng = random.Random(f"order:{seed}")
    passes = []
    kinds = [KINDS] * len(ops)
    started = perf_counter()
    while True:
        order = [i for i in range(len(ops)) if kinds[i]]
        order_rng.shuffle(order)
        results = [None] * len(ops)
        for index in order:
            probe.sample()
            if tracer is not None:
                tracer.op = ops[index].instance.name
                tracer.active = True
            start = perf_counter()
            results[index] = r = run_instance(m, ops[index], tracer, kinds[index])
            r.at = (start + perf_counter()) / 2
            if tracer is not None:
                tracer.active = False
        passes.append(results)
        if on_pass is not None:
            on_pass(results)
        first = passes[0]
        if len(passes) == 1:
            kinds = kinds_to_repeat(first, settled)
        next_pass = sum(first[i].times.get(kind, 0.0)
                        for i in range(len(ops)) for kind in kinds[i])
        if len(passes) >= min_passes and perf_counter() - started + next_pass > seconds:
            break
    probe.sample(force=True)
    for results in passes:
        for r in results:
            if r is not None:
                r.scale = probe.scale_at(r.at)
    return passes


def pass_seconds(results, scaled=True) -> float:
    """Time a pass spent in its operations, in reference seconds if `scaled`."""
    return sum(sum(r.times.values()) * (r.scale if scaled else 1.0)
               for r in results if r is not None)


def _signature(r, kinds):
    """Exact results of the operations `kinds` in r."""
    compiled = ((r.rewritten, r.branches, r.cypher_bytes, r.unsupported)
                if "compile" in kinds else ())
    return compiled + tuple((kind, r.outcomes.get(kind), r.incomplete.get(kind))
                            for kind in kinds)


def op_repeat_problems(ops, passes) -> list:
    """Ops whose exact results differ between the passes that ran them."""
    differing = sorted({
        ops[i].instance.name
        for results in passes[1:]
        for i, r in enumerate(results)
        if r is not None and _signature(r, r.outcomes) != _signature(passes[0][i], r.outcomes)
    })
    return [f"NONDETERMINISM: exact results differ between passes for {name}"
            for name in differing]


def exact_figures(results) -> dict:
    """Figures of one pass that must repeat exactly for the same code and seed."""
    outcomes = dict.fromkeys(("ok", "wrong", "budget", "error"), 0)
    for r in results:
        for kind in KINDS:
            outcomes[r.outcomes[kind]] += 1
    return {
        "branches.sum": sum(r.branches for r in results),
        "cypher_bytes.sum": sum(r.cypher_bytes for r in results),
        "rewritings": sum(r.rewritten for r in results),
        "cypher_unsupported": sum(r.unsupported for r in results),
        "incomplete_warnings": sum(sum(r.incomplete.values()) for r in results),
        "outcomes": outcomes,
    }


def repeat_problems(figures, what) -> list:
    """Problems when a list of per-pass figure dicts does not repeat exactly."""
    return [f"NONDETERMINISM: {what} of pass {i} {fig} differ from pass 0 {figures[0]}"
            for i, fig in enumerate(figures[1:], start=1) if fig != figures[0]]


# ---------------------------------------------------------------------------
# Metrics


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    if n <= 10:
        raise ValueError(f"a tail needs more than 10 samples, got {n}")
    return math.floor(100 * (n - 10) / n)


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def op_times(passes, kind, scaled=True) -> list:
    """Per instance, the median time of `kind` over the passes that ran it."""
    return [statistics.median(results[index].times[kind]
                              * (results[index].scale if scaled else 1.0)
                              for results in passes
                              if results[index] is not None and kind in results[index].times)
            for index in range(len(passes[0]))
            if kind in passes[0][index].times]


def timings(passes, scaled=True) -> dict:
    out = {}
    for kind in KINDS:
        times = op_times(passes, kind, scaled)
        out[f"{kind}_s.p50"] = (statistics.median(times), "s")
        out[f"{kind}_s.tail"] = (nearest_rank(times, tail_percentile(len(times))), "s")
    return out


def end_to_end(passes, setup_times) -> dict:
    exact = exact_figures(passes[0])
    attempted = sum(exact["outcomes"].values())
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    metrics.update(timings(passes))
    rewritings = exact["rewritings"]
    metrics["branches.sum"] = (exact["branches.sum"], "count")
    metrics["cypher_bytes.sum"] = (exact["cypher_bytes.sum"], "bytes")
    metrics["cypher_emitted_share"] = (
        (rewritings - exact["cypher_unsupported"]) / rewritings if rewritings else 0.0, "share")
    metrics["ok_share"] = (exact["outcomes"]["ok"] / attempted, "share")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


PER_LAYER_TIMES = (
    "tbox.normalize", "depgraph.build", "depgraph.rewr_concept", "depgraph.witness",
    "depgraph.rewrite_role", "rewriter.clipping", "rewriter.rewrite_ncq",
    "query.add_subseteq", "query.contains_structurally", "query.canon_query",
    "query.substitute_role", "cypher.emit", "graph.eval_query", "graph.path_pairs",
    "chase.chase",
)
PER_LAYER_CALLS = (
    "tbox.normalize", "depgraph.rewr_concept", "depgraph.witness", "depgraph.rewrite_role",
    "rewriter.clipping", "query.add_subseteq", "query.contains_structurally",
    "query.canon_query", "query.substitute_role", "graph.eval_query", "graph.path_pairs",
)
COUNTERS = (
    "depgraph.witness.sets", "rewriter.clipping.hits", "cypher.arms",
    "graph.path_pairs.pairs", "chase.nodes_added", "chase.edges_added",
    "chase.labels_added",
)
SETUP_TIMES = ("query.parse", "graph.load")


def pass_layers(spans, counts, results, scale) -> tuple:
    """(exact counts, times in reference seconds) of one traced pass."""
    totals = layer_totals(spans)
    exact = {f"{name}.calls": totals.get(name, [0])[0] for name in PER_LAYER_CALLS}
    exact.update({name: counts.get(name, 0) for name in COUNTERS})
    exact["rewriter.incomplete_warnings"] = sum(sum(r.incomplete.values()) for r in results)
    candidates = exact["query.add_subseteq.calls"]
    kept = counts.get("rewriter.rewrite_ncq.branches", 0)
    exact["query.prune_yield"] = kept / candidates if candidates else 0.0
    times = {f"{name}.self_s": totals.get(name, [0, 0.0])[1] * scale
             for name in PER_LAYER_TIMES}
    for kind in KINDS:
        _calls, self_s, total = totals.get(f"op.{kind}", [0, 0.0, 0.0])
        times[f"op.{kind}.covered_share"] = 1 - self_s / total if total else 0.0
    return exact, times


def unit_of(name) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name == "query.prune_yield":
        return "share"
    return "count"


# ---------------------------------------------------------------------------
# Runs


def set_up_repeatedly(workload, seed, probe):
    """Set up SETUP_REPEATS times; returns the last set-up and all times in reference seconds."""
    setup_times = []
    probe.sample(force=True)
    for _ in range(SETUP_REPEATS):
        m, ops, seconds = set_up(workload, seed)
        probe.sample(force=True)
        setup_times.append(seconds * probe.scale_between(probe.at[-2], probe.at[-1]))
    freeze_inputs()
    return m, ops, setup_times


def new_probe() -> SpeedProbe:
    for _ in range(3):
        kernel()  # first calls pay for lazy set-up inside the interpreter
    return SpeedProbe()


def failing_ops(ops, results) -> list:
    return [f"FAILED {op.instance.name}: {r.detail}"
            for op, r in zip(ops, results) if set(r.outcomes.values()) != {"ok"}]


def outcome_line(figures) -> str:
    o = figures["outcomes"]
    attempted = sum(o.values())
    rewritings = figures["rewritings"]
    return (f"outcomes per pass: ok={o['ok']} wrong_answer={o['wrong']} "
            f"budget_exceeded={o['budget']} other_exception={o['error']} "
            f"cypher_unsupported={figures['cypher_unsupported']} "
            f"incomplete_warning={figures['incomplete_warnings']} "
            f"failed_share={(attempted - o['ok']) / attempted} "
            f"cypher_unsupported_share="
            f"{figures['cypher_unsupported'] / rewritings if rewritings else 0.0}")


def attempted_and_failed(passes) -> tuple:
    outcomes = [o for results in passes for r in results if r is not None
                for o in r.outcomes.values()]
    return len(outcomes), sum(o != "ok" for o in outcomes)


def untraced(workload, seed, seconds):
    probe = new_probe()
    m, ops, setup_times = set_up_repeatedly(workload, seed, probe)
    passes = run_passes(m, ops, seed, seconds, probe, settled=SETTLED)
    figures = exact_figures(passes[0])
    problems = op_repeat_problems(ops, passes) + failing_ops(ops, passes[0])
    print(outcome_line(figures))
    print("exact " + json.dumps(figures, sort_keys=True))
    print("passes " + json.dumps({"full_pass_s": pass_seconds(passes[0]),
                                  "seconds": [pass_seconds(p, False) for p in passes]}))
    took = sorted(probe.took)
    print(f"instances={len(ops)} passes={len(passes)} "
          f"tail=p{tail_percentile(len(ops))} of {len(ops)} per-instance medians; "
          f"speed probe: {len(took)} samples, median {statistics.median(took):.6f} s, "
          f"range {took[0]:.6f}-{took[-1]:.6f} s")
    for name, (value, unit) in timings(passes, scaled=False).items():
        print(f"unscaled {name} = {value} {unit}")
    return end_to_end(passes, setup_times), problems, attempted_and_failed(passes)


def untraced_copy(workload, seed, seconds):
    """Run the untraced benchmark in a child process with its own hash seed.

    Returns its exact figures and its full pass's time in reference seconds.
    """
    env = dict(os.environ, PYTHONHASHSEED="random")
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        # Five set-ups, each with its reference chase, come on top of the passes.
        child = subprocess.run(argv, capture_output=True, text=True, env=env,
                               timeout=4 * seconds + 120)
    except subprocess.TimeoutExpired as exc:
        raise SystemExit(f"the untraced copy did not end within {exc.timeout} s") from None
    sys.stderr.write(child.stderr)
    lines = child.stdout.splitlines()
    found = {}
    for line in lines:
        for prefix in ("exact ", "passes "):
            if line.startswith(prefix):
                found[prefix.strip()] = json.loads(line[len(prefix):])
    if child.returncode != 0 or len(found) != 2:
        print("\n".join(lines[:-1]))
        raise SystemExit(f"the untraced copy failed with exit code {child.returncode}")
    return found["exact"], found["passes"]["full_pass_s"]


def traced(workload, seed, seconds):
    child_seconds = max(1, seconds // 2)
    child_exact, untraced_pass = untraced_copy(workload, seed, child_seconds)

    probe = new_probe()
    tracer = Tracer()
    probe.sample(force=True)
    m, ops, _seconds = set_up(workload, seed, tracer)
    probe.sample(force=True)
    setup_scale = probe.scale_between(probe.at[-2], probe.at[-1])
    setup_spans, _ = tracer.take()
    freeze_inputs()
    traced_passes = []

    def on_pass(results):
        traced_passes.append(tracer.take())

    passes = run_passes(m, ops, seed, seconds - child_seconds, probe, tracer,
                        MIN_TRACED_PASSES, on_pass=on_pass)
    tracer.uninstall()

    layers = []
    for (spans, counts), results in zip(traced_passes, passes):
        scale = statistics.median(r.scale for r in results)
        layers.append(pass_layers(spans, counts, results, scale))
    figures = [exact_figures(results) for results in passes]
    problems = repeat_problems(figures + [child_exact], "exact figures")
    problems += repeat_problems([exact for exact, _ in layers], "per-layer counts")
    problems += failing_ops(ops, passes[0])
    print(outcome_line(figures[0]))

    metrics = {name: (value, unit_of(name)) for name, value in layers[0][0].items()}
    for name in layers[0][1]:
        metrics[name] = (statistics.median(times[name] for _, times in layers), unit_of(name))
    setup_totals = layer_totals(setup_spans)
    for name in SETUP_TIMES:
        metrics[f"{name}.self_s"] = (setup_totals.get(name, [0, 0.0])[1] * setup_scale, "s")
    overhead = statistics.median(pass_seconds(p) for p in passes) - untraced_pass
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced_pass, "share")
    out = HERE / "out" / f"spans-{workload}-seed{seed}.csv.gz"
    batches = [("setup", setup_spans)] + [
        (f"pass{k}", spans) for k, (spans, _counts) in enumerate(traced_passes, start=1)]
    write_spans(out, batches)
    print(f"spans written to {out.relative_to(HERE.parent)}")
    return metrics, problems, attempted_and_failed(passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ontopath" / "__init__.py").is_file():
        print(f"ontopath sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = traced if args.trace else untraced
    metrics, problems, (attempted, failed) = run(args.workload, args.seed, args.seconds)
    for problem in problems:
        print(problem)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
