#!/usr/bin/env python3
"""Measure single reference instances through the benchmark's own code path.

    python3 bench/refpoints.py

Prints, for each instance, the median over REPEATS runs of its compile, eval
and check times, its branch count and whether its answers matched the
reference:

* chain-80 and mixed-20 (the TBox families at sizes beyond the workload);
* the golden rewritings (hierarchy, region, teacher, since) on one
  2000-node property graph;
* the edge data test on a 1000-node teaches path.
"""
from __future__ import annotations

import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402

REPEATS = 3


def path_instance(n: int) -> gen.Instance:
    """q(x,y) :- teaches(x,y), since>2000(x,y) on a teaches path of n nodes."""
    nodes = [(f"p{i}", [], {}) for i in range(n)]
    edges = [(f"p{i}", "teaches", f"p{i + 1}", {"since": 1990 + i % 20})
             for i in range(n - 1)]
    expected = frozenset((u, v) for u, _label, v, props in edges if props["since"] > 2000)
    tbox, query = gen.GRAPH_QUERIES["since"]
    return gen.Instance(f"since-path@{n}", tbox, query, gen.graph_text(nodes, edges), expected)


def instances() -> list:
    rng = random.Random(0)
    out = [gen.chain_instance(rng, 80, "chain:80"), gen.mixed_instance(rng, 20, "mixed:20")]
    out += gen.graph_instances(rng, [2000])
    out.append(path_instance(1000))
    return out


def main() -> int:
    if not (run.SRC / "ontopath" / "__init__.py").is_file():
        print(f"ontopath sources not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    m = run.import_ontopath()
    ops = run.prepare(m, instances())
    ok = True
    for op in ops:
        results = [run.run_instance(m, op, None) for _ in range(REPEATS)]
        times = {kind: statistics.median(r.times[kind] for r in results) for kind in run.KINDS}
        outcomes = set(results[0].outcomes.values())
        ok = ok and outcomes == {"ok"}
        print(f"{op.instance.name:18s} branches={results[0].branches:3d} "
              + " ".join(f"{kind}={times[kind]:.4f}s" for kind in run.KINDS)
              + f" answers={'ok' if outcomes == {'ok'} else results[0].detail}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
