"""Self-tests for the benchmark's inputs and references.

Run from the repository root:  python -m pytest -q bench/tests
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "bench", ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

import gen  # noqa: E402
import run  # noqa: E402
from corpus import random_instance  # noqa: E402
from oracles import walk_pairs  # noqa: E402

from ontopath.chase import certain_answers  # noqa: E402
from ontopath.graph import graph_to_jsonl, load_graph  # noqa: E402
from ontopath.query import (  # noqa: E402
    DataTest,
    EdgeStep,
    NodeTest,
    PropTest,
    concat_path,
    parse_query,
    star_path,
    union_path,
)
from ontopath.tbox import Role, parse_tbox, tbox_to_text  # noqa: E402


@pytest.mark.parametrize("seed,size", [(gen.SWEEP_SEED, gen.SWEEP_SIZE), (1, 200), (7, 200)])
def test_sweep_generator_matches_the_test_corpus(seed, size):
    rng = random.Random(seed)
    for inst in gen.sweep_instances(seed, size):
        t, g, q = random_instance(rng)
        assert tbox_to_text(parse_tbox(inst.tbox)) == tbox_to_text(t), inst.name
        assert graph_to_jsonl(load_graph(inst.graph)) == graph_to_jsonl(g), inst.name
        assert parse_query(inst.query) == q, inst.name


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    make = run.WORKLOADS[workload]
    assert make(5) == make(5)


@pytest.mark.parametrize("workload", ["tbox-scale", "graph-scale"])
def test_other_seeds_give_other_inputs(workload):
    make = run.WORKLOADS[workload]
    assert make(5) != make(6)


def test_size_grid_spans_its_range():
    assert gen.size_grid(3, 8, 6) == [3, 4, 5, 6, 7, 8]
    assert gen.size_grid(100, 1000, 3, geometric=True) == [100, 316, 1000]


def _walk_answers(name, g):
    """Answers of a graph-scale query from the walk oracle, one rewriting per shape."""
    teaches, mentors, part_of = (EdgeStep(Role(r)) for r in ("teaches", "mentors", "partOf"))
    if name == "hierarchy":
        return walk_pairs(union_path([teaches, mentors]), g)
    if name == "region":
        path = concat_path([star_path(part_of), NodeTest(frozenset({"Region"}))])
        return {(x,) for x, _ in walk_pairs(path, g)}
    if name == "teacher":
        taught = {(x,) for x, y in walk_pairs(teaches, g) if g.has_label(y, "Student")}
        return taught | {(x,) for x, _ in walk_pairs(NodeTest(frozenset({"Teacher"})), g)}
    if name == "since":
        recent = PropTest(DataTest("since", ">", 2000), on_edge=True)
        return walk_pairs(teaches, g) & walk_pairs(recent, g)
    raise KeyError(name)


@pytest.mark.parametrize("seed", range(6))
def test_graph_references_agree_with_walk_oracle_and_chase(seed):
    rng = random.Random(seed)
    generated = gen.property_graph(rng, rng.randint(8, 14))
    g = load_graph(generated.text())
    for name, (tbox, query) in gen.GRAPH_QUERIES.items():
        expected = gen.graph_reference(name, generated)
        assert expected == _walk_answers(name, g), name
        assert expected == certain_answers(parse_query(query), g, parse_tbox(tbox), 3), name


def test_property_graph_has_at_most_one_edge_per_ordered_pair():
    generated = gen.property_graph(random.Random(2), 300)
    pairs = [(u, v) for u, _label, v, _props in generated.edges]
    assert len(pairs) == len(set(pairs))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family,sizes", [(gen.chain_instance, range(1, 9)),
                                          (gen.mixed_instance, range(1, 7))])
def test_family_closed_forms_agree_with_chase(seed, family, sizes):
    rng = random.Random(seed)
    for n in sizes:
        inst = family(rng, n, f"{seed}:{n}")
        answers = certain_answers(parse_query(inst.query), load_graph(inst.graph),
                                  parse_tbox(inst.tbox), 3)
        assert answers == inst.expected, inst.name
