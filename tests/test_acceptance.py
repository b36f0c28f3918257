"""Acceptance suite: one test per criterion, each printing a PASS or FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they run. Criterion 8 prints a SKIPPED line instead when no store
is configured.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from corpus import ontology_tbox, random_instance
from oracles import all_one_node_graphs, random_graph, walk_pairs

from ontopath.chase import certain_answers
from ontopath.cypher import emit_cypher
from ontopath.errors import BudgetExceededError, OntopathError, UnsupportedPathError
from ontopath.graph import eval_query, load_graph, path_pairs
from ontopath.query import (
    EdgeStep,
    NodeTest,
    canon_path,
    concat_path,
    parse_query,
    parse_rewriting,
    path_to_str,
    query_to_str,
    rewriting_to_str,
    star_path,
    union_path,
)
from ontopath.rewriter import rewrite_ncq
from ontopath.tbox import Role, parse_tbox

SWEEP_SEED = 20250811
SWEEP_SIZE = 500
GOLDEN = Path(__file__).parent / "golden"


@contextlib.contextmanager
def _criterion(number, name):
    """Prints exactly one pass/fail line for the wrapped criterion."""
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def sweep():
    rng = random.Random(SWEEP_SEED)
    instances = [random_instance(rng) for _ in range(SWEEP_SIZE)]
    records = []
    soundness_elapsed = 0.0
    for t, g, q in instances:
        start = time.perf_counter()
        rewriting = rewrite_ncq(q, t).to_uc2rpq()
        answers = eval_query(rewriting, g)
        oracle4 = certain_answers(q, g, t, depth=4)
        soundness_elapsed += time.perf_counter() - start
        oracle3 = certain_answers(q, g, t, depth=3)
        unpruned = eval_query(rewrite_ncq(q, t, prune=False).to_uc2rpq(), g)
        records.append({
            "tbox": t, "graph": g, "query": q,
            "answers": answers, "oracle3": oracle3, "oracle4": oracle4,
            "unpruned": unpruned,
        })
    return {"records": records, "soundness_elapsed": soundness_elapsed}


def _describe(record) -> str:
    from ontopath.graph import graph_to_jsonl
    from ontopath.tbox import tbox_to_text

    return (f"tbox:\n{tbox_to_text(record['tbox'])}"
            f"query: {query_to_str(record['query'])}\n"
            f"graph:\n{graph_to_jsonl(record['graph'])}")


def test_criterion_1_oracle_soundness_sweep(sweep):
    with _criterion(1, f"soundness, {SWEEP_SIZE} instances, "
                       f"{sweep['soundness_elapsed']:.1f}s"):
        violations = [
            (i, sorted(r["answers"] - r["oracle4"]), _describe(r))
            for i, r in enumerate(sweep["records"])
            if not r["answers"] <= r["oracle4"]
        ]
        assert not violations, f"unsound rewriting answers: {violations[:3]}"
        assert sweep["soundness_elapsed"] < 60, (
            f"soundness sweep took {sweep['soundness_elapsed']:.1f}s")


def test_criterion_2_bounded_completeness_sweep(sweep):
    with _criterion(2, f"bounded completeness, {SWEEP_SIZE} instances"):
        violations = []
        for i, record in enumerate(sweep["records"]):
            missing = record["oracle3"] - record["answers"]
            if missing:
                violations.append((i, sorted(missing)))
                print(f"COMPLETENESS VIOLATION at instance {i}: "
                      f"missing {sorted(missing)}\n" + _describe(record))
        assert not violations, f"certain answers missed: {violations}"


def _golden(name):
    t = parse_tbox((GOLDEN / name / "tbox.dl").read_text())
    q = parse_query((GOLDEN / name / "query.ncq").read_text())
    g = load_graph((GOLDEN / name / "graph.jsonl").read_text())
    return t, q, g


def _branch_strings(t, q):
    return {query_to_str(b) for b in rewrite_ncq(q, t).to_uc2rpq().branches}


def test_criterion_3_worked_instances():
    with _criterion(3, "worked instances"):
        # (a) clipping produces the Teacher(x) branch.
        t, q, g = _golden("teacher")
        assert "q(x) :- Teacher(x)" in _branch_strings(t, q)
        assert eval_query(rewrite_ncq(q, t).to_uc2rpq(), g) == {("a",), ("c",)}

        # (b) the role hierarchy yields the two-role union branch
        # (canonically ordered, so structurally equal to (teaches|mentors)).
        t, q, g = _golden("hierarchy")
        expected = union_path([EdgeStep(Role("teaches")), EdgeStep(Role("mentors"))])
        produced = parse_rewriting("\n".join(sorted(_branch_strings(t, q))))
        assert any(
            atom.path == expected
            for branch in produced.branches for atom in branch.atoms
            if hasattr(atom, "path")
        )
        assert eval_query(rewrite_ncq(q, t).to_uc2rpq(), g) == {("a", "b"), ("b", "c")}

        # (c) the recursive axiom yields a branch equivalent to partOf*.<Region>
        # and a chain of length 3 evaluates correctly.
        t, q, g = _golden("region")
        star_branch = canon_path(
            concat_path([star_path(EdgeStep(Role("partOf"))),
                         NodeTest(frozenset({"Region"}))]))
        produced = parse_rewriting("\n".join(sorted(_branch_strings(t, q))))
        assert any(
            atom.path == star_branch
            for branch in produced.branches for atom in branch.atoms
            if hasattr(atom, "path")
        )
        assert eval_query(rewrite_ncq(q, t).to_uc2rpq(), g) == {
            ("a",), ("b",), ("c",), ("d",)}


def _enumerate_paths(max_size=5, max_star_depth=2):
    atoms = [
        EdgeStep(Role("r")), EdgeStep(Role("s")),
        EdgeStep(Role("r", inverted=True)), EdgeStep(Role("s", inverted=True)),
        NodeTest(frozenset({"A"})), NodeTest(frozenset({"B"})),
    ]
    by_size = {1: [(p, 0) for p in atoms]}
    seen = {path_to_str(p) for p in atoms}

    def register(bucket, path, star_depth):
        key = path_to_str(path)
        if key not in seen:
            seen.add(key)
            bucket.append((path, star_depth))

    for size in range(2, max_size + 1):
        bucket = []
        for path, star_depth in by_size[size - 1]:
            if star_depth < max_star_depth:
                register(bucket, star_path(path), star_depth + 1)
        for left_size in range(1, size - 1):
            right_size = size - 1 - left_size
            for left, dl in by_size[left_size]:
                for right, dr in by_size[right_size]:
                    depth = max(dl, dr)
                    register(bucket, concat_path([left, right]), depth)
                    register(bucket, union_path([left, right]), depth)
        by_size[size] = bucket
    return [p for bucket in by_size.values() for p, _ in bucket]


def test_criterion_4_engine_equals_walk_oracle():
    paths = _enumerate_paths()
    rng = random.Random(404)
    graphs = list(all_one_node_graphs(labels=("A", "B"), roles=("r", "s")))
    for n in (2, 3, 4):
        for _ in range(3):
            graphs.append(random_graph(rng, max_nodes=n, roles=("r", "s"),
                                       labels=("A", "B"), edge_prob=0.35))
    with _criterion(4, f"engine vs walk oracle, "
                       f"{len(paths)} paths x {len(graphs)} graphs"):
        for g in graphs:
            n = len(g.labels)
            cache = {}
            for path in paths:
                assert path_pairs(path, g, cache) == walk_pairs(path, g, unroll=n), (
                    path_to_str(path))


def test_criterion_5_star_identity_base_case():
    with _criterion(5, "star identity pairs on 100 graphs"):
        rng = random.Random(55)
        star = star_path(EdgeStep(Role("r")))
        for _ in range(100):
            g = random_graph(rng, max_nodes=6, roles=("r", "s"), labels=("A",))
            pairs = path_pairs(star, g)
            for node in g.nodes:
                assert (node, node) in pairs


def test_criterion_6_pruning_neutrality(sweep):
    with _criterion(6, f"pruning neutrality, {SWEEP_SIZE} instances"):
        for i, record in enumerate(sweep["records"]):
            assert record["answers"] == record["unpruned"], f"instance {i}"


def test_chase_depth_stability_on_corpus(sweep):
    # Supporting invariant for the sweeps: at desk scale, certain answers
    # are stable from depth 3 onward.
    for i, record in enumerate(sweep["records"]):
        assert record["oracle3"] == record["oracle4"], f"instance {i}"


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "ontopath.cli", *args],
        capture_output=True, text=True, check=True,
        cwd=str(Path(__file__).parent.parent),
    )
    return proc.stdout


def test_criterion_7_byte_identical_output_across_processes():
    with _criterion(7, "deterministic rewrite/emit-cypher across processes"):
        for name in ("teacher", "hierarchy", "region"):
            base = GOLDEN / name
            for command in ("rewrite", "emit-cypher"):
                args = [command, "-t", str(base / "tbox.dl"), "-q", str(base / "query.ncq")]
                first = _run_cli(args)
                second = _run_cli(args)
                assert first == second, (name, command)
                assert first.strip(), (name, command)


_SWEEP_DUMP = f"""
import random, sys
from corpus import random_instance
from ontopath.cypher import emit_cypher
from ontopath.errors import UnsupportedPathError
from ontopath.query import rewriting_to_str
from ontopath.rewriter import rewrite_ncq

rng = random.Random({SWEEP_SEED})
for _ in range(int(sys.argv[1])):
    t, g, q = random_instance(rng)
    rewriting = rewrite_ncq(q, t).to_uc2rpq()
    sys.stdout.write(rewriting_to_str(rewriting))
    try:
        emitted = emit_cypher(rewriting)
    except UnsupportedPathError as exc:
        print("unsupported:", exc)
    else:
        sys.stdout.write(emitted.text)
        for note in emitted.diagnostics:
            print("note:", note)
"""


def test_sweep_output_independent_of_hash_seed():
    # Criterion 7 reruns three instances under one hash seed; this reruns a
    # slice of the sweep under two, so set and frozenset iteration order
    # (which follows string hashes) cannot leak into rewritings or Cypher.
    root = Path(__file__).parent.parent
    pythonpath = os.pathsep.join([str(root / "src"), str(root / "tests")])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-c", _SWEEP_DUMP, "150"],
            capture_output=True, text=True, check=True, env=env, cwd=str(root))
        outputs.append(proc.stdout)
    assert outputs[0].count(" :- ") >= 150
    assert outputs[0] == outputs[1]


# The "Output digests" of the tier-1 workflow: the sha256 of the sweep's
# rewriting and Cypher texts, and of the rewriting of q(x) :- A0(x) over
# the ontology-scale draws.
OUTPUT_DIGESTS = {
    "sweep rewriting": "af55a66f703b9e274f534cb003d61af79fc5f5f4e98fa8d16dcee668794e2f94",
    "sweep Cypher": "95c79f2617a325365f49986a0e5c7ee93741174ec8da341f128fdaa0c82c23d9",
    "ontology rewriting": "75799b5c29b62a4ffa2f7cd2c49a783d49a9de7fc6cd7a006c4b3c7d8b61a163",
}


def test_output_digests_match_their_pins():
    """Recomputes the workflow's output digests, so that a refactor cannot
    move a rewriting or a Cypher text silently.  A change that moves
    output on purpose re-pins `OUTPUT_DIGESTS` and records the old and the
    new digests in CHANGES.md.  The texts are built as the workflow builds
    them: a refused emission is `! Type: message`, a draw past a rewriting
    budget `! over budget`, and the texts are joined with newlines."""
    rng = random.Random(SWEEP_SEED)
    rewritings, cypher = [], []
    for _ in range(SWEEP_SIZE):
        t, _g, q = random_instance(rng)
        u = rewrite_ncq(q, t).to_uc2rpq()
        rewritings.append(rewriting_to_str(u))
        try:
            cypher.append(emit_cypher(u).text)
        except OntopathError as exc:
            cypher.append(f"! {type(exc).__name__}: {exc}")
    q = parse_query("q(x) :- A0(x)")
    ontology = []
    for n in (16, 24, 32, 48, 64):
        for seed in range(10):
            try:
                u = rewrite_ncq(q, parse_tbox(ontology_tbox(n, seed))).to_uc2rpq()
            except BudgetExceededError:
                ontology.append("! over budget")
            else:
                ontology.append(rewriting_to_str(u))
    texts = {"sweep rewriting": rewritings, "sweep Cypher": cypher,
             "ontology rewriting": ontology}
    digests = {name: hashlib.sha256("\n".join(texts[name]).encode()).hexdigest()
               for name in OUTPUT_DIGESTS}
    assert digests == OUTPUT_DIGESTS


def test_criterion_8_cypher_round_trip_against_live_store():
    from ontopath import httpstore

    url = os.environ.get("ONTOPATH_STORE_URL", "")
    if not url:
        pytest.skip("ACCEPTANCE 8 (cypher round trip): SKIPPED - "
                    "set ONTOPATH_STORE_URL to run against a live store")
    database = os.environ.get("ONTOPATH_STORE_DB", "neo4j")
    user = os.environ.get("ONTOPATH_STORE_USER", "")
    password = os.environ.get("ONTOPATH_STORE_PASSWORD", "")
    auth = (user, password) if user else None
    if not httpstore.reachable(url, database, auth):
        pytest.skip("ACCEPTANCE 8 (cypher round trip): SKIPPED - store unreachable")

    with _criterion(8, "cypher round trip on 20 instances"):
        rng = random.Random(808)
        checked = 0
        while checked < 20:
            t, g, q = random_instance(rng)
            rewriting = rewrite_ncq(q, t).to_uc2rpq()
            try:
                emitted = emit_cypher(rewriting)
            except UnsupportedPathError:
                continue
            httpstore.load_graph_into_store(g, url, database, auth)
            store_answers = httpstore.answers_from_store(
                emitted.text, url, database, len(rewriting.answer_vars), auth)
            assert store_answers == eval_query(rewriting, g), query_to_str(q)
            checked += 1
