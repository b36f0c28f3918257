import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import NAMES, ontology_tbox, random_instance
from oracles import make_graph, random_graph

from ontopath.chase import certain_answers
from ontopath.cypher import emit_cypher
from ontopath.depgraph import build_dependency_graph
from ontopath.errors import BudgetExceededError
from ontopath.graph import eval_query
from ontopath.query import (
    C2RPQ,
    ConceptAtom,
    EdgeStep,
    RoleAtom,
    parse_query,
    query_to_str,
    rewriting_to_str,
)
from ontopath.rewriter import (
    RewriteBudget,
    _reduce,
    clipping,
    rewrite_atomic,
    rewrite_ncq,
)
from ontopath.tbox import TOP, Role, normalize, parse_tbox, validate_fragment


def branches(rewriting):
    return {query_to_str(q) for q in rewriting}


# -- clipping -------------------------------------------------------------------


def clip_graph(text):
    g = build_dependency_graph(normalize(parse_tbox(text)))
    indexes = [i for i, _ in g.ex_right]
    return g, indexes


def test_clipping_folds_witness_into_concept_atom():
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student")
    q = parse_query("q(x) :- teaches(x,y), Student(y)")
    (clipped,) = clipping(q, idx, "y", g)
    assert query_to_str(clipped) == "q(x) :- Teacher(x)"
    # Chase-verified: Teacher(a) certainly answers the original query.
    graph = make_graph({"a": ["Teacher"]})
    assert certain_answers(q, graph, g.tbox, depth=1) == {("a",)}


def test_clipping_rejects_unentailed_label():
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student")
    q = parse_query("q(x) :- teaches(x,y), Professor(y)")
    assert clipping(q, idx, "y", g) == ()
    graph = make_graph({"a": ["Teacher"]})
    assert certain_answers(q, graph, g.tbox, depth=2) == set()


def test_clipping_guards_answer_variables():
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student")
    q = parse_query("q(x) :- teaches(x,y), Student(y)")
    with pytest.raises(ValueError):
        clipping(q, idx, "x", g)


def test_clipping_unifies_multiple_attachments():
    # Both x and z attach to the clipped witness, so any match sends them
    # to the same node; the clip unifies them.
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student")
    q = parse_query("q(x,z) :- teaches(x,y), teaches(z,y), Student(y)")
    (clipped,) = clipping(q, idx, "y", g)
    assert query_to_str(clipped) == "q(x,x) :- Teacher(x)"
    graph = make_graph({"a": ["Teacher"], "b": ["Teacher"]})
    assert certain_answers(q, graph, g.tbox, depth=1) == {("a", "a"), ("b", "b")}
    assert eval_query(clipped, graph) == {("a", "a"), ("b", "b")}


def test_clipping_attachment_on_witness_predecessor():
    # The witness's only incoming edge comes from its parent, so an
    # inverse-oriented atom out of the clipped variable attaches there too.
    g, (idx,) = clip_graph("A5 <= exists r3 . A3")
    q = parse_query("q(x) :- r3(x,v1), r3(x,v2), inv(r3)(v2,v3)")
    (middle,) = clipping(q, idx, "v2", g)
    assert query_to_str(middle) == "q(x) :- A5(x), r3(x,v1)"
    (clipped,) = clipping(middle, idx, "v1", g)
    assert query_to_str(clipped) == "q(x) :- A5(x)"
    graph = make_graph({"n0": ["A5"]})
    assert certain_answers(q, graph, g.tbox, depth=1) == {("n0",)}


def test_clipping_blocks_data_tests_on_witness():
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student")
    q = parse_query("q(x) :- teaches(x,y), Student(y), age>30(y)")
    assert clipping(q, idx, "y", g) == ()


def test_clipping_respects_role_hierarchy_direction():
    # The axiom's role must entail the atom's role, not vice versa.
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student\nteaches <= interactsWith")
    q = parse_query("q(x) :- interactsWith(x,y), Student(y)")
    (clipped,) = clipping(q, idx, "y", g)
    assert query_to_str(clipped) == "q(x) :- Teacher(x)"

    g2, (idx2,) = clip_graph("Teacher <= exists teaches . Student\nmentors <= teaches")
    q2 = parse_query("q(x) :- mentors(x,y), Student(y)")
    assert clipping(q2, idx2, "y", g2) == ()
    graph = make_graph({"a": ["Teacher"]})
    assert certain_answers(q2, graph, g2.tbox, depth=2) == set()


def test_clipping_inverse_orientation():
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student")
    q = parse_query("q(x) :- inv(teaches)(y,x), Student(y)")
    (clipped,) = clipping(q, idx, "y", g)
    assert query_to_str(clipped) == "q(x) :- Teacher(x)"


def test_clipping_boolean_query_gets_fresh_attachment():
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student")
    q = parse_query("q() :- Student(y)")
    (clipped,) = clipping(q, idx, "y", g)
    assert query_to_str(clipped) == "q() :- Teacher(__c0)"


def test_clipping_with_parent_label_hypothesis():
    g, (idx,) = clip_graph("A <= exists p . B\nexists inv(p) . D <= C")
    q = parse_query("q(x) :- p(x,y), C(y)")
    results = clipping(q, idx, "y", g)
    assert {query_to_str(c) for c in results} == {"q(x) :- A(x), D(x)"}


def test_clipping_hypothesis_budget_raises():
    text = "A <= exists p . B\nexists inv(p) . D <= C\nexists inv(p) . E <= C"
    g, (idx,) = clip_graph(text)
    q = parse_query("q(x) :- p(x,y), C(y)")
    results = clipping(q, idx, "y", g)
    assert {query_to_str(c) for c in results} == {"q(x) :- A(x), D(x)", "q(x) :- A(x), E(x)"}
    capped = build_dependency_graph(parse_tbox(text), witness_cap=1)
    with pytest.raises(BudgetExceededError):
        clipping(q, idx, "y", capped)
    with pytest.raises(BudgetExceededError):
        rewrite_ncq(q, parse_tbox(text), budget=RewriteBudget(witness_cap=1))


def test_a_witness_reading_many_parent_labels_clips_on_the_one_that_matters():
    # Eleven labels the witness may read from its parent: only F3 gives it
    # C3, and nothing the parent reads back depends on them.
    text = "A <= exists r . B\nexists r . B <= G\n" + "".join(
        f"exists inv(r) . F{k} <= C{k}\n" for k in range(11))
    t = parse_tbox(text)
    g, (idx,) = clip_graph(text)
    assert g.witness_labels(idx) == {"B", TOP}
    assert g.derived_conj_edges == ()
    q = parse_query("q(x) :- r(x,y), C3(y)")
    assert {query_to_str(c) for c in clipping(q, idx, "y", g)} == {"q(x) :- A(x), F3(x)"}
    graph = make_graph({"a": ["A"], "b": ["A", "F3"], "c": ["F3"]})
    for text_q, expected in (("q(x) :- G(x)", {("a",), ("b",)}),
                             ("q(x) :- r(x,y), C3(y)", {("b",)})):
        q = parse_query(text_q)
        assert certain_answers(q, graph, t, depth=3) == expected
        assert eval_query(rewrite_ncq(q, t).to_uc2rpq(), graph) == expected


@pytest.mark.parametrize("prune", [True, False])
def test_query_budget_bounds_the_union(prune):
    t = parse_tbox("B & C <= A\nD & E <= A\nexists r . F <= A")
    q = parse_query("q(x) :- A(x)")
    # A(x) has three alternatives: its concept path, {B, C} and {D, E}.
    assert len(rewrite_ncq(q, t, budget=RewriteBudget(max_queries=3), prune=prune)) == 3
    with pytest.raises(BudgetExceededError):
        rewrite_ncq(q, t, budget=RewriteBudget(max_queries=2), prune=prune)


# -- reduction -------------------------------------------------------------------


def reduced(query_text, tbox_text):
    g = build_dependency_graph(normalize(parse_tbox(tbox_text)))
    return query_to_str(_reduce(parse_query(query_text), g))


def test_reduction_drops_a_concept_atom_another_entails():
    assert reduced("q(x) :- A(x), C(x)", "A <= B\nB <= C") == "q(x) :- A(x)"
    # Every label of (A|B) has a subsumer among C's: B <= C, and A <= C.
    assert reduced("q(x) :- (A|B)(x), C(x)", "A <= B\nB <= C") == "q(x) :- (A|B)(x)"
    # Entailed through the witness of an existential axiom.
    assert reduced("q(x) :- B(x), D(x)", "B <= exists r . C\nexists r . C <= D") == (
        "q(x) :- B(x)")
    # A entails (A|E), but D on another variable entails nothing about x.
    assert reduced("q(x) :- (A|E)(x), A(x), r(x,y), D(y)", "") == (
        "q(x) :- A(x), D(y), r(x,y)")
    assert reduced("q(x) :- A(x), C(x)", "A <= exists r . C") == "q(x) :- A(x), C(x)"


def test_reduction_keeps_the_first_of_equivalent_atoms():
    assert reduced("q(x) :- B(x), A(x)", "A <= B\nB <= A") == "q(x) :- A(x)"
    assert reduced("q(x) :- r(x,y1), r(x,y0)", "") == "q(x) :- r(x,y0)"


def test_reduction_folds_a_leaf_onto_a_subrole_atom():
    assert reduced("q(x) :- s(x,y), r(x,z), C(y)", "s <= r") == "q(x) :- C(y), s(x,y)"
    # Both orientations: r(z,x) leaves x by inv(r), as inv(s)(x,y) does.
    assert reduced("q(x) :- inv(s)(x,y), r(z,x), C(y)", "s <= r") == (
        "q(x) :- C(y), inv(s)(x,y)")
    assert reduced("q(x) :- s(y,x), r(x,z), C(y)", "s <= r") == (
        "q(x) :- C(y), r(x,z), s(y,x)")
    # A self-loop leaves its variable both ways.
    assert reduced("q(x) :- r(x,x), r(z,x)", "") == "q(x) :- r(x,x)"
    # Not a leaf: an answer variable, a variable with a data test, a
    # superrole in place of a subrole.
    assert reduced("q(x,z) :- s(x,y), r(x,z)", "s <= r") == "q(x,z) :- r(x,z), s(x,y)"
    assert reduced("q(x) :- s(x,y), r(x,z), k>1(z)", "s <= r") == (
        "q(x) :- r(x,z), s(x,y), k>1(z)")
    assert reduced("q(x) :- s(x,y), r(x,z), C(z)", "s <= r") == (
        "q(x) :- C(z), r(x,z), s(x,y)")


def test_reduction_runs_to_fixpoint():
    # inv(r)(v,u) folds onto r(x,v), which leaves v a leaf that folds onto
    # r(x,y1) in turn.
    assert reduced("q(x) :- r(x,y1), r(x,v), inv(r)(v,u)", "") == "q(x) :- r(x,v)"


_KEPT_LEAF = """
from ontopath.depgraph import build_dependency_graph
from ontopath.query import parse_query, query_to_str
from ontopath.rewriter import _reduce
from ontopath.tbox import normalize, parse_tbox
t = parse_tbox("A <= B\\nB <= A\\ns <= r\\nr <= s")
q = parse_query("q(x) :- r(x,y2), s(x,y1), inv(s)(x,y3), r(y0,x), "
                "B(x), A(x), (A|C)(x)")
print(query_to_str(_reduce(q, build_dependency_graph(normalize(t)))))
"""


def test_kept_atoms_are_independent_of_hash_seed():
    # Atoms that entail each other are kept by atom_sort_key, never by
    # frozenset order (which follows string hashes).
    src = str(Path(__file__).parent.parent / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _KEPT_LEAF],
                              capture_output=True, text=True, check=True, env=env)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == "q(x) :- A(x), inv(s)(x,y3), r(x,y2)\n"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.integers(0, 2**31 - 1))
def test_reduction_keeps_certain_answers(seed):
    # A sweep-style draw, widened by a leaf along a role and one along one
    # of its superroles, and by a concept atom and one naming a subsumer,
    # so that every draw has atoms to drop.
    rng = random.Random(seed)
    t, graph, q = random_instance(rng)
    g = build_dependency_graph(normalize(t))
    v = rng.choice(sorted(q.variables()))
    role = Role(rng.choice(("r0", "r1", "r2", "r3")), inverted=rng.random() < 0.5)
    sup = rng.choice(sorted(g.roles.superroles(role), key=str))
    name = rng.choice(NAMES)
    sub_name = rng.choice(sorted(g.subsumers(name) - {TOP}))
    wide = C2RPQ(q.answer_vars, q.atoms | {
        RoleAtom(EdgeStep(role), v, "u0"), RoleAtom(EdgeStep(sup), v, "u1"),
        ConceptAtom(frozenset({name}), v), ConceptAtom(frozenset({sub_name}), v)})
    out = _reduce(wide, g)
    assert len(out.atoms) < len(wide.atoms)
    assert _reduce(out, g) == out
    assert certain_answers(out, graph, t, depth=3) == certain_answers(
        wide, graph, t, depth=3)


# -- rewrite_ncq -----------------------------------------------------------------


def test_empty_tbox_is_identity():
    q = parse_query("q(x) :- A(x)")
    out = rewrite_ncq(q, parse_tbox(""))
    assert branches(out) == {"q(x) :- A(x)"}


def test_teacher_example_yields_two_branches():
    q = parse_query("q(x) :- teaches(x,y), Student(y)")
    out = rewrite_ncq(q, parse_tbox("Teacher <= exists teaches . Student"))
    assert branches(out) == {
        "q(x) :- Teacher(x)",
        "q(x) :- Student(y), teaches(x,y)",
    }


def test_role_hierarchy_branch():
    q = parse_query("q(x,y) :- teaches(x,y)")
    out = rewrite_ncq(q, parse_tbox("mentors <= teaches"))
    assert "q(x,y) :- (mentors|teaches)(x,y)" in branches(out)


def test_role_widening_yields_one_branch_per_query():
    """Widening every role at once contains the original query and every
    partially widened variant, so only the widened query is emitted."""
    q = parse_query("q(x,z) :- teaches(x,y), attends(y,z)")
    t = parse_tbox("mentors <= teaches\naudits <= attends")
    out = rewrite_ncq(q, t, prune=False)
    assert branches(out) == {
        "q(x,z) :- (attends|audits)(y,z), (mentors|teaches)(x,y)"}
    graph = make_graph({"a": [], "b": [], "c": []},
                       [("a", "mentors", "b"), ("b", "attends", "c")])
    assert certain_answers(q, graph, t, depth=1) == {("a", "c")}
    assert eval_query(out.to_uc2rpq(), graph) == {("a", "c")}


def test_concept_atom_is_replaced_by_its_concept_path():
    """The concept path accepts the zero-length walk at an A node, so it
    contains A(x), which is not staged beside it."""
    out = rewrite_ncq(parse_query("q(x) :- A(x)"), parse_tbox("exists r . C <= A"),
                      prune=False)
    assert branches(out) == {"q(x) :- (<A>|r.<C>)(x,__w0)"}


def test_concept_atoms_are_replaced_together():
    # One query with both atoms replaced, not one per subset of them.
    q = parse_query("q(x) :- A(x), B(x)")
    t = parse_tbox("exists r . C <= A\nexists s . D <= B")
    out = rewrite_ncq(q, t, prune=False)
    assert branches(out) == {"q(x) :- (<A>|r.<C>)(x,__w0), (<B>|s.<D>)(x,__w1)"}


def test_node_test_concept_path_stays_a_concept_atom():
    out = rewrite_ncq(parse_query("q(x) :- A(x)"), parse_tbox("B <= A"), prune=False)
    assert branches(out) == {"q(x) :- (A|B)(x)"}


def test_implied_concept_atom_is_dropped_before_rewriting():
    # Benchmark instance sweep-245: (A6|A7)(x) is implied by A7(x), and the
    # leaf v1 of inv(r0)(x,v1) folds onto the other end of r0(x,x), which
    # also leaves x by inv(r0).
    t = parse_tbox(
        "A3 <= A1\nexists inv(r0) . A2 <= A3\nA6 & A2 <= A6\nA4 & A3 <= A1\n"
        "A7 <= A2\nexists inv(r3) . A3 <= A0\nA4 <= A2\n"
        "exists inv(r3) . A0 <= A4\nexists inv(r0) . A0 <= A5\n"
        "A4 <= exists inv(r3) . A2\nA4 <= A0\nA6 <= A1")
    q = parse_query("q(x) :- r0(x,x), (A6|A7)(x), A7(x), inv(r0)(x,v1)")
    out = rewrite_ncq(q, t)
    assert branches(out) == {"q(x) :- A7(x), r0(x,x)"}
    assert emit_cypher(out.to_uc2rpq()).text == (
        "MATCH (x)-[:r0]->(x) WHERE x:A7 RETURN DISTINCT x AS c0\n")
    graph = make_graph({"a": ["A7"], "b": ["A7"], "c": ["A6"]},
                       [("a", "r0", "a"), ("b", "r0", "c"), ("c", "r0", "c")])
    expected = certain_answers(q, graph, t, depth=3)
    assert expected == {("a",)}
    assert eval_query(out.to_uc2rpq(), graph) == expected


def test_parent_and_witness_labels_close_to_a_fixpoint():
    """A0 on the parent gives the witness A5, which gives the parent A11,
    which gives the witness A6: clipping needs the hypothesis A0 to close
    both sides until neither grows."""
    t = parse_tbox(
        "A3 <= exists r1 . A2\nr1 <= r0\nr0 <= r2\nexists inv(r2) . A0 <= A5\n"
        "exists r2 . A5 <= A11\nexists inv(r1) . A11 <= A6")
    q = parse_query("q(x) :- r1(x,y), A6(y)")
    graph = make_graph({"n0": ["A0", "A3"]})
    out = rewrite_ncq(q, t)
    assert "q(x) :- A0(x), A3(x)" in branches(out)
    assert certain_answers(q, graph, t, depth=3) == {("n0",)}
    assert eval_query(out.to_uc2rpq(), graph) == {("n0",)}


# Conjunctions entailed through a witness that reads its parent, which no
# axiom states: the four minimized reproducers of ROADMAP D16 and one where
# a holder of an axiom's left-hand side other than the left-hand side
# itself reads the witness.  Each is (TBox, query, node labels, self-loop).
DERIVED_CONJUNCTIONS = [
    ("A3 <= A6\nA5 <= A2\nexists r1 . A5 <= A3\nexists inv(r1) . A14 <= A5\n"
     "A2 <= exists r1 . A9", "q(x) :- A6(x)", ["A14", "A5"], None),
    ("A3 <= A15\nexists inv(r2) . A9 <= A3\nA13 <= exists r2 . A1\nA5 <= A13\n"
     "exists r2 . A15 <= A6\nA7 <= A9", "q(x) :- A6(x)", ["A5", "A7"], None),
    ("A7 <= A6\nA7 <= A9\nexists inv(r1) . A9 <= A10\nA10 <= A11\n"
     "A4 <= exists inv(r1) . A2\nA11 <= A7\nexists r1 . A5 <= A10",
     "q(x) :- A6(x)", ["A4", "A5"], None),
    ("A0 <= A3\nA11 & A9 <= A0\nr2 <= r0\nexists inv(r0) . A1 <= A8\n"
     "A3 <= exists inv(r2) . A8\nA11 <= A6\nexists r2 . A6 <= A1",
     "q(x) :- A6(x), r1(x,y), A8(y)", ["A11", "A9"], "r1"),
    ("X <= A4\nX <= A5\nA4 <= exists r . B\nexists inv(r) . A5 <= C\n"
     "exists r . C <= D", "q(x) :- D(x)", ["X"], None),
]


@pytest.mark.parametrize("tbox, query, labels, loop", DERIVED_CONJUNCTIONS,
                         ids=["d16-1", "d16-2", "d16-3", "d16-4", "holder"])
def test_conjunctions_derived_through_a_witness_are_rewritten(tbox, query, labels, loop):
    t = parse_tbox(tbox)
    validate_fragment(t)
    q = parse_query(query)
    graph = make_graph({"n": labels}, [("n", loop, "n")] if loop else [])
    expected = certain_answers(q, graph, t, depth=4)
    assert expected == {("n",)}
    assert eval_query(rewrite_ncq(q, t).to_uc2rpq(), graph) == expected


def test_a_derived_conjunction_is_a_node_test_along_a_path():
    # A3 holds at n only through {A2, A14}; Z needs A6 one s-edge away.
    t = parse_tbox(DERIVED_CONJUNCTIONS[0][0] + "\nexists s . A6 <= Z")
    q = parse_query("q(x) :- Z(x)")
    graph = make_graph({"m": [], "n": ["A14", "A5"]}, [("m", "s", "n")])
    expected = certain_answers(q, graph, t, depth=4)
    assert expected == {("m",)}
    assert eval_query(rewrite_ncq(q, t).to_uc2rpq(), graph) == expected


def test_ontology_scale_rewritings_answer_like_the_chase():
    """`q(x) :- A0(x)` over `ontology_tbox(n, seed)`, each on four random
    graphs, against the depth-3 chase: no refusal, no missing and no extra
    answer.  Before conjunctions were derived through witnesses, (8, 65),
    (12, 18), (12, 31) and (24, 92) each missed an answer."""
    q = parse_query("q(x) :- A0(x)")
    wrong = []
    for n in (8, 12, 16, 20, 24):
        roles = tuple(f"r{i}" for i in range(max(2, n // 4)))
        labels = tuple(f"A{i}" for i in range(n))
        for seed in range(100):
            t = parse_tbox(ontology_tbox(n, seed))
            u = rewrite_ncq(q, t).to_uc2rpq()
            rng = random.Random(seed)
            for _ in range(4):
                graph = random_graph(rng, max_nodes=5, roles=roles, labels=labels,
                                     edge_prob=0.15)
                if eval_query(u, graph) != certain_answers(q, graph, t, depth=3):
                    wrong.append((n, seed))
    assert wrong == []


def test_iterated_clipping_through_two_levels():
    q = parse_query("q(x) :- r(x,y), s(y,z), D(z)")
    t = parse_tbox("A <= exists r . B\nB <= exists s . D")
    out = rewrite_ncq(q, t)
    assert "q(x) :- A(x)" in branches(out)
    graph = make_graph({"a": ["A"]})
    assert certain_answers(q, graph, t, depth=2) == {("a",)}
    assert eval_query(out.to_uc2rpq(), graph) == {("a",)}


def test_combined_concept_and_role_rewriting():
    q = parse_query("q(x) :- teaches(x,y), Student(y)")
    t = parse_tbox("GradStudent <= Student\nmentors <= teaches")
    out = rewrite_ncq(q, t)
    graph = make_graph({"a": [], "b": ["GradStudent"]}, [("a", "mentors", "b")])
    assert certain_answers(q, graph, t, depth=1) == {("a",)}
    assert eval_query(out.to_uc2rpq(), graph) == {("a",)}


def test_conjunction_of_role_derived_concepts():
    """The conjuncts of C are derived through different neighbours, which
    no single concept path can follow; the witness set {D, E} covers it,
    also for A, which C entails."""
    t = parse_tbox("exists r . X <= D\nexists s . Y <= E\nD & E <= C\nC <= A")
    graph = make_graph({"a": [], "b": ["X"], "c": ["Y"]},
                       [("a", "r", "b"), ("a", "s", "c")])
    for name in ("C", "A"):
        q = parse_query(f"q(x) :- {name}(x)")
        expected = certain_answers(q, graph, t, depth=3)
        assert expected == {("a",)}
        assert eval_query(rewrite_ncq(q, t).to_uc2rpq(), graph) == expected


def test_rewrite_atomic_subsumption():
    out = rewrite_atomic("A", parse_tbox("B <= A"))
    graph = make_graph({"b": ["B"]})
    assert eval_query(out.to_uc2rpq(), graph) == {("b",)}


def test_rewrite_atomic_recursive_star():
    out = rewrite_atomic("Region", parse_tbox("exists partOf . Region <= Region"))
    assert "q(x) :- (partOf*.<Region>)(x,__w0)" in branches(out)
    graph = make_graph(
        {"a": [], "b": [], "c": ["Region"]},
        [("a", "partOf", "b"), ("b", "partOf", "c")],
    )
    assert eval_query(out.to_uc2rpq(), graph) == {("a",), ("b",), ("c",)}


def test_rewrite_atomic_empty_tbox():
    out = rewrite_atomic("A", parse_tbox(""))
    assert branches(out) == {"q(x) :- A(x)"}


def test_budget_exceeded_raises():
    # Clipping saturation alone generates three queries: the input, the
    # clip of z and the clip of y after it.
    q = parse_query("q(x) :- r(x,y), s(y,z), D(z)")
    t = parse_tbox("A <= exists r . B\nB <= exists s . D")
    with pytest.raises(BudgetExceededError):
        rewrite_ncq(q, t, budget=RewriteBudget(max_queries=2))


def test_many_leaves_clip_one_at_a_time():
    # Eleven interchangeable existential leaves on one attachment fold onto
    # the least of them before clipping, so the union holds the input's core
    # and its clip.
    body = ", ".join(f"r(x,y{i})" for i in range(11))
    q = parse_query(f"q(x) :- {body}")
    t = parse_tbox("A <= exists r . B")
    out = rewrite_ncq(q, t)
    assert branches(out) == {"q(x) :- A(x)", "q(x) :- r(x,y0)"}
    graph = make_graph({"a": ["A"], "b": [], "c": []}, [("b", "r", "c")])
    expected = certain_answers(q, graph, t, depth=1)
    assert expected == {("a",), ("b",)}
    assert eval_query(out.to_uc2rpq(), graph) == expected


def test_fourteen_leaves_rewrite_within_the_default_budget():
    # Unreduced, clipping the leaves one at a time keeps 2**14 intermediate
    # queries, past the default budget of 10 000.
    body = ", ".join(f"r(x,y{i})" for i in range(14))
    q = parse_query(f"q(x) :- {body}")
    t = parse_tbox("A <= exists r . B")
    out = rewrite_ncq(q, t)
    assert branches(out) == {"q(x) :- A(x)", "q(x) :- r(x,y0)"}
    graph = make_graph({"a": ["A"], "b": [], "c": [], "d": ["B"]},
                       [("b", "r", "c"), ("d", "r", "d")])
    expected = certain_answers(q, graph, t, depth=1)
    assert expected == {("a",), ("b",), ("d",)}
    assert eval_query(out.to_uc2rpq(), graph) == expected


def test_determinism_across_runs():
    q = parse_query("q(x) :- teaches(x,y), (Student|TA)(y), enrolledIn(y,z)")
    t = parse_tbox(
        "Teacher <= exists teaches . Student\n"
        "GradStudent <= Student\n"
        "mentors <= teaches\n"
        "Student & Employee <= TA\n"
        "exists enrolledIn . Course <= Student\n"
    )
    first = rewriting_to_str(rewrite_ncq(q, t).to_uc2rpq())
    second = rewriting_to_str(rewrite_ncq(q, t).to_uc2rpq())
    assert first == second


def test_pruning_neutrality_on_examples():
    cases = [
        ("q(x) :- teaches(x,y), Student(y)",
         "Teacher <= exists teaches . Student\nGradStudent <= Student"),
        ("q(x,y) :- teaches(x,y)", "mentors <= teaches"),
        ("q(x) :- Region(x)", "exists partOf . Region <= Region"),
    ]
    rng = random.Random(23)
    for query_text, tbox_text in cases:
        q = parse_query(query_text)
        t = parse_tbox(tbox_text)
        pruned = rewrite_ncq(q, t, prune=True).to_uc2rpq()
        naive = rewrite_ncq(q, t, prune=False).to_uc2rpq()
        assert len(naive.branches) >= len(pruned.branches)
        for _ in range(10):
            g = random_graph(
                rng, max_nodes=5,
                roles=("teaches", "mentors", "partOf"),
                labels=("Teacher", "Student", "GradStudent", "Region"),
                edge_prob=0.2,
            )
            assert eval_query(pruned, g) == eval_query(naive, g)


def test_output_with_fresh_names_round_trips():
    # Normalizing an existential-to-existential axiom introduces a fresh
    # concept name; clipped branches mention it and must still print/parse.
    from ontopath.query import parse_rewriting

    q = parse_query("q(x) :- s(x,y), C(y)")
    t = parse_tbox("exists r . B <= exists s . C")
    out = rewrite_ncq(q, t).to_uc2rpq()
    printed = rewriting_to_str(out)
    assert "__nf0" in printed
    again = parse_rewriting(printed)
    assert set(again.branches) == set(out.branches)
    # The fresh-name branches are live: data entailing the fresh concept
    # produces answers through the derivation branch.
    graph = make_graph({"a": [], "b": ["B"]}, [("a", "r", "b")])
    assert certain_answers(q, graph, t, depth=2) == {("a",)}
    assert eval_query(out, graph) == {("a",)}


def test_rejects_navigational_input():
    q = parse_query("q(x,y) :- (r|s)(x,y)", extended=True)
    with pytest.raises(ValueError):
        rewrite_ncq(q, parse_tbox(""))


# -- randomized soundness/completeness (small smoke version) ---------------------


def _random_instance(rng):
    names = ["A", "B", "C", "D"]
    roles = ["r", "s"]
    lines = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        a, b = rng.choice(names), rng.choice(names)
        r = rng.choice(roles)
        role_txt = f"inv({r})" if rng.random() < 0.3 else r
        if kind < 0.3:
            lines.append(f"{a} <= {b}")
        elif kind < 0.45:
            c = rng.choice(names)
            if {a, b} != {c} and a != b:
                lines.append(f"{a} & {b} <= {c}")
        elif kind < 0.7:
            filler = "top" if rng.random() < 0.2 else rng.choice(names)
            lines.append(f"exists {role_txt} . {filler} <= {a}")
        elif kind < 0.9:
            filler = "top" if rng.random() < 0.2 else rng.choice(names)
            lines.append(f"{a} <= exists {role_txt} . {filler}")
        else:
            lines.append(f"{rng.choice(roles)} <= {rng.choice(roles)}")
    queries = [
        "q(x) :- A(x)",
        "q(x) :- r(x,y), B(y)",
        "q(x) :- r(x,y), s(y,z), C(z)",
        "q(x,y) :- r(x,y)",
        "q(x) :- (A|B)(x)",
        "q(x) :- inv(s)(x,y), A(y)",
    ]
    return parse_tbox("\n".join(lines)), parse_query(rng.choice(queries))


def test_random_soundness_and_completeness_smoke():
    rng = random.Random(2024)
    for i in range(40):
        t, q = _random_instance(rng)
        rewriting = rewrite_ncq(q, t).to_uc2rpq()
        g = random_graph(rng, max_nodes=4, roles=("r", "s"),
                         labels=("A", "B", "C", "D"), edge_prob=0.25)
        got = eval_query(rewriting, g)
        certain_hi = certain_answers(q, g, t, depth=4)
        assert got <= certain_hi, (i, str(t), query_to_str(q))
        certain_lo = certain_answers(q, g, t, depth=3)
        assert certain_lo <= got, (i, str(t), query_to_str(q))
