import random

import pytest

from oracles import make_graph, random_graph

from ontopath.chase import certain_answers
from ontopath.depgraph import build_dependency_graph
from ontopath.errors import BudgetExceededError
from ontopath.graph import eval_query
from ontopath.query import (
    parse_query,
    query_to_str,
    rewriting_to_str,
)
from ontopath.rewriter import (
    RewriteBudget,
    clipping,
    rewrite_atomic,
    rewrite_ncq,
)
from ontopath.tbox import normalize, parse_tbox


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
    (clipped,) = clipping(q, idx, {"y"}, g)
    assert query_to_str(clipped) == "q(x) :- Teacher(x)"
    # Chase-verified: Teacher(a) certainly answers the original query.
    graph = make_graph({"a": ["Teacher"]})
    assert certain_answers(q, graph, g.tbox, depth=1) == {("a",)}


def test_clipping_rejects_unentailed_label():
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student")
    q = parse_query("q(x) :- teaches(x,y), Professor(y)")
    assert clipping(q, idx, {"y"}, g) == ()
    graph = make_graph({"a": ["Teacher"]})
    assert certain_answers(q, graph, g.tbox, depth=2) == set()


def test_clipping_guards_answer_variables():
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student")
    q = parse_query("q(x) :- teaches(x,y), Student(y)")
    with pytest.raises(ValueError):
        clipping(q, idx, {"x"}, g)


def test_clipping_unifies_multiple_attachments():
    # Both x and z attach to the clipped witness, so any match sends them
    # to the same node; the clip unifies them.
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student")
    q = parse_query("q(x,z) :- teaches(x,y), teaches(z,y), Student(y)")
    (clipped,) = clipping(q, idx, {"y"}, g)
    assert query_to_str(clipped) == "q(x,x) :- Teacher(x)"
    graph = make_graph({"a": ["Teacher"], "b": ["Teacher"]})
    assert certain_answers(q, graph, g.tbox, depth=1) == {("a", "a"), ("b", "b")}
    assert eval_query(clipped, graph) == {("a", "a"), ("b", "b")}


def test_clipping_attachment_on_witness_predecessor():
    # The witness's only incoming edge comes from its parent, so an
    # inverse-oriented atom out of the clipped region attaches there too.
    g, (idx,) = clip_graph("A5 <= exists r3 . A3")
    q = parse_query("q(x) :- r3(x,v1), r3(x,v2), inv(r3)(v2,v3)")
    clipped = clipping(q, idx, {"v1", "v2"}, g)
    assert {query_to_str(c) for c in clipped} == {"q(x) :- A5(x)"}
    graph = make_graph({"n0": ["A5"]})
    assert certain_answers(q, graph, g.tbox, depth=1) == {("n0",)}


def test_clipping_blocks_data_tests_on_witness():
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student")
    q = parse_query("q(x) :- teaches(x,y), Student(y), age>30(y)")
    assert clipping(q, idx, {"y"}, g) == ()


def test_clipping_respects_role_hierarchy_direction():
    # The axiom's role must entail the atom's role, not vice versa.
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student\nteaches <= interactsWith")
    q = parse_query("q(x) :- interactsWith(x,y), Student(y)")
    (clipped,) = clipping(q, idx, {"y"}, g)
    assert query_to_str(clipped) == "q(x) :- Teacher(x)"

    g2, (idx2,) = clip_graph("Teacher <= exists teaches . Student\nmentors <= teaches")
    q2 = parse_query("q(x) :- mentors(x,y), Student(y)")
    assert clipping(q2, idx2, {"y"}, g2) == ()
    graph = make_graph({"a": ["Teacher"]})
    assert certain_answers(q2, graph, g2.tbox, depth=2) == set()


def test_clipping_inverse_orientation():
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student")
    q = parse_query("q(x) :- inv(teaches)(y,x), Student(y)")
    (clipped,) = clipping(q, idx, {"y"}, g)
    assert query_to_str(clipped) == "q(x) :- Teacher(x)"


def test_clipping_boolean_query_gets_fresh_attachment():
    g, (idx,) = clip_graph("Teacher <= exists teaches . Student")
    q = parse_query("q() :- Student(y)")
    (clipped,) = clipping(q, idx, {"y"}, g)
    assert query_to_str(clipped) == "q() :- Teacher(__c0)"


def test_clipping_with_parent_label_hypothesis():
    g, (idx,) = clip_graph("A <= exists p . B\nexists inv(p) . D <= C")
    q = parse_query("q(x) :- p(x,y), C(y)")
    results = clipping(q, idx, {"y"}, g)
    assert {query_to_str(c) for c in results} == {"q(x) :- A(x), D(x)"}


def test_clipping_hypothesis_budget_raises():
    g, (idx,) = clip_graph(
        "A <= exists p . B\nexists inv(p) . D <= C\nexists inv(p) . E <= C")
    q = parse_query("q(x) :- p(x,y), C(y)")
    assert len(clipping(q, idx, {"y"}, g, max_hypotheses=2)) == 2
    with pytest.raises(BudgetExceededError):
        clipping(q, idx, {"y"}, g, max_hypotheses=1)


@pytest.mark.parametrize("prune", [True, False])
def test_query_budget_bounds_the_union(prune):
    t = parse_tbox("B & C <= A\nD & E <= A\nexists r . F <= A")
    q = parse_query("q(x) :- A(x)")
    assert len(rewrite_ncq(q, t, budget=RewriteBudget(max_queries=4), prune=prune)) == 4
    with pytest.raises(BudgetExceededError):
        rewrite_ncq(q, t, budget=RewriteBudget(max_queries=3), prune=prune)


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
    q = parse_query("q(x) :- r(x,y), s(y,z), D(z)")
    t = parse_tbox("A <= exists r . B\nB <= exists s . D")
    with pytest.raises(BudgetExceededError):
        rewrite_ncq(q, t, budget=RewriteBudget(max_clip_attempts=2))


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
