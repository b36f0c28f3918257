import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_answers, make_graph, random_graph, walk_pairs

from ontopath.errors import GraphFormatError
from ontopath.graph import (
    PropertyGraph,
    eval_path,
    eval_query,
    graph_to_jsonl,
    load_graph,
    load_graph_csv,
    path_pairs,
)
from ontopath.query import (
    C2RPQ,
    ConceptAtom,
    DataTest,
    EdgeStep,
    NodeTest,
    PropTest,
    Star,
    TestAtom,
    TestNot,
    concat_path,
    parse_query,
    star_path,
    union_path,
)
from ontopath.tbox import Role


def test_load_graph_jsonl():
    g = load_graph(
        '{"type":"node","id":"a","labels":["Teacher"]}\n'
        '{"type":"node","id":"b"}\n'
        '{"type":"edge","src":"a","label":"teaches","dst":"b"}\n'
    )
    assert set(g.nodes) == {"a", "b"}
    assert g.pairs("teaches") == {("a", "b")}
    assert g.has_label("a", "Teacher")
    assert g.has_label("b", "top")


def test_load_graph_rejects_dangling_edge():
    with pytest.raises(GraphFormatError):
        load_graph('{"type":"node","id":"a"}\n{"type":"edge","src":"a","label":"r","dst":"zz"}')


def test_load_graph_rejects_duplicate_node():
    with pytest.raises(GraphFormatError):
        load_graph('{"type":"node","id":"a"}\n{"type":"node","id":"a"}')


def test_load_graph_props_queryable():
    g = load_graph('{"type":"node","id":"a","props":{"age":42}}')
    assert g.node_prop("a", "age") == 42


def test_load_graph_rejects_boolean_props():
    with pytest.raises(GraphFormatError):
        load_graph('{"type":"node","id":"a","props":{"ok":true}}')


def test_load_graph_reports_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        load_graph('{"type":"node","id":"a"}\nnot json')
    assert err.value.line == 2


def test_conflicting_parallel_edge_props_rejected():
    g = PropertyGraph()
    g.add_node("a")
    g.add_node("b")
    g.add_edge("a", "r", "b", {"w": 1})
    with pytest.raises(GraphFormatError):
        g.add_edge("a", "s", "b", {"w": 2})


def test_csv_round_trip():
    g = load_graph_csv(
        "id,labels,props\na,Teacher;Person,\"{\"\"age\"\": 41}\"\nb,,\n",
        "src,label,dst,props\na,teaches,b,\n",
    )
    assert g.labels["a"] == {"Teacher", "Person"}
    assert g.node_prop("a", "age") == 41
    assert g.pairs("teaches") == {("a", "b")}


def test_jsonl_round_trip():
    g = make_graph({"a": ["A"], "b": []}, [("a", "r", "b")],
                   node_props={"a": {"k": 1}}, edge_props={("a", "b"): {"w": 2}})
    again = load_graph(graph_to_jsonl(g))
    assert again.labels == g.labels
    assert again.edges == g.edges
    assert again.node_props == g.node_props
    assert again.edge_props == g.edge_props


# -- eval_path ----------------------------------------------------------------


def test_concat_with_node_test():
    g = make_graph({"a": [], "b": ["Student"]}, [("a", "teaches", "b")])
    path = concat_path([EdgeStep(Role("teaches")), NodeTest(frozenset({"Student"}))])
    assert eval_path(path, "x", "y", g) == {(("x", "a"), ("y", "b"))}


def test_star_includes_identity_for_every_node():
    g = make_graph({"a": [], "b": []}, [("a", "r", "b")])
    pairs = path_pairs(Star(EdgeStep(Role("r"))), g)
    assert ("a", "a") in pairs and ("b", "b") in pairs and ("a", "b") in pairs


def test_negated_test_holds_when_property_absent():
    g = make_graph({"a": [], "b": []}, node_props={"a": {"age": 25}})
    test = TestNot(DataTest("age", ">", 30))
    path = PropTest(test)
    assert eval_path(path, "x", "x", g) == {(("x", "a"),), (("x", "b"),)}


def test_ordered_comparison_type_mismatch_is_false():
    g = make_graph({"a": []}, node_props={"a": {"name": "Ada"}})
    assert eval_path(PropTest(DataTest("name", ">", 3)), "x", "x", g) == set()
    assert eval_path(PropTest(DataTest("name", "=", "Ada")), "x", "x", g) == {(("x", "a"),)}


def test_inverse_edge_symmetry():
    g = make_graph({"a": [], "b": []}, [("a", "r", "b")])
    assert path_pairs(EdgeStep(Role("r", inverted=True)), g) == {("b", "a")}


def test_edge_property_test_on_pair():
    g = make_graph({"a": [], "b": []}, [("a", "r", "b")],
                   edge_props={("a", "b"): {"since": 1999}})
    path = PropTest(DataTest("since", "<", 2000), on_edge=True)
    assert ("a", "b") in path_pairs(path, g)
    assert ("b", "a") not in path_pairs(path, g)
    flipped = PropTest(DataTest("since", "<", 2000), on_edge=True, flipped=True)
    assert ("b", "a") in path_pairs(flipped, g)


# -- eval_query ---------------------------------------------------------------


def test_concept_atom_answers():
    g = make_graph({"a": ["A"], "b": []})
    q = C2RPQ(("x",), frozenset({ConceptAtom(frozenset({"A"}), "x")}))
    assert eval_query(q, g) == {("a",)}


def test_mutual_edges():
    g = make_graph({"a": [], "b": []}, [("a", "r", "b"), ("b", "r", "a")])
    q = parse_query("q(x,y) :- r(x,y), r(y,x)")
    assert eval_query(q, g) == {("a", "b"), ("b", "a")}


def test_empty_graph_gives_no_answers():
    q = parse_query("q(x) :- A(x)")
    assert eval_query(q, PropertyGraph()) == set()


def test_self_loop_variable():
    g = make_graph({"a": [], "b": []}, [("a", "r", "a"), ("a", "r", "b")])
    q = parse_query("q(x) :- r(x,x)")
    assert eval_query(q, g) == {("a",)}


def test_nullary_query():
    g = make_graph({"a": ["A"]})
    q = C2RPQ((), frozenset({ConceptAtom(frozenset({"A"}), "x")}))
    assert eval_query(q, g) == {()}
    assert eval_query(q, PropertyGraph()) == set()


def test_edge_test_atom_with_repeated_variable():
    g = make_graph({"a": [], "b": []}, [("a", "r", "b"), ("b", "r", "b")],
                   edge_props={("a", "b"): {"w": 5}, ("b", "b"): {"w": 7}})
    q = parse_query("q(x) :- r(x,x), w>4(x,x)")
    assert eval_query(q, g) == {("b",)}


def test_edge_test_atom():
    g = make_graph({"a": [], "b": []}, [("a", "r", "b")],
                   edge_props={("a", "b"): {"w": 5}})
    q = parse_query("q(x,y) :- r(x,y), w>4(x,y)")
    assert eval_query(q, g) == {("a", "b")}
    q2 = parse_query("q(x,y) :- r(x,y), w>5(x,y)")
    assert eval_query(q2, g) == set()


def test_test_variable_bound_by_no_other_atom_raises():
    g = make_graph({"a": ["A"]})
    q = C2RPQ(("x",), frozenset({ConceptAtom(frozenset({"A"}), "x"),
                                 TestAtom(DataTest("w", ">", 4), ("x", "y"))}))
    with pytest.raises(ValueError, match="y"):
        eval_query(q, g)
    with pytest.raises(ValueError, match="y"):
        eval_query(q, PropertyGraph())


# -- equivalence with the brute-force query oracle ----------------------------


_TEST_QUERIES = [
    # one-variable tests
    ("q(x) :- A(x), w>20(x)", False),
    ("q(x,y) :- r(x,y), w<=25(y), v>=15(y)", False),
    ("q(x) :- r(x,y), (w>10|v<5)(y)", False),
    # two-variable tests, including inverse roles
    ("q(x,y) :- r(x,y), w>20(x,y)", False),
    ("q(x,y) :- inv(s)(x,y), w<30(x,y), v>=10(y)", False),
    ("q(x) :- r(x,y), s(y,z), w>25(y,z)", False),
    # negation over absent properties and over edges without properties
    ("q(x) :- B(x), !(w>20)(x)", False),
    ("q(x,y) :- s(x,y), !(w>20)(x,y)", False),
    ("q(x,y) :- r(x,y), !(w>20 & v<30)(x,y), !(v=3)(y)", False),
    # a test on a self-loop
    ("q(x) :- r(x,x), w>4(x,x)", False),
    # a test on an answer variable
    ("q(x,y) :- r(x,y), w>10(x)", False),
    # a test on a variable bound only by a concept atom
    ("q(x) :- A(x), v<=30(x)", False),
    ("q(x) :- r(x,y), B(z), w>10(z)", True),
    ("q() :- B(x), !(w>25)(x)", False),
    # tests next to navigational path atoms
    ("q(x,y) :- (r.s*)(x,y), w>15(x,y)", True),
]


def test_engine_matches_brute_force_answers_on_random_graphs():
    rng = random.Random(505)
    for _ in range(40):
        g = random_graph(rng, max_nodes=5, prop_keys=("w", "v"))
        for text, extended in _TEST_QUERIES:
            q = parse_query(text, extended=extended)
            assert eval_query(q, g) == brute_force_answers(q, g), \
                f"{text} on\n{graph_to_jsonl(g)}"


# -- equivalence with the walk oracle ----------------------------------------


def _path_cases():
    r, s = EdgeStep(Role("r")), EdgeStep(Role("s"))
    rinv = EdgeStep(Role("r", inverted=True))
    a = NodeTest(frozenset({"A"}))
    return [
        r,
        rinv,
        union_path([r, s]),
        concat_path([r, a]),
        concat_path([r, s, rinv]),
        star_path(r),
        star_path(union_path([r, s])),
        concat_path([star_path(r), a]),
        star_path(concat_path([r, s])),
        union_path([concat_path([r, star_path(s)]), a]),
    ]


def test_engine_matches_walk_oracle_on_random_graphs():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, max_nodes=6)
        for path in _path_cases():
            expected = walk_pairs(path, g, unroll=len(g.labels))
            assert path_pairs(path, g) == expected, f"path {path} on\n{graph_to_jsonl(g)}"


def test_star_unrolling_matches_fixpoint():
    rng = random.Random(11)
    from oracles import unroll_stars

    for _ in range(20):
        g = random_graph(rng, max_nodes=6)
        n = len(g.labels)
        path = star_path(union_path([EdgeStep(Role("r")), EdgeStep(Role("s"))]))
        assert path_pairs(path, g) == path_pairs(unroll_stars(path, n), g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
def test_monotone_under_edge_addition(seed, seed2):
    rng = random.Random(seed)
    g = random_graph(rng, max_nodes=4)
    rng2 = random.Random(seed2)
    nodes = sorted(g.nodes)
    q = parse_query("q(x) :- r(x,y), s(y,z)")
    before = eval_query(q, g)
    g.add_edge(rng2.choice(nodes), rng2.choice(["r", "s"]), rng2.choice(nodes))
    assert before <= eval_query(q, g)
