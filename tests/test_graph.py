import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_answers, make_graph, random_graph, walk_pairs

from ontopath import graph as graph_module
from ontopath.chase import certain_answers
from ontopath.errors import GraphFormatError
from ontopath.graph import (
    PropertyGraph,
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
    RoleAtom,
    Star,
    TestAtom,
    UC2RPQ,
    concat_path,
    parse_query,
    star_path,
    union_path,
)
from ontopath.tbox import TOP, Role, parse_tbox


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
    # Nor non-finite numbers, which Cypher would read as variable names.
    for value in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(GraphFormatError, match="finite"):
            load_graph(f'{{"type":"node","id":"a","props":{{"w":{value}}}}}')
        with pytest.raises(GraphFormatError, match="finite"):
            load_graph('{"type":"node","id":"a"}\n'
                       f'{{"type":"edge","src":"a","label":"r","dst":"a","props":{{"w":{value}}}}}')


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


@pytest.mark.parametrize("nodes, edges, column", [
    ("labels\nA\n", "src,label,dst\n", "id"),
    ("id\na\n", "label,dst\nr,a\n", "src"),
    ("id\na\n", "src,dst\na,a\n", "label"),
    ("id\na\n", "src,label\na,r\n", "dst"),
], ids=["id", "src", "label", "dst"])
def test_csv_rejects_missing_column(nodes, edges, column):
    with pytest.raises(GraphFormatError, match=repr(column)) as err:
        load_graph_csv(nodes, edges)
    assert err.value.line == 2


def test_csv_rejects_malformed_props_json():
    with pytest.raises(GraphFormatError) as err:
        load_graph_csv("id,props\na,{age: 41}\n", "")
    assert err.value.line == 2
    # JSON's NaN and Infinity parse, but are not finite property values.
    for value in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(GraphFormatError, match="finite"):
            load_graph_csv(f'id,props\na,"{{""w"": {value}}}"\n', "")
        with pytest.raises(GraphFormatError, match="finite"):
            load_graph_csv("id\na\n", f'src,label,dst,props\na,r,a,"{{""w"": {value}}}"\n')


@pytest.mark.parametrize("labels", ['"AB"', '["A", 1]', '{"A": 1}'])
def test_load_graph_rejects_labels_that_are_not_a_list_of_strings(labels):
    with pytest.raises(GraphFormatError):
        load_graph(f'{{"type":"node","id":"a","labels":{labels}}}')


@pytest.mark.parametrize("value", ["null", "true", "1.5", "[]", "{}"])
@pytest.mark.parametrize("key", ["id", "src", "label", "dst"])
def test_load_graph_rejects_node_references_and_labels_of_other_types(key, value):
    fields = {"id": '"a"', "src": '"a"', "label": '"r"', "dst": '"a"'}
    fields[key] = value
    text = (f'{{"type":"node","id":{fields["id"]}}}\n'
            f'{{"type":"edge","src":{fields["src"]},"label":{fields["label"]},'
            f'"dst":{fields["dst"]}}}\n')
    with pytest.raises(GraphFormatError, match=repr(key)) as err:
        load_graph(text)
    assert err.value.line == (1 if key == "id" else 2)


@pytest.mark.parametrize("label", ['""', "7"])
def test_load_graph_rejects_edge_labels_that_are_not_nonempty_strings(label):
    with pytest.raises(GraphFormatError, match="'label'"):
        load_graph(f'{{"type":"node","id":"a"}}\n'
                   f'{{"type":"edge","src":"a","label":{label},"dst":"a"}}\n')


def test_load_graph_reads_integer_node_references_as_strings():
    g = load_graph('{"type":"node","id":1}\n{"type":"edge","src":1,"label":"r","dst":"1"}')
    assert set(g.nodes) == {"1"}
    assert g.pairs("r") == {("1", "1")}


def test_jsonl_round_trip():
    g = make_graph({"a": ["A"], "b": []}, [("a", "r", "b")],
                   node_props={"a": {"k": 1}}, edge_props={("a", "b"): {"w": 2}})
    again = load_graph(graph_to_jsonl(g))
    assert again.labels == g.labels
    assert again.edges == g.edges
    assert again.node_props == g.node_props
    assert again.edge_props == g.edge_props


_SHARED_NAMES_JSONL = (
    '{"type":"node","id":"alice","labels":["Teacher"]}\n'
    '{"type":"node","id":"bob","labels":["Student"]}\n'
    '{"type":"node","id":"carol","labels":["Student"]}\n'
    '{"type":"edge","src":"alice","label":"teaches","dst":"bob","props":{"since":1999}}\n'
    '{"type":"edge","src":"bob","label":"teaches","dst":"carol","props":{"since":2004}}\n'
    '{"type":"edge","src":"carol","label":"mentors","dst":"alice"}\n'
)
_SHARED_NAMES_CSV = (
    "id,labels\nalice,Teacher\nbob,Student\ncarol,Student\n",
    'src,label,dst,props\nalice,teaches,bob,"{""since"": 1999}"\n'
    'bob,teaches,carol,"{""since"": 2004}"\ncarol,mentors,alice,\n',
)


@pytest.mark.parametrize("load", [
    lambda: load_graph(_SHARED_NAMES_JSONL),
    lambda: load_graph_csv(*_SHARED_NAMES_CSV),
], ids=["jsonl", "csv"])
def test_loaders_keep_one_string_per_name_within_a_graph(load):
    g = load()
    node_ids = {node: node for node in g.labels}  # each id -> the key object itself
    for role in ("teaches", "mentors"):
        for src, dst in g.pairs(role):
            assert src is node_ids[src] and dst is node_ids[dst]
    (first,), (second,) = g.edge_props[("alice", "bob")], g.edge_props[("bob", "carol")]
    assert first == second == "since" and first is second
    assert g.labels["bob"] is g.labels["carol"]
    # No table outlives a load: a second load of the same text has its own ids.
    again = load()
    assert all(node is not node_ids[node] for node in again.labels)


# -- the label index ------------------------------------------------------------


def _index_agrees_with_labels(g):
    for label in {l for ls in g.labels.values() for l in ls} | {"Missing"}:
        assert set(g.nodes_with({label})) == {n for n in g.nodes if label in g.labels[n]}
    assert set(g.nodes_with({"A", "B"})) == {
        n for n in g.nodes if g.labels[n] & {"A", "B"}}


def test_label_index_follows_add_node_add_label_and_copy():
    g = make_graph({"a": ["A"], "b": ["A", "B"], "c": []})
    _index_agrees_with_labels(g)
    g.add_label("c", "B")
    g.add_node("d", ["C"])
    _index_agrees_with_labels(g)
    copied = g.copy()
    _index_agrees_with_labels(copied)
    copied.add_label("a", "C")
    copied.add_node("e", ["A"])
    _index_agrees_with_labels(copied)
    assert set(g.nodes_with({"C"})) == {"d"}
    assert set(g.nodes_with({"A"})) == {"a", "b"}
    _index_agrees_with_labels(g)


@pytest.mark.parametrize("writer", ["original", "copy"])
def test_edge_props_added_after_copy_stay_in_their_graph(writer):
    g = make_graph({"a": [], "b": []}, [("a", "r", "b")],
                   node_props={"a": {"k": 1}}, edge_props={("a", "b"): {"w": 2}})
    copied = g.copy()
    written, other = (g, copied) if writer == "original" else (copied, g)
    written.add_edge("a", "s", "b", {"since": 1999})
    written.add_edge("b", "r", "a", {"w": 3})
    assert written.edge_props == {("a", "b"): {"w": 2, "since": 1999}, ("b", "a"): {"w": 3}}
    assert other.edge_props == {("a", "b"): {"w": 2}}
    assert other.node_props == written.node_props == {"a": {"k": 1}, "b": {}}


def _step_maps(g):
    """Every step map of g, its lists sorted; reading one builds it."""
    return {(role, end): {node: sorted(ends) for node, ends in g.step_map(role, end).items()}
            for role in ("r", "s", "t") for end in (0, 1)}


def _step_maps_from_pairs(g):
    """The step maps as the pair index gives them now."""
    maps = {}
    for role in ("r", "s", "t"):
        for end in (0, 1):
            step = maps[(role, end)] = {}
            for pair in g.pairs(role):
                step.setdefault(pair[1 - end], []).append(pair[end])
    return {key: {node: sorted(ends) for node, ends in step.items()}
            for key, step in maps.items()}


def _observed(g):
    """What every reader sees of g, in containers that no later write to g
    can reach."""
    return ({n: set(ls) for n, ls in g.labels.items()},
            {label: set(g.nodes_with({label})) for label in ("A", "B", "C")},
            {role: set(g.pairs(role)) for role in ("r", "s", "t")},
            g.edges,
            {n: dict(props) for n, props in g.node_props.items()},
            {pair: dict(props) for pair, props in g.edge_props.items()},
            _step_maps(g))


_WRITES = {
    "add_node": lambda g: g.add_node("fresh", ["A"], {"k": 2}),
    "add_label, existing label": lambda g: g.add_label("c", "A"),
    "add_label, new label": lambda g: g.add_label("a", "C"),
    "add_edge, existing role": lambda g: g.add_edge("b", "r", "c"),
    "add_edge, new role": lambda g: g.add_edge("c", "t", "a"),
    "add_edge, existing role, props": lambda g: g.add_edge("c", "r", "b", {"w": 5}),
    "add_edge, new role, props": lambda g: g.add_edge("a", "t", "c", {"w": 6}),
    "add_edge, parallel edge": lambda g: g.add_edge("a", "r", "b", {"k": 7}),
    "add_edges, existing role": lambda g: g.add_edges("r", {("a", "b"), ("b", "c")}),
    "add_edges, new role": lambda g: g.add_edges("t", {("c", "a"), ("a", "a")}),
}


def _copy_of_a_copy(g):
    h = g.copy()
    return [g, h, h.copy()]


_COPIES = {
    "a copy": lambda g: [g, g.copy()],
    "a copy of a copy": _copy_of_a_copy,
    "copied twice": lambda g: [g, g.copy(), g.copy()],
}


@pytest.mark.parametrize("write", _WRITES.values(), ids=_WRITES.keys())
@pytest.mark.parametrize("copies", _COPIES.values(), ids=_COPIES.keys())
@pytest.mark.parametrize("first", ["original", "last copy"])
def test_writes_after_copy_stay_in_their_graph(write, copies, first):
    # Copies share index sets until one of them writes one; every graph of
    # the family writes in turn, and no other graph may see the write.
    # Observing a graph builds its step maps, so each write extends maps
    # that exist; the original has built its own before it is copied, and a
    # copy starts with none.
    g = make_graph({"a": ["A"], "b": ["A", "B"], "c": []},
                   [("a", "r", "b"), ("b", "s", "a")],
                   node_props={"a": {"k": 1}}, edge_props={("a", "b"): {"w": 2}})
    _step_maps(g)
    family = copies(g)
    if first == "last copy":
        family.reverse()
    for written in family:
        others = [h for h in family if h is not written]
        before = [_observed(h) for h in others]
        unwritten = _observed(written)
        write(written)
        assert _observed(written) != unwritten
        assert [_observed(h) for h in others] == before
        for h in family:
            assert _step_maps(h) == _step_maps_from_pairs(h)


def test_add_edges_adds_only_missing_pairs_between_nodes():
    g = make_graph({"a": [], "b": []}, [("a", "r", "b")])
    assert g.add_edges("r", {("a", "b"), ("b", "a")}) == {("b", "a")}
    assert g.pairs("r") == {("a", "b"), ("b", "a")}
    assert g.add_edges("r", {("a", "b")}) == set()
    with pytest.raises(GraphFormatError, match="not a node"):
        g.add_edges("r", {("a", "missing")})
    assert g.pairs("r") == {("a", "b"), ("b", "a")}


def test_load_graph_shares_equal_property_maps_but_keeps_value_types():
    text = "".join(
        f'{{"type":"node","id":"{node}","props":{{"k":{value}}}}}\n'
        for node, value in [("a", "1"), ("b", "1"), ("c", "1.0"), ("d", "-0.0"),
                            ("e", "0.0"), ("f", '"1"')])
    g = load_graph(text + '{"type":"edge","src":"a","label":"r","dst":"b","props":{"k":1}}\n'
                   '{"type":"node","id":"g"}\n')
    props = g.node_props
    assert props["a"] is props["b"] is g.edge_props[("a", "b")]
    assert [repr(props[node]["k"]) for node in "abcdef"] == [
        "1", "1", "1.0", "-0.0", "0.0", "'1'"]
    assert props["g"] == {}
    assert graph_to_jsonl(load_graph(graph_to_jsonl(g))) == graph_to_jsonl(g)


def test_nodes_with_top_is_every_node():
    g = make_graph({"a": ["A"], "b": []})
    assert set(g.nodes_with({TOP})) == {"a", "b"}
    assert set(g.nodes_with({TOP, "A"})) == {"a", "b"}
    assert set(g.nodes_with(())) == set()


# -- path_pairs ---------------------------------------------------------------


def test_concat_with_node_test():
    g = make_graph({"a": [], "b": ["Student"]}, [("a", "teaches", "b")])
    path = concat_path([EdgeStep(Role("teaches")), NodeTest(frozenset({"Student"}))])
    assert path_pairs(path, g) == {("a", "b")}


def test_star_includes_identity_for_every_node():
    g = make_graph({"a": [], "b": []}, [("a", "r", "b")])
    pairs = path_pairs(Star(EdgeStep(Role("r"))), g)
    assert ("a", "a") in pairs and ("b", "b") in pairs and ("a", "b") in pairs


def test_inverse_edge_symmetry():
    g = make_graph({"a": [], "b": []}, [("a", "r", "b")])
    assert path_pairs(EdgeStep(Role("r", inverted=True)), g) == {("b", "a")}


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
    # The check comes before the evaluator stops at an empty relation.
    with pytest.raises(ValueError, match="y"):
        eval_query(q, make_graph({"a": ["B"]}))


def _shared_path_union():
    shared = "(r.s*)(x,y)"
    branches = tuple(parse_query(text, extended=True) for text in (
        f"q(x) :- {shared}, A(y)",
        f"q(x) :- {shared}, B(x)",
        "q(x) :- s(x,x)",
        # y dangles in the second branch only, which reads no pairs.
        f"q(x) :- {shared}, B(y)",
    ))
    return branches[0].atoms, UC2RPQ(("x",), branches)


def test_union_answers_are_the_union_of_branch_answers():
    _, union = _shared_path_union()
    rng = random.Random(808)
    for _ in range(30):
        g = random_graph(rng, max_nodes=5)
        expected = set().union(*(brute_force_answers(b, g) for b in union.branches))
        assert eval_query(union, g) == expected, graph_to_jsonl(g)


def test_union_branches_share_one_path_cache(monkeypatch):
    atoms, union = _shared_path_union()
    (shared,) = [a.path for a in atoms if isinstance(a, RoleAtom)]
    calls = []

    def counting(path, g, _cache=None):
        calls.append(path)
        return path_pairs(path, g, _cache)

    monkeypatch.setattr(graph_module, "path_pairs", counting)
    g = make_graph({"a": ["A", "B"], "b": []}, [("a", "r", "b"), ("b", "s", "b")])
    assert eval_query(union, g) == {("a",), ("b",)}
    assert calls.count(shared) == 1


def test_one_branch_union_returns_its_branch_answers_uncopied(monkeypatch):
    # A branch's answer set is built fresh on each evaluation (see the test
    # below), so a one-branch union hands it on as it is.
    built = []

    def recording(q, g, cache):
        built.append(evaluate(q, g, cache))
        return built[-1]

    evaluate = graph_module._eval_branch
    monkeypatch.setattr(graph_module, "_eval_branch", recording)
    q = parse_query("q(x) :- r(x,y)")
    g = make_graph({"a": [], "b": []}, [("a", "r", "b")])
    answers = eval_query(UC2RPQ(q.answer_vars, (q,)), g)
    assert answers == {("a",)}
    assert answers is built[0]


def _index_snapshot(g):
    return ({n: set(ls) for n, ls in g.labels.items()}, set(g.edges),
            {label: set(pairs) for label, pairs in g._pairs_by_label.items()},
            {label: set(nodes) for label, nodes in g._nodes_by_label.items()},
            {pair: dict(props) for pair, props in g.edge_props.items()})


def test_evaluation_leaves_the_graph_indexes_unchanged():
    # Rows and answers are often the graph's own index sets, or built from
    # them; an answer set a caller changes must share no storage with them.
    g = make_graph({"a": ["A"], "b": ["A"], "c": []},
                   [("a", "r", "b"), ("b", "r", "a"), ("b", "r", "c"), ("c", "r", "c")],
                   edge_props={("a", "b"): {"w": 2}, ("b", "a"): {"w": 3},
                               ("c", "c"): {"w": 4}})
    before = _index_snapshot(g)
    assert path_pairs(EdgeStep(Role("r")), g) == before[2]["r"]
    for text in (
        "q(x,y) :- r(x,y)",                     # the edge index is the answer
        "q(y,x) :- r(x,y)",                     # projected in another order
        "q(x,y) :- inv(r)(x,y)",                # a cached inverse
        "q(x,y) :- r(x,y), w>1(x,y)",           # rows filtered as endpoint pairs
        "q(x,y) :- r(x,y), w>1(y,x)",           # a test against the edge
        "q(x) :- A(x)",                         # the label index is the answer
        "q(x) :- r(x,y), A(x)",
        "q(x,y) :- A(x), r(x,y)",               # the rows hashed, source shared
        "q(x,y) :- A(y), r(x,y)",               # the rows hashed, target shared
        "q(x,y) :- r(x,y), r(y,x)",             # a semi-join on both variables
        "q(x,y) :- A(x), A(y)",                 # a cross product
        "q(x) :- r(x,x)",                       # a self-loop
        "q(x) :- (r.<A>)(x,w)",                 # a dangling atom's node set
        "q(x) :- (r*.<A>)(w,x)",
        "q(x,y) :- (r.r*)(x,y)",                # a walked path's pairs
        "q() :- r(x,y)",
    ):
        q = parse_query(text, extended=True)
        for query in (q, UC2RPQ(q.answer_vars, (q,))):
            answers = eval_query(query, g)
            expected = set(answers)
            assert expected, text
            answers.clear()
            answers.add(("z", "z"))
            assert eval_query(query, g) == expected, text
            assert _index_snapshot(g) == before, text


def test_certain_answers_leave_the_graph_indexes_unchanged():
    # The chase writes witnesses, teaches edges and Student labels into a
    # copy that shares the base graph's index sets until it writes them.
    g = make_graph({"t1": ["Teacher"], "t2": ["Teacher"], "s1": ["Student"], "p": []},
                   [("t1", "teaches", "s1"), ("p", "teaches", "t2"), ("t2", "mentors", "p")],
                   edge_props={("t1", "s1"): {"since": 1999}})
    tbox = parse_tbox("Teacher <= exists teaches . Student")
    q = parse_query("q(x) :- teaches(x,y), Student(y)")
    before = _index_snapshot(g)
    for _ in range(2):
        assert certain_answers(q, g, tbox, 3) == {("t1",), ("t2",)}
        assert _index_snapshot(g) == before


_CALL_TRACE = """
from ontopath import graph
from ontopath.query import UC2RPQ, parse_query, path_to_str
from oracles import make_graph

calls = []

def traced(name, fn):
    def wrapper(path, *args):
        calls.append(f"{name} {path_to_str(path)}")
        return fn(path, *args)
    return wrapper

graph.path_pairs = traced("path_pairs", graph.path_pairs)
graph._walk_ends = traced("_walk_ends", graph._walk_ends)
g = make_graph({"a": ["A"], "b": ["B"], "c": ["A", "B"]},
               [("a", "r", "b"), ("b", "s", "c"), ("c", "s", "a"), ("c", "r", "c")])
union = UC2RPQ(("x",), tuple(parse_query(text, extended=True) for text in (
    # t has no edges: its empty relation must end the branch unwalked.
    "q(x) :- (r.s*)(x,y), t(x,y), A(x)",
    "q(x) :- inv(r)(x,y), B(x), (s.s*)(x,z), (r*.s)(y,z), A(z)",
)))
print(sorted(graph.eval_query(union, g)))
# A walk takes node sets in hash order, so the calls are compared sorted.
print("\\n".join(sorted(calls)))
"""


def test_relations_built_are_independent_of_hash_seed():
    # Relations are built in an order that does not follow frozenset
    # iteration, so the path relations an evaluation walks, and the
    # per-layer counts of the traced benchmark, cannot move with string hashes.
    root = Path(__file__).parent.parent
    pythonpath = os.pathsep.join([str(root / "src"), str(root / "tests")])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
        proc = subprocess.run([sys.executable, "-c", _CALL_TRACE],
                              capture_output=True, text=True, check=True, env=env)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    answers, *calls = outputs[0].splitlines()
    assert answers == "[('b',), ('c',)]"
    assert calls and not any("r.s*" in call for call in calls)


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
    # join shapes: a cross product, joins on one and on two shared variables
    ("q(x,y) :- A(x), B(y), r(x,y)", False),
    ("q(x,y) :- r(x,y), s(x,y)", False),
    ("q(x) :- r(x,y), s(y,z), r(z,x)", False),
    ("q(x,y) :- r(x,x), s(x,y)", False),
    ("q() :- r(x,y), s(y,x)", False),
    # two components, the smallest relation not the first atom
    ("q(x,z) :- r(x,y), A(z), s(y,w)", True),
    # a nullary query whose data test removes every row
    ("q() :- r(x,y), (w>5 & w<3)(x)", False),
    # a self-loop joined with a larger relation
    ("q(x,y) :- r(x,x), s*(x,y)", True),
    # dangling endpoints: a star, a concatenation with a node test, a union
    # with an inverse edge (source end dangling)
    ("q(x) :- s*(x,w), A(x)", True),
    ("q(x) :- (r.s*.<A>)(x,w)", True),
    ("q(y) :- (inv(r)|s.<B>)(w,y)", True),
    # endpoints that would dangle but occur in a data test or a concept atom
    ("q(x) :- (r.s*)(x,z), w>10(z)", True),
    ("q(x) :- (r.s*)(x,z), w>15(x,z)", True),
    ("q(x) :- (r*.<A>)(x,z), B(z)", True),
    # a self-loop, and a nullary query whose atom dangles at both ends
    ("q(x) :- (r.s*)(x,x)", True),
    ("q() :- (r.s*.<B>)(x,y)", True),
    # answers in another order than the rows' variables
    ("q(y,x) :- r(x,y)", False),
    # an edge test whose variables run against the edge atom
    ("q(x,y) :- r(x,y), w>10(y,x)", False),
    # a unary relation joined on the second column of a binary one
    ("q(x) :- B(y), r(x,y)", False),
    # two atoms sharing both variables, in opposite directions
    ("q(x,y) :- r(x,y), s(y,x)", False),
    # a cross product of two unary relations
    ("q(x,y) :- A(x), B(y)", True),
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
