import importlib
import random
import re

import pytest
from corpus import random_instance
from oracles import make_graph, random_graph, raw_certain_labels, round_robin_chase

from ontopath.chase import chase, certain_answers
from ontopath.graph import eval_query, graph_to_jsonl, load_graph
from ontopath.query import parse_query
from ontopath.tbox import as_axiom, normalize, parse_tbox

# The package re-exports the function `chase` under the module's name.
chase_module = importlib.import_module("ontopath.chase")


def test_single_generation():
    g = make_graph({"a": ["Teacher"]})
    t = parse_tbox("Teacher <= exists teaches . Student")
    chased = chase(g, t, depth=1)
    assert "_:a/0" in chased.labels
    assert ("a", "teaches", "_:a/0") in chased.edges
    assert chased.has_label("_:a/0", "Student")


def test_depth_zero_only_label_closure():
    g = make_graph({"a": ["Teacher"]})
    t = parse_tbox("Teacher <= exists teaches . Student\nTeacher <= Employee")
    chased = chase(g, t, depth=0)
    assert set(chased.nodes) == {"a"}
    assert chased.has_label("a", "Employee")


def test_atomic_closure():
    g = make_graph({"b": ["B"]})
    chased = chase(g, parse_tbox("B <= A"), depth=1)
    assert chased.has_label("b", "A")


def test_witness_reuse_keeps_chase_small():
    g = make_graph({"a": ["A"]})
    t = parse_tbox("A <= exists r . A")
    chased = chase(g, t, depth=3)
    # One fresh node per generation, not an explosion.
    assert len(chased.labels) == 4


def test_inverse_existential_points_at_node():
    g = make_graph({"a": ["A"]})
    t = parse_tbox("A <= exists inv(r) . B")
    chased = chase(g, t, depth=1)
    assert ("_:a/0", "r", "a") in chased.edges


def test_role_closure_with_inversion():
    g = make_graph({"a": [], "b": []}, [("a", "mentors", "b")])
    t = parse_tbox("mentors <= teaches\ninv(teaches) <= taughtBy")
    chased = chase(g, t, depth=0)
    assert ("a", "teaches", "b") in chased.edges
    assert ("b", "taughtBy", "a") in chased.edges


def test_witness_naming_sidesteps_squatting_base_nodes():
    g = make_graph({"a": ["Teacher"], "_:a/0": []})
    t = parse_tbox("Teacher <= exists teaches . Student")
    chased = chase(g, t, depth=1)
    assert "_:a/0'" in chased.labels
    assert chased.has_label("_:a/0'", "Student")
    assert not chased.has_label("_:a/0", "Student")


def test_certain_answers_from_witness():
    g = make_graph({"a": ["Teacher"]})
    t = parse_tbox("Teacher <= exists teaches . Student")
    q = parse_query("q(x) :- teaches(x,y), Student(y)")
    assert certain_answers(q, g, t, depth=1) == {("a",)}


def test_anonymous_nodes_excluded_from_answers():
    g = make_graph({"a": ["Teacher"]})
    t = parse_tbox("Teacher <= exists teaches . Student")
    q = parse_query("q(x) :- Student(x)")
    assert certain_answers(q, g, t, depth=2) == set()


def test_empty_tbox_is_plain_evaluation():
    from ontopath.graph import eval_query
    from ontopath.tbox import TBox

    g = make_graph({"a": ["A"], "b": []}, [("a", "r", "b")])
    q = parse_query("q(x) :- A(x), r(x,y)")
    assert certain_answers(q, g, TBox(()), depth=2) == eval_query(q, g)


def test_base_node_on_the_witness_prefix_stays_a_certain_answer():
    g = make_graph({"a": ["Teacher"], "_:a/0": ["Student"]})
    t = parse_tbox("Teacher <= exists teaches . Student")
    q = parse_query("q(x) :- Student(x)")
    assert certain_answers(q, g, t, depth=1) == {("_:a/0",)}


def test_nullary_query_without_witnesses_answers_the_empty_tuple():
    g = make_graph({"a": ["A"]})
    q = parse_query("q() :- B(y)")
    assert certain_answers(q, g, parse_tbox("A <= B"), depth=1) == {()}


def test_boolean_query_may_use_witnesses():
    g = make_graph({"a": ["Teacher"]})
    t = parse_tbox("Teacher <= exists teaches . Student")
    q = parse_query("q() :- Student(y)")
    assert certain_answers(q, g, t, depth=1) == {()}


_TBOX_CORPUS = [
    "A <= B\nB <= C",
    "A <= exists r . B\nexists r . B <= C",
    "Student & Employee <= TA\nTA <= exists paidBy . Dept",
    "exists partOf . Region <= Region",
    "mentors <= teaches\nTeacher <= exists teaches . Student",
    "A <= exists r . (B & C)\nexists s . top <= D",
    "inv(employs) <= worksFor\nA <= exists employs . B",
    "top <= A\nA & B <= C",
    # existential axioms reading roles the chase itself extends
    "exists s . B <= A\nr <= s",
    "A <= exists r . B\nexists inv(r) . A <= C\nexists r . C <= D",
    "exists s . A <= B\ninv(r) <= s",
    # an existential right-hand side on every node, read through the label index
    "top <= exists r . B",
    # an existential left-hand side whose right-hand side is its filler, over
    # an inverse role, feeding an existential right-hand side
    "exists inv(r) . B <= B\ntop <= exists s . B",
    # an existential left-hand side whose filler is top, fed by new witnesses
    "exists r . top <= B\nB <= exists inv(r) . A",
    # later axioms write what earlier ones read: a label, and new nodes
    "top <= D\nB <= exists r . C\nA <= B",
    # role inclusions whose super-role is inverted, read by an existential
    "r <= inv(s)\nexists s . A <= B",
    "inv(r) <= inv(s)\nexists inv(s) . A <= B",
]


def test_chase_matches_raw_structural_chase():
    """The production chase on normal forms agrees with the raw oracle chase
    on entailed base-node labels, both for the original axioms."""
    rng = random.Random(42)
    for text in _TBOX_CORPUS:
        t = normalize(parse_tbox(text))
        for _ in range(6):
            g = random_graph(
                rng, max_nodes=4,
                roles=("r", "s", "partOf", "mentors", "teaches", "employs", "paidBy"),
                labels=("A", "B", "C", "D", "Student", "Employee", "TA",
                        "Region", "Teacher", "Dept"),
                edge_prob=0.12,
            )
            chased = chase(g, t, depth=3)
            raw = raw_certain_labels(g, t.axioms, depth=3)
            for node in g.nodes:
                mine = {l for l in chased.labels[node] if not l.startswith("__nf")}
                assert mine == set(raw[node]), (text, node)


def test_chase_matches_round_robin_chase():
    """The chase builds exactly the round-robin oracle's graph, witness
    names included, at every depth, on random graphs over each TBox's own
    names."""
    rng = random.Random(7)
    for text in _TBOX_CORPUS:
        t = normalize(parse_tbox(text))
        labels = sorted(set(re.findall(r"\b[A-Z]\w*", text)))
        roles = sorted(set(re.findall(r"\b[a-z]\w*", text)) - {"exists", "inv", "top"})
        for _ in range(60):
            g = random_graph(rng, max_nodes=7, roles=roles, labels=labels, edge_prob=0.25)
            for depth in range(4):
                expected = graph_to_jsonl(round_robin_chase(g, t, depth))
                assert graph_to_jsonl(chase(g, t, depth)) == expected, (text, depth)


_ORDER_GRAPH = ({"a": [], "b": [], "c": ["B"], "x": ["C"]},
                [("a", "r", "b"), ("b", "r", "c"), ("x", "s", "a")])


@pytest.mark.parametrize("text, witness", [
    # b gains B before the existential right-hand side runs, a only in the
    # next round: x finds no s-successor with B yet and makes witness 1.
    ("exists r . B <= B\nC <= exists s . B", "_:x/1"),
    ("C <= exists s . B\nexists r . B <= B", "_:x/0"),
])
def test_existential_left_hand_side_reaches_smaller_nodes_next_round(text, witness):
    chased = chase(make_graph(*_ORDER_GRAPH), parse_tbox(text), depth=3)
    assert set(chased.nodes) - {"a", "b", "c", "x"} == {witness}
    assert chased.has_label("a", "B")


def test_normalization_is_conservative():
    """Certain atomic answers over original names agree before/after
    normalization (raw chase on both axiom sets)."""
    rng = random.Random(99)
    for text in _TBOX_CORPUS:
        t = normalize(parse_tbox(text))
        norm_axioms = tuple(as_axiom(nf) for nf in t.normalized)
        for _ in range(6):
            g = random_graph(
                rng, max_nodes=4,
                roles=("r", "s", "partOf", "mentors", "teaches", "employs", "paidBy"),
                labels=("A", "B", "C", "D", "Student", "Employee", "TA",
                        "Region", "Teacher", "Dept"),
                edge_prob=0.12,
            )
            before = raw_certain_labels(g, t.axioms, depth=3)
            after = raw_certain_labels(g, norm_axioms, depth=3)
            for node in g.nodes:
                original_before = {l for l in before[node] if not l.startswith("__nf")}
                original_after = {l for l in after[node] if not l.startswith("__nf")}
                assert original_before == original_after, (text, node)


def test_depth_monotonicity():
    rng = random.Random(5)
    t = normalize(parse_tbox("A <= exists r . B\nexists r . B <= A\nB <= exists s . A"))
    q = parse_query("q(x) :- r(x,y), B(y)")
    for _ in range(10):
        g = random_graph(rng, max_nodes=5, roles=("r", "s"), labels=("A", "B"))
        previous = set()
        for depth in range(4):
            answers = certain_answers(q, g, t, depth)
            assert previous <= answers
            previous = answers


def _base_answers(q, g, t, depth):
    """Answers over the full chase, restricted to base-node tuples."""
    return {answer for answer in eval_query(q, chase(g, t, depth))
            if all(node in g.labels for node in answer)}


# Navigational queries over the corpus names: relevance must follow
# concatenations, unions, node tests and stars, which `random_query`,
# making plain role atoms only, never writes.
_PATH_QUERIES = [parse_query(text, extended=True) for text in (
    "q(x) :- (r0.inv(r1))(x,y), A2(y)",
    "q(x) :- (r0|inv(r2).<A1>)(x,y)",
    "q(x) :- (<A3|A4>.r1*)(x,y)",
    "q(x,y) :- (r2.(r0|r3)*.<A5>)(x,y)",
)]


def test_certain_answers_equal_answers_over_the_full_chase():
    """Chasing only the axioms a query can observe loses no answer and adds none."""
    rng = random.Random(2024)
    for _ in range(500):
        t, g, q = random_instance(rng)
        for query in (q, *_PATH_QUERIES):
            for depth in range(4):
                assert (certain_answers(query, g, t, depth)
                        == _base_answers(query, g, t, depth)), (
                    str(t), str(query), graph_to_jsonl(g), depth)


def test_eval_over_a_chased_graph_equals_eval_over_its_reload():
    # The chase builds and extends the chased graph's step maps, and
    # evaluating over the chased graph reuses them; a reload builds them
    # afresh from its edges.
    rng = random.Random(7)
    for _ in range(100):
        t, g, q = random_instance(rng)
        chased = chase(g, t, 3)
        reloaded = load_graph(graph_to_jsonl(chased))
        for query in (q, *_PATH_QUERIES):
            assert eval_query(query, chased) == eval_query(query, reloaded), (
                str(t), str(query), graph_to_jsonl(g))


def _chased_axioms(monkeypatch):
    """The normal forms each `certain_answers` call hands to `chase`."""
    seen = []

    def spy(g, t, depth):
        seen.append(set(t.normalized))
        return chase(g, t, depth)

    monkeypatch.setattr(chase_module, "chase", spy)
    return seen


def test_query_reading_no_axiom_is_not_chased(monkeypatch):
    def refuse(g, t, depth):
        raise AssertionError("chased a TBox the query cannot see")

    monkeypatch.setattr(chase_module, "chase", refuse)
    g = make_graph({"a": [], "b": [], "c": ["Region"]},
                   [("a", "teaches", "b"), ("b", "teaches", "a"), ("a", "partOf", "c")],
                   edge_props={("a", "b"): {"since": 2001}, ("b", "a"): {"since": 1999}})
    t = parse_tbox("exists partOf . Region <= Region")
    q = parse_query("q(x,y) :- teaches(x,y), since>2000(x,y)")
    assert certain_answers(q, g, t, depth=3) == {("a", "b")}


@pytest.mark.parametrize("query", [
    parse_query("q(x) :- top(x)"),
    # a star's zero-length walk reaches every node, a witness too
    parse_query("q(x) :- A(x), (s*)(x,y)", extended=True),
])
def test_query_reading_top_keeps_existential_right_hand_sides(monkeypatch, query):
    seen = _chased_axioms(monkeypatch)
    t = normalize(parse_tbox("B <= exists r . C\nA <= D"))
    certain_answers(query, make_graph({"a": ["A", "B"]}), t, depth=1)
    assert seen == [{t.normalized[0]}]


def test_star_query_sees_witnesses_of_axioms_it_reads_nothing_of():
    # Only a witness, which has no properties, passes the negated test.
    g = make_graph({"a": ["A"]}, node_props={"a": {"k": 5}})
    t = parse_tbox("A <= exists r . B")
    q = parse_query("q() :- (s*)(x,y), !k=5(y)", extended=True)
    assert certain_answers(q, g, t, depth=1) == _base_answers(q, g, t, 1) == {()}


def test_relevance_reaches_through_role_inclusions_and_existential_left_hand_sides(
        monkeypatch):
    seen = _chased_axioms(monkeypatch)
    t = normalize(parse_tbox(
        "exists s . B <= C\ninv(r) <= s\nA <= exists inv(r) . B\nD <= E"))
    answers = certain_answers(parse_query("q(x) :- C(x)"), make_graph({"a": ["A"]}), t,
                              depth=1)
    assert answers == {("a",)}
    assert seen == [set(t.normalized[:3])]
