import copy
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import make_graph

from ontopath.errors import QuerySyntaxError
from ontopath.graph import eval_query
from ontopath.query import (
    C2RPQ,
    ConceptAtom,
    DataTest,
    EdgeStep,
    NodeTest,
    RoleAtom,
    TestAtom,
    UC2RPQ,
    add_subseteq,
    canon_path,
    concat_path,
    contains_structurally,
    inverse_path,
    parse_query,
    parse_rewriting,
    path_size,
    path_to_str,
    query_to_str,
    rewriting_to_str,
    star_path,
    substitute_role,
    union_path,
)
from ontopath.tbox import TOP, Role


def edge(name, x, y, inverted=False):
    return RoleAtom(EdgeStep(Role(name, inverted)), x, y)


def concept(label, x):
    labels = label if isinstance(label, (set, frozenset)) else {label}
    return ConceptAtom(frozenset(labels), x)


# -- parsing ------------------------------------------------------------------


def test_parse_basic_query():
    q = parse_query("q(x) :- teaches(x,y), Student(y)")
    assert q.answer_vars == ("x",)
    assert q.atoms == frozenset({edge("teaches", "x", "y"), concept("Student", "y")})


def test_parse_label_union():
    q = parse_query("q(x) :- (Teacher|Professor)(x)")
    assert q.atoms == frozenset({concept({"Teacher", "Professor"}, "x")})


def test_parse_data_test():
    q = parse_query("q(x,y) :- r(x,y), age>30(y)")
    assert TestAtom(DataTest("age", ">", 30), ("y",)) in q.atoms


def test_parse_string_test_and_edge_test():
    q = parse_query('q(x) :- r(x,y), name="Ada"(y), since<=2000(x,y)')
    assert TestAtom(DataTest("name", "=", "Ada"), ("y",)) in q.atoms
    assert TestAtom(DataTest("since", "<=", 2000), ("x", "y")) in q.atoms


def test_parse_inverse_role_atom():
    q = parse_query("q(x) :- inv(teaches)(x,y)")
    assert edge("teaches", "x", "y", inverted=True) in q.atoms


def test_answer_var_must_occur():
    with pytest.raises(QuerySyntaxError):
        parse_query("q(x,z) :- r(x,y)")


def test_disconnected_body_rejected():
    with pytest.raises(QuerySyntaxError):
        parse_query("q(x) :- A(x), B(y)")


def test_navigational_input_rejected_without_extended():
    with pytest.raises(QuerySyntaxError):
        parse_query("q(x,y) :- (r|s)(x,y)")
    q = parse_query("q(x,y) :- (r|s)(x,y)", extended=True)
    (atom,) = q.atoms
    assert atom.path == union_path([EdgeStep(Role("r")), EdgeStep(Role("s"))])


def test_ordered_comparison_needs_numeric_literal():
    with pytest.raises(QuerySyntaxError):
        parse_query('q(x) :- age>"old"(x)')


def test_print_parse_round_trip_extended():
    text = "q(x) :- (partOf*.<Region>)(x,__w0)"
    q = parse_query(text, extended=True)
    assert query_to_str(q) == text
    assert parse_query(query_to_str(q), extended=True) == q


def test_parse_rewriting_multiline():
    u = parse_rewriting("q(x) :- Teacher(x)\nq(x) :- teaches(x,y), Student(y)\n")
    assert len(u.branches) == 2
    assert u.answer_vars == ("x",)


# -- canonicalization ---------------------------------------------------------


def test_union_branches_sorted_and_merged():
    r, s = EdgeStep(Role("r")), EdgeStep(Role("s"))
    assert union_path([s, r]) == union_path([r, s])
    merged = union_path([NodeTest(frozenset({"B"})), r, NodeTest(frozenset({"A"}))])
    assert NodeTest(frozenset({"A", "B"})) in merged.branches


def test_star_collapses():
    r = EdgeStep(Role("r"))
    assert star_path(star_path(r)) == star_path(r)
    assert star_path(NodeTest(frozenset({"A"}))) == NodeTest(frozenset({"top"}))


def test_concat_drops_top_test():
    r = EdgeStep(Role("r"))
    assert concat_path([NodeTest(frozenset({"top"})), r]) == r


def test_inverse_path():
    r, s = EdgeStep(Role("r")), EdgeStep(Role("s"))
    path = concat_path([r, star_path(s)])
    assert inverse_path(path) == concat_path(
        [star_path(EdgeStep(Role("s", inverted=True))), EdgeStep(Role("r", inverted=True))]
    )
    # Round trip.
    assert canon_path(inverse_path(inverse_path(path))) == path


# -- containment --------------------------------------------------------------


def q1(*atoms, head=("x",)):
    return C2RPQ(head, frozenset(atoms))


def test_containment_drop_atom():
    a = q1(concept("A", "x"), edge("r", "x", "y"))
    b = q1(concept("A", "x"))
    assert contains_structurally(a, b)
    assert not contains_structurally(b, a)


def test_containment_merges_variables():
    a = q1(edge("r", "x", "y"), edge("r", "x", "z"))
    b = q1(edge("r", "x", "y"))
    assert contains_structurally(a, b)
    assert contains_structurally(b, a)


def test_containment_label_superset_direction():
    narrow = q1(concept("A", "x"))
    wide = q1(concept({"A", "B"}, "x"))
    assert contains_structurally(narrow, wide)
    assert not contains_structurally(wide, narrow)


def test_containment_node_test_bridge():
    as_role = q1(RoleAtom(NodeTest(frozenset({"A"})), "x", "w"))
    as_concept = q1(concept("A", "x"))
    assert contains_structurally(as_role, as_concept)
    assert contains_structurally(as_concept, as_role)


def test_containment_inverse_orientation():
    a = q1(edge("r", "x", "y"))
    b = q1(edge("r", "y", "x", inverted=True))
    assert contains_structurally(a, b)
    assert contains_structurally(b, a)


def test_containment_arity_mismatch():
    with pytest.raises(ValueError):
        contains_structurally(q1(concept("A", "x")), q1(concept("A", "x"), head=("x", "y")))


def test_containment_is_sound_on_small_graphs():
    # Exhaustive check over all graphs with <= 3 nodes and one role:
    # whenever containment claims q <= q2, evaluation agrees.
    cases = [
        (q1(concept("A", "x"), edge("r", "x", "y")), q1(concept("A", "x"))),
        (q1(edge("r", "x", "y"), edge("r", "x", "z")), q1(edge("r", "x", "y"))),
        (q1(edge("r", "x", "y")), q1(edge("r", "y", "x", inverted=True))),
        (q1(RoleAtom(NodeTest(frozenset({"A"})), "x", "w")), q1(concept("A", "x"))),
    ]
    nodes = ["n0", "n1", "n2"]
    pairs = [(u, v) for u in nodes for v in nodes]
    for sub, sup in cases:
        assert contains_structurally(sub, sup)
        for edge_mask in range(0, 1 << len(pairs), 7):  # stride to keep it fast
            for label_mask in range(1 << len(nodes)):
                g = make_graph(
                    {n: (["A"] if label_mask >> i & 1 else []) for i, n in enumerate(nodes)},
                    [(u, "r", v) for i, (u, v) in enumerate(pairs) if edge_mask >> i & 1],
                )
                assert eval_query(sub, g) <= eval_query(sup, g)


# -- add_subseteq ---------------------------------------------------------------


def test_add_subseteq_keeps_existing_when_contained():
    base = q1(concept("A", "x"))
    refined = q1(concept("A", "x"), edge("r", "x", "y"))
    members = add_subseteq((base,), refined)
    assert members == (base,)


def test_add_subseteq_replaces_weaker_member():
    base = q1(concept("A", "x"))
    refined = q1(concept("A", "x"), edge("r", "x", "y"))
    members = add_subseteq((refined,), base)
    assert members == (base,)


def test_add_subseteq_into_empty():
    q = q1(concept("A", "x"))
    assert add_subseteq((), q) == (q,)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=4),
       st.lists(st.booleans(), min_size=1, max_size=4))
def test_add_subseteq_is_antichain(labels, with_edges):
    members = ()
    for label, with_edge in itertools.zip_longest(labels, with_edges, fillvalue=False):
        if not label:
            continue
        atoms = [concept(label, "x")]
        if with_edge:
            atoms.append(edge("r", "x", "y"))
        members = add_subseteq(members, q1(*atoms))
    for a, b in itertools.permutations(members, 2):
        assert not contains_structurally(a, b)


# -- substitute_role -------------------------------------------------------------


def test_substitute_single_occurrence():
    q = q1(edge("r", "x", "y"), head=("x", "y"))
    e = union_path([EdgeStep(Role("r")), EdgeStep(Role("s"))])
    out = substitute_role(q, {Role("r"): e})
    assert out.atoms == frozenset({RoleAtom(e, "x", "y")})


def test_substitute_inverse_occurrence():
    q = q1(edge("r", "x", "y", inverted=True), head=("x", "y"))
    e = union_path([EdgeStep(Role("r")), EdgeStep(Role("s"))])
    out = substitute_role(q, {Role("r"): e})
    (atom,) = out.atoms
    assert atom.path == union_path(
        [EdgeStep(Role("r", inverted=True)), EdgeStep(Role("s", inverted=True))]
    )
    # Verified against evaluation on tiny graphs.
    for edges in [[("a", "r", "b")], [("a", "s", "b")], [("b", "r", "a")], [("b", "s", "a")]]:
        g = make_graph({"a": [], "b": []}, edges)
        direct = eval_query(substitute_role(q, {Role("r"): e}), g)
        expected = eval_query(
            UC2RPQ(("x", "y"), (q1(edge("r", "x", "y", inverted=True), head=("x", "y")),
                                q1(edge("s", "x", "y", inverted=True), head=("x", "y")))), g)
        assert direct == expected


def test_substitute_no_occurrence():
    q = q1(edge("t", "x", "y"), head=("x", "y"))
    e = union_path([EdgeStep(Role("r")), EdgeStep(Role("s"))])
    assert substitute_role(q, {Role("r"): e}) == q


def test_substitute_inside_nested_path():
    inner = star_path(EdgeStep(Role("r")))
    q = C2RPQ(("x",), frozenset({RoleAtom(inner, "x", "y")}))
    out = substitute_role(q, {Role("r"): union_path([EdgeStep(Role("r")), EdgeStep(Role("s"))])})
    (atom,) = out.atoms
    assert atom.path == star_path(union_path([EdgeStep(Role("r")), EdgeStep(Role("s"))]))


# -- union semantics of printing ----------------------------------------------


def test_rewriting_print_parse_round_trip():
    u = UC2RPQ(
        ("x",),
        (
            q1(concept("Teacher", "x")),
            q1(edge("teaches", "x", "y"), concept("Student", "y")),
        ),
    )
    text = rewriting_to_str(u)
    again = parse_rewriting(text)
    assert set(again.branches) == set(u.branches)


# -- values kept on path nodes ---------------------------------------------------


_UNION_TEXT = "q(x) :- (teaches.inv(mentors)|(likes|knows)*.<Student|Person>)(x,y)"


def _stored(p) -> set:
    return set(vars(p)) - {"parts", "branches", "inner"}


def test_copies_carry_fields_but_no_stored_values():
    (atom,) = parse_query(_UNION_TEXT, extended=True).atoms
    path = atom.path
    hash(path)
    inverse_path(path)
    path_to_str(path)
    assert _stored(path) == {"_hash", "_text", "_inv"}
    for other in (copy.copy(path), copy.deepcopy(path), pickle.loads(pickle.dumps(path))):
        # Not repr: a copied frozenset of labels may list them in another
        # order under some string hash seeds (29, for one).
        assert other == path
        assert _stored(other) == set()
        assert hash(other) == hash(path)
        assert path_to_str(other) == path_to_str(path)


_LEAVES = st.one_of(
    st.builds(lambda name, inverted: EdgeStep(Role(name, inverted)),
              st.sampled_from(["r", "part"]), st.booleans()),
    st.sets(st.sampled_from(["A", "Bc", TOP]), min_size=1).map(NodeTest),
)
_PATHS = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids, min_size=1, max_size=3).map(concat_path),
    st.lists(kids, min_size=1, max_size=3).map(union_path),
    kids.map(star_path)), max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_PATHS)
def test_path_size_is_the_printed_length_without_rendering(path):
    for prec in range(4):
        fresh = copy.deepcopy(path)  # a copy keeps no text or size
        assert path_size(fresh, prec) == len(path_to_str(path, prec))
        assert getattr(fresh, "_text", None) is None


_PICKLE_UNION = f"""
import pickle, sys
from ontopath.query import parse_query
(atom,) = parse_query({_UNION_TEXT!r}, extended=True).atoms
hash(atom.path)
sys.stdout.write(pickle.dumps(atom.path).hex())
"""

_FIND_UNION = f"""
import pickle, sys
from ontopath.query import parse_query
(atom,) = parse_query({_UNION_TEXT!r}, extended=True).atoms
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
assert loaded in {{atom.path}} and atom.path in {{loaded}}, "hash travelled"
print("found")
"""


def test_a_pickled_union_is_found_under_another_hash_seed():
    # String hashes differ between the two processes, so a hash pickled
    # with the union would not match the one its equal computes afresh.
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    pickled = subprocess.run([sys.executable, "-c", _PICKLE_UNION], capture_output=True,
                             text=True, check=True, env=dict(env, PYTHONHASHSEED="0"))
    found = subprocess.run([sys.executable, "-c", _FIND_UNION], input=pickled.stdout,
                           capture_output=True, text=True, env=dict(env, PYTHONHASHSEED="1"))
    assert found.returncode == 0, found.stderr
    assert found.stdout == "found\n"


def test_queries_and_atoms_keep_their_text_outside_equality():
    q = parse_query("q(x) :- B(x), r(x,y), A(x)")
    text = query_to_str(q)
    fresh = parse_query("q(x) :- A(x), B(x), r(x,y)")
    assert text == "q(x) :- A(x), B(x), r(x,y)"
    assert q == fresh and hash(q) == hash(fresh) and "_text" not in repr(q)
    assert query_to_str(fresh) == text
    for other in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert other == q and hash(other) == hash(q)
        assert query_to_str(other) == text
