"""Cross-cutting semantic properties checked on random structures."""
import random
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_graph, walk_pairs
from oracles import test_holds as reference_test_holds

from ontopath.chase import certain_answers
from ontopath.graph import compile_test, eval_query, path_pairs
from ontopath.query import (
    ANY_NODE,
    C2RPQ,
    COMPARISON_OPS,
    Concat,
    DataTest,
    EdgeStep,
    NodeTest,
    RoleAtom,
    Star,
    TestAnd,
    TestNot,
    TestOr,
    UnionPath,
    canon_path,
    concat_path,
    inverse_path,
    parse_query,
    parse_rewriting,
    path_to_str,
    query_to_str,
    rewriting_to_str,
    star_path,
    substitute_role,
    union_path,
)
from ontopath.depgraph import build_dependency_graph, rewrite_role
from ontopath.rewriter import _role_widenings, rewrite_ncq
from ontopath.tbox import Role, parse_tbox


_atoms = st.sampled_from([
    EdgeStep(Role("r")),
    EdgeStep(Role("s")),
    EdgeStep(Role("r", inverted=True)),
    NodeTest(frozenset({"A"})),
    NodeTest(frozenset({"A", "B"})),
])

_paths = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(lambda a, b: concat_path([a, b]), inner, inner),
        st.builds(lambda a, b: union_path([a, b]), inner, inner),
        st.builds(star_path, inner),
    ),
    max_leaves=5,
)


@settings(max_examples=120, deadline=None)
@given(_paths, st.integers(0, 2**31 - 1))
def test_canonicalization_preserves_semantics(path, seed):
    g = random_graph(random.Random(seed), max_nodes=4)
    assert path_pairs(canon_path(path), g) == path_pairs(path, g)


def _is_canonical(p) -> bool:
    """The shape the smart constructors promise, checked without them."""
    if isinstance(p, Concat):
        return len(p.parts) > 1 and all(
            not isinstance(x, Concat) and x != ANY_NODE and _is_canonical(x)
            for x in p.parts)
    if isinstance(p, UnionPath):
        branches = list(p.branches)
        return (len(branches) > 1
                and len(set(branches)) == len(branches)
                and sum(isinstance(b, NodeTest) for b in branches) <= 1
                and branches == sorted(branches, key=path_to_str)
                and all(not isinstance(b, UnionPath) and _is_canonical(b)
                        for b in branches))
    if isinstance(p, Star):
        return (not isinstance(p.inner, (Star, NodeTest))
                and _is_canonical(p.inner))
    return True


@settings(max_examples=200, deadline=None)
@given(_paths, _paths, _paths,
       st.sampled_from([Role("r"), Role("r", inverted=True), Role("s")]))
def test_constructed_paths_are_canonical(path, other, replacement, role):
    # The rewriter never re-canonicalizes: every path the constructors,
    # `inverse_path` and `substitute_role` build must already be canonical.
    for p in (path, inverse_path(path)):
        assert _is_canonical(p), path_to_str(p)
        assert canon_path(p) == p, path_to_str(p)
    assert union_path([path, other]) == union_path([other, path])
    assert (concat_path([concat_path([path, other]), replacement])
            == concat_path([path, concat_path([other, replacement])]))
    q = C2RPQ(("x",), frozenset({RoleAtom(path, "x", "y"),
                                 RoleAtom(other, "y", "z")}))
    for atom in substitute_role(q, {role: replacement}).atoms:
        assert _is_canonical(atom.path), path_to_str(atom.path)
        assert canon_path(atom.path) == atom.path, path_to_str(atom.path)


_roles = st.sampled_from([Role(name, inverted) for name in "rst"
                          for inverted in (False, True)])
_wide_paths = st.recursive(
    st.one_of(st.builds(EdgeStep, _roles), st.just(NodeTest(frozenset({"A"})))),
    lambda inner: st.one_of(
        st.builds(lambda a, b: concat_path([a, b]), inner, inner),
        st.builds(lambda a, b: union_path([a, b]), inner, inner),
        st.builds(star_path, inner),
    ),
    max_leaves=6,
)


def _substitute_one_role(q, role, replacement):
    """Single-role substitution as the rewriter applied it, one role at a time."""
    inv = inverse_path(replacement)

    def subst(p):
        if isinstance(p, EdgeStep):
            if p.role.name != role.name:
                return p
            return replacement if p.role.inverted == role.inverted else inv
        if isinstance(p, Concat):
            return concat_path([subst(x) for x in p.parts])
        if isinstance(p, UnionPath):
            return union_path([subst(x) for x in p.branches])
        if isinstance(p, Star):
            return star_path(subst(p.inner))
        return p

    return C2RPQ(q.answer_vars, frozenset(
        RoleAtom(subst(a.path), a.src, a.dst) for a in q.atoms))


@settings(max_examples=200, deadline=None)
@given(_wide_paths, _wide_paths, _wide_paths,
       st.lists(st.tuples(_roles, _roles), max_size=4))
def test_one_walk_widening_equals_sequential_substitution(path, other, shared, hierarchy):
    # Subrole unions, inverse subroles included, substituted all at once
    # must give what substituting one role name at a time in sorted order
    # gave; a memo shared by two queries must not change either result.
    t = parse_tbox("\n".join(f"{sub} <= {sup}" for sub, sup in hierarchy))
    g = build_dependency_graph(t)
    widenings = _role_widenings(g)
    queries = [
        C2RPQ(("x",), frozenset({RoleAtom(path, "x", "y"), RoleAtom(shared, "y", "z")})),
        C2RPQ(("x",), frozenset({RoleAtom(other, "x", "y"), RoleAtom(shared, "x", "z")})),
    ]
    memo = {}
    for q in queries:
        expected = q
        for name in "rst":
            replacement = rewrite_role(Role(name), g)
            if replacement != EdgeStep(Role(name)):
                expected = _substitute_one_role(expected, Role(name), replacement)
        assert substitute_role(q, widenings) == expected
        assert substitute_role(q, widenings, memo) == expected


@settings(max_examples=120, deadline=None)
@given(_paths, st.integers(0, 2**31 - 1))
def test_inverse_path_reverses_the_relation(path, seed):
    g = random_graph(random.Random(seed), max_nodes=4)
    forward = path_pairs(path, g)
    backward = path_pairs(inverse_path(path), g)
    assert backward == {(v, u) for (u, v) in forward}


def _rebuild(p):
    """An equal path made of new nodes, built by the plain constructors."""
    if isinstance(p, Concat):
        return Concat(tuple(_rebuild(x) for x in p.parts))
    if isinstance(p, UnionPath):
        return UnionPath(tuple(_rebuild(x) for x in p.branches))
    if isinstance(p, Star):
        return Star(_rebuild(p.inner))
    if isinstance(p, EdgeStep):
        return EdgeStep(Role(p.role.name, p.role.inverted))
    return NodeTest(frozenset(p.labels))


def _render(p, prec=0):
    """`path_to_str` recomputed from the fields, reading no stored text."""
    if isinstance(p, EdgeStep):
        return str(p.role)
    if isinstance(p, NodeTest):
        return "<" + "|".join(sorted(p.labels)) + ">"
    if isinstance(p, Star):
        s, this = _render(p.inner, 3) + "*", 3
    elif isinstance(p, Concat):
        s, this = ".".join(_render(x, 2) for x in p.parts), 2
    else:
        s, this = "|".join(_render(x, 1) for x in p.branches), 1
    return f"({s})" if this < prec else s


def _inverse(p):
    """`inverse_path` recomputed from the fields, reading no stored inverse."""
    if isinstance(p, EdgeStep):
        return EdgeStep(p.role.inverse())
    if isinstance(p, Concat):
        return concat_path([_inverse(x) for x in reversed(p.parts)])
    if isinstance(p, UnionPath):
        return union_path([_inverse(x) for x in p.branches])
    if isinstance(p, Star):
        return star_path(_inverse(p.inner))
    return p


def _composites(p):
    if isinstance(p, Concat):
        yield p
        for x in p.parts:
            yield from _composites(x)
    elif isinstance(p, UnionPath):
        yield p
        for x in p.branches:
            yield from _composites(x)
    elif isinstance(p, Star):
        yield p
        yield from _composites(p.inner)


@settings(max_examples=200, deadline=None)
@given(_wide_paths, st.integers(0, 4))
def test_stored_text_matches_a_fresh_render(path, prec):
    # Union branches of `path` kept their text when `union_path` sorted
    # them; an equal path of new nodes renders afresh.
    fresh = _rebuild(path)
    assert path_to_str(path, prec) == _render(fresh, prec)
    for node in _composites(path):
        assert path_to_str(node) == _render(_rebuild(node))


@settings(max_examples=200, deadline=None)
@given(_wide_paths)
def test_stored_inverse_matches_the_recursive_inverse(path):
    assert inverse_path(path) == _inverse(_rebuild(path))
    for node in _composites(path):
        assert inverse_path(node) is inverse_path(node)
        assert inverse_path(node) == _inverse(_rebuild(node))


@settings(max_examples=200, deadline=None)
@given(_wide_paths)
def test_inverse_of_a_canonical_path_is_an_involution(path):
    assert inverse_path(inverse_path(path)) == path
    assert inverse_path(inverse_path(_rebuild(path))) == path


@settings(max_examples=200, deadline=None)
@given(_wide_paths)
def test_equal_distinct_nodes_hash_equally(path):
    first, second = _rebuild(path), _rebuild(path)
    hash(first)  # stores the hashes of first's nodes, not of second's
    for a, b in zip(_composites(first), _composites(second)):
        assert a is not b and a == b
        assert hash(a) == hash(b)
        # The value the generated dataclass hash gives, so that iteration
        # orders of sets and dicts holding paths stay as they were.
        assert hash(a) == hash(tuple(getattr(a, f.name) for f in fields(a)))
    assert hash(first) == hash(second) == hash(path)
    assert second in {first}


@settings(max_examples=120, deadline=None)
@given(_paths, st.integers(0, 2**31 - 1))
def test_engine_matches_walk_oracle(path, seed):
    g = random_graph(random.Random(seed), max_nodes=4)
    assert path_pairs(path, g) == walk_pairs(path, g, unroll=len(g.labels))


@settings(max_examples=120, deadline=None)
@given(_paths, st.integers(0, 2**31 - 1))
def test_dangling_atoms_give_the_projection_of_the_walk_oracle(path, seed):
    # An endpoint that is no answer variable and occurs in no other atom
    # is evaluated as a node set; it must still be the pairs' projection.
    g = random_graph(random.Random(seed), max_nodes=4)
    pairs = walk_pairs(path, g, unroll=len(g.labels))
    sources = C2RPQ(("x",), frozenset({RoleAtom(path, "x", "w")}))
    targets = C2RPQ(("y",), frozenset({RoleAtom(path, "w", "y")}))
    assert eval_query(sources, g) == {(u,) for u, _ in pairs}
    assert eval_query(targets, g) == {(v,) for _, v in pairs}


_values = st.one_of(st.booleans(), st.text("ab1", max_size=2),
                    st.integers(-3, 3), st.floats(-3, 3))
_numbers = st.one_of(st.booleans(), st.integers(-3, 3), st.floats(-3, 3))
_data_tests = st.sampled_from(sorted(COMPARISON_OPS)).flatmap(
    lambda op: st.builds(DataTest, st.sampled_from(["a", "b", "c"]), st.just(op),
                         _values if op in ("=", "!=") else _numbers))
_test_expressions = st.recursive(
    _data_tests,
    lambda inner: st.one_of(st.builds(TestNot, inner),
                            st.builds(TestAnd, inner, inner),
                            st.builds(TestOr, inner, inner)),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(_test_expressions, st.dictionaries(st.sampled_from(["a", "b"]), _values))
def test_compiled_data_tests_match_the_reference_interpreter(test, props):
    # Key "c" is never present, and "a"/"b" only sometimes.
    assert compile_test(test)(props) == reference_test_holds(test, props)


_QUERY_SHAPES = [
    "q() :- A(x)",
    "q() :- r(x,y), B(y)",
    "q() :- r(x,y), s(y,z), C(z)",
    "q(x,y) :- r(x,y)",
    "q(x,y) :- r(x,y), s(y,z), A(z)",
    "q(x,z) :- r(x,y), inv(s)(z,y)",
    "q(x) :- r(x,y), r(x,z), B(y), C(z)",
    "q(x) :- r(x,y), inv(r)(y,z), A(z)",
]


def _varied_tbox(rng):
    names = ["A", "B", "C", "D"]
    roles = ["r", "s"]
    lines = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.random()
        role = rng.choice(roles)
        role_term = f"inv({role})" if rng.random() < 0.3 else role
        if kind < 0.25:
            a, b = rng.sample(names, 2)
            lines.append(f"{a} <= {b}")
        elif kind < 0.4:
            a, b = rng.sample(names, 2)
            lines.append(f"{a} & {b} <= {rng.choice(names)}")
        elif kind < 0.65:
            filler = "top" if rng.random() < 0.2 else rng.choice(names)
            lines.append(f"exists {role_term} . {filler} <= {rng.choice(names)}")
        elif kind < 0.9:
            filler = "top" if rng.random() < 0.2 else rng.choice(names)
            lines.append(f"{rng.choice(names)} <= exists {role_term} . {filler}")
        else:
            lines.append(f"{rng.choice(roles)} <= {rng.choice(roles)}")
    return parse_tbox("\n".join(lines))


def test_rewriting_sound_and_complete_for_varied_answer_arities():
    """Boolean and binary-answer queries stress the clipping paths that
    introduce fresh attachments or unify several of them."""
    rng = random.Random(314159)
    for i in range(120):
        t = _varied_tbox(rng)
        q = parse_query(rng.choice(_QUERY_SHAPES))
        g = random_graph(rng, max_nodes=4, roles=("r", "s"),
                         labels=("A", "B", "C", "D"), edge_prob=0.3)
        rewriting = rewrite_ncq(q, t).to_uc2rpq()
        got = eval_query(rewriting, g)
        assert got <= certain_answers(q, g, t, depth=5), (
            i, str(t), query_to_str(q))
        missing = certain_answers(q, g, t, depth=3) - got
        assert not missing, (i, str(t), query_to_str(q), sorted(missing))
        # Every produced branch survives a print/parse round trip.
        reparsed = parse_rewriting(rewriting_to_str(rewriting))
        assert set(reparsed.branches) == set(rewriting.branches)
