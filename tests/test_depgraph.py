import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from corpus import NAMES, ROLES, ontology_tbox, random_instance, random_tbox
from oracles import automaton_accepts, make_graph, random_graph

from ontopath import depgraph
from ontopath.chase import chase
from ontopath.depgraph import (
    build_dependency_graph,
    dump_dependency_graph,
    rewr_concept,
    rewrite_role,
    witness,
)
from ontopath.errors import BudgetExceededError
from ontopath.graph import eval_query, path_pairs
from ontopath.query import (
    C2RPQ,
    EdgeStep,
    NodeTest,
    RoleAtom,
    parse_query,
    path_to_str,
    rewriting_to_str,
)
from ontopath.rewriter import rewrite_ncq
from ontopath.tbox import TOP, Role, parse_tbox, validate_fragment
from oracles import unroll_stars


def dep(text):
    return build_dependency_graph(parse_tbox(text))


# -- construction -------------------------------------------------------------


def test_eps_edge_from_atomic_inclusion():
    g = dep("B <= A")
    assert ("A", "B") in g.eps_edges


def test_role_edge_from_exists_left():
    g = dep("exists r . C <= A")
    assert ("A", Role("r"), "C") in g.role_edges


def test_conj_hyperedge():
    g = dep("B1 & B2 <= A")
    assert ("A", frozenset({"B1", "B2"})) in g.conj_edges


def test_dump_format():
    g = dep("B <= A\nexists r . C <= A\nB1 & B2 <= A")
    assert dump_dependency_graph(g) == (
        "eps A <- B\nrole A <-[r] C\nconj A <- {B1,B2}\n"
    )


# -- witness --------------------------------------------------------------------


def test_witness_trivial():
    g = dep("")
    assert witness("A", g) == (frozenset({"A"}),)


def test_witness_conjunction():
    g = dep("Student & Employee <= TA")
    sets = witness("TA", g)
    assert frozenset({"TA"}) in sets
    assert frozenset({"Student", "Employee"}) in sets
    # Chase-verified: the conjunction entails TA.
    graph = make_graph({"a": ["Student", "Employee"]})
    chased = chase(graph, g.tbox, depth=0)
    assert chased.has_label("a", "TA")


def test_witness_chains_through_subsumption():
    """Witness sets expand conjunctions, through nested ones and through the
    conjunctions of entailed subsumees; a subsumee gets no set of its own,
    because the concept path already matches it."""
    g = dep("B <= A\nC & D <= B\nB & E <= F")
    sets = witness("A", g)
    assert sets == (frozenset({"A"}), frozenset({"C", "D"}))
    for s in sets:
        graph = make_graph({"a": sorted(s)})
        assert chase(graph, g.tbox, depth=1).has_label("a", "A")
    sets = witness("F", g)
    assert sets == (frozenset({"F"}), frozenset({"B", "E"}),
                    frozenset({"C", "D", "E"}))
    for s in sets:
        graph = make_graph({"a": sorted(s)})
        assert chase(graph, g.tbox, depth=1).has_label("a", "F")
    graph = make_graph({"a": ["B"]})
    assert ("a", "a") in path_pairs(rewr_concept("A", g), graph)


def test_witness_is_antichain():
    """No set's members entail every member of another set: its branch
    would be contained in the other's."""
    g = dep("B & C <= A")
    assert witness("A", g) == (frozenset({"A"}), frozenset({"B", "C"}))
    # B alone entails A, so {B, C} adds nothing to {A}.
    g = dep("B & C <= A\nB <= A")
    assert witness("A", g) == (frozenset({"A"}),)
    g = dep("B & C <= A\nD & E <= A\nD <= B\nE <= C\nF & G <= D")
    sets = witness("A", g)
    # {D, E} is dropped for {B, C} and {E, F, G} for {C, F, G}; {C, F, G}
    # stays, because F and G entail B only together, not each on its own.
    assert sets == (frozenset({"A"}), frozenset({"B", "C"}),
                    frozenset({"C", "F", "G"}))
    for s in sets:
        for other in sets:
            if other != s:
                assert not all(any(g.entails_subsumption(m, o) for m in s)
                               for o in other)


def test_witness_keeps_start_set():
    """{A} entails both B and C, so its branch is contained in that of
    {B, C}; it is kept all the same, so that A(x) stays one path atom."""
    g = dep("A <= B\nA <= C\nB & C <= A")
    assert witness("A", g) == (frozenset({"A"}), frozenset({"B", "C"}))


def test_witness_cap_raises():
    lines = [f"B{i} & C{i} <= A" for i in range(12)]
    g = dep("\n".join(lines))
    assert len(witness("A", g, cap=13)) == 13
    with pytest.raises(BudgetExceededError):
        witness("A", g, cap=4)


def test_witness_keeps_results_on_the_graph_but_raises_every_time():
    lines = [f"B{i} & C{i} <= A" for i in range(12)]
    g = dep("\n".join(lines))
    sets = witness("A", g, cap=13)
    assert witness("A", g, cap=13) is sets
    assert witness("A", dep("\n".join(lines)), cap=13) == sets
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            witness("A", g, cap=4)
    assert witness("B0", g) == (frozenset({"B0"}),)


# -- rewr_concept ----------------------------------------------------------------


def test_rewr_concept_base_case():
    g = dep("")
    assert rewr_concept("B", g) == NodeTest(frozenset({"B"}))


def test_an_underived_concept_is_its_own_node_test_and_witness_set():
    g = dep("exists r . C <= A\nB <= A\nC & D <= E")
    for name in ("B", "C", "D"):
        assert rewr_concept(name, g) == NodeTest(frozenset({name}))
        assert witness(name, g) == (frozenset({name}),)
    assert path_to_str(rewr_concept("A", g)) == "<A|B>|r.<C>"


def test_rewr_concept_union_of_tests_and_role_branch():
    g = dep("GradStudent <= Student\nexists enrolledIn . Course <= Student")
    path = rewr_concept("Student", g)
    assert path_to_str(path) == "<GradStudent|Student>|enrolledIn.<Course>"


def test_rewr_concept_recursive_axiom_yields_star():
    g = dep("exists partOf . Region <= Region")
    path = rewr_concept("Region", g)
    assert path_to_str(path) == "partOf*.<Region>"


def test_rewr_concept_top_filler_branch_ends_after_edge():
    g = dep("exists hasPart . top <= Assembly")
    path = rewr_concept("Assembly", g)
    assert path_to_str(path) == "<Assembly>|hasPart"


def test_rewr_concept_universal_concept_accepts_everything():
    g = dep("top <= Thing")
    path = rewr_concept("Thing", g)
    pairs = path_pairs(path, make_graph({"a": [], "b": []}))
    assert ("a", "a") in pairs and ("b", "b") in pairs


def test_rewr_concept_soundness_via_chase():
    """Any pair matched by rewr_concept's path certifies the concept at the
    source node, per the chase."""
    tboxes = [
        "GradStudent <= Student\nexists enrolledIn . Course <= Student",
        "exists partOf . Region <= Region",
        "B <= A\nexists r . B <= B\nexists s . top <= B",
        "exists r . exists s . B <= A",
        "A <= exists r . B\nexists r . B <= C",  # derived subsumption A <= C
    ]
    rng = random.Random(3)
    for text in tboxes:
        g = dep(text)
        for name in [n for n in g.nodes if n != "top" and not n.startswith("__nf")]:
            path = rewr_concept(name, g)
            for _ in range(8):
                graph = random_graph(
                    rng, max_nodes=5,
                    roles=("r", "s", "partOf", "enrolledIn"),
                    labels=("A", "B", "C", "Student", "GradStudent", "Course", "Region"),
                    edge_prob=0.15,
                )
                chased = chase(graph, g.tbox, depth=len(g.nodes))
                for src, _dst in path_pairs(path, graph):
                    assert chased.has_label(src, name), (text, name, src)


def test_rewr_concept_completeness_for_eps_and_role_derivations():
    """Data-level derivations using only subsumption and exists-left axioms
    are all captured by the path."""
    text = "GradStudent <= Student\nexists enrolledIn . Course <= Student"
    g = dep(text)
    graph = make_graph(
        {"a": [], "b": ["Course"], "c": ["GradStudent"], "d": ["Student"]},
        [("a", "enrolledIn", "b")],
    )
    path = rewr_concept("Student", g)
    sources = {u for u, _ in path_pairs(path, graph)}
    chased = chase(graph, g.tbox, depth=0)
    derived = {n for n in graph.nodes if chased.has_label(n, "Student")}
    assert sources == derived == {"a", "c", "d"}


def test_rewr_concept_star_boundedness():
    """Unrolling stars to the graph size loses no matches at desk scale."""
    g = dep("exists partOf . Region <= Region\nexists r . Region <= Hub")
    rng = random.Random(17)
    for name in ("Region", "Hub"):
        path = rewr_concept(name, g)
        for _ in range(10):
            graph = random_graph(rng, max_nodes=5, roles=("partOf", "r"),
                                 labels=("Region",), edge_prob=0.25)
            unrolled = unroll_stars(path, max(len(graph.labels), len(g.nodes)))
            assert path_pairs(path, graph) == path_pairs(unrolled, graph)


def test_rewr_concept_chain_of_length_three():
    g = dep("exists partOf . Region <= Region")
    graph = make_graph(
        {"a": [], "b": [], "c": [], "d": ["Region"]},
        [("a", "partOf", "b"), ("b", "partOf", "c"), ("c", "partOf", "d")],
    )
    q = C2RPQ(("x",), frozenset({RoleAtom(rewr_concept("Region", g), "x", "y")}))
    assert eval_query(q, graph) == {("a",), ("b",), ("c",), ("d",)}


def test_rewr_concept_conjunction_at_depth_linearized():
    """A conjunction firing below a role edge is matched through node-test
    sequences when the conjuncts are label-certified."""
    g = dep("exists r . C <= A\nD & E <= C")
    graph = make_graph({"v": [], "w": ["D", "E"]}, [("v", "r", "w")])
    path = rewr_concept("A", g)
    assert ("v", "w") in path_pairs(path, graph)
    chased = chase(graph, g.tbox, depth=0)
    assert chased.has_label("v", "A")


# -- rewrite_role -----------------------------------------------------------------


def test_rewrite_role_reflexive():
    g = dep("")
    assert rewrite_role(Role("r"), g) == EdgeStep(Role("r"))


def test_rewrite_role_hierarchy():
    g = dep("mentors <= teaches")
    path = rewrite_role(Role("teaches"), g)
    assert path == parse_branches("mentors|teaches")
    # Chase check: a mentors edge entails a teaches edge.
    chased = chase(make_graph({"a": [], "b": []}, [("a", "mentors", "b")]),
                   g.tbox, depth=0)
    assert ("a", "teaches", "b") in chased.edges


def test_rewrite_role_inverse_closure():
    g = dep("inv(employs) <= worksFor")
    assert rewrite_role(Role("worksFor"), g) == parse_branches("inv(employs)|worksFor")
    assert rewrite_role(Role("worksFor", inverted=True), g) == parse_branches(
        "employs|inv(worksFor)")
    chased = chase(make_graph({"a": [], "b": []}, [("a", "employs", "b")]),
                   g.tbox, depth=0)
    assert ("b", "worksFor", "a") in chased.edges


def test_rewrite_role_transitive():
    g = dep("a2 <= a1\na1 <= a0")
    path = rewrite_role(Role("a0"), g)
    assert path == parse_branches("a0|a1|a2")


def parse_branches(text):
    from ontopath.query import parse_query

    q = parse_query(f"q(x,y) :- ({text})(x,y)", extended=True)
    (atom,) = q.atoms
    return atom.path


# -- subsumers / witness labels ----------------------------------------------------


def test_subsumers_match_single_node_chase():
    texts = [
        "A <= B\nB <= C",
        "A <= exists r . B\nexists r . B <= C",
        "A <= exists r . B\nexists inv(r) . A <= D\nexists r . D <= E",
        "A <= exists r . B\nB <= exists s . C\nexists s . C <= F\nexists r . F <= G",
        "r <= q\nA <= exists r . B\nexists q . B <= H",
    ]
    for text in texts:
        g = dep(text)
        t = g.tbox
        for name in [n for n in g.nodes if n != "top" and not n.startswith("__nf")]:
            chased = chase(make_graph({"n": [name]}), t, depth=len(g.nodes) + 1)
            derived = {l for l in chased.labels["n"] if not l.startswith("__nf")}
            computed = {l for l in g.subsumers(name) if l != "top" and not l.startswith("__nf")}
            assert computed == derived, (text, name, computed, derived)


def test_entails_subsumption():
    g = dep("A <= exists r . B\nexists r . B <= C\nC <= D")
    assert g.entails_subsumption("A", "C")
    assert g.entails_subsumption("A", "D")
    assert g.entails_subsumption("A", "top")
    assert not g.entails_subsumption("C", "A")


def test_witness_labels_cover_parent_edge_effects():
    g = dep("A <= exists r . B\nexists inv(r) . A <= D")
    ((idx, _ax),) = g.ex_right
    assert "D" in g.witness_labels(idx)


def test_a_holder_reads_a_witness_below_itself():
    # The witness of A4's axiom hangs from X, which also carries A5: it
    # gets C from there, and X gets D back.  Neither A4 nor A5 alone does.
    g = dep("X <= A4\nX <= A5\nA4 <= exists r . B\nexists inv(r) . A5 <= C\n"
            "exists r . C <= D")
    assert g.subsumers("X") == {"X", "A4", "A5", "D", TOP}
    assert "D" not in g.subsumers("A4") | g.subsumers("A5")
    assert g.derived_conj_edges == (("D", frozenset({"A4", "A5"})),)
    assert witness("D", g) == (frozenset({"D"}), frozenset({"A4", "A5"}))


def test_parent_sets_are_the_minimal_label_sets_that_work():
    # The witness gets K from F3 alone, or from F1 and F2 together; F0 and
    # the eleven Hk give it nothing K needs.
    t = parse_tbox("A <= exists r . B\nexists inv(r) . F1 <= C1\nexists inv(r) . F2 <= C2\n"
                   "C1 & C2 <= K\nexists inv(r) . F3 <= K\nexists inv(r) . F0 <= C0\n"
                   + "".join(f"exists inv(r) . H{k} <= C0\n" for k in range(11)))
    g = build_dependency_graph(t)
    ((i, _ax),) = g.ex_right
    k = frozenset({frozenset({"K"})})
    assert g.parent_sets(i, k) == (frozenset({"A", "F3"}), frozenset({"A", "F1", "F2"}))
    assert g.parent_sets(i, frozenset({frozenset({"B"})})) == (frozenset({"A"}),)
    assert g.parent_sets(i, frozenset({frozenset({"Z"})})) == ()
    assert len(g.parent_sets(i, frozenset({frozenset({"C0"})}))) == 12
    with pytest.raises(BudgetExceededError):
        build_dependency_graph(t, witness_cap=11).parent_sets(i, frozenset({frozenset({"C0"})}))


def test_labels_and_witness_sets_match_the_one_node_chase():
    """On the acceptance sweep's TBoxes, with each label set on a node of
    its own: `subsumers(a)` is what the chase gives {a}, every witness set
    of B chases to B, and every 2- or 3-name set that chases to B covers
    some witness set of B.  The parent's witness sets missed four names
    here, which only conjunctions derived through a witness entail."""
    rng = random.Random(20250811)
    derived = 0
    for _ in range(500):
        g = build_dependency_graph(random_instance(rng)[0])
        names = [n for n in g.nodes if n != TOP]
        sets = [frozenset(s) for size in (1, 2, 3) for s in combinations(names, size)]
        sets += [w for name in names for w in witness(name, g)]
        sets = list(dict.fromkeys(sets))
        graph = make_graph({f"n{i}": sorted(s) for i, s in enumerate(sets)})
        chased = chase(graph, g.tbox, depth=4)
        labels = {s: chased.labels[f"n{i}"] | {TOP} for i, s in enumerate(sets)}
        for name in names:
            assert g.subsumers(name) == labels[frozenset({name})], name
            for w in witness(name, g):
                assert name in labels[w], (name, w)
        for s in sets:
            for b in labels[s] - {TOP} if len(s) > 1 else ():
                assert any(all(any(g.entails_subsumption(m, o) for m in s) for o in w)
                           for w in witness(b, g)), (s, b)
        derived += bool(g.derived_conj_edges)
    assert derived == 3


def _witness_start(g, i, parent):
    """Axiom i's witness below a parent carrying `parent`: its filler and
    what it reads back from the parent through the edge between them."""
    ax = g.tbox.normalized[i]
    return frozenset({ax.filler} | {
        sup for sup, role, filler in g.role_edges
        if g.roles.is_subrole(ax.role.inverse(), role) and filler in parent})


def _rescanned_closure(g, labels, read):
    """The label closure as a fixpoint that rescans every rule until none
    fires; `read(start)` gives the labels of the witness context `start`."""
    out = set(labels) | {TOP}
    changed = True
    while changed:
        changed = False
        new = {sup for sup, sub in g.eps_edges if sub in out}
        new |= {sup for sup, parts in g.conj_edges if parts <= out}
        for i, ax in g.ex_right:
            if ax.lhs in out:
                child = read(_witness_start(g, i, out))
                new |= {sup for sup, role, filler in g.role_edges
                        if g.roles.is_subrole(ax.role, role) and filler in child}
        if not new <= out:
            out |= new
            changed = True
    return out


# The holder gap: X reads a witness of A4's axiom that gets C from X's A5.
HOLDER = "X <= A4\nX <= A5\nA4 <= exists r . B\nexists inv(r) . A5 <= C\nexists r . C <= D"


def test_worklist_label_closure_matches_the_rescanning_fixpoint():
    rng = random.Random(2718)
    for t in [parse_tbox(HOLDER)] + [random_tbox(rng) for _ in range(150)]:
        g = build_dependency_graph(t)
        for name in sorted(g.nodes):
            assert g.subsumers(name) == _rescanned_closure(g, {name}, g._closure)
        for i, ax in g.ex_right:
            start = _witness_start(g, i, g.subsumers(ax.lhs))
            assert g.witness_labels(i) == _rescanned_closure(g, start, g._closure)


def _round_robin_completion(g):
    """Subsumers and witness labels by plain rounds: every context closed by
    the rescanning fixpoint, over the sets of the round so far, and every
    witness context a closure reads added, until a round changes nothing."""
    contexts = {frozenset({name}): {name, TOP} for name in g.nodes}
    changed = True

    def read(start):
        nonlocal changed
        if start not in contexts:
            contexts[start], changed = set(start) | {TOP}, True
        return contexts[start]

    while changed:
        changed = False
        for ctx in list(contexts):
            closed = _rescanned_closure(g, contexts[ctx], read)
            changed |= closed != contexts[ctx]
            contexts[ctx] = closed
    subsumers = {name: contexts[frozenset({name})] for name in g.nodes}
    witnessed = {i: read(_witness_start(g, i, subsumers[ax.lhs])) for i, ax in g.ex_right}
    return subsumers, witnessed


def _completion_corpus():
    yield parse_tbox(HOLDER)
    rng = random.Random(1618)
    for _ in range(500):
        yield random_tbox(rng)
    for n in range(16, 33, 4):
        for seed in range(5):
            yield parse_tbox(ontology_tbox(n, seed))


def test_semi_naive_completion_matches_round_robin_rounds():
    for t in _completion_corpus():
        g = build_dependency_graph(t)
        subsumers, witnessed = _round_robin_completion(g)
        assert {name: g.subsumers(name) for name in g.nodes} == subsumers
        assert {i: g.witness_labels(i) for i, _ in g.ex_right} == witnessed


def test_completion_feeds_a_parent_label_back_to_its_witness():
    # The witness gains E only once closed, which gives A the label C
    # through the edge, and C on the parent gives the witness D.
    g = dep("A <= exists r . B\nB <= E\nexists r . E <= C\nexists inv(r) . C <= D")
    ((i, _ax),) = g.ex_right
    assert {"C"} <= g.subsumers("A")
    assert {"B", "E", "D"} <= g.witness_labels(i)


def test_concept_paths_start_where_the_automaton_accepts():
    rng = random.Random(4242)
    for _ in range(120):
        g = build_dependency_graph(random_tbox(rng))
        graph = random_graph(rng, max_nodes=5, roles=tuple(ROLES),
                             labels=tuple(NAMES), edge_prob=0.2)
        for name in sorted(g.nodes):
            starts = {u for u, _ in path_pairs(rewr_concept(name, g), graph)}
            assert starts == automaton_accepts(g, name, graph), name


@pytest.mark.parametrize("n, seed, limit", [(24, 9, 3000), (64, 8, 10_000)])
def test_least_weight_order_keeps_ontology_paths_small(n, seed, limit):
    # Eliminating deepest first gave 8563 and 80068 characters here.
    u = rewrite_ncq(parse_query("q(x) :- A0(x)"), parse_tbox(ontology_tbox(n, seed)))
    assert len(rewriting_to_str(u.to_uc2rpq())) < limit


def test_regex_sizes_are_the_text_lengths_of_their_expressions():
    rng = random.Random(99)
    exprs = [EdgeStep(Role("r")), EdgeStep(Role("s", True)), NodeTest(frozenset({"A"}))]
    for _ in range(40):
        g = build_dependency_graph(random_tbox(rng))
        exprs.extend(rewr_concept(name, g) for name in sorted(g.nodes))

    def regex():
        expr = rng.choice(exprs)
        return depgraph._r(rng.random() < 0.3, expr)

    for _ in range(2000):
        a, b = regex(), regex()
        for r in (depgraph._r_union(a, b), depgraph._r_concat(a, b), depgraph._r_star(a)):
            assert r[2] == len(path_to_str(r[1])), r


@pytest.mark.parametrize("text, name, path", [
    ("exists partOf . Region <= Region", "Region", "partOf*.<Region>"),  # one state
    ("exists r . B <= A\nexists s . A <= B", "A", "(r.s)*.(<A>|r.<B>)"),
])
def test_path_size_cap_raises_naming_the_concept(monkeypatch, text, name, path):
    t = parse_tbox(text)
    monkeypatch.setattr(depgraph, "MAX_PATH_SIZE", len(path))
    assert path_to_str(rewr_concept(name, build_dependency_graph(t))) == path
    monkeypatch.setattr(depgraph, "MAX_PATH_SIZE", len(path) - 1)
    g = build_dependency_graph(t)
    for _ in range(2):  # nothing over the cap is kept on the graph
        with pytest.raises(BudgetExceededError,
                           match=f"{name!r} exceeds {len(path) - 1} characters"):
            rewr_concept(name, g)


_ONTOLOGY_INSTANCE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from corpus import ontology_tbox
from ontopath import BudgetExceededError, parse_query, parse_tbox, rewrite_ncq
from ontopath.query import rewriting_to_str
t = parse_tbox(ontology_tbox(48, 7))
try:
    u = rewrite_ncq(parse_query("q(x) :- A0(x)"), t).to_uc2rpq()
except BudgetExceededError:
    print("over budget")
else:
    print(len(rewriting_to_str(u)))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_ontology_instance_rewrites_small_within_a_memory_limit():
    # Deepest-first elimination turned this validated 72-axiom TBox into
    # about 490 million characters; it must now fit, or at worst raise.
    validate_fragment(parse_tbox(ontology_tbox(48, 7)))
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    proc = subprocess.run([sys.executable, "-c", _ONTOLOGY_INSTANCE], capture_output=True,
                          text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.strip()
    assert out == "over budget" or int(out) < 10 ** 5, out
