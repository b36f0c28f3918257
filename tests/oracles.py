"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the production code paths they check: path
evaluation is done by unrolling stars and matching walks pointwise, query
answers by enumerating every assignment of the variables, and entailment
by a structural chase that applies raw (unnormalized) axioms directly.
"""
from __future__ import annotations

import itertools
import random

from ontopath.graph import PropertyGraph, test_holds
from ontopath.query import (
    ANY_NODE,
    Concat,
    ConceptAtom,
    EdgeStep,
    NodeTest,
    PropTest,
    RoleAtom,
    Star,
    UnionPath,
    concat_path,
    union_path,
)
from ontopath.tbox import (
    And,
    ConceptInclusion,
    Exists,
    Name,
    RoleInclusion,
    Top,
)


def make_graph(nodes, edges=(), node_props=None, edge_props=None) -> PropertyGraph:
    """Compact graph builder: nodes maps id -> iterable of labels."""
    g = PropertyGraph()
    for node_id, labels in nodes.items():
        g.add_node(node_id, labels, (node_props or {}).get(node_id))
    for src, label, dst in edges:
        g.add_edge(src, label, dst, (edge_props or {}).get((src, dst)))
    return g


# ---------------------------------------------------------------------------
# Walk-based path oracle


def unroll_stars(path, k):
    """Replace every star with the finite union of its first k powers."""
    if isinstance(path, Star):
        inner = unroll_stars(path.inner, k)
        powers = [ANY_NODE]
        for i in range(1, k + 1):
            powers.append(Concat(tuple([inner] * i)) if i > 1 else inner)
        return union_path(powers)
    if isinstance(path, Concat):
        return concat_path([unroll_stars(p, k) for p in path.parts])
    if isinstance(path, UnionPath):
        return union_path([unroll_stars(p, k) for p in path.branches])
    return path


def walk_pairs(path, g: PropertyGraph, unroll=None) -> set:
    """All node pairs connected by a walk matching the path expression."""
    if unroll is None:
        unroll = max(1, len(g.labels))
    star_free = unroll_stars(path, unroll)
    nodes = sorted(g.nodes)
    memo = {}

    def matches(p, u, v):
        key = (p, u, v)
        hit = memo.get(key)
        if hit is not None:
            return hit
        memo[key] = False  # cycle guard; star-free terms terminate anyway
        if isinstance(p, EdgeStep):
            edge = (v, p.role.name, u) if p.role.inverted else (u, p.role.name, v)
            out = edge in g.edges
        elif isinstance(p, NodeTest):
            out = u == v and any(g.has_label(u, l) for l in p.labels)
        elif isinstance(p, PropTest):
            if p.on_edge:
                pair = (v, u) if p.flipped else (u, v)
                out = test_holds(p.test, g.edge_props.get(pair, {}))
            else:
                out = u == v and test_holds(p.test, g.node_props[u])
        elif isinstance(p, Concat):
            head, rest = p.parts[0], p.parts[1:]
            tail = rest[0] if len(rest) == 1 else Concat(rest)
            out = any(matches(head, u, m) and matches(tail, m, v) for m in nodes)
        elif isinstance(p, UnionPath):
            out = any(matches(b, u, v) for b in p.branches)
        else:
            raise TypeError(f"unexpected path element {p!r}")
        memo[key] = out
        return out

    return {(u, v) for u in nodes for v in nodes if matches(star_free, u, v)}


def brute_force_answers(q, g: PropertyGraph) -> set:
    """Answers of a C2RPQ: every assignment of its variables over g's nodes
    under which each atom holds, projected onto the answer variables."""
    variables = sorted(q.variables())
    role_pairs = {a: walk_pairs(a.path, g) for a in q.atoms if isinstance(a, RoleAtom)}

    def holds(atom, m):
        if isinstance(atom, ConceptAtom):
            return any(g.has_label(m[atom.var], l) for l in atom.labels)
        if isinstance(atom, RoleAtom):
            return (m[atom.src], m[atom.dst]) in role_pairs[atom]
        if len(atom.vars) == 1:
            return test_holds(atom.test, g.node_props[m[atom.vars[0]]])
        u, v = (m[x] for x in atom.vars)
        return test_holds(atom.test, g.edge_props.get((u, v), {}))

    out = set()
    for values in itertools.product(sorted(g.nodes), repeat=len(variables)):
        m = dict(zip(variables, values))
        if all(holds(atom, m) for atom in q.atoms):
            out.add(tuple(m[v] for v in q.answer_vars))
    return out


# ---------------------------------------------------------------------------
# Raw structural chase (works on unnormalized axioms)


def _satisfies(g, gen, node, expr):
    if isinstance(expr, Top):
        return True
    if isinstance(expr, Name):
        return g.has_label(node, expr.name)
    if isinstance(expr, And):
        return all(_satisfies(g, gen, node, p) for p in expr.parts)
    if isinstance(expr, Exists):
        if expr.role.inverted:
            succ = [u for (u, v) in g.pairs(expr.role.name) if v == node]
        else:
            succ = [v for (u, v) in g.pairs(expr.role.name) if u == node]
        return any(_satisfies(g, gen, w, expr.inner) for w in succ)
    raise TypeError(f"unexpected concept {expr!r}")


def raw_chase(g: PropertyGraph, axioms, depth: int) -> PropertyGraph:
    """Saturate g under raw axioms, spawning witnesses up to `depth` levels."""
    out = g.copy()
    gen = {n: 0 for n in out.nodes}
    counter = itertools.count()

    def apply_rhs(node, expr):
        """Assert expr at node where possible; True iff the graph changed."""
        if isinstance(expr, Top):
            return False
        if isinstance(expr, Name):
            if out.has_label(node, expr.name):
                return False
            out.add_label(node, expr.name)
            return True
        if isinstance(expr, And):
            return any([apply_rhs(node, p) for p in expr.parts])
        if isinstance(expr, Exists):
            if gen[node] >= depth:
                return False
            fresh = f"_raw{next(counter)}"
            out.add_node(fresh)
            gen[fresh] = gen[node] + 1
            if expr.role.inverted:
                out.add_edge(fresh, expr.role.name, node)
            else:
                out.add_edge(node, expr.role.name, fresh)
            apply_rhs(fresh, expr.inner)
            return True
        raise TypeError(f"unexpected concept {expr!r}")

    changed = True
    while changed:
        changed = False
        for ax in axioms:
            if isinstance(ax, RoleInclusion):
                base_pairs = out.pairs(ax.sub.name)
                pairs = {(v, u) for (u, v) in base_pairs} if ax.sub.inverted else base_pairs
                for u, v in sorted(pairs):
                    edge = (v, ax.sup.name, u) if ax.sup.inverted else (u, ax.sup.name, v)
                    if edge not in out.edges:
                        out.add_edge(*edge)
                        changed = True
            elif isinstance(ax, ConceptInclusion):
                for node in sorted(out.nodes):
                    if _satisfies(out, gen, node, ax.lhs) and not _satisfies(
                            out, gen, node, ax.rhs):
                        if apply_rhs(node, ax.rhs):
                            changed = True
            else:
                raise TypeError(f"unexpected axiom {ax!r}")
    return out


def raw_certain_labels(g: PropertyGraph, axioms, depth=3):
    """For each base node, the concept labels entailed by the raw chase."""
    chased = raw_chase(g, axioms, depth)
    return {n: frozenset(chased.labels[n]) for n in g.nodes}


# ---------------------------------------------------------------------------
# Graph generators


def all_one_node_graphs(labels=("A", "B"), roles=("r", "s")):
    out = []
    for label_set in _powerset(labels):
        for loop_set in _powerset(roles):
            g = PropertyGraph()
            g.add_node("n0", label_set)
            for role in loop_set:
                g.add_edge("n0", role, "n0")
            out.append(g)
    return out


def _powerset(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield [items[i] for i in range(len(items)) if mask >> i & 1]


def random_graph(rng: random.Random, max_nodes=6, roles=("r", "s"),
                 labels=("A", "B"), edge_prob=0.3, prop_keys=()) -> PropertyGraph:
    g = PropertyGraph()
    n = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(n)]
    for name in names:
        node_labels = [l for l in labels if rng.random() < 0.4]
        props = {k: rng.randint(0, 50) for k in prop_keys if rng.random() < 0.5}
        g.add_node(name, node_labels, props)
    for u in names:
        for v in names:
            # Edge properties are keyed by the endpoint pair, so parallel
            # edges must share them.
            pair_props = {k: rng.randint(0, 50) for k in prop_keys
                          if rng.random() < 0.3}
            for role in roles:
                if rng.random() < edge_prob:
                    g.add_edge(u, role, v, pair_props)
    return g
