"""Bounded chase: saturate a property graph with a TBox to answer queries.

This is the verification oracle for the rewriting pipeline.  Labels and
edges are closed under the non-generating normal-form rules; existential
right-hand sides spawn anonymous witness nodes (reused per node/axiom
pair) up to a generation depth.  Certain answers are the query answers
over the chased graph that touch only base nodes.

Existential axioms look up a node's role successors in a map per role name
and direction, built from the graph the first time an axiom reads that
role and extended with every edge the chase adds.  Atomic inclusions,
conjunctions (from their rarest conjunct) and existential right-hand sides
visit only the nodes that the graph's label index gives for their
left-hand side; existential left-hand sides and role inclusions visit
every node or pair.  Rounds run the axioms in order over the nodes in
sorted order, so the indexes change how fast a trigger is found, not
which triggers fire or how witnesses are named.
"""
from __future__ import annotations

from .graph import PropertyGraph, eval_query
from .tbox import (
    TOP,
    AtomicInclusion,
    ConjInclusion,
    ExistsLeft,
    ExistsRight,
    Role,
    RoleInclusion,
    TBox,
    normalize,
)

ANON_PREFIX = "_:"


def _matching_successors(g, index, node, role: Role):
    """Nodes that `node` reaches over `role`; `index` maps (role name,
    inverted) to {node: successors} and gains that role's map on first use."""
    key = (role.name, role.inverted)
    succ = index.get(key)
    if succ is None:
        succ = index[key] = {}
        for u, v in g.pairs(role.name):
            if role.inverted:
                u, v = v, u
            succ.setdefault(u, set()).add(v)
    return succ.get(node, ())


def _add_role_edge(g, index, src, role: Role, dst) -> bool:
    if role.inverted:
        src, dst = dst, src
    if (src, role.name, dst) in g.edges:
        return False
    g.add_edge(src, role.name, dst)
    for inverted, u, v in ((False, src, dst), (True, dst, src)):
        succ = index.get((role.name, inverted))
        if succ is not None:
            succ.setdefault(u, set()).add(v)
    return True


def chase(g: PropertyGraph, t: TBox, depth: int) -> PropertyGraph:
    """Least fixpoint of the normal-form rules over a copy of g, to witness
    depth `depth`; nodes not in g are anonymous witnesses."""
    t = normalize(t)
    out = g.copy()
    generation = {n: 0 for n in out.nodes}
    successors = {}  # (role name, inverted) -> {node: successor set}

    def ensure_label(node, name) -> bool:
        if name == TOP or name in out.labels[node]:
            return False
        out.add_label(node, name)
        return True

    changed = True
    while changed:
        changed = False
        for axiom_index, nf in enumerate(t.normalized):
            if isinstance(nf, AtomicInclusion):
                for node in sorted(out.nodes_with((nf.lhs,))):
                    if ensure_label(node, nf.rhs):
                        changed = True
            elif isinstance(nf, ConjInclusion):
                rarest = min((out.nodes_with((name,)) for name in nf.lhs), key=len)
                for node in sorted(rarest):
                    if all(out.has_label(node, name) for name in nf.lhs):
                        if ensure_label(node, nf.rhs):
                            changed = True
            elif isinstance(nf, ExistsLeft):
                for node in sorted(out.nodes):
                    if out.has_label(node, nf.rhs):
                        continue
                    for succ in _matching_successors(out, successors, node, nf.role):
                        if out.has_label(succ, nf.filler):
                            ensure_label(node, nf.rhs)
                            changed = True
                            break
            elif isinstance(nf, RoleInclusion):
                base_pairs = out.pairs(nf.sub.name)
                pairs = ({(v, u) for (u, v) in base_pairs} if nf.sub.inverted
                         else set(base_pairs))
                for u, v in sorted(pairs):
                    if _add_role_edge(out, successors, u, nf.sup, v):
                        changed = True
            elif isinstance(nf, ExistsRight):
                for node in sorted(out.nodes_with((nf.lhs,))):
                    if any(out.has_label(s, nf.filler)
                           for s in _matching_successors(out, successors, node, nf.role)):
                        continue
                    if generation[node] >= depth:
                        continue
                    witness = f"{ANON_PREFIX}{node}/{axiom_index}"
                    while witness in out.labels:
                        # A loaded node may squat on the reserved name.
                        witness += "'"
                    out.add_node(witness)
                    generation[witness] = generation[node] + 1
                    _add_role_edge(out, successors, node, nf.role, witness)
                    ensure_label(witness, nf.filler)
                    changed = True
            else:
                raise TypeError(f"unexpected normal-form axiom {nf!r}")
    return out


def certain_answers(q, g: PropertyGraph, t: TBox, depth: int) -> set:
    """Answers over the chased graph restricted to base-node tuples."""
    chased = chase(g, t, depth)
    return {
        answer
        for answer in eval_query(q, chased)
        if all(node in g.nodes for node in answer)
    }
