"""Bounded chase: saturate a property graph with a TBox to answer queries.

This is the verification oracle for the rewriting pipeline.  Labels and
edges are closed under the non-generating normal-form rules; existential
right-hand sides spawn anonymous witness nodes (reused per node/axiom
pair) up to a generation depth.  Certain answers are the query answers
over the chased graph that touch only base nodes.

Rounds run the axioms in order, each over its candidate nodes in sorted
order, until a round adds nothing.  An axiom runs in a round only when a
label or role it reads has gained a fact since its previous run began (a
new node is a fact of `top`); otherwise the run could not fire.
Existential axioms look up a node's role successors or predecessors in the
graph's own map per role name and end (`PropertyGraph.step_map`), built the
first time an axiom reads that role and extended by the graph with every
edge the chase adds; the chased graph keeps them, and evaluating a query
over it reuses them.  Atomic inclusions, conjunctions (from their rarest
conjunct) and existential right-hand sides visit only the nodes that the
graph's label index gives for their left-hand side.  An existential
left-hand side visits the role predecessors of its filler's nodes,
smallest first from a heap; when its right-hand side is its filler, a
node it labels pushes those of its own predecessors that sort after it,
so a new label reaches larger predecessors in the same run and smaller
ones in the next.  A role
inclusion adds its sub-role's pairs that its super-role lacks in one set
operation (`PropertyGraph.add_edges`); it makes no witness, so the order
of its pairs names nothing.  Skipped runs and indexes change how fast a
trigger is found, not which triggers fire or how witnesses are named.

`certain_answers` chases only the axioms whose facts the query can
observe: those that write a key the query reads, and, up to a fixpoint,
those that write a key a kept axiom reads (the relevance step of Magic
Sets, Bancilhon, Maier, Sagiv & Ullman, PODS 1986).  A dropped axiom
writes no fact that the query or a kept axiom reads, so the kept facts,
and the answers over base nodes, are those of the full chase; only
witness names differ, and no answer carries one.  `chase` itself, and
so `ontopath chase`, saturates with every axiom.

The chase writes into a copy of the graph, which shares the original's
label sets and index sets until it writes one (see `PropertyGraph`), so
a copy costs a few dict copies, not one set per node.  A write may
replace or change an index set the chase has read, so every candidate
set is sorted or copied before the first write over it, and an edge is
looked up in its role's pair index.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush

from .graph import PropertyGraph, eval_query
from .query import (
    C2RPQ,
    Concat,
    ConceptAtom,
    EdgeStep,
    NodeTest,
    RoleAtom,
    Star,
    UnionPath,
)
from .tbox import (
    TOP,
    AtomicInclusion,
    ConjInclusion,
    ExistsLeft,
    ExistsRight,
    RoleInclusion,
    TBox,
    normalize,
)

ANON_PREFIX = "_:"


def _reads(nf):
    """The facts that can make `nf` fire, as keys: a label's name, `top`
    for new nodes, ("role", name) for a role's edges in either direction."""
    if isinstance(nf, AtomicInclusion):
        return (nf.lhs,)
    if isinstance(nf, ConjInclusion):
        return nf.lhs
    if isinstance(nf, ExistsLeft):
        return (nf.filler, ("role", nf.role.name))
    if isinstance(nf, RoleInclusion):
        return (("role", nf.sub.name),)
    if isinstance(nf, ExistsRight):
        return (nf.lhs, nf.filler, ("role", nf.role.name))
    raise TypeError(f"unexpected normal-form axiom {nf!r}")


def _writes(nf):
    """The keys of the facts `nf` can add, as `_reads` names them."""
    if isinstance(nf, RoleInclusion):
        return (("role", nf.sup.name),)
    if isinstance(nf, ExistsRight):
        return (TOP, ("role", nf.role.name), nf.filler)
    return (nf.rhs,)


def _query_reads(q):
    """The keys whose facts can change a query's answers: its labels and
    ("role", name) for its edge steps.  A star reads `top` as well, since
    its zero-length walk reaches every node."""
    keys = set()
    paths = []
    for branch in (q,) if isinstance(q, C2RPQ) else q.branches:
        for atom in branch.atoms:
            if isinstance(atom, ConceptAtom):
                keys.update(atom.labels)
            elif isinstance(atom, RoleAtom):
                paths.append(atom.path)
    while paths:
        path = paths.pop()
        if isinstance(path, EdgeStep):
            keys.add(("role", path.role.name))
        elif isinstance(path, NodeTest):
            keys.update(path.labels)
        elif isinstance(path, Concat):
            paths.extend(path.parts)
        elif isinstance(path, UnionPath):
            paths.extend(path.branches)
        elif isinstance(path, Star):
            keys.add(TOP)
            paths.append(path.inner)
        else:
            raise TypeError(f"not a path expression: {path!r}")
    return keys


def _relevant_axioms(q, normalized) -> tuple:
    """The normal forms, in order, whose facts can reach q: those writing a
    key q reads, or, up to a fixpoint, a key a kept normal form reads."""
    writers = {}  # key -> positions of the normal forms writing it
    for i, nf in enumerate(normalized):
        for key in _writes(nf):
            writers.setdefault(key, []).append(i)
    wanted = _query_reads(q)
    todo = list(wanted)
    kept = set()
    while todo:
        for i in writers.get(todo.pop(), ()):
            if i not in kept:
                kept.add(i)
                for key in _reads(normalized[i]):
                    if key not in wanted:
                        wanted.add(key)
                        todo.append(key)
    return tuple(normalized[i] for i in sorted(kept))


def chase(g: PropertyGraph, t: TBox, depth: int) -> PropertyGraph:
    """Least fixpoint of the normal-form rules over a copy of g, to witness
    depth `depth`; nodes not in g are anonymous witnesses."""
    t = normalize(t)
    out = g.copy()
    generation = {}  # witness -> its generation; base nodes have 0
    reads = [_reads(nf) for nf in t.normalized]
    # Facts the chase has added, per read key.  Tallies only grow, so an
    # axiom whose reads sum to what they summed when its last run began
    # has nothing new to read.
    added = dict.fromkeys((key for keys in reads for key in keys), 0)
    added_at_last_run = [-1] * len(reads)

    def note(key):
        added[key] = added.get(key, 0) + 1

    def ensure_label(node, name) -> bool:
        if name == TOP or name in out.labels[node]:
            return False
        out.add_label(node, name)
        note(name)
        return True

    changed = True
    while changed:
        changed = False
        for axiom_index, nf in enumerate(t.normalized):
            facts = sum(map(added.get, reads[axiom_index]))
            if facts == added_at_last_run[axiom_index]:
                continue
            added_at_last_run[axiom_index] = facts
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
                # node -> the nodes with a role edge to it
                preds = out.step_map(nf.role.name, int(nf.role.inverted))
                heap = list({
                    node
                    for filled in out.nodes_with((nf.filler,))
                    for node in preds.get(filled, ())
                    if not out.has_label(node, nf.rhs)
                })
                heapify(heap)
                while heap:
                    node = heappop(heap)
                    if not ensure_label(node, nf.rhs):
                        continue  # pushed twice
                    changed = True
                    if nf.rhs == nf.filler:
                        for pred in preds.get(node, ()):
                            if pred > node and not out.has_label(pred, nf.rhs):
                                heappush(heap, pred)
            elif isinstance(nf, RoleInclusion):
                pairs = out.pairs(nf.sub.name)
                if nf.sub.inverted != nf.sup.inverted:
                    pairs = {(v, u) for u, v in pairs}
                count = len(out.add_edges(nf.sup.name, pairs))
                if count:
                    key = ("role", nf.sup.name)
                    added[key] = added.get(key, 0) + count
                    changed = True
            elif isinstance(nf, ExistsRight):
                succ = out.step_map(nf.role.name, int(not nf.role.inverted))
                for node in sorted(out.nodes_with((nf.lhs,))):
                    if any(out.has_label(s, nf.filler) for s in succ.get(node, ())):
                        continue
                    if generation.get(node, 0) >= depth:
                        continue
                    witness = f"{ANON_PREFIX}{node}/{axiom_index}"
                    while witness in out.labels:
                        # A loaded node may squat on the reserved name.
                        witness += "'"
                    out.add_node(witness)
                    note(TOP)
                    generation[witness] = generation.get(node, 0) + 1
                    src, dst = (witness, node) if nf.role.inverted else (node, witness)
                    out.add_edge(src, nf.role.name, dst)
                    note(("role", nf.role.name))
                    ensure_label(witness, nf.filler)
                    changed = True
    return out


def certain_answers(q, g: PropertyGraph, t: TBox, depth: int) -> set:
    """Answers over the chased graph restricted to base-node tuples.

    Only the axioms `_relevant_axioms` keeps for q are chased; with none,
    q is evaluated on g itself."""
    t = normalize(t)
    kept = _relevant_axioms(q, t.normalized)
    if not kept:
        return eval_query(q, g)
    # The original axioms with a normal form cut to the kept ones: the
    # chase reads the normal form only.
    chased = chase(g, TBox(t.axioms, kept), depth)
    answers = eval_query(q, chased)
    if len(chased.labels) == len(g.labels):
        return answers  # no witnesses
    nodes = g.labels
    return {answer for answer in answers if all(node in nodes for node in answer)}
