"""Top-level query rewriting into an ontology-free union of path queries.

The pipeline has four phases:

1. Reduction: an atom that another atom of the query entails under the
   TBox is dropped, to fixpoint.  A concept atom goes when another concept
   atom on its variable entails it label by label; a role atom goes when
   its other end is a leaf (no answer variable, in no other atom) and
   another role atom leaves its variable by a subrole, onto whose other end
   the leaf folds.  Of two atoms that entail each other, the first by
   `atom_sort_key` stays.  The reduced query is equivalent to its input on
   every model of the TBox.  It runs on the input and on each clipped
   query, never after concept rewriting, whose atoms range over raw data.
2. Clipping saturation: a non-answer variable whose atoms are certainly
   satisfied by the anonymous witness of an existential axiom, below a
   parent carrying one of the minimal label sets that make it so, is
   folded into concept atoms on its attachment variable, one variable at
   a time, to fixpoint.
3. Concept rewriting: a query's rewritings are the product, over its
   concept atoms, of each atom's alternatives: the union of its labels'
   concept-derivation paths (which contains the atom itself and covers
   every singleton witness set), then the conjunction of paths of each
   other witness set of a label.  A plain node-test path stays a concept
   atom, any other gets a fresh existential endpoint.
4. Role rewriting: every role occurrence is widened to the union of its
   entailed subroles, giving one query per concept rewriting.  Widening
   only enlarges each relation, so the widened query contains the query it
   came from and every partially widened variant.  All roles are
   substituted in one walk, with sub-path results shared across the
   rewrite's queries.

Every produced query is inserted through the structural-containment filter,
which drops queries structurally contained in one already kept.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .depgraph import (
    DEFAULT_WITNESS_CAP,
    DependencyGraph,
    build_dependency_graph,
    rewr_concept,
    rewrite_role,
    witness,
)
from .errors import BudgetExceededError
from .query import (
    C2RPQ,
    ConceptAtom,
    EdgeStep,
    NodeTest,
    RoleAtom,
    TestAtom,
    UC2RPQ,
    atom_sort_key,
    add_subseteq,
    atom_vars,
    canon_query,
    query_to_str,
    substitute_role,
    union_path,
)
from .tbox import Role, TBox, normalize


@dataclass(frozen=True)
class RewriteBudget:
    """Hard caps; exceeding one raises instead of silently truncating."""

    max_queries: int = 10_000
    witness_cap: int = DEFAULT_WITNESS_CAP


@dataclass(frozen=True)
class RewritingSet:
    """A containment-pruned union of queries; operations return new values."""

    answer_vars: tuple
    queries: tuple = ()

    def add(self, q: C2RPQ) -> "RewritingSet":
        return RewritingSet(self.answer_vars, add_subseteq(self.queries, q))

    def append(self, q: C2RPQ) -> "RewritingSet":
        """Unpruned insert (duplicates collapse, nothing else is dropped)."""
        if q in self.queries:
            return self
        return RewritingSet(self.answer_vars, self.queries + (q,))

    def to_uc2rpq(self) -> UC2RPQ:
        return UC2RPQ(self.answer_vars,
                      tuple(sorted(self.queries, key=query_to_str)))

    def __len__(self):
        return len(self.queries)

    def __iter__(self):
        return iter(sorted(self.queries, key=query_to_str))


def _fresh_vars(taken, prefix):
    index = 0
    while True:
        name = f"{prefix}{index}"
        index += 1
        if name not in taken:
            yield name


def clipping(q: C2RPQ, axiom_index: int, y: str, g: DependencyGraph) -> tuple:
    """Clip the existential variable `y` of q against one existential axiom.

    Returns the clipped queries (usually zero or one).  All variables that
    attach y to the rest of the query are unified: the axiom's witness has
    a single parent, so any match sends them to the same node.  The
    attachment variable gets a concept atom per label of a parent label
    set: the axiom's left-hand side and ⊆-minimal further labels under
    which the witness carries a label of every concept atom on y
    (`DependencyGraph.parent_sets`).  Each such set yields its own clipped
    query; more than the graph's `witness_cap` of them raise.

    One variable per clip is complete: a set clip succeeds only when no
    atom joins two of its variables, so clipping its variables one after
    another yields a query whose attachments all map onto the set clip's,
    and that query contains the set clip's result.
    """
    ax = g.tbox.normalized[axiom_index]
    if y in q.answer_vars:
        raise ValueError("answer variables cannot be clipped")
    attachments = set()
    kept = []
    needs = []
    for atom in q.atoms:
        if y not in atom_vars(atom):
            kept.append(atom)
            continue
        if isinstance(atom, TestAtom):
            return ()  # anonymous witnesses carry no properties
        if isinstance(atom, ConceptAtom):
            needs.append(atom.labels)
            continue
        if not isinstance(atom.path, EdgeStep):
            return ()
        if atom.src == atom.dst:
            return ()  # the witness has no self-loop
        if atom.dst == y:
            outside, step = atom.src, atom.path.role
        else:
            outside, step = atom.dst, atom.path.role.inverse()
        if not g.roles.is_subrole(ax.role, step):
            return ()
        attachments.add(outside)
    parents = g.parent_sets(axiom_index, frozenset(needs))
    if not parents:
        return ()
    rename = {}
    if attachments:
        preferred = sorted(v for v in attachments if v in q.answer_vars)
        z = (preferred or sorted(attachments))[0]
        rename = {v: z for v in attachments if v != z}
    else:
        z = next(_fresh_vars(q.variables(), "__c"))
    answer_vars = tuple(rename.get(v, v) for v in q.answer_vars)
    kept = [_rename_atom(atom, rename) for atom in kept]
    results = []
    for m in parents:
        atoms = frozenset(kept).union([ConceptAtom(frozenset({name}), z) for name in m])
        results.append(C2RPQ(answer_vars, atoms))
    return tuple(dict.fromkeys(results))


def _rename_atom(atom, rename):
    if not rename:
        return atom
    if isinstance(atom, ConceptAtom):
        return ConceptAtom(atom.labels, rename.get(atom.var, atom.var))
    if isinstance(atom, RoleAtom):
        return RoleAtom(atom.path, rename.get(atom.src, atom.src),
                        rename.get(atom.dst, atom.dst))
    return TestAtom(atom.test, tuple(rename.get(v, v) for v in atom.vars))


def _check_ncq(q: C2RPQ):
    for atom in q.atoms:
        if isinstance(atom, RoleAtom) and not isinstance(atom.path, EdgeStep):
            raise ValueError(
                "rewriting takes plain input queries; role atoms must be "
                f"single edges, got {query_to_str(q)}")


def _entailed_atom(answer_vars, atoms, g: DependencyGraph):
    """The greatest atom by `atom_sort_key` that another of `atoms` entails
    under the TBox, or None when none is.

    Only a concept atom on a variable with two of them, or a role atom with
    a leaf end, can be entailed, so a query with neither costs one scan.
    """
    uses = {}
    concepts = {}
    roles = []
    for atom in atoms:
        if isinstance(atom, RoleAtom):
            roles.append(atom)
            uses[atom.src] = uses.get(atom.src, 0) + 1
            if atom.dst != atom.src:
                uses[atom.dst] = uses.get(atom.dst, 0) + 1
        elif isinstance(atom, ConceptAtom):
            concepts.setdefault(atom.var, []).append(atom)
            uses[atom.var] = uses.get(atom.var, 0) + 1
        else:
            for v in set(atom.vars):
                uses[v] = uses.get(v, 0) + 1
    candidates = [(a, None) for group in concepts.values() if len(group) > 1
                  for a in group]
    for atom in roles:
        if isinstance(atom.path, EdgeStep) and atom.src != atom.dst:
            if uses[atom.dst] == 1 and atom.dst not in answer_vars:
                candidates.append((atom, atom.src))
            elif uses[atom.src] == 1 and atom.src not in answer_vars:
                candidates.append((atom, atom.dst))
    if not candidates:
        return None
    candidates.sort(key=lambda c: atom_sort_key(c[0]), reverse=True)
    for atom, end in candidates:
        if end is None:
            if any(other is not atom
                   and all(any(g.entails_subsumption(sub, sup) for sup in atom.labels)
                           for sub in other.labels)
                   for other in concepts[atom.var]):
                return atom
            continue
        # The leaf folds onto the far end of another atom that leaves `end`
        # by a subrole of the role this atom leaves it by.
        role = atom.path.role if atom.src == end else atom.path.role.inverse()
        for other in roles:
            if other is atom or not isinstance(other.path, EdgeStep):
                continue
            if other.src == end and g.roles.is_subrole(other.path.role, role):
                return atom
            if other.dst == end and g.roles.is_subrole(other.path.role.inverse(), role):
                return atom
    return None


def _reduce(q: C2RPQ, g: DependencyGraph) -> C2RPQ:
    """Drop, one at a time to fixpoint, every atom that another atom of q
    entails under the TBox; q itself when none is (see the module
    docstring)."""
    atom = _entailed_atom(q.answer_vars, q.atoms, g)
    if atom is None:
        return q
    atoms = set(q.atoms)
    while atom is not None:
        atoms.remove(atom)
        atom = _entailed_atom(q.answer_vars, atoms, g)
    return C2RPQ(q.answer_vars, frozenset(atoms))


def _saturate_clipping(q0: C2RPQ, g: DependencyGraph, budget: RewriteBudget) -> list:
    seen = {q0}
    frontier = [q0]
    while frontier:
        upcoming = []
        for q1 in sorted(frontier, key=query_to_str):
            existential = sorted(q1.variables() - set(q1.answer_vars))
            for axiom_index, _ax in g.ex_right:
                for y in existential:
                    for clipped in clipping(q1, axiom_index, y, g):
                        clipped = _reduce(clipped, g)
                        if clipped not in seen:
                            if len(seen) >= budget.max_queries:
                                raise BudgetExceededError(
                                    f"more than {budget.max_queries} queries generated")
                            seen.add(clipped)
                            upcoming.append(clipped)
        frontier = upcoming
    return sorted(seen, key=query_to_str)


def _atom_alternatives(atom: ConceptAtom, g: DependencyGraph,
                       budget: RewriteBudget) -> list:
    """Conjunctions of concept paths, one of which replaces the atom."""
    labels = sorted(atom.labels)
    paths = [rewr_concept(label, g) for label in labels]
    alternatives = [(paths[0] if len(paths) == 1 else union_path(paths),)]
    for label in labels:
        for witness_set in witness(label, g, cap=budget.witness_cap):
            if witness_set != {label}:
                alternatives.append(
                    tuple(rewr_concept(name, g) for name in sorted(witness_set)))
    return alternatives


def _concept_rewritings(queries, g: DependencyGraph, budget: RewriteBudget) -> list:
    staged = []
    for q1 in queries:
        concept_atoms = sorted((a for a in q1.atoms if isinstance(a, ConceptAtom)),
                               key=atom_sort_key)
        fixed = q1.atoms - set(concept_atoms)
        per_atom = [_atom_alternatives(atom, g, budget) for atom in concept_atoms]
        if len(staged) + math.prod(map(len, per_atom)) > budget.max_queries:
            raise BudgetExceededError(
                f"more than {budget.max_queries} queries generated")
        taken = q1.variables()
        for combo in itertools.product(*per_atom):
            atoms = set(fixed)
            fresh = _fresh_vars(taken, "__w")
            for atom, paths in zip(concept_atoms, combo):
                for path in paths:
                    if not isinstance(path, NodeTest):
                        atoms.add(RoleAtom(path, atom.var, next(fresh)))
                    elif path.labels == atom.labels:
                        atoms.add(atom)
                    else:
                        atoms.add(ConceptAtom(path.labels, atom.var))
            # A query no atom of which changes is kept as it is, with the
            # text its sort during clipping left on it.
            staged.append(q1 if atoms == q1.atoms
                          else C2RPQ(q1.answer_vars, frozenset(atoms)))
    return staged


def _role_widenings(g: DependencyGraph) -> dict:
    """{role: union of its entailed subroles} for each role name that has a
    proper subrole; every other role widens to itself."""
    names = sorted({role.name for role in g.roles.with_subroles()})
    widenings = {}
    for name in names:
        replacement = rewrite_role(Role(name), g)
        if replacement != EdgeStep(Role(name)):
            widenings[Role(name)] = replacement
    return widenings


def rewrite_ncq(q: C2RPQ, t: TBox, *, budget: RewriteBudget = None,
                prune: bool = True) -> RewritingSet:
    """Rewrite an input query against a TBox into an ontology-free union.

    Deterministic for fixed input; raises BudgetExceededError when a cap is
    hit (a partial rewriting would be unsound to evaluate as if complete).
    """
    budget = budget or RewriteBudget()
    _check_ncq(q)
    t = normalize(t)
    g = build_dependency_graph(t, budget.witness_cap)
    q0 = _reduce(canon_query(q), g)

    saturated = _saturate_clipping(q0, g, budget)
    staged = _concept_rewritings(saturated, g, budget)

    # Widening is one simultaneous substitution: a subrole's union is
    # contained in its super-role's, so substituting the roles one after
    # another would give the same paths.
    widenings = _role_widenings(g)
    widened = {}
    result = RewritingSet(q0.answer_vars)
    for q1 in staged:
        if widenings:
            q1 = substitute_role(q1, widenings, widened)
        result = result.add(q1) if prune else result.append(q1)
    return result


def rewrite_atomic(name: str, t: TBox, *, budget: RewriteBudget = None,
                   prune: bool = True) -> RewritingSet:
    """Rewrite the single-atom query q(x) :- name(x)."""
    q = C2RPQ(("x",), frozenset({ConceptAtom(frozenset({name}), "x")}))
    return rewrite_ncq(q, t, budget=budget, prune=prune)
