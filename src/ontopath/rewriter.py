"""Top-level query rewriting into an ontology-free union of path queries.

The pipeline has three phases:

1. Clipping saturation: non-answer variable sets whose atoms are certainly
   satisfied by the anonymous witness of an existential axiom are folded
   into a single concept atom on the attachment variable, to fixpoint.
2. Concept rewriting: every concept atom is replaced, per witness set of
   each of its labels, by a conjunction of concept-derivation paths with
   fresh existential endpoints; applied to closure so combinations of
   replaced atoms are covered.
3. Role rewriting: every role occurrence is widened to the union of its
   entailed subroles, giving one query per concept rewriting.  Widening
   only enlarges each relation, so the widened query contains the query it
   came from and every partially widened variant.

Every produced query is inserted through the structural-containment filter,
which drops queries structurally contained in one already kept.
"""
from __future__ import annotations

import itertools
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
    RoleAtom,
    TestAtom,
    UC2RPQ,
    atom_sort_key,
    add_subseteq,
    atom_vars,
    canon_query,
    path_roles,
    query_to_str,
    substitute_role,
)
from .tbox import TOP, Role, TBox, normalize


@dataclass(frozen=True)
class RewriteBudget:
    """Hard caps; exceeding one raises instead of silently truncating."""

    max_queries: int = 10_000
    max_clip_attempts: int = 100_000
    witness_cap: int = DEFAULT_WITNESS_CAP
    max_hypotheses_per_clip: int = 64


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


def clipping(q: C2RPQ, axiom_index: int, y_vars, g: DependencyGraph,
             max_hypotheses: int = RewriteBudget.max_hypotheses_per_clip) -> tuple:
    """Clip the variables `y_vars` of q against one existential axiom.

    Returns the clipped queries (usually zero or one).  All variables that
    attach the clipped region to the rest of the query are unified: the
    axiom's witness has a single parent, so any match sends them to the
    same node.  Several results arise only when an atom on a clipped
    variable needs an extra label on the attachment variable to be
    satisfied by the witness; each viable label choice yields its own
    clipped query, with that label added as a concept atom.
    """
    ax = g.tbox.normalized[axiom_index]
    y = frozenset(y_vars)
    if not y:
        raise ValueError("the clipped variable set must be nonempty")
    if y & set(q.answer_vars):
        raise ValueError("answer variables cannot be clipped")
    certain = g.witness_labels(axiom_index)
    attachments = set()
    kept = []
    hypothesis_options = []
    for atom in sorted(q.atoms, key=atom_sort_key):
        touched = set(atom_vars(atom)) & y
        if not touched:
            kept.append(atom)
            continue
        if isinstance(atom, TestAtom):
            return ()  # anonymous witnesses carry no properties
        if isinstance(atom, ConceptAtom):
            if atom.labels & certain:
                continue
            options = sorted(
                extra for extra in g.nodes
                if extra != TOP
                and atom.labels & g.witness_labels_with(axiom_index, extra))
            if not options:
                return ()
            hypothesis_options.append(options)
            continue
        if not isinstance(atom.path, EdgeStep):
            return ()
        if atom.src in y and atom.dst in y:
            return ()
        if atom.dst in y:
            outside, step = atom.src, atom.path.role
        else:
            outside, step = atom.dst, atom.path.role.inverse()
        if not g.roles.is_subrole(ax.role, step):
            return ()
        attachments.add(outside)
    rename = {}
    if attachments:
        preferred = sorted(v for v in attachments if v in q.answer_vars)
        z = (preferred or sorted(attachments))[0]
        rename = {v: z for v in attachments if v != z}
    else:
        z = next(_fresh_vars(q.variables(), "__c"))
    answer_vars = tuple(rename.get(v, v) for v in q.answer_vars)
    kept = [_rename_atom(atom, rename) for atom in kept]
    combo_count = 1
    for options in hypothesis_options:
        combo_count *= len(options)
    if combo_count > max_hypotheses:
        raise BudgetExceededError(
            f"clipping needs {combo_count} hypothesis combinations, "
            f"more than {max_hypotheses}")
    results = []
    for combo in itertools.product(*hypothesis_options):
        atoms = set(kept)
        atoms.add(ConceptAtom(frozenset({ax.lhs}), z))
        for extra in combo:
            atoms.add(ConceptAtom(frozenset({extra}), z))
        results.append(canon_query(C2RPQ(answer_vars, frozenset(atoms))))
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


def _nonempty_subsets(items):
    for size in range(1, len(items) + 1):
        yield from itertools.combinations(items, size)


def _check_ncq(q: C2RPQ):
    for atom in q.atoms:
        if isinstance(atom, RoleAtom) and not isinstance(atom.path, EdgeStep):
            raise ValueError(
                "rewriting takes plain input queries; role atoms must be "
                f"single edges, got {query_to_str(q)}")


def _saturate_clipping(q0: C2RPQ, g: DependencyGraph, budget: RewriteBudget) -> list:
    seen = {q0}
    frontier = [q0]
    attempts = 0
    while frontier:
        upcoming = []
        for q1 in sorted(frontier, key=query_to_str):
            existential = sorted(q1.variables() - set(q1.answer_vars))
            for axiom_index, _ax in g.ex_right:
                for y in _nonempty_subsets(existential):
                    attempts += 1
                    if attempts > budget.max_clip_attempts:
                        raise BudgetExceededError(
                            f"clipping gave up after {budget.max_clip_attempts} attempts")
                    for clipped in clipping(q1, axiom_index, y, g,
                                            budget.max_hypotheses_per_clip):
                        if clipped not in seen:
                            if len(seen) >= budget.max_queries:
                                raise BudgetExceededError(
                                    f"more than {budget.max_queries} queries generated")
                            seen.add(clipped)
                            upcoming.append(clipped)
        frontier = upcoming
    return sorted(seen, key=query_to_str)


def _replace_concept_atom(q: C2RPQ, atom: ConceptAtom, witness_set,
                          g: DependencyGraph) -> C2RPQ:
    atoms = set(q.atoms)
    atoms.discard(atom)
    fresh = _fresh_vars(q.variables(), "__w")
    for name in sorted(witness_set):
        atoms.add(RoleAtom(rewr_concept(name, g), atom.var, next(fresh)))
    return canon_query(C2RPQ(q.answer_vars, frozenset(atoms)))


def _concept_rewritings(queries, g: DependencyGraph, budget: RewriteBudget) -> list:
    stage = list(queries)
    seen = set(stage)
    index = 0
    while index < len(stage):
        q1 = stage[index]
        index += 1
        concept_atoms = sorted(
            (a for a in q1.atoms if isinstance(a, ConceptAtom)), key=atom_sort_key)
        for atom in concept_atoms:
            for label in sorted(atom.labels):
                for witness_set in witness(label, g, cap=budget.witness_cap):
                    emitted = _replace_concept_atom(q1, atom, witness_set, g)
                    if emitted not in seen:
                        if len(seen) >= budget.max_queries:
                            raise BudgetExceededError(
                                f"more than {budget.max_queries} queries generated")
                        seen.add(emitted)
                        stage.append(emitted)
    return stage


def _widen_roles(q1: C2RPQ, g: DependencyGraph) -> C2RPQ:
    names = sorted({
        name
        for atom in q1.atoms if isinstance(atom, RoleAtom)
        for name in path_roles(atom.path)
    })
    for name in names:
        replacement = rewrite_role(Role(name), g)
        if replacement != EdgeStep(Role(name)):
            q1 = substitute_role(q1, Role(name), replacement)
    return q1


def rewrite_ncq(q: C2RPQ, t: TBox, *, budget: RewriteBudget = None,
                prune: bool = True) -> RewritingSet:
    """Rewrite an input query against a TBox into an ontology-free union.

    Deterministic for fixed input; raises BudgetExceededError when a cap is
    hit (a partial rewriting would be unsound to evaluate as if complete).
    """
    budget = budget or RewriteBudget()
    _check_ncq(q)
    t = normalize(t)
    g = build_dependency_graph(t)
    q0 = canon_query(q)

    saturated = _saturate_clipping(q0, g, budget)
    staged = _concept_rewritings(saturated, g, budget)

    result = RewritingSet(q0.answer_vars)
    for q1 in staged:
        q1 = _widen_roles(q1, g)
        result = result.add(q1) if prune else result.append(q1)
    return result


def rewrite_atomic(name: str, t: TBox, *, budget: RewriteBudget = None,
                   prune: bool = True) -> RewritingSet:
    """Rewrite the single-atom query q(x) :- name(x)."""
    q = C2RPQ(("x",), frozenset({ConceptAtom(frozenset({name}), "x")}))
    return rewrite_ncq(q, t, budget=budget, prune=prune)
