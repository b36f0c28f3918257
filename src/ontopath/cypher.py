"""Translate rewritten query unions into executable Cypher text.

The emittable path fragment is: edges and inverse edges, unions of
same-direction edges (packed into one relationship pattern), stars over
those, concatenations of emittable pieces, node tests, and data tests.
Unions that do not pack into a relationship pattern are distributed into
separate UNION arms first, after their number is counted without building
them and checked against MAX_CYPHER_ARMS; anything else raises
UnsupportedPathError rather than silently approximating.

A path atom is a chain of units: a node test, or one relationship pattern
given as (roles, inverted, star). Each relationship unit takes a fresh mid
variable; the last unit's is replaced by the atom's target. An atom of node
tests only makes its endpoints one node, named by an answer variable if
either is one, else by the smaller name. An edge data test reads the
relationship variable of the first plain single-role edge stored on its pair.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

from .errors import BudgetExceededError, UnsupportedPathError
from .query import (
    C2RPQ,
    Concat,
    ConceptAtom,
    DataTest,
    EdgeStep,
    NodeTest,
    RoleAtom,
    Star,
    TestAnd,
    TestAtom,
    TestNot,
    TestOr,
    UC2RPQ,
    UnionPath,
    atom_sort_key,
    concat_path,
    path_to_str,
)
from .tbox import TOP

# Emission raises BudgetExceededError before building more UNION arms than this.
MAX_CYPHER_ARMS = 10_000


@dataclass(frozen=True)
class CypherQuery:
    text: str
    diagnostics: tuple = ()


_PLAIN_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def _ident(name: str) -> str:
    if _PLAIN_NAME.match(name):
        return name
    escaped = name.replace("`", "``")
    return f"`{escaped}`"


def _literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    return repr(value)


def _test_condition(test, subject) -> str:
    """`subject` is a rendered Cypher entity (variable or relationship var)."""
    if isinstance(test, DataTest):
        op = "<>" if test.op == "!=" else test.op
        # coalesce collapses null (absent property, mistyped comparison)
        # to false, matching the evaluation semantics under negation.
        return f"coalesce({subject}.{_ident(test.key)} {op} {_literal(test.value)}, false)"
    if isinstance(test, TestAnd):
        return f"({_test_condition(test.left, subject)} AND {_test_condition(test.right, subject)})"
    if isinstance(test, TestOr):
        return f"({_test_condition(test.left, subject)} OR {_test_condition(test.right, subject)})"
    if isinstance(test, TestNot):
        return f"NOT ({_test_condition(test.inner, subject)})"
    raise TypeError(f"not a test expression: {test!r}")


def _label_condition(var, labels) -> str:
    parts = [f"{var}:{_ident(l)}" for l in sorted(labels)]
    return parts[0] if len(parts) == 1 else "(" + " OR ".join(parts) + ")"


# -- union distribution ----------------------------------------------------------


def _edge_union_roles(path):
    """Roles of a union packable into one relationship pattern, or None."""
    branches = path.branches if isinstance(path, UnionPath) else (path,)
    if not all(isinstance(b, EdgeStep) for b in branches):
        return None
    if len({b.role.inverted for b in branches}) != 1:
        return None
    return sorted(b.role.name for b in branches), branches[0].role.inverted


def _distribute(path):
    """Alternatives whose union equals the path, each free of loose unions."""
    if isinstance(path, Concat):
        alternatives = [_distribute(p) for p in path.parts]
        return [concat_path(combo) for combo in itertools.product(*alternatives)]
    if isinstance(path, UnionPath):
        if _edge_union_roles(path) is not None:
            return [path]
        return [alt for branch in path.branches for alt in _distribute(branch)]
    return [path]


def _arm_count(path) -> int:
    """len(_distribute(path)), counted without building the alternatives."""
    if isinstance(path, Concat):
        return math.prod(_arm_count(p) for p in path.parts)
    if isinstance(path, UnionPath) and _edge_union_roles(path) is None:
        return sum(_arm_count(b) for b in path.branches)
    return 1


def _branch_arm_count(q: C2RPQ) -> int:
    """len(_distribute_query(q)), counted without building the arms."""
    return math.prod(_arm_count(a.path) for a in q.atoms if isinstance(a, RoleAtom))


def _distribute_query(q: C2RPQ):
    # Arms follow the sorted role atoms, so that when several arms cannot be
    # emitted, the error names the same one whatever the string hash seed.
    roles = sorted((a for a in q.atoms if isinstance(a, RoleAtom)), key=atom_sort_key)
    fixed = frozenset(a for a in q.atoms if not isinstance(a, RoleAtom))
    per_atom = [[RoleAtom(p, a.src, a.dst) for p in _distribute(a.path)] for a in roles]
    return [C2RPQ(q.answer_vars, fixed | frozenset(combo))
            for combo in itertools.product(*per_atom)]


# -- branch emission ------------------------------------------------------------------


def _units(path):
    """The path's chain units: a NodeTest, or (roles, inverted, star)."""
    parts = path.parts if isinstance(path, Concat) else (path,)
    units = []
    for part in parts:
        star = isinstance(part, Star)
        if isinstance(part, NodeTest):
            units.append(part)
        elif isinstance(part, EdgeStep):
            units.append(([part.role.name], part.role.inverted, False))
        elif (packed := _edge_union_roles(part.inner if star else part)) is not None:
            units.append((*packed, star))
        elif star:
            raise UnsupportedPathError(
                f"cannot emit a star over {path_to_str(part.inner)}")
        elif isinstance(part, UnionPath):
            raise UnsupportedPathError(
                f"cannot emit the union {path_to_str(part)} inside one "
                "relationship pattern")
        else:
            raise UnsupportedPathError(f"cannot emit {path_to_str(part)}")
    return units


def _emit_branch(q: C2RPQ, diagnostics: list) -> str:
    atoms = sorted(q.atoms, key=atom_sort_key)
    query_vars = set()
    units = {}  # position in atoms -> the role atom's chain units
    alias = {}

    def find(var):
        while var in alias:
            var = alias[var]
        return var

    for i, atom in enumerate(atoms):
        if isinstance(atom, ConceptAtom):
            query_vars.add(atom.var)
        elif isinstance(atom, TestAtom):
            query_vars.update(atom.vars)
        else:
            query_vars.update((atom.src, atom.dst))
            units[i] = _units(atom.path)
            if all(isinstance(u, NodeTest) for u in units[i]):
                ends = {find(atom.src), find(atom.dst)}
                keep = min(ends, key=lambda v: (v not in q.answer_vars, v))
                for var in ends - {keep}:
                    alias[var] = keep
    edge_pairs = {(find(a.vars[0]), find(a.vars[1])) for a in atoms
                  if isinstance(a, TestAtom) and len(a.vars) == 2}
    fresh_mid = (f"m{i}" for i in itertools.count() if f"m{i}" not in query_vars)
    fresh_rel = (f"e{i}" for i in itertools.count() if f"e{i}" not in query_vars)

    patterns = []
    in_pattern = set()
    node_tests = []
    conditions = []
    hosts = {}  # stored (src, dst) pair -> the relationship variable on it
    for i, atom in enumerate(atoms):
        if isinstance(atom, ConceptAtom):
            if TOP not in atom.labels:
                conditions.append(_label_condition(_ident(find(atom.var)), atom.labels))
        elif isinstance(atom, RoleAtom):
            here = find(atom.src)
            rels_left = sum(not isinstance(u, NodeTest) for u in units[i])
            for unit in units[i]:
                if isinstance(unit, NodeTest):
                    if TOP not in unit.labels:
                        node_tests.append(_label_condition(_ident(here), unit.labels))
                    continue
                roles, inverted, star = unit
                rels_left -= 1
                mid = next(fresh_mid)
                there = find(atom.dst) if rels_left == 0 else mid
                stored = (there, here) if inverted else (here, there)
                rel_var = ""
                if not star and len(roles) == 1 and stored in edge_pairs and stored not in hosts:
                    rel_var = hosts[stored] = next(fresh_rel)
                types = "|".join(_ident(r) for r in roles) + ("*0.." if star else "")
                left, right = ("<-[", "]-") if inverted else ("-[", "]->")
                patterns.append(f"({_ident(here)}){left}{rel_var}:{types}{right}({_ident(there)})")
                in_pattern.update((here, there))
                here = there
        elif len(atom.vars) == 1:
            conditions.append(_test_condition(atom.test, _ident(find(atom.vars[0]))))
        else:
            host = hosts.get((find(atom.vars[0]), find(atom.vars[1])))
            if host is None:
                raise UnsupportedPathError(
                    "an edge data test needs a plain same-direction edge atom "
                    f"between its variables: {atom.vars}")
            conditions.append(_test_condition(atom.test, host))

    for var in sorted({find(v) for v in query_vars} - in_pattern):
        patterns.append(f"({_ident(var)})")

    if q.answer_vars:
        returns = ", ".join(f"{_ident(find(v))} AS c{i}" for i, v in enumerate(q.answer_vars))
    else:
        returns = "1 AS c0"
        diagnostics.append("nullary query: emitted a constant return column")
    text = "MATCH " + ", ".join(patterns)
    if node_tests or conditions:
        text += " WHERE " + " AND ".join(node_tests + conditions)
    text += f" RETURN DISTINCT {returns}"
    return text


def emit_cypher(u: UC2RPQ) -> CypherQuery:
    """Emit deterministic Cypher for a union of queries.

    Branches are sorted by their final text and joined with UNION (which is
    set-semantic, matching DISTINCT).  Raises BudgetExceededError, before
    building any arm, when the union distributes into more than
    MAX_CYPHER_ARMS arms."""
    counts = [_branch_arm_count(member) for member in u.branches]
    arms = sum(counts)
    if arms > MAX_CYPHER_ARMS:
        raise BudgetExceededError(
            f"emitting needs {arms} UNION arms, more than {MAX_CYPHER_ARMS}")
    diagnostics = []
    branch_texts = set()
    for member, count in zip(u.branches, counts):
        # A branch with one arm is that arm: no union in it distributes.
        for distributed in _distribute_query(member) if count > 1 else (member,):
            branch_texts.add(_emit_branch(distributed, diagnostics))
    if not branch_texts:
        raise UnsupportedPathError("cannot emit an empty union")
    text = "\nUNION\n".join(sorted(branch_texts)) + "\n"
    return CypherQuery(text, tuple(dict.fromkeys(diagnostics)))
