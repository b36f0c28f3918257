"""Translate rewritten query unions into executable Cypher text.

The emittable path fragment is: edges and inverse edges, unions of
same-direction edges (packed into one relationship pattern), stars over
those, concatenations of emittable pieces, node tests, and data tests.
Unions that do not pack into a relationship pattern are distributed into
separate UNION branches first; anything else raises UnsupportedPathError
rather than silently approximating.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import UnsupportedPathError
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
    steps = [b for b in branches if isinstance(b, EdgeStep)]
    if len(steps) != len(branches):
        return None
    inversions = {s.role.inverted for s in steps}
    if len(inversions) != 1:
        return None
    return sorted(s.role.name for s in steps), steps[0].role.inverted


def _distribute(path):
    """Alternatives whose union equals the path, each free of loose unions."""
    if isinstance(path, Concat):
        alternatives = [_distribute(p) for p in path.parts]
        return [concat_path(combo) for combo in itertools.product(*alternatives)]
    if isinstance(path, UnionPath):
        if _edge_union_roles(path) is not None:
            return [path]
        out = []
        for branch in path.branches:
            out.extend(_distribute(branch))
        return out
    return [path]


def _distribute_query(q: C2RPQ):
    per_atom = []
    fixed = []
    for atom in sorted(q.atoms, key=atom_sort_key):
        if isinstance(atom, RoleAtom):
            per_atom.append([RoleAtom(p, atom.src, atom.dst)
                             for p in _distribute(atom.path)])
        else:
            fixed.append(atom)
    out = []
    for combo in itertools.product(*per_atom):
        out.append(C2RPQ(q.answer_vars, frozenset(fixed) | frozenset(combo)))
    return out


# -- path segmentation -------------------------------------------------------------


def _units(path):
    """Chain units: ('rel', roles, inverted, star) or ('test', node test)."""
    parts = path.parts if isinstance(path, Concat) else (path,)
    units = []
    for part in parts:
        if isinstance(part, EdgeStep):
            units.append(("rel", [part.role.name], part.role.inverted, False))
        elif isinstance(part, Star):
            packed = _edge_union_roles(part.inner)
            if packed is None:
                raise UnsupportedPathError(
                    f"cannot emit a star over {path_to_str(part.inner)}")
            roles, inverted = packed
            units.append(("rel", list(roles), inverted, True))
        elif isinstance(part, NodeTest):
            units.append(("test", part))
        elif isinstance(part, UnionPath):
            packed = _edge_union_roles(part)
            if packed is None:
                raise UnsupportedPathError(
                    f"cannot emit the union {path_to_str(part)} inside one "
                    "relationship pattern")
            roles, inverted = packed
            units.append(("rel", list(roles), inverted, False))
        else:
            raise UnsupportedPathError(f"cannot emit {path_to_str(part)}")
    return units


# -- branch emission ------------------------------------------------------------------


class _Aliases:
    def __init__(self):
        self.parent = {}

    def find(self, var):
        self.parent.setdefault(var, var)
        while self.parent[var] != var:
            self.parent[var] = self.parent[self.parent[var]]
            var = self.parent[var]
        return var

    def merge(self, a, b, prefer):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        keep, drop = sorted((ra, rb), key=prefer)
        self.parent[drop] = keep


def _emit_branch(q: C2RPQ, diagnostics: list) -> str:
    query_vars = set()
    for atom in q.atoms:
        if isinstance(atom, ConceptAtom):
            query_vars.add(atom.var)
        elif isinstance(atom, RoleAtom):
            query_vars.update((atom.src, atom.dst))
        else:
            query_vars.update(atom.vars)
    fresh_mid = (f"m{i}" for i in itertools.count() if f"m{i}" not in query_vars)
    fresh_rel = (f"e{i}" for i in itertools.count() if f"e{i}" not in query_vars)

    def prefer(var):
        # Union-find representatives: answer vars first, then query vars,
        # then generated intermediates; ties break lexicographically.
        if var in q.answer_vars:
            rank = 0
        elif var in query_vars:
            rank = 1
        else:
            rank = 2
        return (rank, var)

    aliases = _Aliases()
    role_atoms = sorted((a for a in q.atoms if isinstance(a, RoleAtom)), key=atom_sort_key)
    other_atoms = sorted((a for a in q.atoms if not isinstance(a, RoleAtom)),
                         key=atom_sort_key)

    chains = []  # (positions, units) with zero-length units folded via aliases
    for atom in role_atoms:
        units = _units(atom.path)
        rel_units = [u for u in units if u[0] == "rel"]
        positions = [atom.src]
        for _ in rel_units:
            positions.append(next(fresh_mid))
        positions[-1] = atom.dst if rel_units else positions[0]
        if not rel_units:
            aliases.merge(atom.src, atom.dst, prefer)
        # Walk units, attaching zero-length tests to the current position.
        tests_at = []
        index = 0
        rels = []
        for unit in units:
            if unit[0] == "rel":
                rels.append((positions[index], unit, positions[index + 1]))
                index += 1
            else:
                tests_at.append((positions[index], unit[1]))
        chains.append((rels, tests_at))

    conditions = []
    patterns = []
    in_pattern = set()
    edge_test_hosts = {}

    def format_rel(src, unit, dst, rel_var=None):
        _kind, roles, inverted, star = unit
        types = "|".join(_ident(r) for r in roles)
        star_txt = "*0.." if star else ""
        var_txt = rel_var or ""
        body = f"[{var_txt}:{types}{star_txt}]"
        left, right = ("<-", "-") if inverted else ("-", "->")
        in_pattern.update((aliases.find(src), aliases.find(dst)))
        return f"({_ident(aliases.find(src))}){left}{body}{right}({_ident(aliases.find(dst))})"

    # Assign relationship variables where an edge data test needs one.
    edge_tests = [a for a in other_atoms
                  if isinstance(a, TestAtom) and len(a.vars) == 2]
    needed_pairs = set()
    for atom in edge_tests:
        needed_pairs.add((aliases.find(atom.vars[0]), aliases.find(atom.vars[1])))

    for rels, tests_at in chains:
        for src, unit, dst in rels:
            rel_var = None
            if not unit[3] and len(unit[1]) == 1:
                base = ((aliases.find(dst), aliases.find(src)) if unit[2]
                        else (aliases.find(src), aliases.find(dst)))
                if base in needed_pairs and base not in edge_test_hosts:
                    rel_var = next(fresh_rel)
                    edge_test_hosts[base] = rel_var
            patterns.append(format_rel(src, unit, dst, rel_var))
        for position, test in tests_at:
            if TOP not in test.labels:
                var = aliases.find(position)
                conditions.append(_label_condition(_ident(var), test.labels))

    for atom in other_atoms:
        if isinstance(atom, ConceptAtom):
            if TOP not in atom.labels:
                conditions.append(
                    _label_condition(_ident(aliases.find(atom.var)), atom.labels))
        elif isinstance(atom, TestAtom) and len(atom.vars) == 1:
            conditions.append(
                _test_condition(atom.test, _ident(aliases.find(atom.vars[0]))))
        elif isinstance(atom, TestAtom):
            pair = (aliases.find(atom.vars[0]), aliases.find(atom.vars[1]))
            host = edge_test_hosts.get(pair)
            if host is None:
                raise UnsupportedPathError(
                    "an edge data test needs a plain same-direction edge atom "
                    f"between its variables: {atom.vars}")
            conditions.append(_test_condition(atom.test, host))

    for var in sorted({aliases.find(v) for v in query_vars}):
        if var not in in_pattern:
            patterns.append(f"({_ident(var)})")
            in_pattern.add(var)

    if q.answer_vars:
        returns = ", ".join(
            f"{_ident(aliases.find(v))} AS c{i}" for i, v in enumerate(q.answer_vars))
    else:
        returns = "1 AS c0"
        diagnostics.append("nullary query: emitted a constant return column")
    text = "MATCH " + ", ".join(patterns)
    if conditions:
        text += " WHERE " + " AND ".join(conditions)
    text += f" RETURN DISTINCT {returns}"
    return text


def emit_cypher(u: UC2RPQ) -> CypherQuery:
    """Emit deterministic Cypher for a union of queries.

    Branches are sorted by their final text and joined with UNION (which is
    set-semantic, matching DISTINCT)."""
    diagnostics = []
    branch_texts = set()
    for member in u.branches:
        for distributed in _distribute_query(member):
            branch_texts.add(_emit_branch(distributed, diagnostics))
    if not branch_texts:
        raise UnsupportedPathError("cannot emit an empty union")
    text = "\nUNION\n".join(sorted(branch_texts)) + "\n"
    return CypherQuery(text, tuple(dict.fromkeys(diagnostics)))
