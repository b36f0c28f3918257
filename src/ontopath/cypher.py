"""Translate rewritten query unions into executable Cypher text.

The emittable path fragment is: edges and inverse edges, unions of
same-direction edges (packed into one relationship pattern), stars over
those, concatenations of emittable pieces, node tests, and data tests.
Unions that do not pack into a relationship pattern are distributed into
separate UNION arms first, after their number is counted without building
them and checked against MAX_CYPHER_ARMS; anything else raises
UnsupportedPathError rather than silently approximating.

A path atom is a chain of units: a node test, or one relationship pattern
of some roles, inverted or not, starred or not. Each relationship unit takes
a fresh mid variable; the last unit's is replaced by the atom's target. An
atom of node tests only makes its endpoints one node, named by an answer
variable if either is one, else by the smaller name. An edge data test reads
the relationship variable of the first plain single-role edge stored on its
pair. Integer literals outside Cypher's signed 64 bits raise
UnsupportedPathError. An arm's atoms are taken in sort order.

Each branch is prepared once and its arms are then only assembled. Each
role atom's path is distributed once into alternatives, and each
alternative keeps its sort key, its chain units with the relationship types
rendered, whether it is node tests only, and the error emitting it raises.
Names and label conditions are rendered once per emission, and equal
alternatives are one object, so equal atoms in an arm collapse. An arm
merges one alternative per role atom in key order and resolves aliases only
when an alternative is node tests only. What its aliases decide (the
representatives, the concept conditions, the return list) is kept per set
of joined pairs. Mids and relationship variables are numbered from lists
that skip the branch's query variables. Errors come from the first failing
arm in product order. Within it, the first failing role atom in sort order
comes first, and only then an edge test without a host, so the first error
is the same whatever the string hash seed.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

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
    TestNot,
    TestOr,
    UC2RPQ,
    UnionPath,
    atom_to_str,
    concat_path,
    fresh_names,
    path_to_str,
    role_atom_to_str,
)
from .tbox import TOP

# Emission raises BudgetExceededError before building more UNION arms than this.
MAX_CYPHER_ARMS = 10_000


@dataclass(frozen=True)
class CypherQuery:
    text: str
    diagnostics: tuple = ()


# The integers a Cypher literal can hold.
_INT64 = range(-2 ** 63, 2 ** 63)


def _ident(name: str) -> str:
    # Plain names match [A-Za-z][A-Za-z0-9_]*; others are backticked.
    if name.isascii() and name.isidentifier() and name[0] != "_":
        return name
    escaped = name.replace("`", "``")
    return f"`{escaped}`"


def _literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    if isinstance(value, int) and value not in _INT64:
        raise UnsupportedPathError(
            f"cannot emit the integer literal {value}: Cypher integers are signed 64-bit")
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
    if not isinstance(branches[0], EdgeStep):
        return None
    inverted = branches[0].role.inverted
    for b in branches:
        if not isinstance(b, EdgeStep) or b.role.inverted != inverted:
            return None
    return sorted([b.role.name for b in branches]), inverted


def _distribute(path):
    """Alternatives whose union equals the path, each free of loose unions."""
    if isinstance(path, Concat):
        alternatives = [_distribute(p) for p in path.parts]
        if math.prod(map(len, alternatives)) == 1:
            return [path]  # no part distributes
        return [concat_path(combo) for combo in itertools.product(*alternatives)]
    if isinstance(path, UnionPath):
        if _edge_union_roles(path) is not None:
            return [path]
        return [alt for branch in path.branches for alt in _distribute(branch)]
    return [path]


def _arm_count(path) -> int:
    """len(_distribute(path)), counted without building the alternatives."""
    n = 1
    if isinstance(path, Concat):
        for part in path.parts:
            n *= _arm_count(part)
    elif isinstance(path, UnionPath) and _edge_union_roles(path) is None:
        n = 0
        for branch in path.branches:
            n += _arm_count(branch)
    return n


# -- branch preparation -------------------------------------------------------------


class _Idents(dict):
    """Each name's `_ident`, rendered on first use."""

    __slots__ = ()

    def __missing__(self, name):
        text = self[name] = _ident(name)
        return text


class _LabelConditions(dict):
    """`_label_condition(var, labels)` by (rendered var, labels), on first use."""

    __slots__ = ()

    def __missing__(self, key):
        text = self[key] = _label_condition(*key)
        return text


def _units(path, idents):
    """The path's chain units and how many are relationship patterns.

    A unit is a node test's label set (none for `<top>`), or a relationship
    pattern as (text before its variable, text after it, inverted, may host
    an edge test), with its types rendered."""
    parts = path.parts if isinstance(path, Concat) else (path,)
    units = []
    rels = 0
    for part in parts:
        if isinstance(part, NodeTest):
            if TOP not in part.labels:
                units.append(part.labels)
            continue
        star = isinstance(part, Star)
        inner = part.inner if star else part
        if isinstance(inner, EdgeStep):
            roles, inverted = (inner.role.name,), inner.role.inverted
        elif (packed := _edge_union_roles(inner)) is not None:
            roles, inverted = packed
        elif star:
            raise UnsupportedPathError(
                f"cannot emit a star over {path_to_str(part.inner)}")
        elif isinstance(part, UnionPath):
            raise UnsupportedPathError(
                f"cannot emit the union {path_to_str(part)} inside one "
                "relationship pattern")
        else:
            raise UnsupportedPathError(f"cannot emit {path_to_str(part)}")
        types = idents[roles[0]] if len(roles) == 1 else "|".join([idents[r] for r in roles])
        if star:
            types += "*0.."
        hostable = not star and len(roles) == 1
        if inverted:
            units.append((")<-[", f":{types}]-(", True, hostable))
        else:
            units.append((")-[", f":{types}]->(", False, hostable))
        rels += 1
    return units, rels


class _Alternative:
    """One distributed path of a role atom, prepared for every arm that
    chooses it.  `key` is the distributed atom's sort key; `rels` counts its
    relationship units, and with none it is node tests only, so its `ends`
    alias.  `error` is what emitting it raises."""

    __slots__ = ("key", "src", "dst", "ends", "units", "rels", "error")

    def __init__(self, key: str, path, src: str, dst: str, idents):
        self.key, self.src, self.dst, self.ends = key, src, dst, (src, dst)
        try:
            self.units, self.rels = _units(path, idents)
            self.error = None
        except UnsupportedPathError as exc:
            self.units, self.rels, self.error = (), 0, exc


class _Shared:
    """What one emission prepares once for all of its branches: rendered
    names, label conditions, and role atoms' alternatives by sort key, so
    that equal atoms share one alternative."""

    __slots__ = ("idents", "labels", "alternatives")

    def __init__(self):
        self.idents = _Idents()
        self.labels = _LabelConditions()
        self.alternatives = {}

    def alternative(self, key: str, path, src: str, dst: str) -> _Alternative:
        alt = self.alternatives.get(key)
        if alt is None:
            alt = self.alternatives[key] = _Alternative(key, path, src, dst, self.idents)
        return alt


class _View(NamedTuple):
    """What an arm's aliases decide, the same for every arm whose
    node-test-only alternatives join the same (src, dst) pairs."""

    rep: object         # var -> its representative: `rep(var, var)`
    edge_pairs: set     # the stored pairs that edge tests read
    names: list         # the representatives, in name order
    conditions: list    # the concept atoms' conditions, in sort order
    tests: list         # (test atom, subject or None, stored pair or None)
    returns: str        # the text from " RETURN" on


_NO_ALIASES = {}
_KEY = operator.attrgetter("key")


class _Branch:
    """A branch's atoms, prepared once for all of its arms.

    Its role atoms, in sort order, are counted at once and distributed by
    `distribute`, after emission has checked the total against the arm cap;
    an atom with one alternative keeps its path.  Views are kept per tuple
    of joined pairs."""

    __slots__ = ("answer_vars", "shared", "idents", "labels", "concepts", "roles", "tests",
                 "role_arms", "arm_count", "query_vars", "edge_vars", "views", "mids", "rel_vars")

    def __init__(self, q: C2RPQ, shared: _Shared):
        self.answer_vars = q.answer_vars
        self.shared = shared
        self.idents, self.labels = shared.idents, shared.labels
        concepts, roles, tests, edge_vars = [], [], [], []
        query_vars = set()
        for atom in q.atoms:
            if isinstance(atom, RoleAtom):
                roles.append(atom)
                query_vars.add(atom.src)
                query_vars.add(atom.dst)
            elif isinstance(atom, ConceptAtom):
                concepts.append(atom)
                query_vars.add(atom.var)
            else:
                tests.append(atom)
                query_vars.update(atom.vars)
                if len(atom.vars) == 2:
                    edge_vars.append(atom.vars)
        for atoms in (concepts, roles, tests):
            if len(atoms) > 1:
                atoms.sort(key=atom_to_str)
        self.concepts, self.roles, self.tests = concepts, roles, tests
        self.role_arms = [_arm_count(atom.path) for atom in roles]
        self.arm_count = math.prod(self.role_arms)
        self.query_vars = query_vars
        self.edge_vars = edge_vars
        self.views = {}

    def distribute(self):
        """The alternatives each arm chooses, distinct and in key order; the
        arms follow the product order of the sorted role atoms' choices."""
        rels = 0  # the most that one arm can need
        if self.arm_count == 1:
            alts = []
            for a in self.roles:
                alts.append(alt := _Alternative(atom_to_str(a), a.path, a.src, a.dst, self.idents))
                rels += alt.rels
            arms = [alts]
        else:
            shared = self.shared
            choices = []
            for atom, count in zip(self.roles, self.role_arms):
                if count == 1:
                    alts = [shared.alternative(atom_to_str(atom), atom.path, atom.src, atom.dst)]
                else:
                    alts = [shared.alternative(role_atom_to_str(p, atom.src, atom.dst),
                                               p, atom.src, atom.dst)
                            for p in _distribute(atom.path)]
                choices.append(alts)
                rels += max([alt.rels for alt in alts])
            arms = (sorted(set(combo), key=_KEY) for combo in itertools.product(*choices))
        self.mids = fresh_names("m", self.query_vars, rels)
        self.rel_vars = (fresh_names("e", self.query_vars, min(rels, len(self.edge_vars)))
                         if self.edge_vars else [])
        return arms

    def _view(self, joined) -> _View:
        if joined:
            rep = self._aliases(joined).get
            edge_pairs = {(rep(a, a), rep(b, b)) for a, b in self.edge_vars}
            names = sorted({rep(v, v) for v in self.query_vars})
        else:
            rep = _NO_ALIASES.get
            edge_pairs, names = set(self.edge_vars), sorted(self.query_vars)
        idents, labels = self.idents, self.labels
        conditions = []
        for atom in self.concepts:
            if TOP not in atom.labels:
                conditions.append(labels[idents[rep(atom.var, atom.var)], atom.labels])
        tests = []
        for atom in self.tests:
            if len(atom.vars) == 1:
                (var,) = atom.vars
                tests.append((atom, idents[rep(var, var)], None))
            else:
                src, dst = atom.vars
                tests.append((atom, None, (rep(src, src), rep(dst, dst))))
        if self.answer_vars:
            returns = ", ".join([f"{idents[rep(v, v)]} AS c{i}"
                                 for i, v in enumerate(self.answer_vars)])
        else:
            returns = "1 AS c0"
        return _View(rep, edge_pairs, names, conditions, tests, f" RETURN DISTINCT {returns}")

    def _aliases(self, joined) -> dict:
        """Each variable a joined pair merges, mapped to its representative:
        of the variables merged with it, the answer variable, else the
        smallest name."""
        alias = {}

        def find(var):
            while var in alias:
                var = alias[var]
            return var

        for src, dst in joined:
            ends = {find(src), find(dst)}
            keep = min(ends, key=lambda v: (v not in self.answer_vars, v))
            for var in ends - {keep}:
                alias[var] = keep
        return {var: find(var) for var in alias}

    def _render(self, alt, here, end, mid, edge_pairs, hosts) -> tuple:
        """The alternative's relationship patterns and node tests, from
        `here` to `end`, with mids numbered from `mid`."""
        idents, labels = self.idents, self.labels
        patterns = []
        node_tests = []
        rels_left = alt.rels
        for unit in alt.units:
            if type(unit) is not tuple:
                node_tests.append(labels[idents[here], unit])
                continue
            before, after, inverted, hostable = unit
            rels_left -= 1
            there = end if rels_left == 0 else self.mids[mid]
            mid += 1
            rel_var = ""
            if hostable and edge_pairs:
                stored = (there, here) if inverted else (here, there)
                if stored in edge_pairs and stored not in hosts:
                    rel_var = hosts[stored] = self.rel_vars[len(hosts)]
            patterns.append(f"({idents[here]}{before}{rel_var}{after}{idents[there]})")
            here = there
        return patterns, node_tests

    def assemble(self, alts) -> str:
        """One arm's text from its alternatives, distinct and in key order.

        Raises the error of the first alternative that has one, then, in
        sort order, that of the first edge test without a host."""
        joined = []
        for alt in alts:
            if alt.error is not None:
                raise alt.error
            if not alt.rels:
                joined.append(alt.ends)
        joined = tuple(joined)
        view = self.views.get(joined)
        if view is None:
            view = self.views[joined] = self._view(joined)
        rep, edge_pairs, names, conditions, tests, returns = view
        patterns = []
        node_tests = []
        in_pattern = set()
        hosts = {}  # stored (src, dst) pair -> the relationship variable on it
        mid = 0
        for alt in alts:
            here, end = rep(alt.src, alt.src), rep(alt.dst, alt.dst)
            pieces = self._render(alt, here, end, mid, edge_pairs, hosts)
            patterns += pieces[0]
            node_tests += pieces[1]
            if alt.rels:
                in_pattern.add(here)
                in_pattern.add(end)
                mid += alt.rels
        if tests:
            conditions = conditions.copy()
            for atom, subject, stored in tests:
                if stored is not None:
                    subject = hosts.get(stored)
                    if subject is None:
                        raise UnsupportedPathError(
                            "an edge data test needs a plain same-direction edge atom "
                            f"between its variables: {atom.vars}")
                conditions.append(_test_condition(atom.test, subject))
        for var in names:
            if var not in in_pattern:
                patterns.append(f"({self.idents[var]})")
        text = "MATCH " + ", ".join(patterns)
        if node_tests or conditions:
            text += " WHERE " + " AND ".join(node_tests + conditions)
        return text + returns


def emit_cypher(u: UC2RPQ) -> CypherQuery:
    """Emit deterministic Cypher for a union of queries.

    Branches are sorted by their final text and joined with UNION (which is
    set-semantic, matching DISTINCT).  Raises BudgetExceededError, before
    building any arm, when the union distributes into more than
    MAX_CYPHER_ARMS arms.  Arms follow the sorted role atoms, so that when
    several arms cannot be emitted, the error names the same one whatever
    the string hash seed."""
    shared = _Shared()
    branches = []
    arms = 0
    for member in u.branches:
        branches.append(branch := _Branch(member, shared))
        arms += branch.arm_count
    if arms > MAX_CYPHER_ARMS:
        raise BudgetExceededError(
            f"emitting needs {arms} UNION arms, more than {MAX_CYPHER_ARMS}")
    diagnostics = []
    branch_texts = set()
    for branch in branches:
        for alts in branch.distribute():
            branch_texts.add(branch.assemble(alts))
        if not branch.answer_vars:
            diagnostics.append("nullary query: emitted a constant return column")
    if not branch_texts:
        raise UnsupportedPathError("cannot emit an empty union")
    text = "\nUNION\n".join(sorted(branch_texts)) + "\n"
    return CypherQuery(text, tuple(dict.fromkeys(diagnostics)))
