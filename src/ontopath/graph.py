"""In-memory property graphs and walk-based evaluation of path queries.

Evaluation follows set semantics over mappings: a path expression denotes a
binary relation over nodes, node tests denote self-pairs, the Kleene star is
computed as a reachability fixpoint (identity pairs plus transitive closure
of the inner relation).  Query answers are projections of the natural join
of the concept and role atom relations; data tests come last and keep the
rows whose bound node, or bound endpoint pair, satisfies them.
"""
from __future__ import annotations

import csv
import io
import json

from .errors import GraphFormatError
from .query import (
    C2RPQ,
    Concat,
    ConceptAtom,
    DataTest,
    EdgeStep,
    NodeTest,
    PropTest,
    RoleAtom,
    Star,
    TestAnd,
    TestAtom,
    TestNot,
    TestOr,
    UC2RPQ,
    UnionPath,
    atom_sort_key,
    atom_vars,
)
from .tbox import TOP

_NO_PROPS = {}  # shared read-only stand-in for an edge without properties


class PropertyGraph:
    """Nodes and labeled directed edges, both carrying key-value properties.

    Edge properties are keyed by the ordered endpoint pair; the loader
    rejects parallel edges that would assign conflicting values.
    """

    def __init__(self):
        self.labels = {}        # node id -> set of labels
        self.node_props = {}    # node id -> {key: value}
        self.edges = set()      # (src, label, dst)
        self.edge_props = {}    # (src, dst) -> {key: value}
        self._pairs_by_label = {}

    # -- construction -------------------------------------------------------

    def add_node(self, node_id, labels=(), props=None):
        if node_id in self.labels:
            raise GraphFormatError(f"duplicate node id {node_id!r}")
        self.labels[node_id] = set(labels)
        self.node_props[node_id] = dict(props or {})

    def add_edge(self, src, label, dst, props=None):
        for endpoint in (src, dst):
            if endpoint not in self.labels:
                raise GraphFormatError(f"edge endpoint {endpoint!r} is not a node")
        self.edges.add((src, label, dst))
        self._pairs_by_label.setdefault(label, set()).add((src, dst))
        if props:
            stored = self.edge_props.setdefault((src, dst), {})
            for key, value in props.items():
                if key in stored and stored[key] != value:
                    raise GraphFormatError(
                        f"conflicting property {key!r} on parallel edges {src!r}->{dst!r}")
                stored[key] = value

    def add_label(self, node_id, label):
        self.labels[node_id].add(label)

    # -- access ---------------------------------------------------------------

    @property
    def nodes(self):
        return self.labels.keys()

    def has_label(self, node_id, name) -> bool:
        return name == TOP or name in self.labels[node_id]

    def pairs(self, label) -> set:
        return self._pairs_by_label.get(label, set())

    def node_prop(self, node_id, key):
        return self.node_props.get(node_id, {}).get(key)

    def copy(self) -> "PropertyGraph":
        out = PropertyGraph()
        out.labels = {n: set(ls) for n, ls in self.labels.items()}
        out.node_props = {n: dict(ps) for n, ps in self.node_props.items()}
        out.edges = set(self.edges)
        out.edge_props = {pair: dict(ps) for pair, ps in self.edge_props.items()}
        out._pairs_by_label = {l: set(ps) for l, ps in self._pairs_by_label.items()}
        return out


# ---------------------------------------------------------------------------
# Loading and dumping


def _check_value(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise GraphFormatError(
            f"property values must be integers, decimals or strings ({where})")
    return value


def _check_props(props, where):
    if not isinstance(props, dict):
        raise GraphFormatError(f"props must be an object ({where})")
    return {k: _check_value(v, where) for k, v in props.items()}


def load_graph(text: str) -> PropertyGraph:
    """Load a graph from JSON-lines: node records first or interleaved."""
    g = PropertyGraph()
    pending_edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"malformed JSON: {exc.msg}", lineno) from None
        if not isinstance(record, dict) or "type" not in record:
            raise GraphFormatError("each line needs a 'type' field", lineno)
        if record["type"] == "node":
            try:
                g.add_node(
                    str(record["id"]),
                    record.get("labels", ()),
                    _check_props(record.get("props", {}), f"line {lineno}"),
                )
            except KeyError:
                raise GraphFormatError("node record needs an 'id'", lineno) from None
        elif record["type"] == "edge":
            pending_edges.append((lineno, record))
        else:
            raise GraphFormatError(f"unknown record type {record['type']!r}", lineno)
    for lineno, record in pending_edges:
        try:
            src, label, dst = str(record["src"]), str(record["label"]), str(record["dst"])
        except KeyError as exc:
            raise GraphFormatError(f"edge record needs {exc.args[0]!r}", lineno) from None
        try:
            g.add_edge(src, label, dst,
                       _check_props(record.get("props", {}), f"line {lineno}"))
        except GraphFormatError as exc:
            raise GraphFormatError(str(exc), lineno) from None
    return g


def _row_props(row):
    return json.loads(row.get("props") or row.get("props-json") or "{}")


def load_graph_csv(nodes_text: str, edges_text: str) -> PropertyGraph:
    """Load a graph from the CSV pair (id,labels,props / src,label,dst,props).

    Labels are `;`-separated; the props column (`props` or `props-json`)
    holds JSON objects.
    """
    g = PropertyGraph()
    for row in csv.DictReader(io.StringIO(nodes_text)):
        labels = [l for l in (row.get("labels") or "").split(";") if l]
        g.add_node(row["id"], labels,
                   _check_props(_row_props(row), f"node {row['id']}"))
    for row in csv.DictReader(io.StringIO(edges_text)):
        g.add_edge(row["src"], row["label"], row["dst"],
                   _check_props(_row_props(row), f"edge {row['src']}->{row['dst']}"))
    return g


def graph_to_jsonl(g: PropertyGraph) -> str:
    lines = []
    for node in sorted(g.nodes):
        record = {"type": "node", "id": node}
        if g.labels[node]:
            record["labels"] = sorted(g.labels[node])
        if g.node_props.get(node):
            record["props"] = dict(sorted(g.node_props[node].items()))
        lines.append(json.dumps(record, sort_keys=True))
    for src, label, dst in sorted(g.edges):
        record = {"type": "edge", "src": src, "label": label, "dst": dst}
        props = g.edge_props.get((src, dst))
        if props:
            record["props"] = dict(sorted(props.items()))
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Data tests


def compare_values(op, stored, literal) -> bool:
    """Comparison per the evaluation table; absent or mistyped orderings fail."""
    if stored is None:
        return False
    if op == "=":
        return stored == literal
    if op == "!=":
        return stored != literal
    if isinstance(stored, bool) or not isinstance(stored, (int, float)):
        return False
    if not isinstance(literal, (int, float)):
        return False
    return {"<": stored < literal, "<=": stored <= literal,
            ">": stored > literal, ">=": stored >= literal}[op]


def test_holds(test, props) -> bool:
    """Whether a data test holds on one node's or one edge's properties."""
    if isinstance(test, DataTest):
        return compare_values(test.op, props.get(test.key), test.value)
    if isinstance(test, TestAnd):
        return test_holds(test.left, props) and test_holds(test.right, props)
    if isinstance(test, TestOr):
        return test_holds(test.left, props) or test_holds(test.right, props)
    if isinstance(test, TestNot):
        return not test_holds(test.inner, props)
    raise TypeError(f"not a test expression: {test!r}")


# ---------------------------------------------------------------------------
# Path evaluation


def path_pairs(path, g: PropertyGraph, _cache=None) -> frozenset:
    """The binary relation a path expression denotes over g's nodes."""
    if _cache is None:
        _cache = {}
    hit = _cache.get(path)
    if hit is not None:
        return hit
    if isinstance(path, EdgeStep):
        pairs = g.pairs(path.role.name)
        result = frozenset((v, u) for u, v in pairs) if path.role.inverted else frozenset(pairs)
    elif isinstance(path, NodeTest):
        result = frozenset(
            (n, n) for n in g.nodes if any(g.has_label(n, l) for l in path.labels))
    elif isinstance(path, PropTest):
        if path.on_edge:
            result = frozenset(
                (u, v) for u in g.nodes for v in g.nodes
                if test_holds(path.test, g.edge_props.get(
                    (v, u) if path.flipped else (u, v), _NO_PROPS)))
        else:
            result = frozenset(
                (n, n) for n in g.nodes if test_holds(path.test, g.node_props[n]))
    elif isinstance(path, Concat):
        result = path_pairs(path.parts[0], g, _cache)
        for part in path.parts[1:]:
            step = path_pairs(part, g, _cache)
            by_src = {}
            for u, v in step:
                by_src.setdefault(u, []).append(v)
            result = frozenset(
                (u, w) for u, v in result for w in by_src.get(v, ()))
    elif isinstance(path, UnionPath):
        result = frozenset().union(*(path_pairs(b, g, _cache) for b in path.branches))
    elif isinstance(path, Star):
        base = path_pairs(path.inner, g, _cache)
        succ = {}
        for u, v in base:
            succ.setdefault(u, set()).add(v)
        closure = {(n, n) for n in g.nodes}
        frontier = {(n, n) for n in g.nodes}
        while frontier:
            new = set()
            for u, v in frontier:
                for w in succ.get(v, ()):
                    if (u, w) not in closure:
                        closure.add((u, w))
                        new.add((u, w))
            frontier = new
        result = frozenset(closure)
    else:
        raise TypeError(f"not a path expression: {path!r}")
    _cache[path] = result
    return result


def eval_path(path, x: str, y: str, g: PropertyGraph) -> set:
    """Mappings {x, y} -> nodes matched by the path (x == y forces loops)."""
    pairs = path_pairs(path, g)
    if x == y:
        return {((x, u),) for u, v in pairs if u == v}
    return {((x, u), (y, v)) for u, v in pairs}


# ---------------------------------------------------------------------------
# Query evaluation


def _atom_rows(atom, g: PropertyGraph):
    if isinstance(atom, ConceptAtom):
        return [{atom.var: n} for n in g.nodes
                if any(g.has_label(n, l) for l in atom.labels)]
    if isinstance(atom, RoleAtom):
        pairs = path_pairs(atom.path, g)
        if atom.src == atom.dst:
            return [{atom.src: u} for u, v in pairs if u == v]
        return [{atom.src: u, atom.dst: v} for u, v in pairs]
    raise TypeError(f"not an atom: {atom!r}")


def _test_props(atom: TestAtom, row, g: PropertyGraph):
    ends = tuple(row[v] for v in atom.vars)  # one node, or an endpoint pair
    return g.node_props[ends[0]] if len(ends) == 1 else g.edge_props.get(ends, _NO_PROPS)


def _join(rows, extra):
    out = []
    for row in rows:
        for add in extra:
            for k, v in add.items():
                if row.get(k, v) != v:
                    break
            else:
                out.append({**row, **add})
    return out


def eval_query(q, g: PropertyGraph) -> set:
    """Answer tuples of a C2RPQ or UC2RPQ over g.

    Raises ValueError when a data-test variable occurs in no other atom.
    """
    if isinstance(q, UC2RPQ):
        out = set()
        for branch in q.branches:
            out.update(eval_query(branch, g))
        return out
    if not isinstance(q, C2RPQ):
        raise TypeError(f"not a query: {q!r}")
    atoms = sorted(q.atoms, key=atom_sort_key)  # data tests sort last
    test_vars = {v for atom in atoms if isinstance(atom, TestAtom) for v in atom.vars}
    unbound = test_vars.difference(*(atom_vars(a) for a in atoms if not isinstance(a, TestAtom)))
    if unbound:
        raise ValueError(f"variables occur only in data tests: {', '.join(sorted(unbound))}")
    rows = [{}]
    for atom in atoms:
        if isinstance(atom, TestAtom):
            rows = [row for row in rows
                    if test_holds(atom.test, _test_props(atom, row, g))]
        else:
            rows = _join(rows, _atom_rows(atom, g))
        if not rows:
            return set()
    return {tuple(row[v] for v in q.answer_vars) for row in rows}
