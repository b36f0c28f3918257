"""In-memory property graphs and walk-based evaluation of path queries.

Evaluation follows set semantics over mappings: a path expression denotes a
binary relation over nodes, and node tests denote self-pairs.  Concept
atoms and node tests read the graph's label index instead of scanning
every node, and a plain edge step's pairs are the graph's own edge index.
Data tests are compiled once per evaluation into a predicate over a
property map.

One walker, `_walk_ends`, evaluates every path form a node set at a time:
a concatenation runs from one end, and a star is a breadth-first search
that adds only new nodes (Mendelzon & Wood, SIAM J. Comput. 1995).  A
union's pairs are its branches' pairs; any other composite path's pairs
link each node that starts a walk to the ends of the walks forward from
it.

Query answers are projections of the natural join of the concept and role
atom relations.  A unary relation's rows are a set of nodes and a binary
one's a set of node pairs, often the graph's own index; the rows joined
so far are plain tuples of nodes, in the order of their variables.  A
role atom's rows are its path's pairs, except when one endpoint dangles:
it is no answer variable and occurs in no other atom, data tests
included.  Such an atom (with a path other than an edge step) is a unary
relation over its other endpoint, the walker's node set from the
dangling end.

Every relation is built before any join, so an empty one ends evaluation
at once.  Concept and edge-step atoms come first, cheapest first by the
size of the label- and edge-index entries they read, and an entry of
size 0 ends evaluation before anything is built; composite paths follow.
Ties go by `atom_sort_key`, so what gets built never follows string
hashes.  The joins start from the smallest relation and then take, each
time, the smallest relation that shares a variable with the rows so far
(the smallest of all, as a cross product, only when none shares one).
When the rows bind all of a relation's variables, the join keeps the
rows found in the relation's set; otherwise it hashes the smaller side
on the shared variable and streams the larger one.  Data tests come last
and keep the rows whose bound node, or bound endpoint pair, satisfies
them; rows over just the test's two variables, in its order, are looked
up as they stand.  Answers in the rows' own variable order are the set of
the rows.  The branches of a union share one memo table of path
relations, dangling atoms' node sets and compiled tests; an edge step's
map from a node to the nodes one edge away is the graph's own
(`PropertyGraph.step_map`), so it outlives the evaluation and repeated
evaluations over one graph build it once.
"""
from __future__ import annotations

import csv
import io
import json
import math
from itertools import chain
from operator import eq, ge, gt, itemgetter, le, lt, ne

from .errors import GraphFormatError
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
    atom_vars,
)
from .tbox import TOP

_NO_PROPS = {}  # shared read-only stand-in for an edge without properties
# The labels of every unlabelled node and the pairs of an absent edge label,
# shared: CPython builds a new empty frozenset on each frozenset() call.
_EMPTY = frozenset()


class PropertyGraph:
    """Nodes and labeled directed edges, both carrying key-value properties.

    Edge properties are keyed by the ordered endpoint pair; the loader
    rejects parallel edges that would assign conflicting values.  A node's
    labels are a frozenset, which `add_label` replaces.  Two indexes are
    kept next to `labels`: the nodes carrying each label and the endpoint
    pairs of each edge label; `edges`, every (src, label, dst) triple, is
    a new set built from the pair index.  A third, `step_map`, maps a node
    to the nodes one edge of a label away; it is built from the pair index
    the first time it is read and then extended in place by `add_edge` and
    `add_edges` with each pair they add.  Change the graph only through
    `add_node`, `add_edge`, `add_edges` and `add_label`, which keep the
    indexes.

    `add_node` and `add_edge` store the property map they are given (an
    empty one is the shared `_NO_PROPS`), so graphs and loads may share
    equal maps: a caller never changes a map after passing it in.

    A copy shares its original's label sets, property maps and index
    sets: it copies the dicts that hold them, not what they hold.  Each
    graph tracks the index keys whose sets it alone holds; `copy` leaves
    both graphs holding none, and a write to a set a graph does not hold
    alone replaces it with a changed copy first.  `add_edge` likewise
    replaces a property map rather than change it, so neither graph sees
    the other's edits.  Hence a later write to the same graph may replace
    an index set read from `pairs`, `nodes_with` or `label_entries`, or
    change it in place: to write while reading one, sort or copy it first.
    A copy starts with no step maps, so it never extends its original's.
    """

    def __init__(self):
        self.labels = {}        # node id -> frozenset of labels
        self.node_props = {}    # node id -> {key: value}
        self.edge_props = {}    # (src, dst) -> {key: value}
        self._pairs_by_label = {}   # edge label -> set of (src, dst)
        self._nodes_by_label = {}   # node label -> set of node ids
        self._own_pairs = set()     # keys of the sets above that no copy shares
        self._own_nodes = set()
        self._steps = {}            # (edge label, end) -> {node: [nodes]}, see step_map

    # -- construction -------------------------------------------------------

    def add_node(self, node_id, labels=(), props=None):
        if node_id in self.labels:
            raise GraphFormatError(f"duplicate node id {node_id!r}")
        labels = self.labels[node_id] = frozenset(labels) or _EMPTY
        self.node_props[node_id] = props or _NO_PROPS
        for label in labels:
            if label not in self._own_nodes:
                self._own(self._nodes_by_label, self._own_nodes, label)
            self._nodes_by_label[label].add(node_id)

    def add_edge(self, src, label, dst, props=None):
        for endpoint in (src, dst):
            if endpoint not in self.labels:
                raise GraphFormatError(f"edge endpoint {endpoint!r} is not a node")
        pair = (src, dst)  # one tuple for the pair index and the property map
        if label not in self._own_pairs:
            self._own(self._pairs_by_label, self._own_pairs, label)
        pairs = self._pairs_by_label[label]
        if self._steps and pair not in pairs:
            self._extend_steps(label, (pair,))
        pairs.add(pair)
        if props:
            stored = self.edge_props.get(pair)
            if stored is not None:
                for key, value in props.items():
                    if key in stored and stored[key] != value:
                        raise GraphFormatError(
                            f"conflicting property {key!r} on parallel edges {src!r}->{dst!r}")
                # A new map, never the stored one: copies share property maps.
                props = {**stored, **props}
            self.edge_props[pair] = props

    def add_edges(self, label, pairs) -> set:
        """Add a `label` edge without properties for each (src, dst) in the
        set `pairs` that the graph lacks; return the pairs added."""
        new = pairs - self.pairs(label)
        if not new:
            return new
        if not self.labels.keys() >= set().union(*new):
            raise GraphFormatError(f"a {label!r} edge endpoint is not a node")
        if label not in self._own_pairs:
            self._own(self._pairs_by_label, self._own_pairs, label)
        self._pairs_by_label[label] |= new
        if self._steps:
            self._extend_steps(label, new)
        return new

    def add_label(self, node_id, label):
        self.labels[node_id] = self.labels[node_id] | {label}
        if label not in self._own_nodes:
            self._own(self._nodes_by_label, self._own_nodes, label)
        self._nodes_by_label[label].add(node_id)

    def _extend_steps(self, label, new):
        """Add the new `label` pairs to the step maps built for it."""
        for end in (0, 1):
            step = self._steps.get((label, end))
            if step is not None:
                for pair in new:
                    step.setdefault(pair[1 - end], []).append(pair[end])

    @staticmethod
    def _own(index, owned, key):
        """Give this graph its own copy of index[key] (an empty set when the
        key is absent) and list the key in `owned`.  A write to an index
        set whose key is not in `owned` calls this first."""
        index[key] = set(index.get(key, ()))
        owned.add(key)

    # -- access ---------------------------------------------------------------

    @property
    def nodes(self):
        return self.labels.keys()

    @property
    def edges(self) -> set:
        return {(src, label, dst)
                for label, pairs in self._pairs_by_label.items() for src, dst in pairs}

    def has_label(self, node_id, name) -> bool:
        return name == TOP or name in self.labels[node_id]

    def pairs(self, label) -> set:
        return self._pairs_by_label.get(label, _EMPTY)

    def step_map(self, label, end) -> dict:
        """{node: [the nodes one `label` edge away]}, keyed by each edge's
        other end and listing its end `end` (0 its source, 1 its target).
        The graph keeps the map and the add methods extend its lists: read
        it, do not change it, and copy a list before adding edges over it."""
        key = (label, end)
        step = self._steps.get(key)
        if step is None:
            step = self._steps[key] = {}
            for pair in self.pairs(label):
                step.setdefault(pair[1 - end], []).append(pair[end])
        return step

    def label_entries(self, labels) -> list:
        """The label-index entries whose union is the nodes carrying at
        least one of `labels`: every node when one of them is TOP.  They
        are the index's own sets: read them, do not change them."""
        if TOP in labels:
            return [self.labels.keys()]
        index = self._nodes_by_label
        return [index.get(label, ()) for label in labels]

    def nodes_with(self, labels):
        """The nodes carrying at least one of `labels`, every node when one
        of them is TOP.  The result may be the index's own set: read it,
        do not change it."""
        entries = self.label_entries(labels)
        if len(entries) == 1:
            return entries[0]
        return set().union(*entries)

    def node_prop(self, node_id, key):
        return self.node_props.get(node_id, {}).get(key)

    def copy(self) -> "PropertyGraph":
        out = PropertyGraph()
        out.labels = self.labels.copy()
        out.node_props = self.node_props.copy()
        out.edge_props = self.edge_props.copy()
        out._pairs_by_label = self._pairs_by_label.copy()
        out._nodes_by_label = self._nodes_by_label.copy()
        self._own_pairs.clear()  # the copy now shares every index set
        self._own_nodes.clear()
        return out


# ---------------------------------------------------------------------------
# Loading and dumping


def _check_value(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise GraphFormatError(
            f"property values must be integers, decimals or strings ({where})")
    if isinstance(value, float) and not math.isfinite(value):
        raise GraphFormatError(f"property values must be finite numbers ({where})")
    return value


def _check_props(props, where, share):
    """The checked map, each key one string per load, and one map object
    per load for each sequence of keys and values: values of different
    types or texts (1 and 1.0, 0.0 and -0.0) never share one."""
    if not isinstance(props, dict):
        raise GraphFormatError(f"props must be an object ({where})")
    if not props:
        return _NO_PROPS
    checked = {share(k, k): _check_value(v, where) for k, v in props.items()}
    return share(tuple([(k, repr(v)) for k, v in checked.items()]), checked)


def _node_ref(record, key, kind, lineno):
    """A JSONL node id, edge source or edge target: a string, or an integer
    read as its decimal string."""
    value = record.get(key)
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    if key not in record:
        raise GraphFormatError(f"{kind} record needs {key!r}", lineno)
    raise GraphFormatError(f"{kind} {key!r} must be a string or an integer", lineno)


def load_graph(text: str) -> PropertyGraph:
    """Load a graph from JSON-lines: node records first or interleaved.

    Each distinct node id, label and property key is one string object
    within the graph, so edge endpoints share their node's id; equal label
    sets and equal property maps are one object each."""
    g = PropertyGraph()
    # name, label set or property map -> its first object, for this load only
    share = {}.setdefault
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
            labels = record.get("labels", [])
            if not (isinstance(labels, list)
                    and all(isinstance(label, str) for label in labels)):
                raise GraphFormatError("labels must be a list of strings", lineno)
            node_id = _node_ref(record, "id", "node", lineno)
            labels = frozenset(map(share, labels, labels))
            g.add_node(
                share(node_id, node_id),
                share(labels, labels),
                _check_props(record.get("props", {}), f"line {lineno}", share),
            )
        elif record["type"] == "edge":
            pending_edges.append((lineno, record))
        else:
            raise GraphFormatError(f"unknown record type {record['type']!r}", lineno)
    for lineno, record in pending_edges:
        src = _node_ref(record, "src", "edge", lineno)
        label = record.get("label")
        if not (isinstance(label, str) and label):
            raise GraphFormatError("edge record needs a 'label' that is a non-empty string",
                                   lineno)
        dst = _node_ref(record, "dst", "edge", lineno)
        try:
            g.add_edge(share(src, src), share(label, label), share(dst, dst),
                       _check_props(record.get("props", {}), f"line {lineno}", share))
        except GraphFormatError as exc:
            raise GraphFormatError(str(exc), lineno) from None
    return g


def _csv_records(text, kind, columns):
    """Yield (row, props) per CSV row of `kind`, with every column in `columns` set."""
    reader = csv.DictReader(io.StringIO(text))
    for row in reader:
        for column in columns:
            if row.get(column) is None:
                raise GraphFormatError(f"{kind} record needs {column!r}",
                                       reader.line_num)
        try:
            props = json.loads(row.get("props") or row.get("props-json") or "{}")
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"malformed props JSON: {exc.msg}",
                                   reader.line_num) from None
        yield row, props


def load_graph_csv(nodes_text: str, edges_text: str) -> PropertyGraph:
    """Load a graph from the CSV pair (id,labels,props / src,label,dst,props).

    Labels are `;`-separated; the props column (`props` or `props-json`)
    holds JSON objects.  As in `load_graph`, each distinct name is one
    string object within the graph, and equal label sets and property maps
    are one object each.
    """
    g = PropertyGraph()
    # name, label set or property map -> its first object, for this load only
    share = {}.setdefault
    for row, props in _csv_records(nodes_text, "node", ("id",)):
        labels = frozenset([share(l, l) for l in (row.get("labels") or "").split(";") if l])
        g.add_node(share(row["id"], row["id"]), share(labels, labels),
                   _check_props(props, f"node {row['id']}", share))
    for row, props in _csv_records(edges_text, "edge", ("src", "label", "dst")):
        src, label, dst = row["src"], row["label"], row["dst"]
        g.add_edge(share(src, src), share(label, label), share(dst, dst),
                   _check_props(props, f"edge {src}->{dst}", share))
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

_COMPARISONS = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def compile_test(test):
    """A predicate over one node's or one edge's property map that tells
    whether a data test holds there.  A comparison with an absent property
    fails, and an ordering holds only between numbers (not booleans)."""
    if isinstance(test, DataTest):
        key, literal, compare = test.key, test.value, _COMPARISONS[test.op]
        if test.op in ("=", "!="):
            def holds(props):
                stored = props.get(key)
                return stored is not None and compare(stored, literal)
        elif not isinstance(literal, (int, float)):
            def holds(props):
                return False
        else:
            def holds(props):
                stored = props.get(key)
                return (isinstance(stored, (int, float)) and not isinstance(stored, bool)
                        and compare(stored, literal))
        return holds
    if isinstance(test, TestAnd):
        left, right = compile_test(test.left), compile_test(test.right)
        return lambda props: left(props) and right(props)
    if isinstance(test, TestOr):
        left, right = compile_test(test.left), compile_test(test.right)
        return lambda props: left(props) or right(props)
    if isinstance(test, TestNot):
        inner = compile_test(test.inner)
        return lambda props: not inner(props)
    raise TypeError(f"not a test expression: {test!r}")


# ---------------------------------------------------------------------------
# Path evaluation


def path_pairs(path, g: PropertyGraph, _cache=None):
    """The binary relation a path expression denotes over g's nodes, as a
    set of node pairs.  An edge step's pairs are the graph's own edge
    index, and a union's are its branches'; any other path's pairs come
    from `_walk_ends`, walking forward from each node that starts a walk.
    The result may be the graph's index or a cached value: read it, do not
    change it."""
    if _cache is None:
        _cache = {}
    hit = _cache.get(path)
    if hit is not None:
        return hit
    if isinstance(path, EdgeStep):
        pairs = g.pairs(path.role.name)
        result = frozenset((v, u) for u, v in pairs) if path.role.inverted else pairs
    elif isinstance(path, UnionPath):
        result = frozenset().union(*(path_pairs(b, g, _cache) for b in path.branches))
    else:
        result = frozenset((u, v) for u in _walk_ends(path, g, None, False)
                           for v in _walk_ends(path, g, {u}, True))
    _cache[path] = result
    return result


def _walk_ends(path, g: PropertyGraph, ends, forward: bool) -> set:
    """The nodes that start a walk matching `path` and ending in `ends`, or,
    when `forward`, that end such a walk starting in `ends`; `ends` None
    stands for every node.  Evaluated a set of nodes at a time, an edge
    step through the graph's `step_map`."""
    if isinstance(path, EdgeStep):
        # Position, in the role's stored (src, dst) pairs, of the end we return.
        far = int(path.role.inverted != forward)
        if ends is None:
            return {pair[far] for pair in g.pairs(path.role.name)}
        step = g.step_map(path.role.name, far)
        out = set()
        for node in ends:
            out.update(step.get(node, ()))
        return out
    if isinstance(path, NodeTest):
        nodes = g.nodes_with(path.labels)
        return set(nodes) if ends is None else ends.intersection(nodes)
    if isinstance(path, Concat):
        for part in (path.parts if forward else reversed(path.parts)):
            ends = _walk_ends(part, g, ends, forward)
            if not ends:
                break
        return ends
    if isinstance(path, UnionPath):
        return set().union(*(_walk_ends(branch, g, ends, forward)
                             for branch in path.branches))
    if isinstance(path, Star):
        if ends is None:
            return set(g.nodes)  # the zero-length walk
        reached = set(ends)
        frontier = reached
        while frontier:
            frontier = _walk_ends(path.inner, g, frontier, forward) - reached
            reached |= frontier
        return reached
    raise TypeError(f"not a path expression: {path!r}")


# ---------------------------------------------------------------------------
# Query evaluation


def _relation(atom, g: PropertyGraph, cache):
    """(variables, rows) of a concept or role atom.  A unary relation's rows
    are a set of nodes and a binary one's a set of node pairs; either may
    be the graph's index or a cached value: read it, do not change it."""
    if isinstance(atom, ConceptAtom):
        return (atom.var,), g.nodes_with(atom.labels)
    if isinstance(atom, RoleAtom):
        pairs = cache.get(atom.path)
        if pairs is None:
            pairs = path_pairs(atom.path, g, cache)
        if atom.src == atom.dst:
            return (atom.src,), {u for u, v in pairs if u == v}
        return (atom.src, atom.dst), pairs
    raise TypeError(f"not an atom: {atom!r}")


def _dangling_relation(atom, g: PropertyGraph, cache, seen):
    """(variables, rows) of a role atom with two distinct endpoints when one
    of them dangles, else None.  `seen` lists every variable occurrence in
    the head and in the atoms, data tests included: an endpoint listed once
    is no answer variable and occurs in no other atom, so the rows are just
    the set of nodes at the atom's other end."""
    if seen.count(atom.dst) == 1:
        forward, kept = False, atom.src
    elif seen.count(atom.src) == 1:
        forward, kept = True, atom.dst
    else:
        return None
    key = (atom.path, forward)
    rows = cache.get(key)
    if rows is None:
        rows = cache[key] = _walk_ends(atom.path, g, None, forward)
    return (kept,), rows


def _hash_join(variables, rows, relation):
    """Join rows over `variables` with a relation as `_relation` gives it.

    When the rows bind every variable of the relation, the join is a
    semi-join: it keeps the rows whose values are in the relation's set.
    When they bind one of a binary relation's two, the smaller side is
    hashed on that variable and the larger one streamed past it."""
    rel_vars, rel_rows = relation
    if len(rel_vars) == 1:
        if rel_vars[0] in variables:
            i = variables.index(rel_vars[0])
            return variables, [row for row in rows if row[i] in rel_rows]
        return variables + rel_vars, [row + (node,) for row in rows for node in rel_rows]
    src, dst = rel_vars
    if src in variables:
        if dst in variables:
            key = itemgetter(variables.index(src), variables.index(dst))
            return variables, [row for row in rows if key(row) in rel_rows]
        shared, new = 0, 1
    elif dst in variables:
        shared, new = 1, 0
    elif variables:
        return variables + rel_vars, [row + pair for row in rows for pair in rel_rows]
    else:
        return rel_vars, rel_rows
    variables += (rel_vars[new],)
    i = variables.index(rel_vars[shared])
    index = {}
    if len(rows) >= len(rel_rows):
        for pair in rel_rows:
            index.setdefault(pair[shared], []).append(pair[new])
        return variables, [row + (node,) for row in rows for node in index.get(row[i], ())]
    for row in rows:
        index.setdefault(row[i], []).append(row)
    return variables, [row + (pair[new],) for pair in rel_rows
                       for row in index.get(pair[shared], ())]


def _in_build_order(atoms, g: PropertyGraph):
    """The order in which `_eval_branch` builds the atoms' relations, or
    None when an index read shows that one of them is empty.

    Concept and edge-step atoms come first, cheapest first by the size of
    the label- or edge-index entries they read, found without building
    anything; composite paths follow.  Ties go by `atom_sort_key`, so the
    relations built never follow string hashes."""
    indexed, composite = [], []
    for atom in atoms:
        if isinstance(atom, ConceptAtom):
            size = sum(map(len, g.label_entries(atom.labels)))
        elif isinstance(atom.path, EdgeStep):
            size = len(g.pairs(atom.path.role.name))
        else:
            composite.append(atom)
            continue
        if not size:
            return None
        indexed.append((size, atom))
    indexed.sort(key=lambda entry: (entry[0], atom_sort_key(entry[1])))
    composite.sort(key=atom_sort_key)
    return [atom for _, atom in indexed] + composite


def _eval_branch(q: C2RPQ, g: PropertyGraph, cache) -> set:
    """Answer tuples of one C2RPQ; `cache` is `eval_query`'s memo table."""
    tests = [atom for atom in q.atoms if isinstance(atom, TestAtom)]
    atoms = [atom for atom in q.atoms if not isinstance(atom, TestAtom)]
    unbound = {v for atom in tests for v in atom.vars}.difference(*map(atom_vars, atoms))
    if unbound:
        raise ValueError(f"variables occur only in data tests: {', '.join(sorted(unbound))}")
    if len(atoms) > 1:
        atoms = _in_build_order(atoms, g)
        if atoms is None:
            return set()
    seen = None  # variable occurrences, listed at the first composite path
    relations = []
    for atom in atoms:
        relation = None
        # Only a composite path's endpoints may dangle: an edge step's pairs
        # are the graph's own index, so looking would cost more than it saves.
        if (isinstance(atom, RoleAtom) and atom.src != atom.dst
                and not isinstance(atom.path, EdgeStep)):
            if seen is None:
                seen = [*q.answer_vars, *chain.from_iterable(map(atom_vars, q.atoms))]
            relation = _dangling_relation(atom, g, cache, seen)
        if relation is None:
            relation = _relation(atom, g, cache)
        if not relation[1]:
            return set()
        relations.append(relation)
    variables, rows = (), [()]
    while relations:
        # The smallest relation linked to the rows so far, else the smallest.
        bound = set(variables)
        linked = [i for i, (rel_vars, _) in enumerate(relations)
                  if not bound.isdisjoint(rel_vars)]
        nearest = min(linked or range(len(relations)), key=lambda i: len(relations[i][1]))
        variables, rows = _hash_join(variables, rows, relations.pop(nearest))
        if not rows:
            return set()
    for atom in tests:
        holds = cache.get(atom.test)
        if holds is None:
            holds = cache[atom.test] = compile_test(atom.test)
        if len(atom.vars) == 1:
            i = variables.index(atom.vars[0])
            rows = [row for row in rows if holds(g.node_props[row[i]])]
            continue
        props = g.edge_props
        if atom.vars == variables:
            # Each row is the test's endpoint pair itself.
            rows = [row for row in rows if holds(props.get(row, _NO_PROPS))]
        else:
            ends = itemgetter(*map(variables.index, atom.vars))
            rows = [row for row in rows if holds(props.get(ends(row), _NO_PROPS))]
    if not q.answer_vars:
        return {()} if rows else set()
    if q.answer_vars == variables:
        return set(rows)
    if len(q.answer_vars) == 1:
        position = variables.index(q.answer_vars[0])
        return {(row[position],) for row in rows}
    return set(map(itemgetter(*(variables.index(v) for v in q.answer_vars)), rows))


def eval_query(q, g: PropertyGraph) -> set:
    """Answer tuples of a C2RPQ or UC2RPQ over g.

    Raises ValueError when a data-test variable occurs in no other atom.
    """
    # One memo table, shared by the branches of a union: path -> pairs, data
    # test -> predicate, and (path, forward) -> a dangling atom's node set.
    cache = {}
    if isinstance(q, UC2RPQ):
        if len(q.branches) == 1:
            return _eval_branch(q.branches[0], g, cache)
        out = set()
        for branch in q.branches:
            out.update(_eval_branch(branch, g, cache))
        return out
    if not isinstance(q, C2RPQ):
        raise TypeError(f"not a query: {q!r}")
    return _eval_branch(q, g, cache)
