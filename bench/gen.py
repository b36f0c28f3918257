"""Seeded input generators for the benchmark, producing the text the program parses.

Three sources of inputs live here:

* the acceptance-sweep distribution, a standalone copy of
  ``tests/corpus.py`` and ``tests/oracles.random_graph`` that consumes the
  random stream in exactly the same order, so the same seed yields
  byte-identical instances and an edit under ``tests/`` cannot move the
  benchmark's inputs;
* the two TBox families ``chain-n`` and ``mixed-n`` with names and axiom
  order permuted by the seed;
* a property-graph generator with a ``partOf`` forest and
  ``teaches``/``mentors`` edges carrying a ``since`` property.

Nothing here imports ontopath.  The family and graph references are
computed from the generators' own records by direct traversal, so they do
not depend on the code they check.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class Instance:
    """One benchmark input: texts for the program plus the expected answers.

    ``expected`` is None when the reference is the bounded chase.
    """

    name: str
    tbox: str
    query: str
    graph: str
    expected: frozenset | None = None


def graph_text(nodes, edges) -> str:
    """JSON lines for nodes ``(id, labels, props)`` and edges ``(src, label, dst, props)``."""
    lines = []
    for node_id, labels, props in nodes:
        lines.append(json.dumps({"type": "node", "id": node_id,
                                 "labels": list(labels), "props": props}))
    for src, label, dst, props in edges:
        record = {"type": "edge", "src": src, "label": label, "dst": dst}
        if props:
            record["props"] = props
        lines.append(json.dumps(record))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Acceptance-sweep distribution (mirrors tests/corpus.py, draw for draw)

SWEEP_SEED = 20250811
SWEEP_SIZE = 500
NAMES = [f"A{i}" for i in range(8)]
ROLES = [f"r{i}" for i in range(4)]
PROP_KEYS = ("k0", "k1")


def _role_term(rng):
    role = rng.choice(ROLES)
    return f"inv({role})" if rng.random() < 0.25 else role


def sweep_tbox(rng: random.Random) -> str:
    lines = []
    generating = 0
    for _ in range(rng.randint(2, 12)):
        kind = rng.random()
        if kind < 0.30:
            a, b = rng.sample(NAMES, 2)
            lines.append(f"{a} <= {b}")
        elif kind < 0.46:
            a, b = rng.sample(NAMES, 2)
            lines.append(f"{a} & {b} <= {rng.choice(NAMES)}")
        elif kind < 0.70:
            filler = "top" if rng.random() < 0.15 else rng.choice(NAMES)
            lines.append(f"exists {_role_term(rng)} . {filler} <= {rng.choice(NAMES)}")
        elif kind < 0.88 and generating < 3:
            generating += 1
            filler = "top" if rng.random() < 0.15 else rng.choice(NAMES)
            lines.append(f"{rng.choice(NAMES)} <= exists {_role_term(rng)} . {filler}")
        else:
            sub, sup = rng.sample(ROLES, 2)
            sub_term = f"inv({sub})" if rng.random() < 0.2 else sub
            sup_term = f"inv({sup})" if rng.random() < 0.15 else sup
            lines.append(f"{sub_term} <= {sup_term}")
    return "\n".join(lines)


def sweep_query(rng: random.Random) -> str:
    # The test-suite generator retries on a parse error; its queries are
    # connected by construction and always parse, so one draw suffices.
    known = ["x"]
    atoms = []
    for position in range(rng.randint(1, 4)):
        kind = rng.random()
        src = rng.choice(known)
        if position > 0 and kind < 0.30:
            count = 2 if rng.random() < 0.25 else 1
            labels = rng.sample(NAMES, count)
            atoms.append(f"({'|'.join(labels)})({src})" if count > 1
                         else f"{labels[0]}({src})")
        elif kind < 0.85 or position == 0:
            if rng.random() < 0.65 and len(known) < 4:
                dst = f"v{len(known)}"
                known.append(dst)
            else:
                dst = rng.choice(known)
            atoms.append(f"{_role_term(rng)}({src},{dst})")
        else:
            key = rng.choice(PROP_KEYS)
            op = rng.choice([">", "<", ">=", "<=", "=", "!="])
            atoms.append(f"{key}{op}{rng.randint(0, 40)}({src})")
    return f"q(x) :- {', '.join(atoms)}"


def sweep_graph(rng: random.Random) -> str:
    n = rng.randint(1, 6)
    names = [f"n{i}" for i in range(n)]
    nodes = []
    for name in names:
        node_labels = [l for l in NAMES if rng.random() < 0.4]
        props = {k: rng.randint(0, 50) for k in PROP_KEYS if rng.random() < 0.5}
        nodes.append((name, node_labels, props))
    edges = []
    for u in names:
        for v in names:
            pair_props = {k: rng.randint(0, 50) for k in PROP_KEYS
                          if rng.random() < 0.3}
            for role in ROLES:
                if rng.random() < 0.18:
                    edges.append((u, role, v, pair_props))
    return graph_text(nodes, edges)


def sweep_instances(seed=SWEEP_SEED, size=SWEEP_SIZE) -> list:
    """The acceptance sweep: (tbox, graph, query) drawn in that order per instance."""
    rng = random.Random(seed)
    out = []
    for index in range(size):
        tbox = sweep_tbox(rng)
        graph = sweep_graph(rng)
        query = sweep_query(rng)
        out.append(Instance(f"sweep-{index}", tbox, query, graph))
    return out


# ---------------------------------------------------------------------------
# TBox families


def _sparse_indices(rng, count):
    """`count` distinct small integers in random order, for permuted names.

    They are zero-padded to one width, so that the names, and the Cypher
    emitted for them, are equally long for every seed.
    """
    pool = 2 * count + 2
    width = len(str(pool - 1))
    return [f"{i:0{width}d}" for i in rng.sample(range(pool), count)]


CHAIN_GRAPH_NODES = 24
MIXED_GRAPH_NODES = 16


def chain_instance(rng: random.Random, n: int, shape_seed) -> Instance:
    """chain-n: A0 <= A1 <= ... <= An, query An(x), names and order permuted.

    `rng` permutes the names and axioms; `shape_seed` fixes which chain
    positions label which graph nodes, so that evaluation work does not
    change with the permutation.  Every chain name entails the last one,
    so the certain answers are the nodes carrying any chain label.
    """
    names = [f"A{i}" for i in _sparse_indices(rng, n + 1)]
    axioms = [f"{names[i]} <= {names[i + 1]}" for i in range(n)]
    rng.shuffle(axioms)
    shape = random.Random(shape_seed)
    nodes = []
    expected = set()
    for index in range(CHAIN_GRAPH_NODES):
        node_id = f"c{index}"
        labels = []
        if shape.random() < 0.5:
            labels.append(names[shape.randrange(n + 1)])
            expected.add((node_id,))
        if shape.random() < 0.2:
            labels.append("Other")
        nodes.append((node_id, labels, {}))
    return Instance(f"chain-{n}", "\n".join(axioms), f"q(x) :- {names[n]}(x)",
                    graph_text(nodes, []), frozenset(expected))


def mixed_instance(rng: random.Random, n: int, shape_seed) -> Instance:
    """mixed-n: a role chain r0 <= ... <= rn, plus for i < n the axioms
    Bi <= exists ri . Ci and exists ri . Ci <= D, with query
    q(x) :- rn(x,y), C0(y), D(x); names and axiom order permuted by `rng`,
    graph shape (which indices label and link which nodes) fixed by
    `shape_seed`.

    Every chain role is a subrole of rn.  D(x) holds where x carries D or
    some Bi, or has an rk edge (k <= i < n) to a Ci node.  The answers are
    the B0 nodes (whose witness is an r0-successor in C0) and the D nodes
    with a chain edge to a C0 node.
    """
    roles = [f"r{i}" for i in _sparse_indices(rng, n + 1)]
    tags = _sparse_indices(rng, n)
    b_names = [f"B{i}" for i in tags]
    c_names = [f"C{i}" for i in tags]
    axioms = [f"{roles[i]} <= {roles[i + 1]}" for i in range(n)]
    for i in range(n):
        axioms.append(f"{b_names[i]} <= exists {roles[i]} . {c_names[i]}")
        axioms.append(f"exists {roles[i]} . {c_names[i]} <= D")
    rng.shuffle(axioms)
    query = f"q(x) :- {roles[n]}(x,y), {c_names[0]}(y), D(x)"

    shape = random.Random(shape_seed)
    ids = [f"m{index}" for index in range(MIXED_GRAPH_NODES)]
    labels = {}
    for node_id in ids:
        own = []
        if shape.random() < 0.25:
            own.append(b_names[shape.randrange(n)])
        if shape.random() < 0.4:
            own.append(c_names[shape.randrange(n)])
        if shape.random() < 0.15:
            own.append("D")
        labels[node_id] = own
    edges = []
    used = set()
    for _ in range(2 * MIXED_GRAPH_NODES):
        u, v = shape.choice(ids), shape.choice(ids)
        if (u, v) in used:
            continue
        used.add((u, v))
        edges.append((u, shape.randrange(n + 1), v))

    def has_d(x):
        if "D" in labels[x] or any(b in labels[x] for b in b_names):
            return True
        return any(src == x and k <= i and c_names[i] in labels[dst]
                   for src, k, dst in edges for i in range(n))

    expected = {
        (x,) for x in ids
        if b_names[0] in labels[x]
        or (has_d(x) and any(src == x and c_names[0] in labels[dst]
                             for src, _k, dst in edges))
    }
    nodes = [(node_id, labels[node_id], {}) for node_id in ids]
    edge_records = [(u, roles[k], v, {}) for u, k, v in edges]
    return Instance(f"mixed-{n}", "\n".join(axioms), query,
                    graph_text(nodes, edge_records), frozenset(expected))


# ---------------------------------------------------------------------------
# Property graphs under the golden rewritings

GRAPH_QUERIES = {
    # name: (tbox, query), the three golden instances plus an edge data test
    "hierarchy": ("mentors <= teaches", "q(x,y) :- teaches(x,y)"),
    "region": ("exists partOf . Region <= Region", "q(x) :- Region(x)"),
    "teacher": ("Teacher <= exists teaches . Student",
                "q(x) :- teaches(x,y), Student(y)"),
    "since": ("exists partOf . Region <= Region",
              "q(x,y) :- teaches(x,y), since>2000(x,y)"),
}


@dataclass(frozen=True)
class GeneratedGraph:
    nodes: tuple   # (id, labels, props)
    edges: tuple   # (src, label, dst, props), at most one per ordered pair

    def text(self) -> str:
        return graph_text(self.nodes, self.edges)


def property_graph(rng: random.Random, n: int) -> GeneratedGraph:
    """n nodes; a partOf forest (a random recursive tree per root, so depth
    grows like ln n); up to three teaches/mentors edges out of each node,
    each with a `since` year.  No ordered pair carries two edges, because
    edge properties are keyed by the endpoint pair."""
    ids = [f"v{i}" for i in range(n)]
    nodes = []
    for node_id in ids:
        labels = [label for label, prob in
                  (("Region", 0.05), ("Teacher", 0.1), ("Student", 0.3))
                  if rng.random() < prob]
        nodes.append((node_id, labels, {}))
    edges = []
    used = set()
    for i in range(1, n):
        if rng.random() < 0.05:
            continue  # a new root
        parent = rng.randrange(i)
        used.add((i, parent))
        edges.append((ids[i], "partOf", ids[parent], {}))
    for u in range(n):
        for _ in range(rng.randint(0, 3)):
            v = rng.randrange(n)
            label = "teaches" if rng.random() < 0.7 else "mentors"
            since = rng.randint(1980, 2020)
            if u == v or (u, v) in used:
                continue
            used.add((u, v))
            edges.append((ids[u], label, ids[v], {"since": since}))
    return GeneratedGraph(tuple(nodes), tuple(edges))


def graph_reference(name: str, g: GeneratedGraph) -> frozenset:
    """Certain answers of GRAPH_QUERIES[name] on g, by direct traversal."""
    labels = {node_id: set(ls) for node_id, ls, _ in g.nodes}
    if name == "hierarchy":
        return frozenset((u, v) for u, label, v, _ in g.edges
                         if label in ("teaches", "mentors"))
    if name == "since":
        return frozenset((u, v) for u, label, v, props in g.edges
                         if label == "teaches" and props.get("since", 0) > 2000)
    if name == "teacher":
        out = {(x,) for x, ls in labels.items() if "Teacher" in ls}
        out.update((u,) for u, label, v, _ in g.edges
                   if label == "teaches" and "Student" in labels[v])
        return frozenset(out)
    if name == "region":
        # Region propagates down partOf edges: x is a Region when some node
        # reachable from x along partOf is labeled Region.
        parts_of = {}
        for u, label, v, _ in g.edges:
            if label == "partOf":
                parts_of.setdefault(v, []).append(u)
        out = set()
        stack = [x for x, ls in labels.items() if "Region" in ls]
        while stack:
            x = stack.pop()
            if x in out:
                continue
            out.add(x)
            stack.extend(parts_of.get(x, ()))
        return frozenset((x,) for x in out)
    raise KeyError(name)


def graph_instances(rng: random.Random, sizes) -> list:
    """Every GRAPH_QUERIES entry on one generated graph per size."""
    out = []
    for n in sizes:
        g = property_graph(rng, n)
        text = g.text()
        for name, (tbox, query) in GRAPH_QUERIES.items():
            out.append(Instance(f"{name}@{n}", tbox, query, text,
                                graph_reference(name, g)))
    return out


def size_grid(low: int, high: int, count: int, geometric=False) -> list:
    """`count` sizes spread evenly (or geometrically) from `low` to `high`.

    The grid is the same for every seed: drawing sizes per seed moved the
    workload's percentiles by more than any regression bound could absorb,
    so the seed varies the instances' contents instead.
    """
    out = []
    for k in range(count):
        share = k / (count - 1)
        size = low * (high / low) ** share if geometric else low + (high - low) * share
        out.append(round(size))
    return out
