"""Minimal HTTP client for a Cypher-speaking graph store (Neo4j wire format).

Used by the round-trip integration suite: load a property graph into a live
store, run emitted Cypher, and read the answer rows back.  Nodes are keyed
by an auxiliary `_id` property so answers can be compared with the in-memory
engine.
"""
from __future__ import annotations

import base64
import json
import urllib.error
import urllib.request

from .cypher import _ident, _literal
from .errors import OntopathError
from .graph import PropertyGraph


class StoreError(OntopathError):
    pass


def _request(url: str, payload: dict, auth=None, timeout=10) -> dict:
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data, method="POST")
    request.add_header("Content-Type", "application/json")
    request.add_header("Accept", "application/json")
    if auth:
        token = base64.b64encode(f"{auth[0]}:{auth[1]}".encode()).decode()
        request.add_header("Authorization", f"Basic {token}")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError) as exc:
        raise StoreError(f"graph store unreachable: {exc}") from None
    if body.get("errors"):
        raise StoreError("; ".join(e.get("message", "?") for e in body["errors"]))
    return body


def run_statements(base_url: str, database: str, statements, auth=None):
    """Run statements in one transaction; returns one row list per statement."""
    url = f"{base_url.rstrip('/')}/db/{database}/tx/commit"
    payload = {"statements": [{"statement": s} for s in statements]}
    body = _request(url, payload, auth)
    results = []
    for result in body.get("results", []):
        results.append([entry["row"] for entry in result.get("data", [])])
    return results


def reachable(base_url: str, database: str, auth=None) -> bool:
    try:
        run_statements(base_url, database, ["RETURN 1"], auth)
        return True
    except StoreError:
        return False


def load_graph_into_store(g: PropertyGraph, base_url: str, database: str, auth=None):
    """Replace the store contents with g (nodes tagged with `_id`)."""
    statements = ["MATCH (n) DETACH DELETE n"]
    for node in sorted(g.nodes):
        labels = "".join(f":{_ident(l)}" for l in sorted(g.labels[node]))
        props = dict(g.node_props.get(node, {}))
        props["_id"] = node
        statements.append(f"CREATE (n{labels} {_props_literal(props)})")
    for src, label, dst in sorted(g.edges):
        props = g.edge_props.get((src, dst), {})
        statements.append(
            "MATCH (a {_id: " + _literal(src) + "}), "
            "(b {_id: " + _literal(dst) + "}) "
            f"CREATE (a)-[:{_ident(label)} {_props_literal(props)}]->(b)"
        )
    run_statements(base_url, database, statements, auth)


def _props_literal(props) -> str:
    if not props:
        return "{}"
    inner = ", ".join(f"{_ident(k)}: {_literal(v)}" for k, v in sorted(props.items()))
    return "{" + inner + "}"


def answers_from_store(cypher_text: str, base_url: str, database: str,
                       arity: int, auth=None) -> set:
    """Run emitted Cypher; answer tuples are read off the nodes' `_id`s."""
    (rows,) = run_statements(base_url, database, [cypher_text.strip()], auth)
    out = set()
    for row in rows:
        values = []
        for cell in row[:arity] if arity else row:
            if isinstance(cell, dict) and "_id" in cell:
                values.append(cell["_id"])
            else:
                values.append(cell)
        out.add(tuple(values[:arity]) if arity else ())
    return out
