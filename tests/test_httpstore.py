from ontopath import httpstore
from ontopath.graph import PropertyGraph


def test_store_statements_escape_names_and_values(monkeypatch):
    sent = []
    monkeypatch.setattr(httpstore, "run_statements",
                        lambda url, db, statements, auth=None: sent.extend(statements))
    g = PropertyGraph()
    g.add_node("a'b", labels=["Od`d", "Plain"], props={"na`me": "it's"})
    g.add_node("c")
    g.add_edge("a'b", "we`ird", "c", props={"since": 2000})
    httpstore.load_graph_into_store(g, "http://localhost:7474", "neo4j")
    assert sent == [
        "MATCH (n) DETACH DELETE n",
        "CREATE (n:`Od``d`:Plain {`_id`: 'a\\'b', `na``me`: 'it\\'s'})",
        "CREATE (n {`_id`: 'c'})",
        "MATCH (a {_id: 'a\\'b'}), (b {_id: 'c'}) CREATE (a)-[:`we``ird` {since: 2000}]->(b)",
    ]
