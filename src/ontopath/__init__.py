"""Ontology-mediated navigational query rewriting over property graphs.

The pipeline: parse a TBox of the supported ontology fragment and an input
query, rewrite the query into an ontology-free union of regular path
queries (optionally emitted as Cypher), evaluate it over an in-memory
property graph, and verify against a bounded-chase oracle.
"""

from .chase import certain_answers, chase
from .cypher import CypherQuery, emit_cypher
from .depgraph import (
    DependencyGraph,
    build_dependency_graph,
    dump_dependency_graph,
    rewr_concept,
    rewrite_role,
    witness,
)
from .errors import (
    BudgetExceededError,
    FragmentViolation,
    GraphFormatError,
    OntopathError,
    QuerySyntaxError,
    TBoxSyntaxError,
    UnsupportedPathError,
)
from .graph import (
    PropertyGraph,
    eval_query,
    graph_to_jsonl,
    load_graph,
    load_graph_csv,
)
from .query import (
    C2RPQ,
    UC2RPQ,
    add_subseteq,
    contains_structurally,
    parse_query,
    parse_rewriting,
    query_to_str,
    rewriting_to_str,
    substitute_role,
)
from .rewriter import (
    RewriteBudget,
    RewritingSet,
    clipping,
    rewrite_atomic,
    rewrite_ncq,
)
from .tbox import TBox, Role, normalize, parse_tbox, tbox_to_text, validate_fragment

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "C2RPQ",
    "CypherQuery",
    "DependencyGraph",
    "FragmentViolation",
    "GraphFormatError",
    "OntopathError",
    "PropertyGraph",
    "QuerySyntaxError",
    "RewriteBudget",
    "RewritingSet",
    "Role",
    "TBox",
    "TBoxSyntaxError",
    "UC2RPQ",
    "UnsupportedPathError",
    "add_subseteq",
    "build_dependency_graph",
    "certain_answers",
    "chase",
    "clipping",
    "contains_structurally",
    "dump_dependency_graph",
    "emit_cypher",
    "eval_query",
    "graph_to_jsonl",
    "load_graph",
    "load_graph_csv",
    "normalize",
    "parse_query",
    "parse_rewriting",
    "parse_tbox",
    "query_to_str",
    "rewr_concept",
    "rewrite_atomic",
    "rewrite_ncq",
    "rewrite_role",
    "rewriting_to_str",
    "substitute_role",
    "tbox_to_text",
    "validate_fragment",
    "witness",
    "__version__",
]
