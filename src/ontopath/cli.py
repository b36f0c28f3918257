"""Command-line front end: rewrite, emit-cypher, eval, chase, check.

Exit codes: 0 success, 1 usage, 2 parse error, 3 fragment violation,
4 budget exceeded, 5 check found a counterexample.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .chase import certain_answers, chase
from .cypher import emit_cypher
from .errors import (
    BudgetExceededError,
    FragmentViolation,
    InputSyntaxError,
    OntopathError,
)
from .graph import eval_query, graph_to_jsonl, load_graph, load_graph_csv
from .query import parse_query, parse_rewriting, query_to_str
from .rewriter import RewriteBudget, rewrite_ncq
from .tbox import normalize, parse_tbox, validate_fragment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_FRAGMENT = 3
EXIT_BUDGET = 4
EXIT_MISMATCH = 5

_ENV_PREFIX = "ONTOPATH_"
_CONFIG_KEYS = ("max_queries", "witness_cap", "depth")


class UsageError(OntopathError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class Config:
    max_queries: int = RewriteBudget.max_queries
    witness_cap: int = RewriteBudget.witness_cap
    depth: int = 3

    def budget(self) -> RewriteBudget:
        return RewriteBudget(max_queries=self.max_queries,
                             witness_cap=self.witness_cap)


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
    return values


def load_config(args) -> Config:
    """Precedence: flags > config file > environment."""
    config = Config()
    layers = []
    env = {}
    for key in _CONFIG_KEYS:
        value = os.environ.get(_ENV_PREFIX + key.upper())
        if value is not None:
            env[key] = value
    layers.append(env)
    if getattr(args, "config", None):
        layers.append(_read_config_file(args.config))
    flag_layer = {}
    if getattr(args, "depth", None) is not None:
        flag_layer["depth"] = args.depth
    for key in ("max_queries", "witness_cap"):
        value = getattr(args, key, None)
        if value is not None:
            flag_layer[key] = value
    layers.append(flag_layer)
    for layer in layers:
        for key, value in layer.items():
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown configuration key {key!r}")
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"configuration key {key!r} needs an integer")
            if value < 0 or (key != "depth" and value == 0):
                raise UsageError(f"configuration key {key!r} must be positive")
            setattr(config, key, value)
    return config


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_tbox(path: str):
    t = parse_tbox(_read(path))
    validate_fragment(t)
    return normalize(t)


def _load_graph_arg(location: str):
    if "," in location:
        nodes_path, edges_path = location.split(",", 1)
        return load_graph_csv(_read(nodes_path), _read(edges_path))
    return load_graph(_read(location))


def _emit(args, payload_text: str, payload_json):
    if args.format == "json":
        print(json.dumps(payload_json, sort_keys=True))
    else:
        sys.stdout.write(payload_text)


def cmd_rewrite(args) -> int:
    config = load_config(args)
    t = _load_tbox(args.tbox)
    q = parse_query(_read(args.query))
    rewriting = rewrite_ncq(q, t, budget=config.budget()).to_uc2rpq()
    branches = [query_to_str(b) for b in rewriting.branches]
    _emit(args, "\n".join(branches) + "\n",
          {"answer_vars": list(rewriting.answer_vars), "branches": branches})
    return EXIT_OK


def cmd_emit_cypher(args) -> int:
    config = load_config(args)
    t = _load_tbox(args.tbox)
    q = parse_query(_read(args.query))
    rewriting = rewrite_ncq(q, t, budget=config.budget()).to_uc2rpq()
    result = emit_cypher(rewriting)
    for note in result.diagnostics:
        print(f"note: {note}", file=sys.stderr)
    _emit(args, result.text, {"cypher": result.text,
                              "diagnostics": list(result.diagnostics)})
    return EXIT_OK


def _answers_csv(answers) -> str:
    rows = sorted(",".join(answer) for answer in answers)
    return "\n".join(rows) + ("\n" if rows else "")


def cmd_eval(args) -> int:
    rewriting = parse_rewriting(_read(args.query))
    g = _load_graph_arg(args.graph)
    answers = eval_query(rewriting, g)
    _emit(args, _answers_csv(answers),
          {"answers": sorted(list(answer) for answer in answers)})
    return EXIT_OK


def cmd_chase(args) -> int:
    config = load_config(args)
    t = _load_tbox(args.tbox)
    g = _load_graph_arg(args.graph)
    text = graph_to_jsonl(chase(g, t, config.depth))
    _emit(args, text, {"graph": text, "depth": config.depth})
    return EXIT_OK


def cmd_check(args) -> int:
    config = load_config(args)
    t = _load_tbox(args.tbox)  # normalized once; the rewriter and the chase take it as it is
    q = parse_query(_read(args.query))
    g = _load_graph_arg(args.graph)
    rewriting = rewrite_ncq(q, t, budget=config.budget()).to_uc2rpq()
    got = eval_query(rewriting, g)
    expected = certain_answers(q, g, t, config.depth)
    missing = sorted(expected - got)
    extra = sorted(got - expected)
    if not missing and not extra:
        _emit(args, "OK\n", {"verdict": "ok"})
        return EXIT_OK
    direction, tup = ("missing", missing[0]) if missing else ("extra", extra[0])
    _emit(args, f"{direction} ({','.join(tup)})\n",
          {"verdict": "mismatch", "direction": direction, "tuple": list(tup)})
    return EXIT_MISMATCH


def build_parser() -> _Parser:
    parser = _Parser(prog="ontopath",
                     description="Rewrite ontology-mediated navigational queries "
                                 "into unions of regular path queries and Cypher.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tbox=False, query=False, graph=False):
        if tbox:
            p.add_argument("-t", "--tbox", required=True, help="TBox file")
        if query:
            p.add_argument("-q", "--query", required=True, help="query file")
        if graph:
            p.add_argument("-g", "--graph", required=True,
                           help="graph file (JSON lines, or nodes.csv,edges.csv)")
        p.add_argument("--depth", type=int, default=None, help="chase depth")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--max-queries", dest="max_queries", type=int, default=None)
        p.add_argument("--witness-cap", dest="witness_cap", type=int, default=None)

    p = sub.add_parser("rewrite", help="rewrite a query against a TBox")
    common(p, tbox=True, query=True)
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("emit-cypher", help="rewrite and print Cypher")
    common(p, tbox=True, query=True)
    p.set_defaults(func=cmd_emit_cypher)

    p = sub.add_parser("eval", help="evaluate a query or rewriting over a graph")
    common(p, query=True, graph=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("chase", help="print the chased graph")
    common(p, tbox=True, graph=True)
    p.set_defaults(func=cmd_chase)

    p = sub.add_parser("check", help="compare rewriting answers with the chase oracle")
    common(p, tbox=True, query=True, graph=True)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FragmentViolation as exc:
        print(f"fragment violation: {exc}", file=sys.stderr)
        return EXIT_FRAGMENT
    except InputSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OntopathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
