import json

import pytest

from oracles import brute_force_answers

from ontopath import depgraph
from ontopath import tbox as tbox_module
from ontopath.cli import main
from ontopath.graph import load_graph
from ontopath.query import parse_rewriting

TEACHER_TBOX = "Teacher <= exists teaches . Student\n"
TEACHER_QUERY = "q(x) :- teaches(x,y), Student(y)\n"
TEACHER_GRAPH = (
    '{"type":"node","id":"a","labels":["Teacher"]}\n'
    '{"type":"node","id":"b"}\n'
)


@pytest.fixture
def teacher_files(tmp_path):
    tbox = tmp_path / "t.dl"
    query = tmp_path / "q.ncq"
    graph = tmp_path / "g.jsonl"
    tbox.write_text(TEACHER_TBOX)
    query.write_text(TEACHER_QUERY)
    graph.write_text(TEACHER_GRAPH)
    return tbox, query, graph


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rewrite_prints_two_branches(capsys, teacher_files):
    tbox, query, _ = teacher_files
    code, out, _err = run(capsys, ["rewrite", "-t", str(tbox), "-q", str(query)])
    assert code == 0
    assert out == "q(x) :- Student(y), teaches(x,y)\nq(x) :- Teacher(x)\n"


def test_rewrite_json_format(capsys, teacher_files):
    tbox, query, _ = teacher_files
    code, out, _err = run(capsys, ["rewrite", "-t", str(tbox), "-q", str(query),
                                   "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["answer_vars"] == ["x"]
    assert "q(x) :- Teacher(x)" in payload["branches"]


def test_rewrite_empty_tbox_echoes_input(capsys, tmp_path, teacher_files):
    _, query, _ = teacher_files
    empty = tmp_path / "empty.dl"
    empty.write_text("# nothing here\n")
    code, out, _err = run(capsys, ["rewrite", "-t", str(empty), "-q", str(query)])
    assert code == 0
    assert out == "q(x) :- Student(y), teaches(x,y)\n"


def test_malformed_query_exits_2(capsys, tmp_path, teacher_files):
    tbox, _, _ = teacher_files
    bad = tmp_path / "bad.ncq"
    bad.write_text("q(x) :- teaches(x,\n")
    code, _out, err = run(capsys, ["rewrite", "-t", str(tbox), "-q", str(bad)])
    assert code == 2
    assert "parse error" in err


def test_negation_exits_3(capsys, tmp_path, teacher_files):
    _, query, _ = teacher_files
    bad = tmp_path / "bad.dl"
    bad.write_text("not A <= B\n")
    code, _out, err = run(capsys, ["rewrite", "-t", str(bad), "-q", str(query)])
    assert code == 3
    assert "fragment" in err


def test_budget_exits_4(capsys, teacher_files):
    tbox, query, _ = teacher_files
    code, _out, err = run(capsys, ["rewrite", "-t", str(tbox), "-q", str(query),
                                   "--max-queries", "1"])
    assert code == 4
    assert "budget" in err


def test_path_size_cap_exits_4(capsys, tmp_path, monkeypatch):
    tbox = tmp_path / "region.dl"
    tbox.write_text("exists partOf . Region <= Region\n")
    query = tmp_path / "region.ncq"
    query.write_text("q(x) :- Region(x)\n")
    argv = ["rewrite", "-t", str(tbox), "-q", str(query)]
    monkeypatch.setattr(depgraph, "MAX_PATH_SIZE", 16)
    code, out, _err = run(capsys, argv)
    assert (code, out) == (0, "q(x) :- (partOf*.<Region>)(x,__w0)\n")
    monkeypatch.setattr(depgraph, "MAX_PATH_SIZE", 15)
    code, out, err = run(capsys, argv)
    assert (code, out) == (4, "")
    assert "'Region' exceeds 15 characters" in err


def test_witness_cap_exits_4(capsys, tmp_path):
    tbox = tmp_path / "conj.dl"
    tbox.write_text("".join(f"B{i} & C{i} <= A\n" for i in range(12)))
    query = tmp_path / "a.ncq"
    query.write_text("q(x) :- A(x)\n")
    code, out, err = run(capsys, ["rewrite", "-t", str(tbox), "-q", str(query),
                                  "--witness-cap", "4"])
    assert code == 4
    assert out == ""
    assert "budget" in err


def test_missing_flag_exits_1(capsys, teacher_files):
    tbox, _, _ = teacher_files
    code, _out, err = run(capsys, ["rewrite", "-t", str(tbox)])
    assert code == 1
    assert "usage" in err


def test_missing_file_exits_1(capsys, teacher_files):
    tbox, query, _ = teacher_files
    code, _out, _err = run(capsys, ["rewrite", "-t", str(tbox), "-q", "/nope.ncq"])
    assert code == 1


def test_emit_cypher(capsys, teacher_files):
    tbox, query, _ = teacher_files
    code, out, _err = run(capsys, ["emit-cypher", "-t", str(tbox), "-q", str(query)])
    assert code == 0
    assert "MATCH (x) WHERE x:Teacher RETURN DISTINCT x AS c0" in out
    assert "UNION" in out


def test_eval_rewriting_file(capsys, tmp_path, teacher_files):
    tbox, query, graph = teacher_files
    code, rewritten, _err = run(capsys, ["rewrite", "-t", str(tbox), "-q", str(query)])
    assert code == 0
    rw = tmp_path / "rw.q"
    rw.write_text(rewritten)
    code, out, _err = run(capsys, ["eval", "-q", str(rw), "-g", str(graph)])
    assert code == 0
    assert out == "a\n"


def test_eval_bound_composite_paths_match_brute_force(capsys, tmp_path):
    # Both endpoints of each path atom are answer variables, so the engine
    # needs the path's whole pair relation; the self-loops on c and t give
    # walks that start and end at one node.
    graph = tmp_path / "g.jsonl"
    graph.write_text(
        '{"type":"node","id":"a"}\n{"type":"node","id":"b"}\n'
        '{"type":"node","id":"c","labels":["Region"]}\n'
        '{"type":"node","id":"s","labels":["Student"]}\n{"type":"node","id":"t"}\n'
        '{"type":"edge","src":"a","label":"partOf","dst":"b"}\n'
        '{"type":"edge","src":"b","label":"partOf","dst":"c"}\n'
        '{"type":"edge","src":"c","label":"partOf","dst":"c"}\n'
        '{"type":"edge","src":"a","label":"teaches","dst":"s"}\n'
        '{"type":"edge","src":"t","label":"teaches","dst":"s"}\n'
        '{"type":"edge","src":"t","label":"teaches","dst":"t"}\n')
    rewriting = ("q(x,y) :- (partOf*.<Region>)(x,y)\n"
                 "q(x,y) :- (teaches.inv(teaches))(x,y)\n")
    rw = tmp_path / "rw.q"
    rw.write_text(rewriting)
    code, out, _err = run(capsys, ["eval", "-q", str(rw), "-g", str(graph)])
    assert code == 0
    g = load_graph(graph.read_text())
    expected = set().union(*(brute_force_answers(branch, g)
                             for branch in parse_rewriting(rewriting).branches))
    assert out == "".join(f"{x},{y}\n" for x, y in sorted(expected))
    assert ("c", "c") in expected and ("t", "t") in expected


def test_eval_empty_graph_empty_csv(capsys, tmp_path, teacher_files):
    _, query, _ = teacher_files
    graph = tmp_path / "empty.jsonl"
    graph.write_text("")
    code, out, _err = run(capsys, ["eval", "-q", str(query), "-g", str(graph)])
    assert code == 0
    assert out == ""


def test_eval_csv_graph_pair(capsys, tmp_path):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    nodes.write_text("id,labels,props\na,Student,\nb,Student,\n")
    edges.write_text("src,label,dst,props\na,knows,b,\n")
    query = tmp_path / "q.ncq"
    query.write_text("q(x,y) :- knows(x,y)\n")
    code, out, _err = run(capsys, ["eval", "-q", str(query),
                                   "-g", f"{nodes},{edges}"])
    assert code == 0
    assert out == "a,b\n"


def test_eval_csv_edges_without_label_column_exits_2(capsys, tmp_path):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    nodes.write_text("id,labels,props\na,,\nb,,\n")
    edges.write_text("src,dst\na,b\n")
    query = tmp_path / "q.ncq"
    query.write_text("q(x,y) :- knows(x,y)\n")
    code, _out, err = run(capsys, ["eval", "-q", str(query),
                                   "-g", f"{nodes},{edges}"])
    assert code == 2
    assert "'label'" in err


def test_eval_jsonl_null_node_id_exits_2(capsys, tmp_path):
    graph = tmp_path / "g.jsonl"
    graph.write_text('{"type":"node","id":"a"}\n{"type":"node","id":null}\n')
    query = tmp_path / "q.ncq"
    query.write_text("q(x) :- A(x)\n")
    code, out, err = run(capsys, ["eval", "-q", str(query), "-g", str(graph)])
    assert code == 2
    assert out == ""
    assert "'id'" in err and "line 2" in err


def test_chase_depth_zero_has_no_anonymous_nodes(capsys, teacher_files):
    tbox, _, graph = teacher_files
    code, out, _err = run(capsys, ["chase", "-t", str(tbox), "-g", str(graph),
                                   "--depth", "0"])
    assert code == 0
    assert "_:" not in out


def test_chase_emits_witnesses(capsys, teacher_files):
    tbox, _, graph = teacher_files
    code, out, _err = run(capsys, ["chase", "-t", str(tbox), "-g", str(graph),
                                   "--depth", "1"])
    assert code == 0
    assert '"_:a/0"' in out
    assert '"label": "teaches"' in out


def test_check_ok(capsys, teacher_files):
    tbox, query, graph = teacher_files
    code, out, _err = run(capsys, ["check", "-t", str(tbox), "-q", str(query),
                                   "-g", str(graph)])
    assert code == 0
    assert out == "OK\n"


def test_check_normalizes_the_tbox_once(capsys, teacher_files, monkeypatch):
    # The rewriter, its dependency graph and the chase all take the
    # normalized TBox as it is.
    runs = []

    class CountingNormalizer(tbox_module._Normalizer):
        def __init__(self):
            runs.append(self)
            super().__init__()

    monkeypatch.setattr(tbox_module, "_Normalizer", CountingNormalizer)
    tbox, query, graph = teacher_files
    code, out, _err = run(capsys, ["check", "-t", str(tbox), "-q", str(query),
                                   "-g", str(graph)])
    assert (code, out) == (0, "OK\n")
    assert len(runs) == 1


def test_check_reports_known_incompleteness(capsys, tmp_path):
    # Conjunction whose conjuncts both need role movement below the query
    # variable: not expressible in a single-path rewriting, so the oracle
    # finds an answer the rewriting misses.
    tbox = tmp_path / "t.dl"
    tbox.write_text(
        "exists r . C <= A\nD & E <= C\nexists s . F <= D\nexists t . G <= E\n")
    query = tmp_path / "q.ncq"
    query.write_text("q(x) :- A(x)\n")
    graph = tmp_path / "g.jsonl"
    graph.write_text(
        '{"type":"node","id":"v"}\n'
        '{"type":"node","id":"w"}\n'
        '{"type":"node","id":"u","labels":["F"]}\n'
        '{"type":"node","id":"m","labels":["G"]}\n'
        '{"type":"edge","src":"v","label":"r","dst":"w"}\n'
        '{"type":"edge","src":"w","label":"s","dst":"u"}\n'
        '{"type":"edge","src":"w","label":"t","dst":"m"}\n'
    )
    code, out, _err = run(capsys, ["check", "-t", str(tbox), "-q", str(query),
                                   "-g", str(graph)])
    assert code == 5
    assert out == "missing (v)\n"


def test_check_answers_a_conjunction_derived_through_a_witness(capsys, tmp_path):
    # Under A2 <= exists r1 . A9, the witness of a node carrying A14 gets A5,
    # so the node gets A3 and A6: A14 & A2 <= A3, though no axiom says so.
    tbox = tmp_path / "t.dl"
    tbox.write_text("A3 <= A6\nA5 <= A2\nexists r1 . A5 <= A3\n"
                    "exists inv(r1) . A14 <= A5\nA2 <= exists r1 . A9\n")
    query = tmp_path / "q.ncq"
    query.write_text("q(x) :- A6(x)\n")
    graph = tmp_path / "g.jsonl"
    graph.write_text('{"type":"node","id":"n3","labels":["A14","A5"]}\n')
    code, out, _err = run(capsys, ["check", "-t", str(tbox), "-q", str(query),
                                   "-g", str(graph)])
    assert (code, out) == (0, "OK\n")


def test_config_precedence_flags_over_file_over_env(capsys, tmp_path, monkeypatch,
                                                    teacher_files):
    tbox, _, graph = teacher_files
    monkeypatch.setenv("ONTOPATH_DEPTH", "0")
    # Environment alone: no witnesses.
    code, out, _err = run(capsys, ["chase", "-t", str(tbox), "-g", str(graph)])
    assert code == 0 and "_:" not in out
    # Config file overrides environment.
    config = tmp_path / "conf"
    config.write_text("depth = 1\n")
    code, out, _err = run(capsys, ["chase", "-t", str(tbox), "-g", str(graph),
                                   "--config", str(config)])
    assert code == 0 and '"_:a/0"' in out
    # Flag overrides both.
    code, out, _err = run(capsys, ["chase", "-t", str(tbox), "-g", str(graph),
                                   "--config", str(config), "--depth", "0"])
    assert code == 0 and "_:" not in out


@pytest.mark.parametrize("key", ["max_depth", "max_clip_attempts"])
def test_unknown_config_key_is_a_usage_error(capsys, tmp_path, teacher_files, key):
    tbox, query, _ = teacher_files
    config = tmp_path / "conf"
    config.write_text(f"{key} = 3\n")
    code, _out, err = run(capsys, ["rewrite", "-t", str(tbox), "-q", str(query),
                                   "--config", str(config)])
    assert code == 1
    assert key in err


def test_removed_clip_attempts_flag_is_a_usage_error(capsys, teacher_files):
    tbox, query, _ = teacher_files
    code, _out, _err = run(capsys, ["rewrite", "-t", str(tbox), "-q", str(query),
                                    "--max-clip-attempts", "5"])
    assert code == 1


def test_negative_depth_rejected(capsys, teacher_files):
    tbox, _, graph = teacher_files
    code, _out, err = run(capsys, ["chase", "-t", str(tbox), "-g", str(graph),
                                   "--depth", "-1"])
    assert code == 1
    assert "depth" in err


def test_check_json_format(capsys, teacher_files):
    tbox, query, graph = teacher_files
    code, out, _err = run(capsys, ["check", "-t", str(tbox), "-q", str(query),
                                   "-g", str(graph), "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"verdict": "ok"}
