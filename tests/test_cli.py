import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hcramsey import cli
from hcramsey.cli import DEFAULT_SEED, main, outcome_digest
from hcramsey.colorings import format_coloring_text, parse_coloring_text
from hcramsey.graphs import Graph, format_graph_text, is_connected, vertex_connectivity

from conftest import graphs_on, two_pentagons_coloring


def run(tmp_path, *args):
    store = tmp_path / "results.jsonl"
    return main(["--store", str(store), *args]), store


def manifests(store):
    return [json.loads(line) for line in store.read_text().splitlines()]


def test_connectivity_separator(tmp_path, capsys):
    graph_file = tmp_path / "c4.txt"
    graph_file.write_text(format_graph_text(Graph.cycle(4)))
    code, store = run(tmp_path, "connectivity", str(graph_file), "--kappa", "3")
    out = capsys.readouterr().out
    assert code == 0
    assert out == "false\nseparator: [1, 3]\n"
    (manifest,) = manifests(store)
    assert manifest["outcome"]["answer"] is False
    assert manifest["digest"] == outcome_digest(manifest["outcome"])


def test_arrow_none_on_forest_coloring(tmp_path, capsys):
    code, _ = run(tmp_path, "coloring", "forest", "--n", "6",
                  "--out", str(tmp_path / "f.txt"))
    assert code == 0
    code, _ = run(tmp_path, "arrow", str(tmp_path / "f.txt"),
                  "--kappa", "2", "--m", "3")
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("none")


def test_negative_kappa_is_refused(tmp_path, capsys):
    graph_file = tmp_path / "c4.txt"
    graph_file.write_text(format_graph_text(Graph.cycle(4)))
    code, store = run(tmp_path, "connectivity", str(graph_file), "--kappa", "-1")
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: need kappa >= 0, got kappa=-1\n"
    run(tmp_path, "coloring", "forest", "--n", "6", "--out", str(tmp_path / "f.txt"))
    capsys.readouterr()
    code, _ = run(tmp_path, "arrow", str(tmp_path / "f.txt"), "--kappa", "-2", "--m", "3")
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: need kappa >= 0, got kappa=-2\n"
    assert len(manifests(store)) == 1  # the coloring only


def test_cnf_refuses_negative_n(tmp_path, capsys):
    code, store = run(tmp_path, "cnf", "--n", "-2", "--m", "3", "--kappa", "2",
                      "--colors", "2")
    assert code == 2
    assert capsys.readouterr().err == "error: need n >= 0, got n=-2\n"
    assert not store.exists()


def test_number_reproduces_classical_value(tmp_path, capsys):
    code, store = run(tmp_path, "number", "--m", "3", "--kappa", "3",
                      "--colors", "2", "--nmax", "6")
    assert code == 0
    assert capsys.readouterr().out.strip() == "6"
    (manifest,) = manifests(store)
    assert manifest["outcome"]["value"] == 6


@pytest.mark.parametrize("args, code, printed, digest", [
    (("--m", "4", "--kappa", "2", "--colors", "3", "--nmax", "12", "--budget", "42000"),
     3, "unknown (budget exhausted)", "529f52e428f9a9c0"),
    (("--m", "5", "--kappa", "2", "--colors", "2", "--nmax", "9"), 0, "7", "85161366d0fc749e"),
    (("--m", "3", "--kappa", "2", "--colors", "3", "--nmax", "10"), 0, "> 10",
     "2debfe1b9ed7c278"),
])
def test_number_manifest_digests_are_pinned(tmp_path, monkeypatch, capsys, args, code,
                                           printed, digest):
    # Pinned, without the vertex floor, from the search that ran each n from
    # scratch: reading every n off one search must leave each n's kind,
    # counts and coloring as they were.
    monkeypatch.setattr(cli, "ramsey_number",
                        functools.partial(cli.ramsey_number, _vertex=False))
    got, store = run(tmp_path, "number", *args)
    assert (got, capsys.readouterr().out.strip()) == (code, printed)
    (manifest,) = manifests(store)
    assert manifest["digest"][:16] == digest


@pytest.mark.parametrize("args, code, printed, digest", [
    (("--m", "4", "--kappa", "2", "--colors", "3", "--nmax", "12", "--budget", "42000"),
     3, "unknown (budget exhausted)", "0f96e297ed67b1a3"),
    (("--m", "5", "--kappa", "2", "--colors", "2", "--nmax", "9"), 0, "7", "41f2bd5245e36d08"),
    (("--m", "3", "--kappa", "2", "--colors", "3", "--nmax", "10"), 0, "> 10",
     "b7b02759b6c6e203"),
])
def test_number_manifest_digests_with_the_floor(tmp_path, capsys, args, code, printed, digest):
    # The vertex floor prints what the search without it prints, from other
    # counts and colorings.
    got, store = run(tmp_path, "number", *args)
    assert (got, capsys.readouterr().out.strip()) == (code, printed)
    (manifest,) = manifests(store)
    assert manifest["digest"][:16] == digest


def test_import_does_not_load_multiprocessing():
    # Every search runs in one process: workers=2, as the benchmark still
    # passes it, gives what workers=1 gives and starts no process pool.
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
import hcramsey, hcramsey.cli
from hcramsey.search import exists_avoiding_coloring
for args in [(10, 4, 2, 3), (6, 6, 1, 2)]:
    one, two = ((o.kind, o.coloring, o.stats.nodes, o.stats.forbidden_prunes)
                for o in (exists_avoiding_coloring(*args, workers=w) for w in (1, 2)))
    print(args, one == two, one[2])
print('multiprocessing' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == [
        "(10, 4, 2, 3) True 14412", "(6, 6, 1, 2) True 897", "False", "",
    ]


def test_manifest_records_seed_and_workers_once(tmp_path, capsys):
    # The params hold no worker count; the outcome says the one process
    # that searched it.
    code, store = run(tmp_path, "search", "--n", "6", "--m", "3", "--kappa", "1",
                      "--colors", "1")
    assert code == 0
    capsys.readouterr()
    (manifest,) = manifests(store)
    assert sorted(manifest) == [
        "command", "digest", "outcome", "params", "tool_version", "wall_time",
    ]
    assert manifest["params"]["seed"] == DEFAULT_SEED
    assert "workers" not in manifest["params"]
    assert (manifest["outcome"]["seed"], manifest["outcome"]["workers"]) == (DEFAULT_SEED, 1)


def test_search_refuses_negative_n(tmp_path, capsys):
    code, store = run(tmp_path, "search", "--n", "-3", "--m", "2", "--kappa", "1",
                      "--colors", "2")
    assert code == 2
    assert "need n >= 0" in capsys.readouterr().err
    assert not store.exists()


@pytest.mark.parametrize("extra, message", [
    (("--budget", "-5"), "need node_budget >= 0"),
])
def test_search_refuses_a_negative_budget_or_worker_count(tmp_path, capsys, extra, message):
    code, store = run(tmp_path, "search", "--n", "6", "--m", "3", "--kappa", "3",
                      "--colors", "2", *extra)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not store.exists()


@pytest.mark.parametrize("command, args", [
    ("search", ("--n", "6", "--m", "3", "--kappa", "3", "--colors", "2")),
    ("number", ("--m", "3", "--kappa", "3", "--colors", "2", "--nmax", "6")),
], ids=["search", "number"])
def test_number_has_no_workers_option(tmp_path, capsys, command, args):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, *args, "--workers", "2")
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_main_builds_its_parser_once_per_process(tmp_path, capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run(tmp_path, "number", "--m", "3", "--kappa", "3", "--colors", "2",
                   "--nmax", "6")[0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    capsys.readouterr()
    # A bad option after a good call still gets argparse's exit and message.
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "number", "--m", "3", "--kappa", "3", "--colors", "2", "--nmax", "x")
    assert exc.value.code == 2
    assert "argument --nmax: invalid int value: 'x'" in capsys.readouterr().err


def test_importing_the_cli_builds_no_parser():
    # A fresh interpreter, so that no earlier main call has built it.
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
import hcramsey.cli
print(hcramsey.cli.build_parser.cache_info().currsize)
"""
    out = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out == "0\n"


@pytest.mark.parametrize("argv", [["--help"], ["number", "--help"], ["cnf", "--help"]])
def test_help_from_the_reused_parser_is_that_of_a_fresh_one(capsys, argv):
    outputs = []
    for parser in (cli.build_parser(), cli.build_parser(), cli.build_parser.__wrapped__()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].startswith("usage: hcramsey")


def test_connectivity_refuses_one_high_edge_above_the_vertex_limit(tmp_path, capsys):
    graph_file = tmp_path / "high-edge.txt"
    graph_file.write_text("20000 1\n19998 19999\n")
    code, store = run(tmp_path, "connectivity", str(graph_file))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: size limit: 20000 vertices with 1 edges")
    assert not store.exists()


def test_unwritable_cnf_out_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.cnf"
    code, store = run(tmp_path, "cnf", "--n", "5", "--m", "3", "--kappa", "2",
                      "--colors", "2", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == f"input error: {out}: No such file or directory\n"
    assert not store.exists()


def test_unwritable_store_is_an_input_error(tmp_path, capsys):
    store = tmp_path / "missing" / "r.jsonl"
    code = main(["--store", str(store), "number", "--m", "3", "--kappa", "3",
                 "--colors", "2", "--nmax", "6"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out.strip() == "6"
    assert captured.err == f"input error: {store}: No such file or directory\n"


def test_search_manifest_replay_digest(tmp_path, capsys):
    args = ("search", "--n", "5", "--m", "3", "--kappa", "3", "--colors", "2")
    _, store = run(tmp_path, *args)
    _, store = run(tmp_path, *args)
    capsys.readouterr()
    first, second = manifests(store)
    assert first["digest"] == second["digest"]


def test_search_budget_exit_code(tmp_path, capsys):
    code, _ = run(tmp_path, "search", "--n", "6", "--m", "3", "--kappa", "3",
                  "--colors", "2", "--budget", "3")
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("m, kappa, colors", [(3, 0, 2), (1, 1, 2), (3, 1, 0)])
def test_cnf_and_search_refuse_bad_parameters(tmp_path, capsys, m, kappa, colors):
    params = ("--n", "4", "--m", str(m), "--kappa", str(kappa), "--colors", str(colors))
    out = tmp_path / "bad.cnf"
    code, _ = run(tmp_path, "cnf", *params, "--out", str(out))
    assert code == 2 and not out.exists()
    code, _ = run(tmp_path, "search", *params)
    assert code == 2
    capsys.readouterr()


def test_coloring_random_is_seeded(tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    run(tmp_path, "--seed", "9", "coloring", "random", "--n", "5",
        "--colors", "2", "--out", str(out1))
    run(tmp_path, "--seed", "9", "coloring", "random", "--n", "5",
        "--colors", "2", "--out", str(out2))
    assert out1.read_text() == out2.read_text()
    c = parse_coloring_text(out1.read_text())
    assert c.n == 5 and c.k == 2


def test_coloring_sierpinski_and_blowup(tmp_path, capsys):
    sier = tmp_path / "s.txt"
    code, _ = run(tmp_path, "coloring", "sierpinski", "--length", "2",
                  "--out", str(sier))
    assert code == 0
    c = parse_coloring_text(sier.read_text())
    assert c.n == 4 and c.k == 4
    blow = tmp_path / "b.txt"
    code, _ = run(tmp_path, "coloring", "blowup", "--base", str(sier),
                  "--blocks", "2,1,1,1", "--inner-color", "0",
                  "--out", str(blow))
    assert code == 0
    assert parse_coloring_text(blow.read_text()).n == 5


def test_coloring_sierpinski_of_length_zero(tmp_path):
    # The one-string family ("",) colors K_1 with no colors.
    out = tmp_path / "s0.txt"
    code, _ = run(tmp_path, "coloring", "sierpinski", "--length", "0", "--out", str(out))
    assert code == 0
    assert out.read_text().split() == ["1", "0"]


def test_coloring_sierpinski_of_negative_length(tmp_path, capsys):
    code, _ = run(tmp_path, "coloring", "sierpinski", "--length", "-1")
    assert code == 2
    assert capsys.readouterr().err == "error: need length >= 0, got -1\n"


def _two_pentagons_model(tmp_path):
    from hcramsey.satbridge import coloring_to_literals, emit_cnf

    inst = emit_cnf(5, 3, 3, 2)
    model = tmp_path / "model.txt"
    lits = coloring_to_literals(inst, two_pentagons_coloring())
    model.write_text("v " + " ".join(map(str, lits)) + " 0\n")
    return inst, model


def test_cnf_and_verify_model_round_trip(tmp_path, capsys):
    cnf = tmp_path / "i.cnf"
    code, _ = run(tmp_path, "cnf", "--n", "5", "--m", "3", "--kappa", "3",
                  "--colors", "2", "--out", str(cnf))
    assert code == 0
    _, model = _two_pentagons_model(tmp_path)
    code, _ = run(tmp_path, "verify-model", str(cnf), str(model))
    assert code == 0
    assert "avoiding" in capsys.readouterr().out


def test_verify_model_accepts_a_model_with_m_above_n(tmp_path, capsys):
    # K_3 has no 4-set, so every coloring avoids; arrow_check refused m > n.
    cnf, model = tmp_path / "i.cnf", tmp_path / "model.txt"
    code, _ = run(tmp_path, "cnf", "--n", "3", "--m", "4", "--kappa", "1",
                  "--colors", "2", "--out", str(cnf))
    assert code == 0
    model.write_text("v 1 -2 3 -4 5 -6 0\n")
    code, _ = run(tmp_path, "verify-model", str(cnf), str(model))
    assert code == 0
    assert capsys.readouterr().out == "model decodes to an avoiding coloring\n"


def test_verify_model_catches_bad_model(tmp_path, capsys):
    cnf = tmp_path / "i.cnf"
    run(tmp_path, "cnf", "--n", "3", "--m", "3", "--kappa", "1", "--colors", "1",
        "--out", str(cnf))
    from hcramsey.satbridge import coloring_to_literals, emit_cnf
    from hcramsey.graphs import EdgeColoring

    inst = emit_cnf(3, 3, 1, 1)
    lits = coloring_to_literals(inst, EdgeColoring.constant(3, 1, 0))
    model = tmp_path / "model.txt"
    model.write_text(" ".join(map(str, lits)) + " 0\n")
    code, _ = run(tmp_path, "verify-model", str(cnf), str(model))
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("transcript, code, status", [
    ("c solver banner\ns SATISFIABLE\nv {lits} 0\n", 0, None),
    ("c solver banner\ns UNSATISFIABLE\n", 1, "UNSATISFIABLE"),
    ("s UNKNOWN\n", 1, "UNKNOWN"),
])
def test_verify_model_reads_solver_transcripts(tmp_path, capsys, transcript, code, status):
    from hcramsey.satbridge import to_dimacs

    inst, model = _two_pentagons_model(tmp_path)
    cnf = tmp_path / "i.cnf"
    cnf.write_text(to_dimacs(inst))
    lits = model.read_text().split()[1:-1]
    model.write_text(transcript.format(lits=" ".join(lits)))
    got, store = run(tmp_path, "verify-model", str(cnf), str(model))
    capsys.readouterr()
    assert got == code
    (manifest,) = manifests(store)
    assert manifest["outcome"]["valid"] is (status is None)
    assert manifest["outcome"].get("solver_status") == status


def test_verify_model_refuses_contradictory_literals(tmp_path, capsys):
    from hcramsey.satbridge import coloring_to_literals, emit_cnf, to_dimacs
    from hcramsey.graphs import EdgeColoring

    inst = emit_cnf(3, 3, 2, 2)
    cnf = tmp_path / "i.cnf"
    cnf.write_text(to_dimacs(inst))
    lits = coloring_to_literals(inst, EdgeColoring(3, 2, (0, 1, 0))) + [-1, 2]
    model = tmp_path / "model.txt"
    model.write_text("v " + " ".join(map(str, lits)) + " 0\n")
    code, store = run(tmp_path, "verify-model", str(cnf), str(model))
    assert code == 1
    assert "invalid model: literal -1 contradicts literal 1" in capsys.readouterr().out
    (manifest,) = manifests(store)
    assert manifest["outcome"]["valid"] is False


def test_verify_model_names_the_line_of_a_bad_literal(tmp_path, capsys):
    from hcramsey.satbridge import to_dimacs

    inst, model = _two_pentagons_model(tmp_path)
    cnf = tmp_path / "i.cnf"
    cnf.write_text(to_dimacs(inst))
    model.write_text("c banner\n\ns SATISFIABLE\nv 1 -2\nv 3 x 0\n")
    code, _ = run(tmp_path, "verify-model", str(cnf), str(model))
    assert code == 2
    assert "line 5: bad literal 'x'" in capsys.readouterr().err


def test_search_and_number_refuse_a_table_over_the_limit(tmp_path, capsys):
    code, _ = run(tmp_path, "search", "--n", "8", "--m", "7", "--kappa", "1",
                  "--colors", "3")
    assert code == 2
    code, store = run(tmp_path, "number", "--m", "6", "--kappa", "1",
                      "--colors", "4", "--nmax", "8")
    assert code == 2
    assert "2^24" in capsys.readouterr().err
    assert not store.exists()


def test_search_refuses_m_above_the_table_limit(tmp_path, capsys):
    # One color passes the pattern limit; the refusal names the m limit,
    # not the coloring-enumeration guard.
    code, store = run(tmp_path, "search", "--n", "8", "--m", "8", "--kappa", "1",
                      "--colors", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert "connectivity tables cover m <= 7" in err
    assert "enumeration" not in err
    assert not store.exists()


def test_number_refuses_m_above_the_table_limit_before_n_max(tmp_path, capsys):
    # The refusal used to say "need n_max >= m", where search names the size
    # limit for the same m.
    code, store = run(tmp_path, "number", "--m", "9", "--kappa", "1", "--colors", "2",
                      "--nmax", "5")
    assert code == 2
    err = capsys.readouterr().err
    assert "size limit: connectivity tables cover m <= 7" in err
    assert "n_max" not in err
    assert not store.exists()


def test_verify_model_reads_the_clauses_of_the_file(tmp_path, capsys):
    from hcramsey.satbridge import to_dimacs

    inst, model = _two_pentagons_model(tmp_path)
    # Forbid the model's own color on edge 0: the coloring still avoids,
    # but the file's extra clause is violated.
    extra = (-inst.var(0, two_pentagons_coloring().colors[0]),)
    cnf = tmp_path / "extra.cnf"
    cnf.write_text(to_dimacs(inst._replace(clauses=inst.clauses + (extra,))))
    code, store = run(tmp_path, "verify-model", str(cnf), str(model))
    assert code == 1
    assert "violates clause" in capsys.readouterr().out
    (manifest,) = manifests(store)
    assert manifest["outcome"]["violated_clause"] == list(extra)


def test_verify_model_checks_the_forbidden_hash(tmp_path, capsys):
    from hcramsey.satbridge import to_dimacs

    inst, model = _two_pentagons_model(tmp_path)
    cnf = tmp_path / "stale.cnf"
    cnf.write_text(to_dimacs(inst._replace(forbidden_hash="0" * 16)))
    code, _ = run(tmp_path, "verify-model", str(cnf), str(model))
    capsys.readouterr()
    assert code == 1


def test_delta_mine(tmp_path, capsys):
    family = tmp_path / "fam.txt"
    lines = ["5"]
    for a in range(5):
        for b in range(a + 1, 5):
            lines.append(f"{a} {b} {a} {b}")
    family.write_text("\n".join(lines) + "\n")
    code, _ = run(tmp_path, "delta-mine", str(family), "--size", "5")
    assert code == 0
    assert "B = [0, 1, 2, 3, 4]" in capsys.readouterr().out


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 9\n")
    code, _ = run(tmp_path, "connectivity", str(bad))
    capsys.readouterr()
    assert code == 2


def test_missing_file_exit_code(tmp_path, capsys):
    code, _ = run(tmp_path, "connectivity", str(tmp_path / "nope.txt"))
    capsys.readouterr()
    assert code == 2


def _octahedron_file(tmp_path):
    # K_6 minus the perfect matching {01, 23, 45}: 4-connected, not complete.
    graph_file = tmp_path / "octahedron.txt"
    matching = {(0, 1), (2, 3), (4, 5)}
    edges = [p for p in Graph.complete(6).edges if p not in matching]
    graph_file.write_text(format_graph_text(Graph.from_edges(6, edges)))
    return graph_file


def test_connectivity_without_kappa_prints_the_connectivity(tmp_path, capsys):
    code, store = run(tmp_path, "connectivity", str(_octahedron_file(tmp_path)))
    assert code == 0
    assert capsys.readouterr().out == "connected: True\nvertex_connectivity: 4\n"
    (manifest,) = manifests(store)
    assert manifest["outcome"] == {"connected": True, "vertex_connectivity": 4}


@pytest.mark.parametrize("n", range(5))
def test_connectivity_without_kappa_agrees_with_the_bfs_oracle(tmp_path, capsys, n):
    # `connected:` is read off the connectivity value; is_connected is the
    # separate BFS.  n = 0 prints vertex_connectivity 0.
    graph_file = tmp_path / "g.txt"
    for g in graphs_on(n):
        graph_file.write_text(format_graph_text(g))
        code, _ = run(tmp_path, "connectivity", str(graph_file))
        assert code == 0
        kappa = vertex_connectivity(g) if n else 0
        assert capsys.readouterr().out == (
            f"connected: {is_connected(g)}\nvertex_connectivity: {kappa}\n"
        ), g


def test_connectivity_with_kappa_prints_the_paths(tmp_path, capsys):
    code, store = run(tmp_path, "connectivity", str(_octahedron_file(tmp_path)),
                      "--kappa", "2")
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "true", "pair: (0, 1)",
        "path: 0 2 1", "path: 0 3 1", "path: 0 4 1", "path: 0 5 1",
    ]
    (manifest,) = manifests(store)
    assert manifest["outcome"] == {
        "kappa": 2, "answer": True, "separator": [],
        "paths": [[0, 2, 1], [0, 3, 1], [0, 4, 1], [0, 5, 1]],
    }


def test_arrow_prints_the_witness(tmp_path, capsys):
    run(tmp_path, "coloring", "forest", "--n", "6", "--out", str(tmp_path / "f.txt"))
    code, store = run(tmp_path, "arrow", str(tmp_path / "f.txt"), "--kappa", "1", "--m", "3")
    assert code == 0
    assert capsys.readouterr().out == "color 1 on vertices [0, 1, 2]\n"
    assert manifests(store)[-1]["outcome"] == {
        "witness": {"color": 1, "vertices": [0, 1, 2]},
        "kappa": 1, "m": 3, "mode": "exact",
    }


def test_coloring_without_out_writes_to_stdout(tmp_path, capsys):
    code, store = run(tmp_path, "coloring", "forest", "--n", "4")
    assert code == 0
    assert capsys.readouterr().out == "4 2\n0 1 0\n0 2 1\n0 3 1\n1 2 1\n1 3 0\n2 3 0\n"
    (manifest,) = manifests(store)
    assert manifest["outcome"] == {"kind": "forest", "n": 4, "k": 2,
                                   "colors": [0, 1, 1, 1, 0, 0]}


def test_coloring_sierpinski_from_a_family_file(tmp_path, capsys):
    family = tmp_path / "fam.txt"
    family.write_text("2 3\n01\n10\n11\n")
    code, store = run(tmp_path, "coloring", "sierpinski", "--family", str(family))
    assert code == 0
    assert capsys.readouterr().out == "3 4\n0 1 0\n0 2 0\n1 2 2\n"
    (manifest,) = manifests(store)
    assert manifest["outcome"] == {"kind": "sierpinski", "n": 3, "k": 4, "colors": [0, 0, 2]}
    assert manifest["params"]["family"] == str(family)


def test_delta_mine_prints_none_when_no_system_exists(tmp_path, capsys):
    family = tmp_path / "fam.txt"
    family.write_text("4\n0 1 1\n0 2 1\n0 3\n1 2\n1 3\n2 3\n")
    code, store = run(tmp_path, "delta-mine", str(family), "--size", "4")
    assert code == 0
    assert capsys.readouterr().out == "none\n"
    (manifest,) = manifests(store)
    assert manifest["outcome"] == {"B": None}


@pytest.mark.parametrize("args, message", [
    (["sierpinski"], "sierpinski needs --family or --length"),
    (["forest"], "forest needs --n"),
    (["blowup"], "blowup needs --base and --blocks"),
    (["blowup", "--base", "b.txt"], "blowup needs --base and --blocks"),
    (["blowup", "--blocks", "1,1"], "blowup needs --base and --blocks"),
    (["random", "--n", "3"], "random needs --n and --colors"),
    (["random", "--colors", "2"], "random needs --n and --colors"),
])
def test_coloring_refuses_a_missing_argument(tmp_path, capsys, args, message):
    code, store = run(tmp_path, "coloring", *args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"input error: {message}\n"
    assert not store.exists()


@pytest.mark.parametrize("n", ["0", "1", "7"])
def test_coloring_forest_refuses_n_below_two_or_odd(tmp_path, capsys, n):
    code, store = run(tmp_path, "coloring", "forest", "--n", n)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: need an even n >= 2, got n={n}\n"
    assert not store.exists()


def test_coloring_blowup_refuses_non_integer_blocks(tmp_path, capsys):
    base = tmp_path / "base.txt"
    base.write_text("2 1\n0 1 0\n")
    code, store = run(tmp_path, "coloring", "blowup", "--base", str(base), "--blocks", "1,x")
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "input error: --blocks must be comma-separated integers\n"
    assert not store.exists()
