import json
import runpy
import sys

import pytest

from pathcover import format_edgelist
from pathcover.cli import main
from pathcover.families import FAMILY_NAMES
from pathcover.report import to_csv
from conftest import family
from test_graph import BAD_EDGELISTS

SMALLEST = {
    "path": (2,),
    "cycle": (3,),
    "wheel": (3,),
    "double_wheel": (3,),
    "fan": (1,),
    "double_fan": (1,),
    "friendship": (3, 1),
    "complete_bipartite": (1, 1),
    "crown": (3,),
    "generalized_petersen": (3, 1),
    "hypercube": (1,),
    "butterfly": (1,),
    "augmented_butterfly": (1,),
    "enhanced_butterfly": (1,),
    "benes": (1,),
    "silicate": (1,),
    "sierpinski": (1,),
    "sierpinski_gasket": (1,),
}


def test_smallest_params_cover_every_family():
    assert set(SMALLEST) == set(FAMILY_NAMES)


@pytest.mark.parametrize("name", sorted(SMALLEST))
def test_gen_solve_verify_round_trip(name, tmp_path):
    """gen -> file -> solve -> verify (witness) at smallest parameters."""
    graph_file = tmp_path / f"{name}.edges"
    witness_file = tmp_path / f"{name}.witness"
    params = [str(p) for p in SMALLEST[name]]
    assert main(["gen", "--family", name, "--params", *params,
                 "--out", str(graph_file)]) == 0
    assert (tmp_path / f"{name}.edges.labels").exists()
    assert main(["solve", "--in", str(graph_file), "--k", "2",
                 "--variant", "strong", "--method", "exact",
                 "--witness-out", str(witness_file),
                 "--json", str(tmp_path / f"{name}.json")]) == 0
    record = json.loads((tmp_path / f"{name}.json").read_text())
    vertex_set = [str(v) for v in record["set"]]
    assert main(["verify", "--in", str(graph_file), "--k", "2",
                 "--set", *vertex_set, "--witness", str(witness_file)]) == 0


def test_python_m_pathcover_runs_the_cli(tmp_path, monkeypatch, capsys):
    """``python -m pathcover`` runs ``main`` on the command line and exits
    with its code; run in-process, so the module's lines are traced."""
    graph_file = tmp_path / "p4.edges"
    monkeypatch.setattr(sys, "argv", ["pathcover", "gen", "--family", "path",
                                      "--params", "4",
                                      "--out", str(graph_file)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("pathcover", run_name="__main__")
    assert stop.value.code == 0
    assert graph_file.read_text() == format_edgelist(family("path", 4))
    assert "wrote 4 vertices, 3 edges" in capsys.readouterr().out


def test_python_m_pathcover_cli_runs_main(tmp_path, monkeypatch, capsys):
    """``python -m pathcover.cli`` runs ``main`` too, in-process; the
    imported module leaves ``sys.modules`` for the run, as it would in a
    fresh interpreter."""
    monkeypatch.delitem(sys.modules, "pathcover.cli")
    graph_file = tmp_path / "c4.edges"
    monkeypatch.setattr(sys, "argv", ["pathcover.cli", "gen", "--family",
                                      "cycle", "--params", "4",
                                      "--out", str(graph_file)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("pathcover.cli", run_name="__main__")
    assert stop.value.code == 0
    assert graph_file.read_text() == format_edgelist(family("cycle", 4))
    assert "wrote 4 vertices, 4 edges" in capsys.readouterr().out


def test_verify_weak_mode(tmp_path, capsys):
    graph_file = tmp_path / "c5.edges"
    main(["gen", "--family", "cycle", "--params", "5",
          "--out", str(graph_file)])
    assert main(["verify", "--in", str(graph_file), "--k", "2",
                 "--set", "0,2"]) == 0
    assert main(["verify", "--in", str(graph_file), "--k", "2",
                 "--set", "0"]) == 1


def test_verify_refuses_nonpositive_k(tmp_path, capsys):
    graph_file = tmp_path / "c5.edges"
    main(["gen", "--family", "cycle", "--params", "5",
          "--out", str(graph_file)])
    capsys.readouterr()
    assert main(["verify", "--in", str(graph_file), "--k", "0",
                 "--set", "0,2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: k must be positive, got 0\n"
    assert captured.out == ""


def test_verify_witness_refuses_a_disconnected_graph(tmp_path, capsys):
    """``verify --witness`` reads the set as ``verify`` does: on 2K2 a
    witness covering both edges is refused, not reported valid."""
    graph_file = tmp_path / "2k2.edges"
    witness_file = tmp_path / "2k2.witness"
    graph_file.write_text("4 2\n0 1\n2 3\n")
    witness_file.write_text("0 1 : 0 1\n2 3 : 2 3\n")
    for witness in ([], ["--witness", str(witness_file)]):
        assert main(["verify", "--in", str(graph_file), "--k", "1",
                     "--set", "0,2", *witness]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: operation requires a connected graph\n"
        assert captured.out == ""


def test_bounds_smoke(tmp_path, capsys):
    graph_file = tmp_path / "q3.edges"
    main(["gen", "--family", "hypercube", "--params", "3",
          "--out", str(graph_file)])
    assert main(["bounds", "--in", str(graph_file), "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "degree_lb = 2" in out
    assert "monitored claim" in out


def test_reduce_writes_gadget_and_roles(tmp_path, capsys):
    graph_file = tmp_path / "p3.edges"
    gadget_file = tmp_path / "gadget.edges"
    main(["gen", "--family", "path", "--params", "3",
          "--out", str(graph_file)])
    assert main(["reduce", "--in", str(graph_file), "--k", "2", "--check",
                 "--out", str(gadget_file)]) == 0
    out = capsys.readouterr().out
    assert "size formulas hold: True" in out
    assert "forward witness valid: True" in out
    roles = (tmp_path / "gadget.edges.roles").read_text().splitlines()
    assert len(roles) == 15


def test_claims_csv_export(tmp_path):
    csv_file = tmp_path / "claims.csv"
    assert main(["claims", "--family", "cycle", "--max-n", "8",
                 "--csv", str(csv_file)]) == 0
    lines = csv_file.read_text().splitlines()
    assert lines[0].startswith("schema_version,family,params")
    assert len(lines) == 5  # header + n in 5..8


@pytest.mark.parametrize("name", ["nosuch", "Wheel"])
def test_claims_unknown_family_exits_1(name, capsys):
    assert main(["claims", "--family", name]) == 1
    captured = capsys.readouterr()
    assert name in captured.err
    assert "instances" not in captured.out


def test_empty_csv_has_header():
    text = to_csv([])
    assert text.splitlines() == [
        "schema_version,family,params,n,m,variant,k,optimum,set,"
        "domination_lb,degree_lb,clique_lb,trivial_ub,order_diameter_ub,"
        "diameter_ub,half_ub,claim_status,nodes,elapsed_s"]


def test_solve_json_record_shape(tmp_path):
    graph_file = tmp_path / "c5.edges"
    json_file = tmp_path / "c5.json"
    main(["gen", "--family", "cycle", "--params", "5",
          "--out", str(graph_file)])
    main(["solve", "--in", str(graph_file), "--k", "2", "--variant",
          "strong", "--method", "exact", "--json", str(json_file)])
    record = json.loads(json_file.read_text())
    assert record["optimum"] == 2
    assert record["schema_version"] == 1
    assert record["graph"] == {"family": None, "params": None, "n": 5, "m": 5}
    assert set(record) == {"schema_version", "graph", "variant", "k",
                           "optimum", "set", "bounds", "claim_status",
                           "stats"}


def test_repeated_sweeps_byte_identical(tmp_path):
    outputs = []
    for run in (1, 2):
        csv_file = tmp_path / f"sweep{run}.csv"
        assert main(["claims", "--family", "crown", "--max-n", "10",
                     "--csv", str(csv_file)]) == 0
    outputs = [(tmp_path / f"sweep{r}.csv").read_bytes() for r in (1, 2)]
    assert outputs[0] == outputs[1]


def test_exit_code_invalid_input(tmp_path, capsys):
    assert main(["gen", "--family", "cycle", "--params", "2",
                 "--out", str(tmp_path / "x.edges")]) == 1
    assert main(["solve", "--in", str(tmp_path / "missing.edges"),
                 "--k", "2", "--variant", "weak"]) == 1


@pytest.mark.parametrize("text, message", BAD_EDGELISTS)
def test_solve_refuses_a_bad_edge_list(text, message, tmp_path, capsys):
    graph_file = tmp_path / "bad.edges"
    graph_file.write_text(text)
    assert main(["solve", "--in", str(graph_file), "--k", "2",
                 "--variant", "weak"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""


def test_claims_of_every_family_names_the_permanent_skip(capsys):
    assert main(["claims", "--max-n", "5"]) == 0
    assert ("-- permanently skipped: actinia [SSPC_2U(A(m,n)) = ceil(n/5)]: "
            "graph construction undefined") in capsys.readouterr().out
    assert main(["claims", "--family", "cycle", "--max-n", "5"]) == 0
    assert "permanently skipped" not in capsys.readouterr().out


def test_reduce_check_skips_the_optimum_of_a_large_gadget(tmp_path, capsys):
    # P4 at k = 2: a gadget of 18 vertices, above the 17-vertex exact check
    graph_file = tmp_path / "p4.edges"
    main(["gen", "--family", "path", "--params", "4",
          "--out", str(graph_file)])
    assert main(["reduce", "--in", str(graph_file), "--k", "2", "--check",
                 "--out", str(tmp_path / "gadget.edges")]) == 0
    out = capsys.readouterr().out
    assert "gadget: 18 vertices" in out
    assert "exact optimum: skipped (gadget above exact check limit)" in out


def test_reduce_exits_2_over_the_gadget_limit(tmp_path, capsys):
    graph_file = tmp_path / "p2.edges"
    gadget_file = tmp_path / "gadget.edges"
    main(["gen", "--family", "path", "--params", "2",
          "--out", str(graph_file)])
    assert main(["reduce", "--in", str(graph_file), "--k", "100000000",
                 "--out", str(gadget_file)]) == 2
    assert "10000-vertex limit" in capsys.readouterr().err
    assert not gadget_file.exists()


def test_exit_code_size_limit(tmp_path, capsys):
    graph_file = tmp_path / "p41.edges"
    main(["gen", "--family", "path", "--params", "41",
          "--out", str(graph_file)])
    assert main(["solve", "--in", str(graph_file), "--k", "2",
                 "--variant", "weak", "--method", "exact"]) == 2


@pytest.mark.parametrize("method", ["exact", "greedy", "oracle"])
def test_strong_witness_of_single_vertex_is_empty(method, tmp_path, capsys):
    graph_file = tmp_path / "k1.edges"
    graph_file.write_text("1 0\n")
    witness_file = tmp_path / "k1.witness"
    assert main(["solve", "--in", str(graph_file), "--k", "2",
                 "--variant", "strong", "--method", method,
                 "--witness-out", str(witness_file)]) == 0
    assert witness_file.read_text() == ""


def test_solve_methods_agree(tmp_path, capsys):
    graph_file = tmp_path / "c5.edges"
    main(["gen", "--family", "cycle", "--params", "5",
          "--out", str(graph_file)])
    for method in ("exact", "greedy", "oracle"):
        assert main(["solve", "--in", str(graph_file), "--k", "2",
                     "--variant", "strong", "--method", method]) == 0
    out = capsys.readouterr().out
    assert out.count("optimum=2") == 3


def test_solve_at_huge_k(tmp_path, capsys):
    """k = 10**9 on a triangle answers at once, as k = 1 (its diameter)."""
    graph_file = tmp_path / "k3.edges"
    graph_file.write_text("3 3\n0 1\n0 2\n1 2\n")
    witness_file = tmp_path / "w.txt"
    for k in ("1", "1000000000"):
        assert main(["solve", "--in", str(graph_file), "--k", k,
                     "--variant", "strong",
                     "--witness-out", str(witness_file)]) == 0
        assert main(["verify", "--in", str(graph_file), "--k", k,
                     "--set", "0", "1", "--witness", str(witness_file)]) == 0
    out = capsys.readouterr().out
    assert out.count("optimum=2 set=[0 1]") == 2


@pytest.mark.parametrize("method", ["exact", "greedy", "oracle"])
def test_weak_witness_out_refused_before_solving(method, tmp_path, capsys):
    """A weak cover has no witness, so ``--witness-out`` with ``--variant
    weak`` exits 1 before any solve, and neither file is written."""
    graph_file = tmp_path / "k3.edges"
    graph_file.write_text("3 3\n0 1\n0 2\n1 2\n")
    json_file = tmp_path / "out.json"
    witness_file = tmp_path / "w.txt"
    assert main(["solve", "--in", str(graph_file), "--k", "2",
                 "--variant", "weak", "--method", method,
                 "--json", str(json_file),
                 "--witness-out", str(witness_file)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "--witness-out needs --variant strong" in err
    assert not json_file.exists() and not witness_file.exists()
