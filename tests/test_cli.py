import json

import pytest

from qtoledo.cli import main
from qtoledo.cyclotomic import CycloNum, cyclo_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_euler_twisted(capsys):
    code, out, _ = run(capsys, "euler", "twisted", "--g", "0", "--n", "5", "--level", "5")
    assert code == 0
    assert json.loads(out)["payload"]["chi"] == "3/5"


def test_determinism(capsys):
    _, first, _ = run(capsys, "rmatrix", "solve", "--level", "5", "--embedding", "1")
    _, second, _ = run(capsys, "rmatrix", "solve", "--level", "5", "--embedding", "1")
    assert first == second
    payload = json.loads(first)["payload"]
    assert payload["matrix"][0] == ["23/270", "-1/27"]


def test_rmatrix_solve_rank1(capsys):
    code, out, _ = run(capsys, "rmatrix", "solve", "--level", "3")
    assert code == 0
    assert json.loads(out)["payload"]["matrix"] == [["0/1"]]


def test_sigtable_markdown(capsys):
    code, out, _ = run(capsys, "fusion", "sigtable", "--level", "5", "--format", "md")
    assert code == 0
    assert "| g=3 | 9|6 |" in out and "119|116" in out


def test_fusion_build_json(capsys):
    code, out, _ = run(capsys, "fusion", "build", "--family", "so3", "--level", "7",
                       "--embedding", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["eps"] == [1, 1, -1]
    assert payload["alpha"] == ["7/23", "1/23", "-2/23"]


def test_qrep_commands(capsys):
    code, out, _ = run(capsys, "qrep", "tau04", "--level", "7", "--embedding", "2",
                       "--i", "2", "--j", "2")
    assert code == 0 and json.loads(out)["payload"]["tau_04"] == "4/7"
    code, out, _ = run(capsys, "qrep", "tau11", "--level", "7", "--embedding", "2", "--i", "1")
    assert code == 0 and json.loads(out)["payload"]["tau_11"] == "0/1"


def test_qrep_torus_dump(capsys, tmp_path):
    target = tmp_path / "matrices.json"
    code, out, _ = run(capsys, "qrep", "torus", "--level", "7", "--embedding", "1",
                       "--i", "1", "--dump", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert data["dim"] == 2 and len(data["t_delta"]) == 2


def test_herm_signature_file(capsys, tmp_path):
    z = CycloNum.zeta(5)
    entries = [[cyclo_to_json(CycloNum.rational(1)), cyclo_to_json(z)],
               [cyclo_to_json(z.inverse()), cyclo_to_json(CycloNum.rational(-1))]]
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"embedding": {"order": 5, "exponent": 1}, "entries": entries}))
    code, out, _ = run(capsys, "herm", "signature", "--matrix", str(path))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload == {"positive": 1, "negative": 1, "zero": 0}


def test_herm_meyer_files(capsys, tmp_path):
    one = cyclo_to_json(CycloNum.rational(1))
    z = cyclo_to_json(CycloNum.zeta(12))
    form = {"embedding": {"order": 12, "exponent": 1}, "entries": [[one]]}
    (tmp_path / "form.json").write_text(json.dumps(form))
    (tmp_path / "a.json").write_text(json.dumps({"entries": [[z]]}))
    (tmp_path / "b.json").write_text(json.dumps({"entries": [[z]]}))
    code, out, _ = run(capsys, "herm", "meyer", "--a", str(tmp_path / "a.json"),
                       "--b", str(tmp_path / "b.json"), "--form", str(tmp_path / "form.json"))
    assert code == 0
    assert json.loads(out)["payload"]["meyer_cocycle"] == 1


def test_classes_check(capsys):
    code, out, _ = run(capsys, "classes", "check", "--case", "0,5")
    assert code == 0 and json.loads(out)["payload"]["passed"]


def test_classes_reduce_file(capsys, tmp_path):
    cls = {"g": 1, "n": 2, "coeffs": {"psi_1": "1/1", "psi_2": "1/1"}}
    path = tmp_path / "cls.json"
    path.write_text(json.dumps(cls))
    code, out, _ = run(capsys, "classes", "reduce", "--class", str(path))
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["coeffs"]["delta_irr"] == "1/6"


def test_reproduce_all(capsys):
    code, out, _ = run(capsys, "reproduce", "--all")
    assert code == 0
    assert out.count(": ok") == 6


def test_reproduce_single_table(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "fibonacci-signatures")
    assert code == 0 and "fibonacci-signatures: ok" in out


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "fusion", "build", "--level", "nope")
    assert code == 2
    code, _, _ = run(capsys, "reproduce", "--table", "unknown-table")
    assert code == 2


def test_computation_failure_exit_code(capsys):
    code, _, err = run(capsys, "qrep", "tau04", "--level", "7", "--embedding", "1",
                       "--i", "5", "--j", "5")
    assert code == 1 and "error" in err
