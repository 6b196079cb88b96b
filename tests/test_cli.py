import argparse
import ast
import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qtoledo
from qtoledo.cli import build_parser, main
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


def test_herm_signature_refuses_entries_outside_the_embeddings_field(capsys, tmp_path):
    z = CycloNum.zeta(5)
    entries = [[cyclo_to_json(CycloNum.rational(1)), cyclo_to_json(z)],
               [cyclo_to_json(z.inverse()), cyclo_to_json(CycloNum.rational(-1))]]
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"embedding": {"order": 7, "exponent": 1}, "entries": entries}))
    code, out, err = run(capsys, "herm", "signature", "--matrix", str(path))
    assert (code, out) == (1, "")
    assert err == "error: ValueError: entry of order 5 is not in Q(zeta_7), the field of the embedding\n"


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


@pytest.mark.parametrize("g, n, name", [(1, 2, "psi_totally"), (1, 2, "delta_irrational"), (1, 2, "point")])
def test_classes_reduce_refuses_a_name_the_space_does_not_admit(capsys, tmp_path, g, n, name):
    # a misspelled name is not read by its prefix, and `point` exists only on (0,4) and (1,1)
    path = tmp_path / "cls.json"
    path.write_text(json.dumps({"g": g, "n": n, "coeffs": {name: "1/1"}}))
    code, out, err = run(capsys, "classes", "reduce", "--class", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: ValueError: label ('{name}',) not valid on moduli ({g},{n})\n"


def test_classes_reduce_refuses_two_names_of_one_divisor(capsys, tmp_path):
    path = tmp_path / "cls.json"
    path.write_text(json.dumps({"g": 1, "n": 2, "coeffs": {"delta_1_{}": "1", "delta_0_{1,2}": "1"}}))
    code, out, err = run(capsys, "classes", "reduce", "--class", str(path))
    assert (code, out) == (1, "")
    assert err == "error: ValueError: names delta_1_{} and delta_0_{1,2} give one label on moduli (1,2)\n"


def test_classes_reduce_refuses_a_point_outside_the_space(capsys, tmp_path):
    path = tmp_path / "cls.json"
    path.write_text(json.dumps({"g": 1, "n": 3, "coeffs": {"delta_1_{7}": "1"}}))
    code, out, err = run(capsys, "classes", "reduce", "--class", str(path))
    assert (code, out) == (1, "")
    assert err == "error: ValueError: boundary label (1,(7,)) names no distinct points of 1..3 on moduli (1,3)\n"


def test_classes_check_names_a_space_without_a_statement(capsys):
    code, out, err = run(capsys, "classes", "check", "--case", "0,4")
    assert (code, out) == (1, "")
    assert err == "error: ValueError: no uniformization statement for (0,4)\n"


def test_help_describes_only_the_commands(capsys):
    # argparse rewraps the description, so compare the words only
    code, out, _ = run(capsys, "--help")
    words = " ".join(out.split())
    assert code == 0
    assert "Exit codes: 0 success, 1 computation failure, 2 usage error, 3 golden mismatch." in words
    assert "SUBCOMMANDS" not in words and "Imported as a module" not in words


@pytest.mark.parametrize("g, n, colors, reason", [
    ("0", "5", "0,1,1,1,1", "reduction needs symmetric boundary coefficients"),
    ("3", "0", "", "no relation table for moduli (3,0)"),
])
def test_rmatrix_class_says_why_a_class_is_not_reduced(capsys, g, n, colors, reason):
    code, out, err = run(capsys, "rmatrix", "class", "--level", "5", "--g", g, "--n", n,
                         "--colors", colors)
    assert (code, err) == (0, "")
    payload = json.loads(out)["payload"]
    assert (payload["reduced"], payload["not_reduced"]) == (None, reason)


def test_rmatrix_class_that_reduces_carries_no_reason(capsys):
    code, out, _ = run(capsys, "rmatrix", "class", "--level", "5", "--g", "1", "--n", "3")
    assert code == 0 and set(json.loads(out)["payload"]) == {"class", "reduced"}


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


@pytest.mark.parametrize("call, flag", [
    (("classes", "check", "--case", "x"), "--case"),
    (("classes", "check", "--case", "1,"), "--case"),
    (("rmatrix", "class", "--level", "5", "--g", "1", "--n", "1", "--colors", "a"), "--colors"),
    (("rmatrix", "class", "--level", "5", "--g", "1", "--n", "2", "--colors", "1,b"), "--colors"),
])
def test_malformed_comma_list_is_a_usage_error(capsys, call, flag):
    code, out, err = run(capsys, *call)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: qtoledo {call[0]} {call[1]} ")
    assert err.endswith(f"error: argument {flag}: expected comma-separated integers, "
                        f"got {call[-1]!r}\n")


@pytest.mark.parametrize("case, message", [
    ("", "expected two integers g,n, got ''"),
    ("0,5,1", "expected two integers g,n, got '0,5,1'"),
    ("0,x", "expected comma-separated integers, got '0,x'"),
])
def test_case_takes_exactly_two_integers(capsys, case, message):
    code, out, err = run(capsys, "classes", "check", "--case", case)
    assert (code, out) == (2, "")
    assert err.startswith("usage: qtoledo classes check ")
    assert err.endswith(f"error: argument --case: {message}\n")


@pytest.mark.parametrize("call, message", [
    (("rmatrix", "crosscheck", "--gmax", "-1"),
     "argument --gmax: expected a nonnegative integer, got '-1'"),
    (("fusion", "gluing", "--level", "5", "--samples", "-3"),
     "argument --samples: expected a nonnegative integer, got '-3'"),
    (("fusion", "sigtable", "--level", "5", "--gmax", "-1"),
     "argument --gmax: expected a nonnegative integer, got '-1'"),
    (("fusion", "sigtable", "--level", "5", "--nmax", "x"),
     "argument --nmax: invalid int value: 'x'"),
    (("reproduce", "--all", "--table", "euler"),
     "argument --table: not allowed with argument --all"),
    # how argparse lists the choices after this varies with the Python version
    (("reproduce", "--all", "--table", "nosuch"), "argument --table: invalid choice: 'nosuch' "),
])
def test_bad_count_or_two_table_choices_is_a_usage_error(capsys, call, message):
    code, out, err = run(capsys, *call)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: qtoledo {call[0]} ")
    assert f"error: {message}" in err


def test_empty_color_list_still_means_no_colors(capsys):
    code, out, _ = run(capsys, "rmatrix", "class", "--level", "5", "--g", "2", "--n", "0",
                       "--colors", "")
    assert code == 0 and json.loads(out)["parameters"]["colors"] == ""


def test_no_marked_points_take_no_default_color(capsys):
    # the default --colors 1 is repeated once per marked point, so n = 0 gets none
    call = ("rmatrix", "class", "--level", "5", "--g", "2", "--n", "0")
    code, out, err = run(capsys, *call)
    explicit = run(capsys, *call, "--colors", "")
    assert (code, err) == (0, "") and explicit[0] == 0
    assert json.loads(out)["payload"] == json.loads(explicit[1])["payload"]


def test_computation_failure_exit_code(capsys):
    code, _, err = run(capsys, "qrep", "tau04", "--level", "7", "--embedding", "1",
                       "--i", "5", "--j", "5")
    assert code == 1 and "error" in err


def _except_handlers(node, where):
    """(enclosing qualified name, handler) for every except clause under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            yield where, child
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _except_handlers(child, f"{where}.{child.name}" if named else where)


def test_only_cli_main_catches_every_exception():
    # a broad handler hides real faults; only the CLI's exit-code mapping may have one
    broad = {"Exception", "BaseException"}
    offenders = []
    for path in sorted(Path(qtoledo.__file__).parent.glob("*.py")):
        for where, handler in _except_handlers(ast.parse(path.read_text()), path.stem):
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            if any(t is None or isinstance(t, ast.Name) and t.id in broad for t in types):
                offenders.append(f"{where}:{handler.lineno}")
    assert [o for o in offenders if not o.startswith("cli.main:")] == []
    assert offenders, "cli.main maps every computation failure to exit code 1"


def test_out_of_range_color_is_refused(capsys):
    code, out, err = run(capsys, "rmatrix", "class", "--level", "5", "--g", "1", "--n", "1",
                         "--colors", "5")
    assert (code, out) == (1, "")
    assert err == "error: ValueError: color 5 is out of range for an algebra of rank 2\n"


@pytest.mark.parametrize("g, n", [(-1, 5), (1, -1), (2, -1)])
def test_negative_genus_or_point_count_is_refused(capsys, g, n):
    # rmatrix class names the range before it counts the colors
    for call in (("euler", "chibar"), ("euler", "twisted", "--level", "5"),
                 ("rmatrix", "class", "--level", "5")):
        code, out, err = run(capsys, *call, "--g", str(g), "--n", str(n))
        assert (code, out) == (1, "")
        assert err == f"error: ValueError: genus and number of points must be nonnegative, got ({g},{n})\n"


def _subcommands():
    """Every (command, sub) pair the parser accepts, read from the parser itself."""
    def choices(parser):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    return {(cmd, sub) for cmd, p in choices(build_parser()).items() if cmd != "reproduce"
            for sub in choices(p)}


def _small_calls(tmp_path):
    """One small call per subcommand that takes --format; file inputs are written first."""
    one = cyclo_to_json(CycloNum.rational(1))
    z = cyclo_to_json(CycloNum.zeta(12))
    (tmp_path / "form.json").write_text(
        json.dumps({"embedding": {"order": 12, "exponent": 1}, "entries": [[one]]}))
    (tmp_path / "a.json").write_text(json.dumps({"entries": [[z]]}))
    (tmp_path / "cls.json").write_text(
        json.dumps({"g": 1, "n": 2, "coeffs": {"psi_1": "1/1", "psi_2": "1/1"}}))
    return [
        ("fusion", "build", "--family", "su2", "--level", "3"),
        ("fusion", "sigtable", "--level", "7", "--gmax", "2", "--nmax", "3"),
        ("fusion", "gluing", "--level", "5", "--samples", "3"),
        ("herm", "signature", "--matrix", str(tmp_path / "form.json")),
        ("herm", "meyer", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "a.json"),
         "--form", str(tmp_path / "form.json")),
        ("qrep", "tau04", "--level", "7", "--embedding", "2", "--i", "2", "--j", "2"),
        ("qrep", "tau11", "--level", "7", "--i", "1"),
        ("qrep", "torus", "--level", "7", "--i", "1"),
        ("rmatrix", "solve", "--level", "5"),
        ("rmatrix", "class", "--level", "5", "--g", "0", "--n", "4"),
        ("rmatrix", "crosscheck", "--gmax", "1", "--nmax", "2"),
        ("classes", "check", "--case", "0,5"),
        ("classes", "reduce", "--class", str(tmp_path / "cls.json")),
        ("euler", "chibar", "--g", "1", "--n", "1"),
        ("euler", "twisted", "--g", "0", "--n", "4", "--level", "5"),
    ]


@pytest.mark.parametrize("fmt", ["json", "md", "csv"])
def test_every_subcommand_runs_in_every_format(capsys, tmp_path, fmt):
    calls = _small_calls(tmp_path)
    assert {call[:2] for call in calls} == _subcommands()
    for call in calls:
        code, out, err = run(capsys, *call, "--format", fmt)
        assert (code, err) == (0, ""), (call, err)
        assert out.endswith("\n")
        if fmt == "json":
            assert json.loads(out)["command"] == " ".join(call[:2])


def test_meyer_refuses_an_isometry_of_another_size_than_the_form(capsys, tmp_path):
    one, zero = cyclo_to_json(CycloNum.rational(1)), cyclo_to_json(CycloNum.rational(0))
    (tmp_path / "form.json").write_text(json.dumps(
        {"embedding": {"order": 12, "exponent": 1}, "entries": [[one, zero], [zero, one]]}))
    (tmp_path / "a.json").write_text(
        json.dumps({"entries": [[one, zero], [zero, one], [zero, zero]]}))
    code, out, err = run(capsys, "herm", "meyer", "--a", str(tmp_path / "a.json"),
                         "--b", str(tmp_path / "a.json"), "--form", str(tmp_path / "form.json"))
    assert (code, out) == (1, "")
    assert err == "error: ValueError: matrix is 3x2, the form 2x2\n"


# SHA-256 of the echoed parameters of every call of _small_calls, file names
# reduced to their basenames: the option names and defaults of each subcommand
PARAMETERS_SHA256 = "0058720be7604f4d60fa9255e9702b6cf544d4710904538bf62d972a4e4a7798"


def test_every_subcommand_echoes_its_pinned_parameters(capsys, tmp_path):
    echoed = []
    for call in _small_calls(tmp_path):
        code, out, _ = run(capsys, *call, "--format", "json")
        assert code == 0, call
        parameters = json.loads(out)["parameters"]
        for key in ("matrix", "a", "b", "form", "class"):
            if key in parameters:
                parameters[key] = Path(parameters[key]).name
        echoed.append(parameters)
    assert len(echoed) == 15
    digest = hashlib.sha256(json.dumps(echoed, sort_keys=True).encode()).hexdigest()
    assert digest == PARAMETERS_SHA256


def test_sigtable_json_serializes_rationals(capsys):
    code, out, _ = run(capsys, "fusion", "sigtable", "--level", "7", "--embedding", "1",
                       "--gmax", "2", "--nmax", "3")
    assert code == 0
    cells = json.loads(out)["payload"]["cells"]
    assert len(cells) == 12
    assert cells[0] == {"g": 0, "n": 0, "p": 1, "q": 0, "dim": "1/1", "signature": "1/1",
                        "stable": False}
    assert all(c["p"] + c["q"] == Fraction(c["dim"]) for c in cells)


def _frozen_ops(command):
    """The benchmark's frozen record of every operation of one subcommand."""
    manifest = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "manifest.json"
    return [op for op in json.loads(manifest.read_text())["ops"].values()
            if op["argv"][:2] == list(command)]


def test_torus_outputs_match_the_frozen_manifest(capsys):
    # exit code, stderr and the SHA-256 of stdout of every `qrep torus`
    # operation, checked here in-process
    ops = _frozen_ops(("qrep", "torus"))
    assert len(ops) == 36
    for op in ops:
        code, out, err = run(capsys, *op["argv"])
        assert (code, err) == (op["exit"], op["stderr"]), op["argv"]
        assert hashlib.sha256(out.encode()).hexdigest() == op["stdout_sha256"], op["argv"]


# the manifest froze (9,1) as a refusal; it answers since tau_{0,4} reads
# rotation numbers, with R_1 over the denominator 1188882
SOLVE_9_1_SHA256 = "dd38fc4a320c41affd33a85d4dfc25222cef755d338b1659434b992e649a2b02"


def test_solve_outputs_match_the_frozen_manifest(capsys):
    # every `rmatrix solve` operation; (9,1) against the answer pinned above
    ops = _frozen_ops(("rmatrix", "solve"))
    assert len(ops) == 7
    for op in ops:
        code, out, err = run(capsys, *op["argv"])
        if op["argv"] == ["rmatrix", "solve", "--level", "9", "--embedding", "1"]:
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_9_1_SHA256
            continue
        assert (code, err) == (op["exit"], op["stderr"]), op["argv"]
        assert hashlib.sha256(out.encode()).hexdigest() == op["stdout_sha256"], op["argv"]


def _parse_outcome(parser, argv):
    """(exit code, stdout, stderr, parsed values) of parsing argv; the values only on success."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            values, code = vars(parser.parse_args(argv)), 0
        except SystemExit as e:
            values, code = None, e.code
    return code, out.getvalue(), err.getvalue(), values


def _lazy_parser_argvs():
    yield from ([], ["--help"], ["-h"], ["nosuch"], ["nosuch", "--help"], ["--", "qrep"])
    yield from (["reproduce", "--help"], ["reproduce", "--table"], ["reproduce", "--all"])
    for cmd in sorted({cmd for cmd, _ in _subcommands()}):
        yield from ([cmd], [cmd, "--help"], [cmd, "nosuch"])
    for cmd, sub in sorted(_subcommands()):
        # with no flags, a call misses its required ones (crosscheck has none)
        yield from ([cmd, sub, "--help"], [cmd, sub], [cmd, sub, "--no-such-flag", "1"])


def test_lazy_parser_matches_the_full_parser():
    # filling in only the called group changes no output, exit code or parsed value
    for argv in _lazy_parser_argvs():
        assert _parse_outcome(build_parser(argv), argv) == _parse_outcome(build_parser(), argv), argv


def _filled_groups(parser):
    groups = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return sorted(name for name, p in groups.items() if len(p._actions) > 1)


def test_lazy_parser_fills_only_the_called_group():
    everything = _filled_groups(build_parser())
    assert everything == sorted({cmd for cmd, _ in _subcommands()} | {"reproduce"})
    assert _filled_groups(build_parser(["--help"])) == []
    assert _filled_groups(build_parser(["nosuch"])) == []
    assert _filled_groups(build_parser(["qrep", "torus", "--level", "5"])) == ["qrep"]


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qtoledo", "euler", "twisted", "--g", "0", "--n", "5",
                                      "--level", "5"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["payload"]["chi"] == "3/5"
