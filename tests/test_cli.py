import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from chernforge import cli, config
from chernforge.cli import main
from chernforge.config import parse_config, serialize_config
from chernforge.verify import SUITES

BASIC = """\
dim = 2
indices = 1

[line]
K = 0 3 / -3 0
theta = 1/3 0
"""

ODD = """\
dim = 1

[component]
winding = 2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cycle.cfg"
    path.write_text(BASIC, encoding="utf-8")
    return str(path)


def test_chern_text(config_path, capsys):
    assert main(["chern", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "(3+0i) exp[0,0] d{1,2}" in out
    assert "[1,2] 3" in out
    assert "[1] 1/3" in out


def test_chern_json_schema(config_path, capsys):
    assert main(["chern", "--config", config_path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "chern"
    assert report["dim"] == 2
    entry = report["classes"][0]
    assert entry["index"] == 1
    assert entry["periods"] == {"1,2": 3}
    assert entry["holonomies"]["1"] == "1/3"


def test_chern_csv(config_path, capsys):
    assert main(["chern", "--config", config_path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "index,kind,key,value"
    assert '1,period,"1,2",3' in out


def test_out_file(config_path, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["chern", "--config", config_path, "--format", "json",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["command"] == "chern"


def test_odd_command(tmp_path, capsys):
    path = tmp_path / "odd.cfg"
    path.write_text(ODD, encoding="utf-8")
    assert main(["odd", "--config", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "odd"
    assert report["classes"][0]["periods"] == {"1": 2}


def test_odd_even_index_exit_code(tmp_path, capsys):
    path = tmp_path / "odd.cfg"
    path.write_text("dim = 1\nindices = 2\n\n[component]\nwinding = 1\n",
                    encoding="utf-8")
    assert main(["odd", "--config", str(path)]) == 3


def test_odd_on_a_point_exit_code(tmp_path, capsys):
    path = tmp_path / "odd.cfg"
    path.write_text("dim = 0\n\n[component]\nwinding =\n", encoding="utf-8")
    assert main(["odd", "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "precondition violated: T^0 carries no odd classes\n"


def test_precondition_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("dim = 2\nindices = 2\n[line]\nK = 0 1 / -1 0\n",
                    encoding="utf-8")
    assert main(["chern", "--config", str(path)]) == 3
    assert "precondition" in capsys.readouterr().err


_INVALID_TERMS = [
    ("index range", "index set (9,) out of range for T^2", "exp[0,0] d{9}"),
    ("index order", "index set (2, 1) is not strictly increasing", "t^3 exp[0,0] d{2,1}"),
    ("frequency range", "frequency vector (4000000000, 0) outside the key range [-2^30, 2^30)",
     "exp[4000000000,0] d{1}"),
]


_WRONG_DEGREE = [
    ("chern", "[line]", "beta", "exp[0,0] d{1,2}", "connection perturbation must be a 1-form"),
    ("chern", "[rho]", "terms", "exp[0,0] d{1,2}", "cycle form must have odd degrees"),
    ("odd", "[component]", "phase", "exp[0,0] d{1}", "phase must be a function"),
]

# data the cycle constructors refuse names the header of its block
_CYCLE_DATA = [
    ("K shape", "chern", "dim = 2\n[line]\nK = 0 1\n", "line 2: curvature matrix must be 2x2"),
    ("theta length", "chern", "dim = 2\n[line]\ntheta = 1/2\n",
     "line 2: holonomy vector must have length 2"),
    ("beta real", "chern", "dim = 2\n[line]\nbeta = (1+0i) exp[1,0] d{1}\n",
     "line 2: connection perturbation must be real"),
    ("second line", "chern", "dim = 2\n\n[line]\nK = 0 1 / -1 0\n\n[line]\n"
     "K = 0 1 / 1 0\n", "line 6: curvature matrix must be antisymmetric"),
    ("rho real", "chern", "dim = 2\n# odd form\n[rho]\nterms = (1+1i) exp[0,0] d{1}\n",
     "line 3: cycle form must be real"),
    ("winding length", "odd", "dim = 2\n[component]\nwinding = 1 0 3\n",
     "line 2: winding vector must have length 2"),
    ("second component", "odd", "dim = 2\n[component]\nwinding = 1 0\n[component]\n"
     "winding = 0 1\nphase = (1+0i) exp[0,0] d{}\n",
     "line 4: phase must have no constant Fourier mode"),
    ("missing winding", "odd", "dim = 2\n[component]\nwinding = 1 0\n\n[component]\n",
     "line 5: odd component is missing 'winding'"),
] + [
    # every block is checked, also one the command does not read
    (f"{name} {command}", command, text, message)
    for name, text, message in (
        ("unread line", "dim = 2\n[line]\nK = 0 1\n[component]\nwinding = 1 0\n",
         "line 2: curvature matrix must be 2x2"),
        ("unread component", "dim = 2\n[component]\nwinding = 1 0 0\n",
         "line 2: winding vector must have length 2"))
    for command in ("chern", "odd")
]


@pytest.mark.parametrize("command, text, message", [
    ("chern", "dim = 2\n[line]\ntheta = 0.5 0\n", "line 3: expected a rational, got '0.5'"),
    ("chern", "dim = 2\n[line]\nK = 0 1 / -1 0\nK = 0 2 / -2 0\n",
     "line 4: key 'K' given twice in [line]"),
    ("chern", "dim = +2\n", "line 1: expected an integer, got '+2'"),
    ("chern", "dim = 2\nindices = 1_0\n", "line 2: expected an integer, got '1_0'"),
    ("chern", "dim = 2\n[line]\nK = 0 \uff11 / -1 0\n",
     "line 3: expected an integer, got '\uff11'"),
    ("chern", "dim = 2\n[rho]\nterms = (1+0i) exp[1073741824,0] d{1}\n",
     "line 3: frequency vector (1073741824, 0) outside the key range [-2^30, 2^30)"),
    ("chern", "dim = 2\n[rho]\nterms = (1+0i) exp[+1,0] d{1}\n",
     "line 3: bad form term: '(1+0i) exp[+1,0] d{1}'"),
    ("chern", "dim = -1\n", "line 1: dim must be >= 0, got -1"),
    ("chern", "# a negative torus\n\ndim = -2\n[line]\nK = 0 1 / -1 0\n",
     "line 3: dim must be >= 0, got -2"),
    ("odd", "dim = -1\n", "line 1: dim must be >= 0, got -1"),
    ("odd", "dim = -1\n\n[component]\nwinding = 1\n", "line 1: dim must be >= 0, got -1"),
    ("chern", "dim = 2\nindices =\n", "line 2: 'indices' lists no index"),
    ("chern", "# no dim yet\n[line]\ndim = 2\n", "line 2: 'dim' must be set before any block"),
    ("odd", "dim = 2\n[line]\nK = 0 1 / -1 0\n", "no [component] blocks for an odd cycle"),
] + [
    # a term whose coefficient is zero, or whose duplicates cancel, is
    # checked as the same term with coefficient 1
    (command, f"dim = 2\n{section}\n{key} = {terms}\n", f"line {line}: {message}")
    for _, message, term in _INVALID_TERMS
    for terms in (f"(1+0i) {term}", f"(0+0i) {term}", f"(1+0i) {term} + (-1+0i) {term}")
    for command, section, key, line in (
        ("chern", "[line]\nK = 0 1 / -1 0", "beta", 4), ("chern", "[rho]", "terms", 3),
        ("odd", "[component]\nwinding = 1 0", "phase", 4))
] + [
    # a written term of the wrong degree is refused on its key's line,
    # whatever its coefficient
    (command, f"dim = 2\n{section}\n{key} = {terms}\n", f"line 3: {message}")
    for command, section, key, term, message in _WRONG_DEGREE
    for terms in (f"(1+0i) {term}", f"(0+0i) {term}", f"(1+0i) {term} + (-1+0i) {term}")
] + [
    (command, text, message) for _, command, text, message in _CYCLE_DATA
], ids=["theta", "repeated key", "plus", "underscore", "full-width digit", "frequency ceiling",
        "frequency plus", "negative dim chern", "negative dim chern with a line",
        "negative dim odd", "negative dim odd with a component", "empty indices",
        "block before dim", "no component"] + [
    f"{name} {coeff} {where}" for name, _, _ in _INVALID_TERMS
    for coeff in ("one", "zero", "cancelling") for where in ("beta", "rho", "phase")] + [
    f"degree {coeff} {key}" for _, _, key, _, _ in _WRONG_DEGREE
    for coeff in ("one", "zero", "cancelling")] + [name for name, _, _, _ in _CYCLE_DATA])
def test_config_errors_exit_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: {message}\n"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("dim = 2\nwat\n", encoding="utf-8")
    assert main(["chern", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_config_file(capsys):
    assert main(["chern", "--config", "/nonexistent/x.cfg"]) == 2


def test_usage_error_exit_code(capsys):
    assert main(["chern"]) == 2  # --config is required


def test_unknown_suite_exit_code(capsys):
    assert main(["verify", "--suite", "nope"]) == 2


def test_verify_pass_and_determinism(capsys):
    assert main(["verify", "--suite", "odd", "--seed", "3", "--cases", "5",
                 "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "odd", "--seed", "3", "--cases", "5",
                 "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["suite"]["ok"] is True
    assert report["suite"]["failures"] == 0


def test_verify_seed_changes_stream(capsys):
    assert main(["verify", "--suite", "gauge", "--seed", "1", "--cases", "3",
                 "--format", "json"]) == 0
    one = capsys.readouterr().out
    assert main(["verify", "--suite", "gauge", "--seed", "2", "--cases", "3",
                 "--format", "json"]) == 0
    two = capsys.readouterr().out
    assert json.loads(one)["suite"]["ok"] and json.loads(two)["suite"]["ok"]


def test_the_environment_sets_no_degree(capsys, monkeypatch):
    monkeypatch.setenv("CHERNFORGE_DEGREE", "junk")
    assert main(["verify", "--suite", "multiplicativity", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["suite"]["checks"] == 8


def test_verify_text_report(capsys):
    assert main(["verify", "--suite", "newton"]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out


@pytest.mark.parametrize("command, text", [
    ("chern", "dim = 2\n\n[line]\nK = 0 1 / 1 0\n"),
    ("chern", "dim = 2\n\n[line]\nK = 0 1 / -1 0\n\n"
              "[rho]\nterms = (1/5+0i) exp[0,0] d{1,2}\n"),
    ("odd", "dim = 2\n\n[component]\nwinding = 1 0 3\n"),
], ids=["non-antisymmetric-K", "even-degree-rho", "winding-length"])
def test_malformed_cycle_data_exit_code(tmp_path, capsys, command, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command, text", [
    ("chern", "dim = 2\n\n[line]\ntheta = 1/0 0\n"),
    ("chern", "dim = 2\n\n[rho]\nterms = (1/0+0i) exp[0,0] d{1}\n"),
    ("odd", "dim = 2\n\n[component]\nwinding = 1 0\n"
            "phase = (0+1/0i) exp[1,0] d{}\n"),
], ids=["theta", "rho", "phase"])
def test_zero_denominator_exit_code(tmp_path, capsys, command, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: line ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["chern", "odd"])
def test_config_directory_exit_code(tmp_path, capsys, command):
    assert main([command, "--config", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["chern", "odd"])
def test_config_not_utf8_exit_code(tmp_path, capsys, command):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("dim = 1\n# d\u00e9j\u00e0 vu\n".encode("latin-1"))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert "not UTF-8" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing/report.json", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_exit_code(config_path, tmp_path, capsys, target):
    out = tmp_path / target
    assert main(["chern", "--config", config_path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("output error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("cases", ["0", "-5", "two"])
def test_verify_rejects_bad_case_count(capsys, cases):
    assert main(["verify", "--suite", "whitney", "--cases", cases]) == 2
    assert "--cases" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["verify", "--suite", "whitney", "--cases", "0"],
     "chernforge verify: error: argument --cases: must be >= 1, got 0\n"),
    (["chern"],
     "chernforge chern: error: the following arguments are required: --config\n"),
    (["verify", "--suite", "nope"],
     "chernforge verify: error: argument --suite: invalid choice: 'nope' "
     f"(choose from {', '.join(map(repr, sorted(SUITES)))})\n"),
    (["verify", "--suite", "newton", "--degree", "8"],
     "chernforge: error: unrecognized arguments: --degree 8\n"),
], ids=["cases-zero", "chern-without-config", "unknown-suite", "degree-flag"])
def test_usage_error_is_one_stderr_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def test_the_cached_parser_carries_no_state_between_requests(config_path, capsys):
    requests = [["chern", "--config", config_path], ["chern"],
                ["verify", "--suite", "whitney", "--cases", "1"], ["--help"]]

    def serve(fresh_parser):
        cli.build_parser.cache_clear()
        served = []
        for argv in requests:
            if fresh_parser:
                cli.build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            served.append((code, captured.out, captured.err))
        return served

    assert serve(fresh_parser=False) == serve(fresh_parser=True)
    assert cli.build_parser() is cli.build_parser()


def test_the_parser_is_not_built_at_import():
    # the benchmark's setup_s times the import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    code = ("import chernforge.cli as cli; "
            "assert cli.build_parser.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_the_import_loads_no_unused_module():
    # dataclasses would bring inspect, ast, dis and tokenize; csv loads
    # with the CSV renderer
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import chernforge, chernforge.cli, chernforge.symfun; "
            "print(' '.join(sorted(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code, str(Path(cli.__file__).parents[1])],
                            capture_output=True, text=True, check=True, timeout=60)
    loaded = set(result.stdout.split())
    assert "chernforge.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize", "csv"})


@pytest.mark.parametrize("command, name", [("chern", "chern_class"),
                                           ("odd", "odd_chern_class")])
def test_postcondition_failure_is_one_stderr_line(tmp_path, capsys, monkeypatch,
                                                  command, name):
    path = tmp_path / "cycle.cfg"
    path.write_text(BASIC if command == "chern" else ODD, encoding="utf-8")

    def broken(cycle, i):
        raise ArithmeticError(f"curvature compatibility failed at index {i}")

    monkeypatch.setattr(cli, name, broken)
    assert main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "postcondition failed: curvature compatibility failed at index 1\n"


@pytest.mark.parametrize("command", ["chern", "odd"])
def test_a_dimension_above_the_ceiling_exits_3(tmp_path, capsys, command):
    path = tmp_path / "big.cfg"
    # refused on its line, before a block is built or a later line read
    for text in ("dim = {}\n", "dim = {}\n[line]\nK = x\n", "dim = {}\nindices =\n"):
        for dim in (config.MAX_DIM + 1, 200):
            path.write_text(text.format(dim), encoding="utf-8")
            assert main([command, "--config", str(path)]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"precondition violated: dim = {dim} "
                           f"exceeds the ceiling {config.MAX_DIM}\n")
    # the ceiling itself is accepted
    path.write_text(f"dim = {config.MAX_DIM}\n\n[component]\nwinding = "
                    + " ".join(["0"] * config.MAX_DIM) + "\n", encoding="utf-8")
    assert main(["odd", "--config", str(path)]) == 0


EXAMPLES = Path(__file__).resolve().parents[1] / "scripts"
# what a mutation may put in place of an integer token: in range, at and
# past the dimension ceiling and the key range, and not integers at all
SPLICED = ("0", "1", "-1", "2", "3", "-3", "7", "12", "13", "200", "1073741823",
           "1073741824", "-1073741825", "99999999999999999999", "1/0", "1/2", "+1",
           "1.5", "x", "")
ALPHABET = "0123456789-/+ =[]{}(),#^itexpd\n"


def _mutate(rng, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        kind = rng.randrange(6)
        if kind == 0:
            numbers = list(re.finditer(r"-?\d+", text))
            if numbers:
                hit = rng.choice(numbers)
                text = text[:hit.start()] + rng.choice(SPLICED) + text[hit.end():]
        elif kind == 1 and text:
            pos = rng.randrange(len(text))
            text = text[:pos] + text[pos + 1:]
        elif kind == 2:
            pos = rng.randrange(len(text) + 1)
            text = text[:pos] + rng.choice(ALPHABET) + text[pos:]
        elif kind == 3:
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif kind == 4:
            pos = rng.randrange(len(lines))
            lines.insert(pos, lines[pos])
            text = "\n".join(lines)
        else:
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


def test_mutated_configs_exit_0_2_or_3_and_round_trip(tmp_path, capsys):
    rng = Random(20)
    path, again = tmp_path / "fuzz.cfg", tmp_path / "again.cfg"
    exits = Counter()
    for example in ("example_even", "example_odd"):
        seed_text = (EXAMPLES / f"{example}.cfg").read_text(encoding="utf-8")
        for _ in range(400):
            text = _mutate(rng, seed_text)
            fmt = rng.choice(("text", "json", "csv"))
            path.write_text(text, encoding="utf-8")
            errors = []
            for command in ("chern", "odd"):
                code = main([command, "--config", str(path), "--format", fmt])
                out, err = capsys.readouterr()
                exits[code] += 1
                errors.append(err)
                assert code in (0, 2, 3), text
                if code:
                    assert out == "" and err.count("\n") == 1 and err.endswith("\n"), text
                    continue
                assert err == ""
                indices, cycle, odd_cycle = parse_config(text)
                again.write_text(serialize_config(cycle if command == "chern" else odd_cycle,
                                                  indices), encoding="utf-8")
                assert main([command, "--config", str(again), "--format", fmt]) == 0
                assert capsys.readouterr().out == out, text
            # both commands read every block, so an error on a line reads the same
            if any(err.startswith("config error: line ") for err in errors):
                assert errors[0] == errors[1], text
    # the mutations reach every exit code they may
    assert exits[0] and exits[2] and exits[3], exits
