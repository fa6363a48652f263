import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chernforge.verify import SUITES

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_verify_suites.py"


def test_quick_plan_passes_every_suite():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(SCRIPT), "--quick"], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    verdicts = re.findall(r"^\w+ +(PASS|FAIL) +checks=", result.stdout, re.M)
    assert verdicts == ["PASS"] * len(SUITES)


def test_full_plan_names_every_suite_in_order():
    plan = load_script("run_verify_suites").FULL_PLAN
    assert [name for name, _ in plan] == list(SUITES)
    assert [kwargs["cases"] for _, kwargs in plan if kwargs] == [100, 200, 50, 50, 50, 500, 500]


def test_layer_times_outputs_are_unchanged():
    # the checksum over every layer's output, the compare and draw layers
    # included; the draw layer's share was pinned on the generators that
    # drew with randint, Fraction and the public constructor
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "layer_times.py"),
                             "--repeats", "1"], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    layers = re.findall(r"^(\w+) +[0-9.]+ ms", result.stdout, re.M)
    assert layers == ["wedge", "d", "add", "chern_transforms", "cup", "chern_class",
                      "text", "construct", "compare", "draw"]
    # the work of each layer, as the tuple-keyed kernel counted it
    work = re.findall(r"\)  (\d+ terms(?:, \d+ products)?)$", result.stdout, re.M)
    assert work == ["2227 terms, 4676 products", "229 terms", "154 terms", "107 terms",
                    "459 terms", "564 terms", "1452 terms", "395 terms", "0 terms",
                    "2125 terms"]
    assert result.stdout.splitlines()[-1] == (
        "checksum 1f3260d561d361b5c932884e29774219eccd0ffd2259dc34b9d9b6e583db2259")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_verdicts():
    judge = load_script("bench_pairs").judge
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    faster = [0.75 * v for v in base]
    gain = judge(base, faster, "lower", 0.25)
    assert gain["verdict"] == "gain" and gain["wins"] == 10
    assert abs(gain["ratio_of_medians"] - 0.75) < 1e-9
    assert judge(base, [1.3 * v for v in base], "lower", 0.25)["verdict"] == "worse"
    assert judge(base, [1.1 * v for v in base], "lower", 0.25)["verdict"] == "within"
    # nine wins of ten still count as a gain; eight do not
    nine = faster[:9] + [2.0]
    assert judge(base, nine, "lower", 0.25)["verdict"] == "gain"
    assert judge(base, faster[:8] + [2.0, 2.0], "lower", 0.25)["verdict"] == "within"
    wide = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]
    assert judge(wide, [v * 0.95 for v in wide], "lower", 0.25)["verdict"] == "unresolved"
    assert judge(wide, [0.4] * 10, "lower", 0.25)["verdict"] == "gain"
    assert judge(base, [0.7 * v for v in base], "higher", 0.25)["verdict"] == "worse"
    # the base runs first in even pairs: a first run that reads 10% slower
    # shows in the per-order medians and leaves the verdict alone
    order = [v * (0.9 if p % 2 == 0 else 1.1) for p, v in enumerate(base)]
    mixed = judge(base, order, "lower", 0.25)
    assert abs(mixed["ratio_base_first"] - 0.9) < 1e-9
    assert abs(mixed["ratio_change_first"] - 1.1) < 1e-9
    assert mixed["verdict"] == "within" and mixed["wins"] == 5
    assert abs(mixed["ratio_orders_geomean"] - (0.9 * 1.1) ** 0.5) < 1e-9
    assert all(abs(gain[key] - 0.75) < 1e-9
               for key in ("ratio_base_first", "ratio_change_first", "ratio_orders_geomean"))
    # a gain must show in both run orders: base-first pairs that win by
    # 30% and change-first pairs that lose by 5% are no gain
    split = [v * (0.7 if p % 2 == 0 else 1.05) for p, v in enumerate(base)]
    one_sided = judge(base, split, "lower", 0.25)
    assert one_sided["verdict"] == "within" and one_sided["ratio_change_first"] > 1
    # one pair has no change-first order, so it can no longer read gain
    single = judge([1.0], [0.8], "lower", 0.25)
    assert single["ratio_base_first"] == 0.8 and single["ratio_change_first"] is None
    assert single["ratio_orders_geomean"] is None and single["verdict"] == "within"
    assert judge([1.0, 1.0], [0.8, 0.8], "lower", 0.25)["verdict"] == "gain"
    assert judge([1.0, 1.0], [1.2, 1.2], "higher", 0.25)["verdict"] == "gain"


CODE_LINES_FIXTURE = '''\
"""Module docstring: not code."""

import sys  # a comment after code: one line


def f(x):
    """A docstring
    over two lines."""
    # a whole-line comment
    text = """a string that is code,
# with a hash and a blank line

inside"""
    return (x,
            text)


class C:
    "a class docstring"
    value = f(1)[0]; other = "x"
'''


def test_code_lines_counts_only_code():
    # import, def, the four lines of ``text =``, the two of ``return``,
    # class and ``value``
    assert load_script("code_lines").count_code_lines(CODE_LINES_FIXTURE) == 10


def run_code_lines(*args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py"), *args],
                          capture_output=True, text=True, timeout=60)


def test_code_lines_refuses_an_unreadable_path_in_one_line(tmp_path):
    missing = tmp_path / "nonexist.py"
    result = run_code_lines(str(missing))
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"code_lines.py: cannot read {missing}: No such file or directory\n"
    result = run_code_lines(str(ROOT / "scripts" / "code_lines.py"), str(tmp_path))
    assert result.returncode == 2
    assert result.stderr == f"code_lines.py: cannot read {tmp_path}: Is a directory\n"


def test_code_lines_help_prints_the_usage():
    for args in (["-h"], ["--help"], ["nonexist.py", "-h"]):
        result = run_code_lines(*args)
        assert result.returncode == 0 and result.stderr == ""
        assert result.stdout == "usage: python scripts/code_lines.py FILE [FILE ...]\n"


@pytest.mark.parametrize("source", ['x = """abc', "x = (1,", "if x:\n    a\n  b\n"],
                         ids=["open string", "open bracket", "bad dedent"])
def test_code_lines_refuses_an_untokenizable_file_in_one_line(tmp_path, source):
    bad = tmp_path / "bad.py"
    bad.write_text(source)
    result = run_code_lines(str(ROOT / "scripts" / "code_lines.py"), str(bad))
    assert result.returncode == 2
    # the reason is tokenize's own, which differs between Python versions
    head, _, reason = result.stderr.partition(f"code_lines.py: cannot tokenize {bad}: ")
    assert head == "" and reason.strip() and reason.count("\n") == 1 and reason.endswith("\n")
