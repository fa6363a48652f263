import json

import pytest

from chernforge import diffchar, symfun, verify
from chernforge.bundles import OddKCycle
from chernforge.cli import main
from chernforge.forms import TorusForm
from chernforge.symfun import GradedPoly


def _raise_on_call(monkeypatch, owner, name, call=2):
    """Patch ``owner.name`` so that its ``call``-th call raises RuntimeError."""
    original = getattr(owner, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise RuntimeError(f"injected into {name}")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)


# the function each suite calls inside its checks, never while drawing a case
CHECKED = {
    "whitney": (verify, "check_group_hom"),
    "paths": (verify, "check_path_independence"),
    "gauge": (verify, "check_shift_invariance"),
    "naturality": (verify, "chern_class"),
    "calculus": (TorusForm, "wedge"),
}


@pytest.mark.parametrize("suite", sorted(CHECKED))
def test_a_check_that_raises_is_a_failing_check(suite, monkeypatch, capsys):
    clean = verify.run_suite(suite, seed=7, cases=2)
    assert clean["ok"]
    _raise_on_call(monkeypatch, *CHECKED[suite])
    report = verify.run_suite(suite, seed=7, cases=2)
    assert report["checks"] == clean["checks"]
    assert report["failures"] >= 1
    assert report["first_counterexample"]["error"].startswith("RuntimeError: injected")

    _raise_on_call(monkeypatch, *CHECKED[suite])
    argv = ["verify", "--suite", suite, "--seed", "7", "--cases", "2", "--format", "json"]
    assert main(argv) == 1
    printed = json.loads(capsys.readouterr().out)["suite"]
    assert printed == report


def test_an_exception_while_drawing_ends_the_stream(monkeypatch):
    _raise_on_call(monkeypatch, verify, "rand_cycle", call=3)
    report = verify.run_suite("whitney", seed=7, cases=2)
    # case 0 draws two cycles and runs; drawing case 1 fails once and stops
    assert (report["checks"], report["failures"]) == (2, 1)
    assert report["first_counterexample"] == {
        "check": "drawing the case of check 2",
        "error": "RuntimeError: injected into rand_cycle"}


def test_diagram_labels_one_check_per_case_and_index(monkeypatch):
    clean = verify.run_suite("diagram", seed=7, cases=3)

    def broken(cycle, i):
        raise ArithmeticError(f"curvature compatibility failed at index {i}")

    monkeypatch.setattr(verify, "chern_class", broken)
    report = verify.run_suite("diagram", seed=7, cases=3)
    assert report["checks"] == report["failures"] == clean["checks"]
    assert report["first_counterexample"] == {
        "check": "diagram case 0 i=1",
        "error": "ArithmeticError: curvature compatibility failed at index 1"}


def test_naturality_checks_that_a_form_above_the_target_dimension_vanishes(monkeypatch):
    clean = verify.run_suite("naturality", seed=7, cases=10)
    original = verify.chern_transform
    # every target torus has m <= 3, so the i = 2 transform must pull back to zero
    monkeypatch.setattr(verify, "chern_transform",
                        lambda form, i: original(form, 1 if i == 2 else i))
    report = verify.run_suite("naturality", seed=7, cases=10)
    assert report["checks"] == clean["checks"]
    assert report["failures"] >= 1
    assert report["first_counterexample"]["check"].endswith(" i=2")


def test_odd_bookkeeping_failure_keeps_the_class_checks(monkeypatch):
    clean = verify.run_suite("odd", seed=7, cases=3)
    monkeypatch.setattr(OddKCycle, "odd_chern_form",
                        lambda self: TorusForm.dx(self.n, 1) * 99)
    report = verify.run_suite("odd", seed=7, cases=3)
    assert report["checks"] == clean["checks"]
    assert report["failures"] == 3
    assert report["first_counterexample"] == {"check": "suspension bookkeeping case 0"}



def test_multiplicativity_runs_the_identity_once_per_bound(monkeypatch):
    bounds = []
    original = verify.verify_sum_identity

    def counted(bound):
        bounds.append(bound)
        return original(bound)

    monkeypatch.setattr(verify, "verify_sum_identity", counted)
    # C_2 + s2 breaks the identity from degree 3 on: the bounds below must pass
    chern_polynomial = symfun.chern_polynomial
    monkeypatch.setattr(symfun, "chern_polynomial",
                        lambda i: chern_polynomial(i) + GradedPoly.var(2) if i == 2
                        else chern_polynomial(i))
    report = verify.run_suite("multiplicativity")
    assert bounds == list(range(1, 9))
    assert (report["checks"], report["failures"]) == (8, 6)
    first = report["first_counterexample"]
    assert first["check"] == "sum identity at N=3"
    assert first["discrepancy"] == original(3)[1].render() != "0"


def test_gauge_and_paths_run_one_class_pass_per_cycle_shift_and_path(monkeypatch):
    original = diffchar._classes_along
    calls = []

    def counted(cycle, rho_t):
        calls.append(None)
        return original(cycle, rho_t)

    monkeypatch.setattr(diffchar, "_classes_along", counted)
    # 50 cases: the drawn cycle plus its three shifted cycles, or its two paths
    for suite, passes in (("gauge", 50 * 4), ("paths", 50 * 3)):
        calls.clear()
        assert verify.run_suite(suite, seed=42)["ok"]
        assert len(calls) == passes
