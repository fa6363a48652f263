"""Acceptance gate: one test per criterion, every check exact.

Each test prints one line (visible with ``pytest -s`` or on failure)
stating the criterion, its verdict and the elapsed time next to the
stated runtime target.  Every comparison is tolerance-zero: rational or
Gaussian-rational equality, never floating point.
"""

import time
from fractions import Fraction
from itertools import combinations
from random import Random

from oracle import brute_elementary_symmetric, chern_form
from chernforge.bundles import DiagBundle, LineBundle, OddKCycle
from chernforge.diffchar import (KCycle, chern_class, chern_class_via_ch,
                                 check_group_hom, check_path_independence,
                                 check_shift_invariance, odd_chern_class)
from chernforge.forms import TorusForm, chern_transform
from chernforge.generators import (rand_cycle, rand_form, rand_homogeneous,
                                   rand_int_matrix, rand_integral_shift,
                                   rand_odd_cycle, rand_real_form)
from chernforge.symfun import (GradedPoly, chern_polynomial, expand_in_roots,
                               verify_sum_identity)

HARD_CAP_SECONDS = 60.0


def _stamp(number: int, label: str, start: float, target: str):
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} {label}: PASS "
          f"({elapsed:.2f}s, target {target})")
    assert elapsed < HARD_CAP_SECONDS


def test_criterion_01_newton_oracle():
    start = time.perf_counter()
    s1, s2, s3 = (GradedPoly.var(j) for j in (1, 2, 3))
    assert chern_polynomial(1) == s1
    assert chern_polynomial(2) == s1 * s1 * Fraction(1, 2) - s2
    assert chern_polynomial(3) == (s1 * s1 * s1 * Fraction(1, 6)
                                   - s1 * s2 + s3.scale(2))
    for i in range(1, 9):
        k = i + 2
        assert expand_in_roots(chern_polynomial(i), k, i) == \
            brute_elementary_symmetric(i, k)
    _stamp(1, "newton/root oracle", start, "<1s")


def test_criterion_02_sum_identity():
    start = time.perf_counter()
    for bound in range(1, 9):
        ok, discrepancy = verify_sum_identity(bound)
        assert ok and discrepancy.is_zero()
    _stamp(2, "total-class multiplicativity", start, "<5s")


def test_criterion_03_chern_number_pin():
    start = time.perf_counter()
    for k in range(-3, 4):
        bundle = DiagBundle.of(LineBundle(2, K=[[0, k], [-k, 0]]))
        cycle = KCycle(bundle)
        char = chern_class(cycle, 1)
        expected = {(1, 2): k} if k else {}
        assert char.period_table() == expected
        assert chern_form(bundle, 1).invariant_table(2) == ({(1, 2): (k, 0)} if k else {})
    _stamp(3, "chern number pin", start, "<1s")


def _acceptance_cycles(count):
    rng = Random(20240)
    dims = [2, 3, 4, 5, 6]
    for index in range(count):
        n = dims[index % len(dims)]
        yield rand_cycle(rng, n, max_rank=2 if n >= 5 else 3)


def test_criterion_04_commuting_diagram():
    start = time.perf_counter()
    checked = 0
    for cycle in _acceptance_cycles(200):
        n = cycle.n
        for i in range(1, n // 2 + 1):
            char = chern_class(cycle, i)
            assert char.curvature() == chern_transform(cycle.curvature(), i)
            expected = TorusForm.zero(n)
            harmonics = [line.harmonic_curvature() for line in cycle.bundle.lines]
            for subset in combinations(range(len(harmonics)), i):
                product = harmonics[subset[0]]
                for pos in subset[1:]:
                    product = product.wedge(harmonics[pos])
                expected = expected + product
            assert char.harmonic == expected
            table = {idx: int(re_part)
                     for idx, (re_part, _) in expected.invariant_table(2 * i).items()}
            assert char.period_table() == table
            checked += 1
    assert checked >= 200
    _stamp(4, f"commuting diagram ({checked} checks)", start, "<30s")


def test_criterion_05_uniqueness_witness():
    start = time.perf_counter()
    checked = 0
    for cycle in _acceptance_cycles(200):
        for i in range(1, cycle.n // 2 + 1):
            direct = chern_class(cycle, i)
            via = chern_class_via_ch(cycle, i)  # raises unless integral
            assert via.integral
            assert direct.same_class(via)
            checked += 1
    assert checked >= 200
    _stamp(5, f"two-route agreement ({checked} checks)", start, "<30s")


def test_criterion_06_whitney_sums():
    start = time.perf_counter()
    rng = Random(20241)
    for _ in range(100):
        w = rand_cycle(rng, 4, max_rank=2)
        v = rand_cycle(rng, 4, max_rank=2)
        ok, report = check_group_hom(w, v)
        assert ok, report
    for _ in range(20):
        w = rand_cycle(rng, 6, max_rank=2)
        v = rand_cycle(rng, 6, max_rank=2)
        ok, report = check_group_hom(w, v)
        assert ok, report
    _stamp(6, "whitney sums (100 on T^4, 20 on T^6)", start, "<30s")


def test_criterion_07_path_independence():
    start = time.perf_counter()
    rng = Random(20242)
    checked = 0
    dims = [2, 3, 4]
    for index in range(50):
        n = dims[index % len(dims)]
        cycle = rand_cycle(rng, n)
        while cycle.rho.is_zero():
            cycle = rand_cycle(rng, n)
        quadratic = cycle.rho.mul_t(2)
        smoothstep = quadratic * 3 - cycle.rho.mul_t(3) * 2
        assert all(check_path_independence(cycle, quadratic))
        assert all(check_path_independence(cycle, smoothstep))
        checked += n // 2
    assert checked >= 50
    _stamp(7, f"path independence ({checked} cycles/indices)", start, "<10s")


def test_criterion_08_gauge_shifts():
    start = time.perf_counter()
    rng = Random(20243)
    dims = [2, 3, 4]
    for index in range(50):
        n = dims[index % len(dims)]
        cycle = rand_cycle(rng, n)
        exact = rand_real_form(rng, n, 0, allow_harmonic=False).d()
        integral = rand_integral_shift(rng, n)
        for shift in (exact, integral, exact + integral):
            assert all(check_shift_invariance(cycle, shift))
    _stamp(8, "gauge shifts (50 cycles)", start, "<10s")


def test_criterion_09_odd_classes():
    start = time.perf_counter()
    for m in range(-3, 4):
        char = odd_chern_class(OddKCycle.winding(1, (m,)), 1)
        expected = {(1,): m} if m else {}
        assert char.period_table() == expected
    rng = Random(20244)
    dims = [1, 2, 3]
    for index in range(50):
        n = dims[index % len(dims)]
        cycle = rand_odd_cycle(rng, n)
        bundle, correction = cycle.suspend()
        suspended = KCycle(bundle, correction)
        reduced = suspended.curvature().fiber_integrate_circle(1)
        assert reduced == cycle.odd_chern_form()
        odd_chern_class(cycle, 1)
        if n >= 3:
            odd_chern_class(cycle, 3)
    _stamp(9, "odd classes (windings and 50 suspensions)", start, "<10s")


def test_criterion_10_structural_calculus():
    start = time.perf_counter()
    rng = Random(20245)
    for _ in range(500):
        n = rng.choice([1, 2, 3])
        has_t = rng.random() < 0.5
        deg = rng.randint(0, min(n + has_t, 3))
        a = rand_homogeneous(rng, n, deg, has_t=has_t)
        b = rand_form(rng, n, has_t=has_t)
        assert a.d().d().is_zero() and b.d().d().is_zero()
        sign = -1 if deg % 2 else 1
        assert a.wedge(b).d() == a.d().wedge(b) + a.wedge(b.d()) * sign
        other_deg = rng.randint(0, min(n + has_t, 3))
        c = rand_homogeneous(rng, n, other_deg, has_t=has_t)
        comm = -1 if (deg % 2 and other_deg % 2) else 1
        assert a.wedge(c) == c.wedge(a) * comm
        if has_t:
            assert (a.fiber_integrate_t().d() + a.d().fiber_integrate_t()
                    == a.restrict_t(1) - a.restrict_t(0))
    form_naturality = 0
    rng = Random(20246)
    while form_naturality < 500:
        n = rng.choice([2, 3, 4])
        m = rng.choice([2, 3, 4])
        parts = [rand_homogeneous(rng, n, 2)]
        if n >= 4 and rng.random() < 0.5:
            parts.append(rand_homogeneous(rng, n, 4))
        matrix = rand_int_matrix(rng, n, m)
        even = sum(parts, TorusForm.zero(n))
        pulled = sum((f.pullback(matrix) for f in parts), TorusForm.zero(m))
        for i in range(1, min(n, m) // 2 + 1):
            assert chern_transform(even, i).pullback(matrix) == \
                chern_transform(pulled, i)
            form_naturality += 1
    class_naturality = 0
    rng = Random(20247)
    while class_naturality < 500:
        n = rng.choice([2, 3, 4])
        m = rng.choice([2, 3])
        cycle = rand_cycle(rng, n, max_rank=2)
        matrix = rand_int_matrix(rng, n, m)
        for i in range(1, min(n, m) // 2 + 1):
            assert chern_class(cycle, i).pullback(matrix).same_class(
                chern_class(cycle.pullback(matrix), i))
            class_naturality += 1
    _stamp(10, "structural calculus (500 forms, 500+500 naturality)", start,
           "<30s")
