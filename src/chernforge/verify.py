"""Named verification suites over seeded pseudo-random instances.

Each suite runs a deterministic case stream and returns a report dict
with pass/fail counts and the first counterexample, if any.  Reports
contain no timing or environment data, so the same seed always yields
the same bytes once rendered.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from random import Random

from .bundles import OddKCycle
from .diffchar import (chern_class, chern_class_via_ch, check_group_hom,
                       check_path_independence, check_shift_invariance,
                       odd_chern_class)
from .errors import ConfigError, PreconditionError
from .forms import TorusForm, chern_transform
from .generators import (rand_cycle, rand_form, rand_homogeneous,
                         rand_int_matrix, rand_integral_shift, rand_odd_cycle,
                         rand_real_form)
from .symfun import chern_polynomial, expand_in_roots, verify_sum_identity

DEFAULT_DEGREE = 8
# At 16, newton takes about 0.2 s and multiplicativity about 2 s
# (Python 3.11, one 2-core Xeon); the sum identity grows with the
# number of partitions up to the degree.
MAX_DEGREE = 16
# the suites that read the truncation degree; the others ignore it
DEGREE_SUITES = ("newton", "multiplicativity")

QUADRATIC_PATH = ((2, Fraction(1)),)
SMOOTHSTEP_PATH = ((2, Fraction(3)), (3, Fraction(-2)))


def check_degree(degree: int) -> int:
    """The truncation degree of the polynomial suites, if in range.

    Below 1 is an input error (:class:`ConfigError`); above
    ``MAX_DEGREE`` is a precondition error, the documented cap.
    """
    if degree < 1:
        raise ConfigError(f"degree must be >= 1, got {degree}")
    if degree > MAX_DEGREE:
        raise PreconditionError(f"degree {degree} exceeds the cap {MAX_DEGREE}")
    return degree


def _report(name: str, seed: int, checks: int, failures: list) -> dict:
    return {
        "suite": name,
        "seed": seed,
        "checks": checks,
        "passes": checks - len(failures),
        "failures": len(failures),
        "ok": not failures,
        "first_counterexample": failures[0] if failures else None,
    }


def _brute_elementary_symmetric(i: int, k: int):
    """Degree-i elementary symmetric polynomial by direct enumeration."""
    from .symfun import RootPoly
    terms = {}
    for subset in combinations(range(k), i):
        expvec = [0] * k
        for pos in subset:
            expvec[pos] = 1
        terms[tuple(expvec)] = Fraction(1)
    return RootPoly(k, i, terms)


def suite_newton(seed: int = 0, cases: int = 0, degree: int = DEFAULT_DEGREE) -> dict:
    """Root-expansion oracle for the universal polynomials."""
    failures = []
    checks = 0
    from .symfun import GradedPoly
    expected_low = {
        1: GradedPoly.var(1),
        2: GradedPoly.var(1) * GradedPoly.var(1) * Fraction(1, 2) - GradedPoly.var(2),
        3: (GradedPoly.var(1) * GradedPoly.var(1) * GradedPoly.var(1) * Fraction(1, 6)
            - GradedPoly.var(1) * GradedPoly.var(2) + GradedPoly.var(3) * 2),
    }
    for i, poly in expected_low.items():
        checks += 1
        if chern_polynomial(i) != poly:
            failures.append({"check": f"closed form at i={i}",
                             "got": chern_polynomial(i).render()})
    for i in range(1, degree + 1):
        checks += 1
        k = i + 2
        expanded = expand_in_roots(chern_polynomial(i), k, i)
        if expanded != _brute_elementary_symmetric(i, k):
            failures.append({"check": f"root expansion at i={i}", "k": k})
    return _report("newton", seed, checks, failures)


def suite_multiplicativity(seed: int = 0, cases: int = 0,
                           degree: int = DEFAULT_DEGREE) -> dict:
    """Total-class sum identity at every truncation up to ``degree``."""
    failures = []
    checks = 0
    for bound in range(1, degree + 1):
        checks += 1
        ok, diff = verify_sum_identity(bound)
        if not ok:
            failures.append({"check": f"sum identity at N={bound}",
                             "discrepancy": diff.render()})
    return _report("multiplicativity", seed, checks, failures)


def suite_whitney(seed: int = 0, cases: int = 100) -> dict:
    """Group-homomorphism property of the total class on cycle pairs."""
    rng = Random(seed)
    failures = []
    checks = 0
    plan = [(4, cases), (6, max(1, cases // 5))]
    for n, count in plan:
        for index in range(count):
            checks += 1
            w = rand_cycle(rng, n, max_rank=2)
            v = rand_cycle(rng, n, max_rank=2)
            ok, detail = check_group_hom(w, v)
            if not ok:
                failures.append({"check": f"whitney T^{n} case {index}",
                                 "detail": detail})
    return _report("whitney", seed, checks, failures)


def suite_diagram(seed: int = 0, cases: int = 200) -> dict:
    """Curvature / underlying-class compatibility plus the two-route
    agreement, over seeded cycles of dimension up to 6."""
    rng = Random(seed)
    failures = []
    checks = 0
    dims = [2, 3, 4, 5, 6]
    for index in range(cases):
        n = dims[index % len(dims)]
        w = rand_cycle(rng, n, max_rank=2 if n >= 5 else 3)
        for i in range(1, n // 2 + 1):
            checks += 1
            try:
                direct = chern_class(w, i)
            except ArithmeticError as exc:
                failures.append({"check": f"compatibility case {index} i={i}",
                                 "error": str(exc)})
                continue
            if direct.curvature() != chern_transform(w.curvature(), i):
                failures.append({"check": f"curvature square case {index} i={i}"})
                continue
            try:
                via = chern_class_via_ch(w, i)
            except ArithmeticError as exc:
                failures.append({"check": f"integrality case {index} i={i}",
                                 "error": str(exc)})
                continue
            if not direct.same_class(via):
                failures.append({"check": f"route agreement case {index} i={i}",
                                 "detail": direct.discrepancy(via)})
    return _report("diagram", seed, checks, failures)


def suite_paths(seed: int = 0, cases: int = 50) -> dict:
    """Path independence of the transgression correction."""
    rng = Random(seed)
    failures = []
    checks = 0
    dims = [2, 3, 4]
    for index in range(cases):
        n = dims[index % len(dims)]
        w = rand_cycle(rng, n)
        while w.rho.is_zero():
            w = rand_cycle(rng, n)
        for i in range(1, n // 2 + 1):
            for label, path in (("t^2", QUADRATIC_PATH),
                                ("3t^2-2t^3", SMOOTHSTEP_PATH)):
                checks += 1
                if not check_path_independence(w, i, path):
                    failures.append({"check": f"path {label} case {index} i={i}"})
    return _report("paths", seed, checks, failures)


def suite_gauge(seed: int = 0, cases: int = 50) -> dict:
    """Invariance of the classes under exact and integral form shifts."""
    rng = Random(seed)
    failures = []
    checks = 0
    dims = [2, 3, 4]
    for index in range(cases):
        n = dims[index % len(dims)]
        w = rand_cycle(rng, n)
        exact = rand_real_form(rng, n, 0, max_modes=2, allow_harmonic=False).d()
        integral = rand_integral_shift(rng, n)
        for i in range(1, n // 2 + 1):
            for label, shift in (("exact", exact), ("integral", integral),
                                 ("combined", exact + integral)):
                checks += 1
                if not check_shift_invariance(w, i, shift):
                    failures.append({"check": f"{label} shift case {index} i={i}"})
    return _report("gauge", seed, checks, failures)


def suite_odd(seed: int = 0, cases: int = 50) -> dict:
    """Odd classes: winding periods and the suspension bookkeeping."""
    rng = Random(seed)
    failures = []
    checks = 0
    for m in range(-3, 4):
        checks += 1
        cycle = OddKCycle.winding(1, (m,))
        table = odd_chern_class(cycle, 1).period_table()
        expected = {(1,): m} if m else {}
        if table != expected:
            failures.append({"check": f"winding {m}", "got": str(table)})
    dims = [1, 2, 3]
    for index in range(cases):
        n = dims[index % len(dims)]
        cycle = rand_odd_cycle(rng, n)
        checks += 1
        curv = cycle.suspended().curvature().fiber_integrate_circle(1)
        if curv != cycle.odd_chern_form():
            failures.append({"check": f"suspension bookkeeping case {index}"})
            continue
        for i in (1, 3):
            if i > n:
                continue
            checks += 1
            try:
                odd_chern_class(cycle, i)
            except ArithmeticError as exc:
                failures.append({"check": f"odd class case {index} i={i}",
                                 "error": str(exc)})
    return _report("odd", seed, checks, failures)


def suite_naturality(seed: int = 0, cases: int = 100) -> dict:
    """Pullback naturality of the form transform and of the classes."""
    rng = Random(seed)
    failures = []
    checks = 0
    for index in range(cases):
        n = rng.choice([2, 3, 4])
        m = rng.choice([2, 3])
        matrix = rand_int_matrix(rng, n, m)
        parts = [rand_homogeneous(rng, n, degree) for degree in (2, 4) if degree <= n]
        even = sum(parts, TorusForm.zero(n))
        for i in range(1, n // 2 + 1):
            checks += 1
            direct = chern_transform(even, i).pullback(matrix)
            pulled = sum((f.pullback(matrix) for f in parts), TorusForm.zero(m))
            if 2 * i > m:
                continue
            if direct != chern_transform(pulled, i):
                failures.append({"check": f"form naturality case {index} i={i}"})
        w = rand_cycle(rng, n, max_rank=2)
        for i in range(1, min(n, m) // 2 + 1):
            checks += 1
            left = chern_class(w, i).pullback(matrix)
            right = chern_class(w.pullback(matrix), i)
            if not left.same_class(right):
                failures.append({"check": f"class naturality case {index} i={i}"})
    return _report("naturality", seed, checks, failures)


def suite_calculus(seed: int = 0, cases: int = 500) -> dict:
    """Structural identities of the form calculus."""
    rng = Random(seed)
    failures = []
    checks = 0
    for index in range(cases):
        n = rng.choice([1, 2, 3, 4])
        has_t = rng.random() < 0.5
        a_deg = rng.randint(0, min(n + has_t, 3))
        a = rand_homogeneous(rng, n, a_deg, has_t=has_t)
        b = rand_form(rng, n, has_t=has_t)
        checks += 1
        if not a.d().d().is_zero() or not b.d().d().is_zero():
            failures.append({"check": f"d squared case {index}"})
        checks += 1
        sign = -1 if a_deg % 2 else 1
        if (a.wedge(b)).d() != a.d().wedge(b) + a.wedge(b.d()) * sign:
            failures.append({"check": f"leibniz case {index}"})
        checks += 1
        b_hom = rand_homogeneous(rng, n, rng.randint(0, min(n + has_t, 3)),
                                 has_t=has_t)
        b_deg = b_hom.degree() or 0
        comm_sign = -1 if (a_deg % 2 and b_deg % 2) else 1
        if a.wedge(b_hom) != b_hom.wedge(a) * comm_sign:
            failures.append({"check": f"graded commutativity case {index}"})
        if has_t:
            checks += 1
            lhs = a.fiber_integrate_t().d() + a.d().fiber_integrate_t()
            rhs = a.restrict_t(1) - a.restrict_t(0)
            if lhs != rhs:
                failures.append({"check": f"interval stokes case {index}"})
        else:
            checks += 1
            axis = rng.randint(1, n)
            lhs = a.d().fiber_integrate_circle(axis)
            rhs = -(a.fiber_integrate_circle(axis).d())
            if lhs != rhs:
                failures.append({"check": f"circle stokes case {index}"})
    return _report("calculus", seed, checks, failures)


SUITES = {
    "newton": suite_newton,
    "multiplicativity": suite_multiplicativity,
    "whitney": suite_whitney,
    "diagram": suite_diagram,
    "paths": suite_paths,
    "gauge": suite_gauge,
    "odd": suite_odd,
    "naturality": suite_naturality,
    "calculus": suite_calculus,
}


def run_suite(name: str, seed: int = 0, cases: int | None = None,
              degree: int = DEFAULT_DEGREE) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    fn = SUITES[name]
    kwargs = {"seed": seed}
    if cases is not None:
        kwargs["cases"] = cases
    if name in DEGREE_SUITES:
        kwargs["degree"] = degree
    return fn(**kwargs)
