"""Named verification suites over seeded pseudo-random instances.

A suite is a generator ``suite(rng, cases)``: given a seeded ``Random``
and a case count, it draws its cases in a fixed order and yields
``(label, check)`` pairs, where ``check()`` returns ``None`` when the
property holds and a dict of failure detail when it does not.
``newton`` and ``multiplicativity`` draw nothing and run up to the
fixed truncation degree ``DEGREE``.
:func:`run_suite` is the one loop over checks.  It runs each check as
soon as it is yielded, counts it, records an exception raised by a
check (or while drawing a case, which ends the stream) as a failing
check whose ``error`` names the exception type, and returns a report
dict with pass/fail counts and the first counterexample, if any.
Reports contain no timing or environment data, so the same seed always
yields the same bytes once rendered.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from random import Random
from typing import Callable, Iterator, Optional

from .bundles import OddKCycle
from .diffchar import (chern_class, chern_class_via_ch, check_group_hom,
                       check_path_independence, check_shift_invariance,
                       odd_chern_class)
from .forms import TorusForm, chern_transform
from .generators import (rand_cycle, rand_form, rand_homogeneous,
                         rand_int_matrix, rand_integral_shift, rand_odd_cycle,
                         rand_odd_real_form, rand_real_form)
from .symfun import (GradedPoly, RootPoly, chern_polynomial, expand_in_roots,
                     verify_sum_identity)

# the truncation degree of newton and multiplicativity
DEGREE = 8

Checks = Iterator[tuple[str, Callable[[], Optional[dict]]]]


def _verdict(holds: bool, **detail) -> Optional[dict]:
    """A check's result: ``None`` when it holds, else its failure detail."""
    return None if holds else detail


def _brute_elementary_symmetric(i: int, k: int) -> RootPoly:
    """Degree-i elementary symmetric polynomial by direct enumeration."""
    return RootPoly(k, i, {tuple(int(pos in subset) for pos in range(k)): Fraction(1)
                           for subset in combinations(range(k), i)})


def suite_newton(rng: Random, cases: int) -> Checks:
    """Root-expansion oracle for the universal polynomials."""
    s1, s2, s3 = (GradedPoly.var(j) for j in (1, 2, 3))
    expected_low = {
        1: s1,
        2: s1 * s1 * Fraction(1, 2) - s2,
        3: s1 * s1 * s1 * Fraction(1, 6) - s1 * s2 + s3 * 2,
    }
    for i, poly in expected_low.items():
        yield f"closed form at i={i}", lambda: _verdict(
            chern_polynomial(i) == poly, got=chern_polynomial(i).render())
    for i in range(1, DEGREE + 1):
        k = i + 2
        yield f"root expansion at i={i}", lambda: _verdict(
            expand_in_roots(chern_polynomial(i), k, i) == _brute_elementary_symmetric(i, k),
            k=k)


def suite_multiplicativity(rng: Random, cases: int) -> Checks:
    """Total-class sum identity at every truncation up to ``DEGREE``."""
    for bound in range(1, DEGREE + 1):
        def check():
            ok, diff = verify_sum_identity(bound)
            return _verdict(ok, discrepancy=diff.render())
        yield f"sum identity at N={bound}", check


def suite_whitney(rng: Random, cases: int) -> Checks:
    """Group-homomorphism property of the total class on cycle pairs."""
    for n, count in ((4, cases), (6, max(1, cases // 5))):
        for index in range(count):
            w = rand_cycle(rng, n, max_rank=2)
            v = rand_cycle(rng, n, max_rank=2)
            def check():
                ok, detail = check_group_hom(w, v)
                return _verdict(ok, detail=detail)
            yield f"whitney T^{n} case {index}", check


def suite_diagram(rng: Random, cases: int) -> Checks:
    """Curvature / underlying-class compatibility plus the two-route
    agreement, over seeded cycles of dimension up to 6.  The
    compatibility and integrality postconditions raise."""
    dims = [2, 3, 4, 5, 6]
    for index in range(cases):
        n = dims[index % len(dims)]
        w = rand_cycle(rng, n, max_rank=2 if n >= 5 else 3)
        for i in range(1, n // 2 + 1):
            def check():
                direct = chern_class(w, i)
                via = chern_class_via_ch(w, i)
                if not direct.same_class(via):
                    return {"stage": "route agreement", "detail": direct.discrepancy(via)}
                return None
            yield f"diagram case {index} i={i}", check


def suite_paths(rng: Random, cases: int) -> Checks:
    """Path independence of the transgression correction: the classes
    along t^2 rho + t(1 - t) sigma and (3t^2 - 2t^3) rho + t(1 - t) sigma,
    sigma a seeded odd form, against those along t rho.  A path q(t) rho
    alone would store the same forms as t rho; the sigma bump leaves
    the ray, so for i >= 2 the stored transgression may differ."""
    dims = [2, 3, 4]
    for index in range(cases):
        n = dims[index % len(dims)]
        w = rand_cycle(rng, n)
        while w.rho.is_zero():
            w = rand_cycle(rng, n)
        sigma = rand_odd_real_form(rng, n)
        bump = sigma.with_t().mul_t(1) - sigma.with_t().mul_t(2)
        quadratic = w.rho.with_t().mul_t(2)
        paths = {"t^2": quadratic + bump,
                 "3t^2-2t^3": quadratic * 3 - w.rho.with_t().mul_t(3) * 2 + bump}
        # one class pass per path answers every index of it
        verdicts = cache(lambda label: check_path_independence(w, paths[label]))
        for i in range(1, n // 2 + 1):
            for label in paths:
                yield (f"path {label} case {index} i={i}",
                       lambda: _verdict(verdicts(label)[i]))


def suite_gauge(rng: Random, cases: int) -> Checks:
    """Invariance of the classes under exact and integral form shifts."""
    dims = [2, 3, 4]
    for index in range(cases):
        n = dims[index % len(dims)]
        w = rand_cycle(rng, n)
        exact = rand_real_form(rng, n, 0, max_modes=2, allow_harmonic=False).d()
        integral = rand_integral_shift(rng, n)
        shifts = {"exact": exact, "integral": integral, "combined": exact + integral}
        # one class pass per shifted cycle answers every index of it
        verdicts = cache(lambda label: check_shift_invariance(w, shifts[label]))
        for i in range(1, n // 2 + 1):
            for label in shifts:
                yield (f"{label} shift case {index} i={i}",
                       lambda: _verdict(verdicts(label)[i]))


def suite_odd(rng: Random, cases: int) -> Checks:
    """Odd classes: winding periods and the suspension bookkeeping."""
    for m in range(-3, 4):
        def winding():
            table = odd_chern_class(OddKCycle.winding(1, (m,)), 1).period_table()
            return _verdict(table == ({(1,): m} if m else {}), got=str(table))
        yield f"winding {m}", winding
    dims = [1, 2, 3]
    for index in range(cases):
        n = dims[index % len(dims)]
        cycle = rand_odd_cycle(rng, n)
        yield f"suspension bookkeeping case {index}", lambda: _verdict(
            cycle.suspended().curvature().fiber_integrate_circle(1)
            == cycle.odd_chern_form())
        for i in range(1, n + 1, 2):
            def odd_class():
                odd_chern_class(cycle, i)  # raises if a postcondition fails
            yield f"odd class case {index} i={i}", odd_class


def suite_naturality(rng: Random, cases: int) -> Checks:
    """Pullback naturality of the form transform and of the classes."""
    for index in range(cases):
        n = rng.choice([2, 3, 4])
        m = rng.choice([2, 3])
        matrix = rand_int_matrix(rng, n, m)
        parts = [rand_homogeneous(rng, n, deg) for deg in (2, 4) if deg <= n]
        even = sum(parts, TorusForm.zero(n))
        for i in range(1, n // 2 + 1):
            def form_check():
                direct = chern_transform(even, i).pullback(matrix)
                if 2 * i > m:  # a 2i-form pulled back to T^m vanishes
                    return _verdict(direct.is_zero())
                pulled = sum((f.pullback(matrix) for f in parts), TorusForm.zero(m))
                return _verdict(direct == chern_transform(pulled, i))
            yield f"form naturality case {index} i={i}", form_check
        w = rand_cycle(rng, n, max_rank=2)
        for i in range(1, min(n, m) // 2 + 1):
            yield f"class naturality case {index} i={i}", lambda: _verdict(
                chern_class(w, i).pullback(matrix).same_class(
                    chern_class(w.pullback(matrix), i)))


def suite_calculus(rng: Random, cases: int) -> Checks:
    """Structural identities of the form calculus."""
    for index in range(cases):
        n = rng.choice([1, 2, 3, 4])
        has_t = rng.random() < 0.5
        a_deg = rng.randint(0, min(n + has_t, 3))
        a = rand_homogeneous(rng, n, a_deg, has_t=has_t)
        b = rand_form(rng, n, has_t=has_t)
        yield f"d squared case {index}", lambda: _verdict(
            a.d().d().is_zero() and b.d().d().is_zero())
        sign = -1 if a_deg % 2 else 1
        yield f"leibniz case {index}", lambda: _verdict(
            a.wedge(b).d() == a.d().wedge(b) + a.wedge(b.d()) * sign)
        b_hom = rand_homogeneous(rng, n, rng.randint(0, min(n + has_t, 3)),
                                 has_t=has_t)
        comm_sign = -1 if (a_deg % 2 and (b_hom.degree() or 0) % 2) else 1
        yield f"graded commutativity case {index}", lambda: _verdict(
            a.wedge(b_hom) == b_hom.wedge(a) * comm_sign)
        if has_t:
            yield f"interval stokes case {index}", lambda: _verdict(
                a.fiber_integrate_t().d() + a.d().fiber_integrate_t()
                == a.restrict_t(1) - a.restrict_t(0))
        else:
            axis = rng.randint(1, n)
            yield f"circle stokes case {index}", lambda: _verdict(
                a.d().fiber_integrate_circle(axis)
                == -(a.fiber_integrate_circle(axis).d()))


# name -> (suite, default case count); newton and multiplicativity draw no cases
SUITES = {
    "newton": (suite_newton, 0),
    "multiplicativity": (suite_multiplicativity, 0),
    "whitney": (suite_whitney, 100),
    "diagram": (suite_diagram, 200),
    "paths": (suite_paths, 50),
    "gauge": (suite_gauge, 50),
    "odd": (suite_odd, 50),
    "naturality": (suite_naturality, 100),
    "calculus": (suite_calculus, 500),
}


def run_suite(name: str, seed: int = 0, cases: int | None = None) -> dict:
    """Run every check of suite ``name`` on the case stream of ``seed``.

    A check that raises fails with ``error`` set to the exception type
    and message; an exception while drawing a case fails one check and
    ends the stream.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    suite, default_cases = SUITES[name]
    stream = suite(Random(seed), default_cases if cases is None else cases)
    checks, failures = 0, []
    while True:
        label = f"drawing the case of check {checks + 1}"
        try:
            item = next(stream, None)
            if item is None:
                break
            label, check = item
            detail = check()
        except Exception as exc:
            detail = {"error": f"{type(exc).__name__}: {exc}"}
        checks += 1
        if detail is not None:
            failures.append({"check": label, **detail})
    return {
        "suite": name,
        "seed": seed,
        "checks": checks,
        "passes": checks - len(failures),
        "failures": len(failures),
        "ok": not failures,
        "first_counterexample": failures[0] if failures else None,
    }
