from fractions import Fraction
from itertools import combinations
from operator import add
from random import Random

import pytest
from oracle import (chern_form, evaluate_chern_polynomial, path_transgressions,
                    reference_cup, reference_discrepancy, reference_holonomy_table,
                    reference_same_class, subset_elementary_symmetric)

from chernforge import diffchar
from chernforge.bundles import DiagBundle, LineBundle, OddKCycle
from chernforge.diffchar import (DiffChar, KCycle, _classes_along, chern_class,
                                 chern_class_via_ch, check_group_hom,
                                 check_path_independence,
                                 check_shift_invariance, cs_class,
                                 odd_chern_class, total_chern_class)
from chernforge.errors import PreconditionError
from chernforge.forms import TorusForm, chern_log, chern_transform
from chernforge.generators import (rand_cycle, rand_int_matrix,
                                   rand_integral_shift, rand_line_bundle,
                                   rand_odd_cycle, rand_odd_real_form,
                                   rand_phase, rand_real_form)
from chernforge.symfun import elementary_symmetric

dx = TorusForm.dx

LINEAR = {1: 1}
QUADRATIC = {2: 1}
SMOOTHSTEP = {2: 3, 3: -2}


def t_poly(form, q):
    """q(t) * form on the t-extended space, q given as {exponent: coefficient}."""
    promoted = form.with_t()
    return sum((promoted.mul_t(exponent) * coeff for exponent, coeff in q.items()),
               TorusForm.zero(form.n, has_t=True))


def path(cycle, q):
    """The t-extended path rho_t = q(t) rho."""
    return t_poly(cycle.rho, q)


def sin_form(n, freq, idx, amplitude=Fraction(1, 2)):
    half = Fraction(amplitude, 2)
    return TorusForm(n, {(0, freq, idx): (0, -half),
                         (0, tuple(-x for x in freq), idx): (0, half)})


def line_T2(k, theta=None):
    return LineBundle(2, K=[[0, k], [-k, 0]], theta=theta)


def tensor(a, b):
    """The line a ⊗ b: curvature data, holonomy shifts and perturbations add."""
    K = [[x + y for x, y in zip(row_a, row_b)] for row_a, row_b in zip(a.K, b.K)]
    theta = [x + y for x, y in zip(a.theta, b.theta)]
    return LineBundle(a.n, K, theta, a.beta + b.beta)


# -- structure maps ----------------------------------------------------------

def test_inclusion_of_forms():
    beta = sin_form(2, (1, 0), ())
    exact = beta.d()
    char = DiffChar.from_form(exact)
    assert char.curvature() == exact.d()  # zero
    assert char.curvature().is_zero()
    assert char.same_class(DiffChar.zero(2, 2))

    integral = dx(2, 1) + dx(2, 2) * 3
    char = DiffChar.from_form(integral)
    assert char.same_class(DiffChar.zero(2, 2))

    rho = sin_form(2, (1, 0), (2,))
    assert DiffChar.from_form(rho).curvature() == rho.d()


def test_holonomy_examples():
    third = DiffChar.from_form(dx(2, 1) * Fraction(1, 3))
    assert third.holonomy_table() == {(1,): Fraction(1, 3), (2,): 0}
    assert DiffChar.from_form(dx(2, 1)).holonomy_table() == {(1,): 0, (2,): 0}
    flat = cs_class(LineBundle.flat(2, theta=(Fraction(1, 4), 0)))
    assert flat.holonomy_table() == {(1,): Fraction(1, 4), (2,): 0}
    assert flat.curvature().is_zero()
    three = DiffChar.from_form(TorusForm.single(3, Fraction(1, 5), idx=(1, 3)))
    assert three.holonomy_table() == {(1, 2): 0, (1, 3): Fraction(1, 5), (2, 3): 0}


def test_holonomy_table_has_every_subtorus():
    rng = Random(64)
    for n in (2, 3, 4):
        for degree in range(2, min(n, 3) + 1):
            char = DiffChar.from_form(rand_real_form(rng, n, degree - 1), degree=degree)
            table = char.holonomy_table()
            assert list(table) == list(combinations(range(1, n + 1), degree - 1))
            integrals = char.trans.invariant_table(degree - 1)
            for subset, value in table.items():
                assert value == integrals.get(subset, (0, 0))[0] % 1
    imaginary = DiffChar._make(2, 2, TorusForm.zero(2), dx(2, 1) * (0, 1))
    with pytest.raises(ArithmeticError):
        imaginary.holonomy_table()


def test_cs_class_examples():
    pinned = cs_class(line_T2(3))
    assert pinned.curvature() == TorusForm.volume(2) * 3
    assert pinned.period_table() == {(1, 2): 3}
    assert pinned.holonomy_table() == {(1,): 0, (2,): 0}

    L = line_T2(1, theta=(Fraction(1, 3), 0))
    dual = LineBundle(2, K=[[0, -1], [1, 0]], theta=(Fraction(-1, 3), 0))
    trivial = cs_class(tensor(L, dual))
    assert trivial.same_class(DiffChar.zero(2, 2))


def test_cs_class_additive_under_tensor():
    rng = Random(41)
    from chernforge.generators import rand_line_bundle
    for _ in range(20):
        n = rng.choice([2, 3])
        a = rand_line_bundle(rng, n)
        b = rand_line_bundle(rng, n)
        assert cs_class(tensor(a, b)).same_class(cs_class(a).add(cs_class(b)))


def test_period_table_requires_integrality():
    half = DiffChar(2, 2, TorusForm.from_harmonic(2, {(1, 2): Fraction(1, 2)}))
    assert not half.integral
    with pytest.raises(PreconditionError):
        half.period_table()


def test_curvature_periods_match_table():
    rng = Random(42)
    from chernforge.generators import rand_line_bundle
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        char = cs_class(rand_line_bundle(rng, n))
        curv = char.curvature()
        assert curv.is_closed()
        assert curv.invariant_table(2) == {subset: (period, 0) for subset, period
                                           in char.period_table().items()}


def test_curvature_is_harmonic_plus_d_trans():
    harmonic = TorusForm.from_harmonic(3, {(1, 2): 3, (2, 3): Fraction(1, 2)})
    char = DiffChar(3, 2, harmonic, sin_form(3, (0, 1, 1), (1,)))
    assert char.curvature() == harmonic + char.trans.d()


def test_constructor_rejects_bad_harmonic_part():
    good = TorusForm.from_harmonic(3, {(1, 2): 1})
    assert DiffChar(3, 2, good).harmonic == good
    bad_parts = [
        TorusForm(3, {(0, (1, 0, 0), (1, 2)): 1,  # real, but non-zero frequency
                      (0, (-1, 0, 0), (1, 2)): 1}),
        TorusForm.single(3, 1, idx=(0, 1), has_t=True),  # t data
        TorusForm.single(3, (1, 1), idx=(1, 2)),  # complex coefficient
        TorusForm.from_harmonic(3, {(1, 2, 3): 1}),  # wrong degree
        good + TorusForm.from_harmonic(3, {(1,): 1}),  # mixed degrees
        TorusForm.from_harmonic(4, {(1, 2): 1}),  # wrong n
    ]
    for harmonic in bad_parts:
        with pytest.raises(ValueError):
            DiffChar(3, 2, harmonic)


def test_constructor_rejects_bad_transgression():
    with pytest.raises(ValueError):
        DiffChar(3, 2, None, TorusForm.single(3, 1, idx=(1, 2)))  # wrong degree
    with pytest.raises(ValueError):
        DiffChar(3, 2, None, TorusForm.single(3, (0, 1), idx=(1,)))  # complex
    with pytest.raises(ValueError):
        DiffChar(3, 2, None, dx(4, 1))  # wrong n
    with pytest.raises(ValueError):
        DiffChar(2, 3)  # degree above the dimension


def test_scale_takes_only_rationals():
    w = DiffChar(2, 2, TorusForm.from_harmonic(2, {(1, 2): 3}), dx(2, 1) * Fraction(1, 2))
    third = w.scale(Fraction(1, 3))
    assert third.harmonic == w.harmonic * Fraction(1, 3)
    assert third.trans == w.trans * Fraction(1, 3)
    assert w.scale(-2).trans == -(w.trans * 2)
    # a float would enter as its binary expansion, a string as parsed
    # text, and an (re, im) pair would make the character complex
    for value in (0.1, "1/3", (0, 1)):
        with pytest.raises(TypeError):
            w.scale(value)


# -- cup product --------------------------------------------------------------

def test_cup_unit():
    y = cs_class(line_T2(2, theta=(Fraction(1, 5), 0)))
    assert DiffChar.unit(2).cup(y).same_class(y)
    assert y.cup(DiffChar.unit(2)).same_class(y)


def test_cup_with_form_character():
    rho = dx(4, 1) * Fraction(1, 3) + sin_form(4, (0, 1, 0, 0), (2,))
    y = cs_class(LineBundle(4, K=[[0, 0, 0, 0], [0, 0, 0, 0],
                                  [0, 0, 0, 2], [0, 0, -2, 0]]))
    left = DiffChar.from_form(rho).cup(y)
    right = DiffChar.from_form(rho.wedge(y.curvature()))
    assert left.harmonic == right.harmonic == TorusForm.zero(4)
    assert left.trans == right.trans


def test_cup_of_line_classes():
    a, b = 2, 3
    K1 = [[0, a, 0, 0], [-a, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    K2 = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, b], [0, 0, -b, 0]]
    x = cs_class(LineBundle(4, K=K1, theta=(Fraction(1, 3), 0, 0, 0)))
    y = cs_class(LineBundle(4, K=K2))
    product = x.cup(y)
    assert product.period_table() == {(1, 2, 3, 4): a * b}
    assert product.curvature() == x.curvature().wedge(y.curvature())


def test_cup_rejects_odd_degrees_and_overflow():
    odd_char = DiffChar(2, 1, dx(2, 1))
    with pytest.raises(PreconditionError):
        odd_char.cup(DiffChar.unit(2))
    x = cs_class(line_T2(1))
    with pytest.raises(PreconditionError):
        x.cup(x)  # degree 4 on T^2


def test_cup_class_well_defined():
    rng = Random(43)
    for _ in range(20):
        n = 4
        x = cs_class(LineBundle(4, K=[[0, 1, 0, 0], [-1, 0, 0, 0],
                                      [0, 0, 0, 3], [0, 0, -3, 0]],
                                theta=(Fraction(1, 6), 0, 0, 0)))
        y = cs_class(LineBundle(4, K=[[0, 0, 1, 0], [0, 0, 0, 0],
                                      [-1, 0, 0, 0], [0, 0, 0, 0]]))
        closed_integral = rand_integral_shift(rng, n).component(1)
        exact = rand_real_form(rng, n, 0, allow_harmonic=False).d()
        moved = DiffChar(n, 2, x.harmonic, x.trans + closed_integral + exact)
        assert moved.same_class(x)
        assert moved.cup(y).same_class(x.cup(y))
        assert y.cup(moved).same_class(y.cup(x))


def test_cup_commutative_as_classes():
    x = cs_class(LineBundle(4, K=[[0, 1, 0, 0], [-1, 0, 0, 0],
                                  [0, 0, 0, 2], [0, 0, -2, 0]],
                            beta=sin_form(4, (1, 0, 0, 0), (2,))))
    y = cs_class(LineBundle(4, K=[[0, 0, 0, 0], [0, 0, 1, 0],
                                  [0, -1, 0, 0], [0, 0, 0, 0]],
                            theta=(0, Fraction(1, 7), 0, 0)))
    assert x.cup(y).same_class(y.cup(x))


def rand_char(rng, n, degree):
    """A real character of ``degree`` on T^n with a rational harmonic part."""
    harmonic = rand_real_form(rng, n, degree, max_modes=0)
    trans = rand_real_form(rng, n, degree - 1) if degree else None
    return DiffChar(n, degree, harmonic, trans)


def test_cup_stores_the_reference_cup_seeded():
    rng = Random(71)
    for case in range(90):
        n = 2 + case % 5
        dx_, dy_ = rng.choice([(a, b) for a in (0, 2, 4) for b in (0, 2, 4) if a + b <= n])
        x, y = rand_char(rng, n, dx_), rand_char(rng, n, dy_)
        product = x.cup(y)
        assert (product.harmonic, product.trans) == reference_cup(x, y)
    # products of line classes, as the class pass forms them
    for n in (4, 5, 6):
        lines = [cs_class(rand_line_bundle(rng, n)) for _ in range(3)]
        x = lines[0].cup(lines[1])
        for left, right in ((lines[0], lines[1]), (x, lines[2]), (lines[2], x)):
            if left.degree + right.degree <= n:
                product = left.cup(right)
                assert (product.harmonic, product.trans) == reference_cup(left, right)


def _shifted(char, coeff, subset):
    """``char`` with ``coeff`` added to its holonomy over the subtorus ``subset``."""
    shift = TorusForm.single(char.n, coeff, idx=subset)
    return DiffChar(char.n, char.degree, char.harmonic, char.trans + shift)


def test_same_class_agrees_with_the_reference_seeded():
    rng = Random(73)
    for case in range(60):
        n = 2 + case % 5
        degree = rng.choice([d for d in (2, 4) if d <= n])
        x = rand_char(rng, n, degree)
        subset = tuple(sorted(rng.sample(range(1, n + 1), degree - 1)))
        den = x.trans.den * rng.randint(2, 3)
        volume = TorusForm.single(n, 1, idx=tuple(range(1, degree + 1)))
        wiggle = rand_real_form(rng, n, degree - 1, max_modes=1, allow_harmonic=False)
        spread = TorusForm.from_harmonic(n, {subset: Fraction(k, den) for k, subset in enumerate(
            combinations(range(1, n + 1), degree - 1), 1)})
        pairs = [
            # holonomies apart by 1/den over one subtorus
            (x, _shifted(x, Fraction(1, den), subset), False),
            # equal mod 1 but not exactly, over one den or over two
            (x, _shifted(x, rng.choice([-2, -1, 1, 2]), subset), True),
            (_shifted(x, Fraction(1, 3), subset), _shifted(x, Fraction(-2, 3), subset), True),
            # curvatures apart, with the same holonomies
            (x, DiffChar(n, degree, x.harmonic + volume, x.trans), False),
            # a closed wiggle moves no curvature, but may move holonomies
            (x, DiffChar(n, degree, x.harmonic, x.trans + wiggle), None),
            # holonomies apart over many subtori, reported in sorted order
            (x, DiffChar(n, degree, x.harmonic, x.trans + spread), None),
        ]
        for a, b, expected in pairs:
            if expected is not None:
                assert a.same_class(b) is b.same_class(a) is expected
            for left, right in ((a, b), (b, a)):
                assert left.same_class(right) == reference_same_class(left, right)
                found, want = left.discrepancy(right), reference_discrepancy(left, right)
                assert found == want
                assert list(found["holonomy_discrepancy"]) == list(want["holonomy_discrepancy"])
                assert left.holonomy_table() == reference_holonomy_table(left)


def test_an_imaginary_holonomy_raises_and_self_is_scanned_first(monkeypatch):
    message = "holonomy of a real transgression must be real"
    real = DiffChar.from_form(dx(3, 1) * Fraction(1, 3))
    imaginary = DiffChar._make(3, 2, TorusForm.zero(3), dx(3, 2) * (Fraction(1, 2), 1))
    other_imaginary = DiffChar._make(3, 2, TorusForm.zero(3), dx(3, 3) * (0, 1))
    scanned = []
    sums = TorusForm._invariant_sums

    def recorded(form, degree):
        scanned.append(form)
        return sums(form, degree)

    monkeypatch.setattr(TorusForm, "_invariant_sums", recorded)
    for a, b in ((imaginary, real), (real, imaginary), (imaginary, other_imaginary)):
        for compare, reference in ((DiffChar.same_class, reference_same_class),
                                   (DiffChar.discrepancy, reference_discrepancy)):
            for run in (reference, compare):
                scanned.clear()
                with pytest.raises(ArithmeticError) as caught:
                    run(a, b)
                assert str(caught.value) == message
            # the library scans self first and stops at its imaginary holonomy
            first_bad = a if a is not real else b
            assert scanned[-1] is first_bad.trans
            assert scanned[0] is a.trans
    # a different curvature answers first, as in the reference
    apart = DiffChar(3, 2, TorusForm.from_harmonic(3, {(1, 2): 1}))
    assert imaginary.same_class(apart) is reference_same_class(imaginary, apart) is False


def test_scaling_a_character_by_one_returns_it():
    char = cs_class(line_T2(2, theta=(Fraction(1, 5), 0)))
    for one in (1, Fraction(1)):
        assert char.scale(one) is char
    assert char.scale(2) is not char


# -- circle integration --------------------------------------------------------

def test_integrate_circle_harmonic():
    char = DiffChar(2, 2, TorusForm.volume(2) * 3)
    reduced = char.integrate_circle()
    assert reduced.degree == 1 and reduced.n == 1
    assert reduced.harmonic == dx(1, 1) * 3


def test_integrate_circle_commutes_with_curvature():
    rng = Random(44)
    for _ in range(30):
        n = 3
        harmonic = {}
        if rng.random() < 0.8:
            harmonic[(1, 2)] = Fraction(rng.randint(-2, 2))
        if rng.random() < 0.5:
            harmonic[(2, 3)] = Fraction(rng.randint(-2, 2))
        trans = rand_real_form(rng, n, 1)
        char = DiffChar(n, 2, TorusForm.from_harmonic(n, harmonic), trans)
        reduced = char.integrate_circle()
        assert reduced.curvature() == char.curvature().fiber_integrate_circle(1)


def test_integrate_circle_on_form_characters_carries_degree_twist():
    rng = Random(45)
    for _ in range(20):
        rho = rand_real_form(rng, 3, 1)
        char = DiffChar.from_form(rho, degree=2)
        reduced = char.integrate_circle()
        twisted = DiffChar.from_form(-(rho.fiber_integrate_circle(1)), degree=1)
        assert reduced.trans == twisted.trans
        assert reduced.same_class(twisted)


def test_integrate_circle_kills_pulled_back_characters():
    base = cs_class(line_T2(2, theta=(Fraction(1, 3), 0)))
    lift = base.pullback([[0, 1, 0], [0, 0, 1]])  # projection forgetting x1
    assert lift.n == 3
    reduced = lift.integrate_circle()
    assert reduced.same_class(DiffChar.zero(2, 1))


# -- the main construction ------------------------------------------------------

def test_chern_class_without_form_part_is_cheeger_simons():
    rng = Random(46)
    from chernforge.generators import rand_line_bundle
    for _ in range(15):
        n = rng.choice([2, 3])
        line = rand_line_bundle(rng, n)
        cycle = KCycle(DiagBundle.of(line))
        assert chern_class(cycle, 1).same_class(cs_class(line))


def reference_chern_class(cycle, i, rho_t):
    """One index from scratch: the cup of every i-subset of line classes,
    plus the transgression of the polynomial-evaluated path transform."""
    n = cycle.n
    base = subset_elementary_symmetric([cs_class(line) for line in cycle.bundle.lines], i,
                                       DiffChar.cup, DiffChar.add, DiffChar.zero(n, 2 * i))
    curv_path = cycle.bundle.chern_character().with_t() + rho_t.d()
    integrated = evaluate_chern_polynomial(curv_path, i).fiber_integrate_t()
    return base.add(DiffChar.from_form(integrated, degree=2 * i))


def test_one_pass_stores_the_subset_construction_seeded():
    rng = Random(62)
    for n in range(2, 7):
        for rank in range(1, 5):
            lines = [rand_line_bundle(rng, n) for _ in range(rank)]
            cycle = KCycle(DiagBundle(lines), rand_odd_real_form(rng, n, max_modes=1))
            for q in (LINEAR, QUADRATIC, SMOOTHSTEP):
                rho_t = path(cycle, q)
                classes = (total_chern_class(cycle) if q is LINEAR
                           else _classes_along(cycle, rho_t))
                for i in range(1, n // 2 + 1):
                    want = reference_chern_class(cycle, i, rho_t)
                    assert classes[i].harmonic == want.harmonic
                    assert classes[i].trans == want.trans


def test_elementary_symmetric_matches_subset_oracle_seeded():
    rng = Random(73)
    for rank in range(5):
        for n in (2, 4, 6):
            forms = [rand_real_form(rng, n, 0) + rand_real_form(rng, n, 2)
                     for _ in range(rank)]
            top = rank + 2
            start = [TorusForm.const(n, 1)] + [TorusForm.zero(n)] * top
            got = elementary_symmetric(forms, start, TorusForm.wedge, add)
            assert len(got) == top + 1 and got[0] is start[0]
            for k in range(1, top + 1):
                assert got[k] == subset_elementary_symmetric(
                    forms, k, TorusForm.wedge, add, TorusForm.zero(n))
            for k in range(rank + 1, top + 1):
                assert got[k] is start[k]

            chars = [cs_class(rand_line_bundle(rng, n)) for _ in range(rank)]
            top = n // 2
            start = [DiffChar.unit(n)] + [DiffChar.zero(n, 2 * k) for k in range(1, top + 1)]
            got = elementary_symmetric(chars, start, DiffChar.cup, DiffChar.add)
            assert len(got) == top + 1 and got[0] is start[0]
            for k in range(1, top + 1):
                want = subset_elementary_symmetric(chars, k, DiffChar.cup, DiffChar.add,
                                                   DiffChar.zero(n, 2 * k))
                assert got[k].harmonic == want.harmonic
                assert got[k].trans == want.trans
            for k in range(rank + 1, top + 1):
                assert got[k] is start[k]


def test_classes_and_line_classes_are_built_once():
    rng = Random(63)
    cycle = rand_cycle(rng, 4, max_rank=2)
    first = chern_class(cycle, 1)
    assert chern_class(cycle, 1) is first
    assert total_chern_class(cycle)[2] is chern_class(cycle, 2)
    # a path check builds its own classes and leaves the memo alone
    assert all(check_path_independence(cycle, path(cycle, QUADRATIC)))
    assert chern_class(cycle, 1) is first
    line = cycle.bundle.lines[0]
    assert cs_class(line) is cs_class(line)
    assert line.harmonic_curvature() is line.harmonic_curvature()


def test_chern_class_form_shift_example():
    flat = KCycle(DiagBundle.of(LineBundle.flat(2)),
                  dx(2, 1) * Fraction(1, 3))
    char = chern_class(flat, 1)
    assert char.curvature().is_zero()
    assert char.holonomy_table() == {(1,): Fraction(1, 3), (2,): 0}


@pytest.mark.parametrize("k", range(-3, 4))
def test_chern_number_pin(k):
    cycle = KCycle(DiagBundle.of(line_T2(k)))
    char = chern_class(cycle, 1)
    expected = {(1, 2): k} if k else {}
    assert char.period_table() == expected
    c1_form = chern_form(cycle.bundle, 1)
    assert c1_form.invariant_table(2) == ({(1, 2): (k, 0)} if k else {})


def test_chern_class_preconditions():
    cycle = KCycle(DiagBundle.trivial(2))
    with pytest.raises(PreconditionError):
        chern_class(cycle, 2)
    with pytest.raises(PreconditionError):
        chern_class(cycle, 0)


def test_chern_class_beyond_rank_is_trivial():
    K = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    cycle = KCycle(DiagBundle.of(LineBundle(4, K=K)))
    assert chern_class(cycle, 2).same_class(DiffChar.zero(4, 4))


def test_route_agreement_degree_one():
    rng = Random(47)
    for _ in range(10):
        w = rand_cycle(rng, 3)
        assert chern_class(w, 1).same_class(chern_class_via_ch(w, 1))


def test_route_agreement_two_lines_T4():
    K1 = [[0, 1, 0, 0], [-1, 0, 0, 1], [0, 0, 0, 2], [0, -1, -2, 0]]
    K2 = [[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 1], [0, 0, -1, 0]]
    rho = dx(4, 1) * Fraction(1, 5) + sin_form(4, (1, 0, 0, 0), (2,))
    w = KCycle(DiagBundle.of(LineBundle(4, K=K1, theta=(Fraction(1, 3), 0, 0, 0)),
                             LineBundle(4, K=K2)), rho)
    assert chern_class(w, 2).same_class(chern_class_via_ch(w, 2))


def test_route_agreement_rank_one_cancellation():
    # single line whose square term must cancel the non-integral parts
    K = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    rho = (dx(4, 1) * Fraction(1, 3)
           + sin_form(4, (0, 0, 1, 0), (4,))
           + TorusForm.single(4, Fraction(1, 2), idx=(1, 2, 3)))
    w = KCycle(DiagBundle.of(LineBundle(4, K=K)), rho)
    via = chern_class_via_ch(w, 2)
    assert via.integral
    assert chern_class(w, 2).same_class(via)


# -- total class and Whitney -----------------------------------------------------

def test_total_class_of_zero_cycle_is_unit():
    total = total_chern_class(KCycle.zero(4))
    for k in (1, 2):
        assert total[k].same_class(DiffChar.zero(4, 2 * k))


def test_total_class_T2():
    total = total_chern_class(KCycle(DiagBundle.of(line_T2(5))))
    assert len(total) == 2
    assert total[1].period_table() == {(1, 2): 5}


def test_unit_cup_stores_the_other_factor_seeded():
    rng = Random(71)
    for n in range(2, 7):
        unit = DiffChar.unit(n)
        for _ in range(2):
            total = total_chern_class(rand_cycle(rng, n, max_rank=2))
            for x in total[1:]:
                for product in (unit.cup(x), x.cup(unit)):
                    assert product.degree == x.degree
                    assert product.harmonic == x.harmonic
                    assert product.trans == x.trans


def test_group_hom_unit_case():
    rng = Random(48)
    w = rand_cycle(rng, 4)
    ok, report = check_group_hom(w, KCycle.zero(4))
    assert ok, report


def test_group_hom_flat_rational_holonomies():
    a = KCycle(DiagBundle.of(LineBundle.flat(4, theta=(Fraction(1, 3), 0, Fraction(1, 4), 0))))
    b = KCycle(DiagBundle.of(LineBundle.flat(4, theta=(0, Fraction(2, 5), 0, 0))))
    ok, report = check_group_hom(a, b)
    assert ok, report


def test_group_hom_report_keys():
    rng = Random(74)
    entry_keys = {"verdict", "curvature_discrepancy", "holonomy_discrepancy"}
    for n, degrees in ((1, []), (2, ["2"]), (4, ["2", "4"]), (6, ["2", "4", "6"])):
        ok, report = check_group_hom(rand_cycle(rng, n, max_rank=2),
                                     rand_cycle(rng, n, max_rank=2))
        assert list(report) == ["verdict", "components"]
        assert ok and report["verdict"] is ok
        assert list(report["components"]) == degrees
        for entry in report["components"].values():
            assert set(entry) == entry_keys


def test_group_hom_seeded():
    rng = Random(49)
    for _ in range(8):
        w = rand_cycle(rng, 4, max_rank=2)
        v = rand_cycle(rng, 4, max_rank=2)
        ok, report = check_group_hom(w, v)
        assert ok, report
    for _ in range(2):
        w = rand_cycle(rng, 6, max_rank=2)
        v = rand_cycle(rng, 6, max_rank=2)
        ok, report = check_group_hom(w, v)
        assert ok, report


# -- path independence and gauge shifts -------------------------------------------

def test_path_independence_trivial_path():
    rng = Random(50)
    w = rand_cycle(rng, 4)
    assert check_path_independence(w, path(w, LINEAR)) == [True, True, True]


def test_path_independence_examples():
    rho = (dx(4, 1) * Fraction(1, 3)
           + sin_form(4, (1, 0, 0, 0), (2,))
           + TorusForm.single(4, Fraction(1, 7), idx=(1, 2, 3)))
    K = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    w = KCycle(DiagBundle.of(LineBundle(4, K=K)), rho)
    assert check_path_independence(w, path(w, QUADRATIC)) == [True, True, True]
    assert check_path_independence(w, path(w, SMOOTHSTEP)) == [True, True, True]


def test_path_independence_rejects_a_path_with_wrong_ends():
    rho = dx(2, 1) * Fraction(1, 3) + sin_form(2, (1, 0), (2,))
    w = KCycle(DiagBundle.of(line_T2(1)), rho)
    sigma = dx(2, 2).with_t()
    wrong_start = path(w, LINEAR) + sigma - sigma.mul_t(1)  # sigma at t = 0
    wrong_end = path(w, {1: 2})  # 2 rho at t = 1
    for rho_t in (wrong_start, wrong_end, rho):
        with pytest.raises(PreconditionError):
            check_path_independence(w, rho_t)


def test_a_path_stores_the_class_of_the_default_path_seeded():
    # int_0^1 q'(t) H(q(t)) dt = int_0^1 H(u) du for every q with q(0) = 0
    # and q(1) = 1, so the reparametrised transgression is the same form
    rng = Random(3)
    for n in range(2, 7):
        for _ in range(4):
            cycle = rand_cycle(rng, n, max_rank=2)
            for q in (QUADRATIC, SMOOTHSTEP, {1: 3, 2: -2}):
                classes = _classes_along(cycle, path(cycle, q))
                for i in range(1, n // 2 + 1):
                    got, want = classes[i], chern_class(cycle, i)
                    assert got.harmonic == want.harmonic
                    assert got.trans == want.trans


def test_product_formula_stores_the_newton_pass_transgression_seeded():
    # the oracle runs Newton's identity over the whole t-extended path
    # curvature; the engine wedges e_a(F) with int_t exp(L(d rho_t))
    rng = Random(12)
    for n in range(1, 7):
        for _ in range(3):
            cycle = rand_cycle(rng, n, max_rank=2 if n >= 5 else 3)
            sigma1 = rand_real_form(rng, n, 1)
            sigma3 = rand_real_form(rng, n, 3, max_modes=1)
            top = n // 2
            start = [DiffChar.unit(n)] + [DiffChar.zero(n, 2 * k) for k in range(1, top + 1)]
            # below T^2 a line has no degree-2 class
            line_classes = [cs_class(line) for line in cycle.bundle.lines] if top else []
            base = elementary_symmetric(line_classes, start, DiffChar.cup, DiffChar.add)
            linear = path(cycle, LINEAR)
            paths = (linear, path(cycle, QUADRATIC), path(cycle, SMOOTHSTEP),
                     linear + t_poly(sigma1, {1: 1, 2: -1}),
                     linear + t_poly(sigma3, {2: 1, 3: -1}))
            for rho_t in paths:
                classes = _classes_along(cycle, rho_t)
                want = path_transgressions(cycle, rho_t)
                assert len(classes) == top + 1
                for i in range(1, top + 1):
                    assert classes[i].trans == base[i].trans + want[i]


def test_an_off_ray_path_stores_another_form_of_the_same_class_seeded():
    # for i = 1 the correction is int_t d/dt rho_t = rho on every path
    rng = Random(5)
    moved = 0
    for n in range(4, 7):
        for _ in range(3):
            cycle = rand_cycle(rng, n, max_rank=2)
            rho_t = path(cycle, LINEAR) + t_poly(rand_real_form(rng, n, 1), {1: 1, 2: -1})
            classes = _classes_along(cycle, rho_t)
            assert classes[1].trans == chern_class(cycle, 1).trans
            assert all(check_path_independence(cycle, rho_t))
            for i in range(1, n // 2 + 1):
                moved += classes[i].trans != chern_class(cycle, i).trans
    assert moved


def test_gauge_shift_examples():
    rho = dx(2, 1) * Fraction(1, 5) + sin_form(2, (1, 0), (2,))
    w = KCycle(DiagBundle.of(line_T2(2)), rho)
    exact = sin_form(2, (1, 1), ()).d()
    for shift in (exact, dx(2, 1), dx(2, 1) * 3 + exact):
        assert check_shift_invariance(w, shift) == [True, True]


def test_gauge_shift_rejects_non_integral():
    w = KCycle(DiagBundle.of(line_T2(1)))
    with pytest.raises(PreconditionError):
        check_shift_invariance(w, dx(2, 1) * Fraction(1, 2))
    not_closed = sin_form(2, (1, 0), (2,))
    with pytest.raises(PreconditionError):
        check_shift_invariance(w, not_closed)


# -- odd classes -------------------------------------------------------------------

@pytest.mark.parametrize("m", range(-3, 4))
def test_odd_winding_periods(m):
    char = odd_chern_class(OddKCycle.winding(1, (m,)), 1)
    expected = {(1,): m} if m else {}
    assert char.period_table() == expected
    assert char.trans.is_zero()


def test_odd_pure_phase():
    rng = Random(51)
    phase = rand_phase(rng, 2)
    while phase.is_zero():
        phase = rand_phase(rng, 2)
    cycle = OddKCycle(2, [((0, 0), phase)])
    char = odd_chern_class(cycle, 1)
    assert char.curvature() == phase.d()
    assert char.holonomy_table() == {(): 0}  # basepoint normalization


def test_odd_generator_matches_circle_form():
    char = odd_chern_class(OddKCycle.winding(1, (1,)), 1)
    assert char.curvature() == dx(1, 1)
    assert char.period_table() == {(1,): 1}


def test_odd_rejects_even_index():
    cycle = OddKCycle.winding(2, (1, 0))
    with pytest.raises(PreconditionError):
        odd_chern_class(cycle, 2)
    with pytest.raises(PreconditionError):
        odd_chern_class(OddKCycle.winding(1, (1,)), 3)


def test_odd_degree_three_seeded():
    rng = Random(52)
    for _ in range(6):
        cycle = rand_odd_cycle(rng, 3)
        char = odd_chern_class(cycle, 3)
        assert char.degree == 3
        # curvature of the odd class integrates the suspended picture
        bundle, correction = cycle.suspend()
        suspended = KCycle(bundle, correction)
        even_curv = chern_transform(suspended.curvature(), 2)
        assert char.curvature() == even_curv.fiber_integrate_circle(1)


# -- postconditions ------------------------------------------------------------------

def test_the_integrality_postcondition_fires(monkeypatch):
    # a halved harmonic part in add leaves c_1 of a degree-1 line with
    # period 1/4, which the curvature check would also see, but later
    def halved(self, other):
        return DiffChar._make(self.n, self.degree,
                              (self.harmonic + other.harmonic) * Fraction(1, 2),
                              self.trans + other.trans)

    monkeypatch.setattr(DiffChar, "add", halved)
    with pytest.raises(ArithmeticError, match="^integrality failed at index 1$"):
        chern_class(KCycle(DiagBundle.of(line_T2(1))), 1)


def test_a_doubled_harmonic_fails_the_curvature_postcondition(monkeypatch):
    # a doubled harmonic part in add is integral, but moves the periods
    # of every class, which the curvature carries
    def doubled(self, other):
        return DiffChar._make(self.n, self.degree, (self.harmonic + other.harmonic) * 2,
                              self.trans + other.trans)

    monkeypatch.setattr(DiffChar, "add", doubled)
    with pytest.raises(ArithmeticError, match="^curvature compatibility failed at index 1$"):
        chern_class(KCycle(DiagBundle.of(line_T2(1))), 1)


def test_the_curvature_postcondition_fires(monkeypatch):
    # a negated L(d rho_t) negates the transgression correction, which
    # the curvature sees when d rho is not zero
    monkeypatch.setattr(diffchar, "chern_log", lambda form, top: -chern_log(form, top))
    cycle = KCycle(DiagBundle.of(line_T2(1)), sin_form(2, (1, 0), (2,)))
    with pytest.raises(ArithmeticError, match="^curvature compatibility failed at index 1$"):
        chern_class(cycle, 1)


def test_the_winding_postcondition_fires(monkeypatch):
    # clutching with the opposite sign is a consistent even cycle whose
    # circle integral has the negated winding periods
    suspend = OddKCycle.suspend

    def flipped(self):
        bundle, correction = suspend(self)
        return DiagBundle([LineBundle(line.n, [[-v for v in row] for row in line.K])
                           for line in bundle.lines]), correction

    monkeypatch.setattr(OddKCycle, "suspend", flipped)
    with pytest.raises(ArithmeticError,
                       match="^odd-class periods disagree with the winding data$"):
        odd_chern_class(OddKCycle.winding(2, (1, 0)), 1)


# -- functoriality -------------------------------------------------------------------

def test_pullback_identity_and_composition():
    char = cs_class(line_T2(1, theta=(Fraction(1, 3), 0)))
    assert char.pullback([[1, 0], [0, 1]]).same_class(char)
    A = [[1, 1], [0, 1]]
    B = [[2, 0], [1, 1]]
    composed = [[sum(A[r][k] * B[k][c] for k in range(2)) for c in range(2)]
                for r in range(2)]
    assert char.pullback(composed).trans == \
        char.pullback(A).pullback(B).trans


def test_class_naturality_projection():
    base = KCycle(DiagBundle.of(line_T2(3, theta=(Fraction(1, 5), 0))),
                  dx(2, 1) * Fraction(1, 7))
    projection = [[1, 0, 0, 0], [0, 1, 0, 0]]  # T^4 -> T^2
    lifted = base.pullback(projection)
    assert chern_class(lifted, 1).same_class(
        chern_class(base, 1).pullback(projection))


def test_class_naturality_seeded():
    rng = Random(53)
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        m = rng.choice([2, 3])
        w = rand_cycle(rng, n, max_rank=2)
        matrix = rand_int_matrix(rng, n, m)
        for i in range(1, min(n, m) // 2 + 1):
            assert chern_class(w, i).pullback(matrix).same_class(
                chern_class(w.pullback(matrix), i))
