from fractions import Fraction
from itertools import combinations
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (evaluate_chern_polynomial, permutation_sign, reference_add,
                    reference_construct, reference_d, reference_fiber_integrate_circle,
                    reference_fiber_integrate_t, reference_invariant_table, reference_is_real,
                    reference_pullback, reference_restrict_t, reference_scale, reference_wedge,
                    total_chern_transform)

from chernforge.errors import PreconditionError
from chernforge.forms import (CEILING, TorusForm, _indices, _koszul_sign, _layout, _ratio_text,
                              chern_log, chern_transform, chern_transforms, parse_form)
from chernforge.generators import (rand_form, rand_frequency, rand_homogeneous,
                                   rand_int_matrix, rand_phase, rand_real_form)
from chernforge.symfun import divided_powers

dx = TorusForm.dx


def test_wedge_examples():
    f = dx(2, 1).wedge(dx(2, 2))
    assert f == TorusForm.single(2, 1, idx=(1, 2))
    assert dx(2, 2).wedge(dx(2, 1)) == -f
    a = TorusForm.single(2, 1, freq=(1, 0), idx=(1,))
    b = TorusForm.single(2, 1, freq=(0, 1), idx=(2,))
    assert a.wedge(b) == TorusForm.single(2, 1, freq=(1, 1), idx=(1, 2))


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        dx(2, 1).wedge(dx(3, 1))


def test_exterior_d_examples():
    assert TorusForm.const(2, 1).d().is_zero()
    t_dx1 = TorusForm.single(2, 1, idx=(1,), t_exp=1, has_t=True)
    dt_dx1 = TorusForm.single(2, 1, idx=(0, 1), has_t=True)
    assert t_dx1.d() == dt_dx1
    # stored derivative: multiplication by i * frequency
    mode = TorusForm.single(2, 1, freq=(2, 0), idx=())
    assert mode.d() == TorusForm.single(2, (0, 2), freq=(2, 0), idx=(1,))


def test_top_degree_invariant_table_examples():
    vol = TorusForm.volume(2)
    assert vol.invariant_table(2) == {(1, 2): (1, 0)}
    oscillating = TorusForm.single(2, 1, freq=(1, 0), idx=(1, 2))
    assert oscillating.invariant_table(2) == {}
    assert (vol * 3).invariant_table(2) == {(1, 2): (3, 0)}
    assert dx(2, 1).invariant_table(2) == {}  # no top-degree part


def test_period_examples():
    assert dx(2, 1).invariant_table(1) == {(1,): (1, 0)}
    beta = TorusForm(2, {(0, (1, 0), (2,)): (0, Fraction(-1, 2)),
                         (0, (-1, 0), (2,)): (0, Fraction(1, 2))})
    form = TorusForm.volume(2) * 5 + beta.d()
    assert form.invariant_table(2) == {(1, 2): (5, 0)}


def test_invariant_table_reads_non_real_parts():
    form = TorusForm.single(2, (1, Fraction(-1, 3)), idx=(1, 2))
    assert form.invariant_table(2) == {(1, 2): (Fraction(1), Fraction(-1, 3))}
    assert (form + TorusForm.volume(2) * 2).invariant_table(2) == {(1, 2): (3, Fraction(-1, 3))}
    # an imaginary part that oscillates along the subtorus integrates to zero
    wave = TorusForm.single(2, (0, 1), freq=(1, 0), idx=(1, 2))
    assert (TorusForm.volume(2) + wave).invariant_table(2) == {(1, 2): (1, 0)}


def test_invariant_table_drops_index_sets_whose_terms_cancel():
    # a real sine phase: its two modes integrate to i/2 and -i/2 at the basepoint
    sine = TorusForm(2, {(0, (1, 1), ()): (0, Fraction(-1, 4)),
                         (0, (-1, -1), ()): (0, Fraction(1, 4))})
    assert sine.invariant_table(0) == {}
    cos_mode = TorusForm(2, {(0, (1, 0), ()): Fraction(1, 2),
                             (0, (-1, 0), ()): Fraction(1, 2)})
    assert cos_mode.invariant_table(0) == {(): (1, 0)}
    # sin(2 pi x_3) dx_1 ^ dx_2 vanishes on the subtorus x_3 = 0
    sheet = TorusForm(3, {(0, (0, 0, 1), (1, 2)): (0, Fraction(-1, 2)),
                          (0, (0, 0, -1), (1, 2)): (0, Fraction(1, 2))})
    assert sheet.invariant_table(2) == {}
    assert (sheet + TorusForm.single(3, 2, idx=(2, 3))).invariant_table(2) == {(2, 3): (2, 0)}


def test_constructor_coefficients():
    assert TorusForm.const(1, (Fraction(1, 2), 3)).to_text() == "(1/2+3i) exp[0] d{}"
    assert TorusForm.const(1, (2, Fraction(0))) == TorusForm.const(1, 2)
    assert TorusForm.single(1, (0, 0), idx=(1,)).is_zero()
    assert dx(1, 1) * (0, Fraction(1, 2)) == TorusForm.single(1, (0, Fraction(1, 2)), idx=(1,))
    for bad in (0.5, "1/2", (1, 2, 3), (Fraction(1), 0.5), [1, 2], None):
        with pytest.raises(TypeError):
            TorusForm(1, {(0, (0,), ()): bad})
        with pytest.raises(TypeError):
            TorusForm.single(1, bad, idx=(1,))
        with pytest.raises(TypeError):
            TorusForm.const(1, bad)
        with pytest.raises(TypeError):
            dx(1, 1) * bad


# str entries are left out: sorting a set that mixes str and int raises a
# TypeError naming the two types in the set's iteration order, which
# string-hash randomization changes from one run to the next
INDEX_ENTRIES = [0, 1, 2, 3, 5, -1, 1.0, 2.0, Fraction(1), True]


def _outcome(build):
    try:
        return build()
    except (TypeError, ValueError) as error:
        return type(error), str(error)


def _construct(n, idx, t_exp, has_t):
    form = TorusForm(n, {(t_exp, (0,) * n, idx): 1}, has_t=has_t)
    return form.den, dict(form.items())


def test_constructor_index_checks_match_the_reference():
    index_sets = ([()] + [(a,) for a in INDEX_ENTRIES]
                  + [(a, b) for a in INDEX_ENTRIES for b in INDEX_ENTRIES])
    # inputs with a non-int entry first, so they run before any equal
    # all-int index set is built here
    index_sets.sort(key=lambda idx: all(type(j) is int for j in idx))
    inputs = [(n, idx, t_exp, has_t) for idx in index_sets for n in range(4)
              for has_t in (False, True) for t_exp in (0, 1)]
    expected = [_outcome(lambda: reference_construct(n, {(t_exp, (0,) * n, idx): 1}, has_t))
                for n, idx, t_exp, has_t in inputs]
    _indices.cache_clear()
    cold = [_outcome(lambda: _construct(*case)) for case in inputs]
    for n, idx, t_exp, has_t in inputs:
        _outcome(lambda: _construct(n, tuple(map(int, idx)), t_exp, has_t))
    warm = [_outcome(lambda: _construct(*case)) for case in inputs]
    assert len(inputs) == 1776
    for case, want, got_cold, got_warm in zip(inputs, expected, cold, warm):
        assert got_cold == want, case
        assert got_warm == want, case
    # the order of the checks shows in which error wins
    assert _outcome(lambda: _construct(3, (2.0, 1), 0, False)) == (
        ValueError, "index set (2.0, 1) is not strictly increasing")
    assert _outcome(lambda: _construct(3, (1.0,), 1, False)) == (
        ValueError, "t data on a form without the t extension")
    assert _outcome(lambda: _construct(3, (1.0,), 1, True))[0] is TypeError


def test_constructor_refuses_a_far_index_before_shifting_it():
    # a shift by the index would build an int of 10**20 bits
    with pytest.raises(ValueError, match="out of range"):
        TorusForm(2, {(0, (0, 0), (1, 10 ** 20)): 1})
    with pytest.raises(ValueError, match="out of range"):
        parse_form("(1+0i) exp[0,0] d{1,1000000000000}")


def test_from_harmonic_matches_constructor_and_rejects_bad_index_sets():
    rng = Random(9)
    for _ in range(30):
        n = rng.randint(0, 6)
        table = {subset: rng.choice([0, 2, -3, Fraction(5, 6), (Fraction(1, 4), -1)])
                 for degree in range(n + 1)
                 for subset in combinations(range(1, n + 1), degree)
                 if rng.random() < 0.5}
        built = TorusForm.from_harmonic(n, table)
        expected = TorusForm(n, {(0, (0,) * n, idx): c for idx, c in table.items()})
        assert (built.den, dict(built.items())) == (expected.den, dict(expected.items()))
    for bad in [(2, 1), (1, 1), (0, 2), (1, 4), (-1,), (4,)]:
        with pytest.raises(ValueError):
            TorusForm.from_harmonic(3, {bad: 1})


def test_period_of_exact_vanishes():
    rng = Random(5)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        exact = rand_form(rng, n).d()
        for degree in sorted(exact.degrees()):
            component = exact.component(degree)
            if degree > n:
                continue
            assert component.invariant_table(degree) == {}


def test_invariant_table_example():
    form = (TorusForm.single(3, 2, idx=(1, 2))
            + TorusForm.single(3, (0, 1), freq=(0, 0, 1), idx=(1, 2))
            + TorusForm.single(3, 5, freq=(1, 0, 0), idx=(1, 2))
            + TorusForm.single(3, 7, idx=(3,)))
    # the freq (1,0,0) term oscillates along its own subtorus and drops
    assert form.invariant_table(2) == {(1, 2): (Fraction(2), Fraction(1))}
    assert form.invariant_table(1) == {(3,): (Fraction(7), Fraction(0))}
    assert form.invariant_table(3) == {}
    with pytest.raises(ValueError):
        form.with_t().invariant_table(2)


def test_fiber_integrate_t_examples():
    dt_dx1 = TorusForm.single(2, 1, idx=(0, 1), has_t=True)
    assert dt_dx1.fiber_integrate_t() == dx(2, 1)
    t_dt_dx1 = TorusForm.single(2, 1, idx=(0, 1), t_exp=1, has_t=True)
    assert t_dt_dx1.fiber_integrate_t() == dx(2, 1) * Fraction(1, 2)
    no_dt = TorusForm.single(2, 1, idx=(1,), has_t=True)
    assert no_dt.fiber_integrate_t().is_zero()


def test_fiber_integrate_circle_examples():
    vol = TorusForm.volume(2)
    assert vol.fiber_integrate_circle(1) == dx(1, 1)
    assert dx(2, 2).fiber_integrate_circle(1).is_zero()
    oscillating = TorusForm.single(2, 1, freq=(1, 0), idx=(1, 2))
    assert oscillating.fiber_integrate_circle(1).is_zero()
    # moving dx_axis to the front costs a sign
    assert vol.fiber_integrate_circle(2) == -dx(1, 1)


def test_interval_stokes_identity():
    rng = Random(11)
    for _ in range(120):
        n = rng.choice([1, 2, 3])
        a = rand_form(rng, n, has_t=True)
        lhs = a.fiber_integrate_t().d() + a.d().fiber_integrate_t()
        rhs = a.restrict_t(1) - a.restrict_t(0)
        assert lhs == rhs


def test_circle_integration_anticommutes_with_d():
    rng = Random(12)
    for _ in range(120):
        n = rng.choice([1, 2, 3])
        a = rand_form(rng, n)
        axis = rng.randint(1, n)
        assert a.d().fiber_integrate_circle(axis) == \
            -(a.fiber_integrate_circle(axis).d())


def test_pullback_examples():
    identity = [[1, 0], [0, 1]]
    assert dx(2, 1).pullback(identity) == dx(2, 1)
    doubled = dx(1, 1).pullback([[2]])
    assert doubled == dx(1, 1) * 2
    # frequencies transform by the transpose
    mode = TorusForm.single(1, 1, freq=(1,), idx=())
    assert mode.pullback([[3]]) == TorusForm.single(1, 1, freq=(3,), idx=())


def test_pullback_takes_only_integer_matrices():
    with pytest.raises(TypeError):
        dx(2, 1).pullback([[1.5, 0], [0, 1]])  # int() would return dx_1
    with pytest.raises(TypeError):
        dx(1, 1).pullback([[Fraction(2)]])


def test_pullback_commutes_with_d():
    rng = Random(13)
    for _ in range(80):
        n = rng.choice([1, 2, 3])
        m = rng.choice([1, 2, 3])
        a = rand_form(rng, n)
        matrix = rand_int_matrix(rng, n, m)
        assert a.d().pullback(matrix) == a.pullback(matrix).d()


def test_pullback_is_a_ring_map():
    rng = Random(14)
    for _ in range(60):
        n = rng.choice([2, 3])
        m = rng.choice([2, 3])
        a = rand_form(rng, n)
        b = rand_form(rng, n)
        matrix = rand_int_matrix(rng, n, m)
        assert a.wedge(b).pullback(matrix) == \
            a.pullback(matrix).wedge(b.pullback(matrix))


def test_d_squared_zero_seeded():
    rng = Random(15)
    for _ in range(150):
        n = rng.choice([1, 2, 3, 4])
        a = rand_form(rng, n, has_t=rng.random() < 0.5)
        assert a.d().d().is_zero()


def test_leibniz_seeded():
    rng = Random(16)
    for _ in range(100):
        n = rng.choice([2, 3])
        has_t = rng.random() < 0.5
        deg = rng.randint(0, 2)
        a = rand_homogeneous(rng, n, deg, has_t=has_t)
        b = rand_form(rng, n, has_t=has_t)
        sign = -1 if deg % 2 else 1
        assert a.wedge(b).d() == a.d().wedge(b) + a.wedge(b.d()) * sign


def test_graded_commutativity_seeded():
    rng = Random(17)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        da = rng.randint(0, 3)
        db = rng.randint(0, 3)
        a = rand_homogeneous(rng, n, da)
        b = rand_homogeneous(rng, n, db)
        sign = -1 if (da % 2 and db % 2) else 1
        assert a.wedge(b) == b.wedge(a) * sign


def test_reality_predicates():
    cos_mode = TorusForm(2, {(0, (1, 0), ()): Fraction(1, 2),
                             (0, (-1, 0), ()): Fraction(1, 2)})
    assert cos_mode.is_real()
    assert cos_mode.d().is_real()
    lopsided = TorusForm.single(2, 1, freq=(1, 0), idx=())
    assert not lopsided.is_real()
    conjugate = TorusForm.single(2, 1, freq=(-1, 0), idx=())
    assert (lopsided + conjugate).is_real()


def test_degenerate_dimension_zero():
    point = TorusForm.const(0, 7)
    assert point.invariant_table(0) == {(): (7, 0)}
    assert point.d().is_zero()
    assert point.wedge(point) == TorusForm.const(0, 49)


def test_random_frequency_needs_a_circle():
    for n in (0, -1):
        with pytest.raises(ValueError):
            rand_frequency(Random(0), n)
    for seed in range(10):
        if Random(seed).randint(0, 2):  # the first draw picks the mode count
            with pytest.raises(ValueError):
                rand_real_form(Random(seed), 0, 0)
            with pytest.raises(ValueError):
                rand_phase(Random(seed), 0)
    # on T^n with n >= 1 the draws are those of plain rejection sampling
    for n in (1, 2, 4):
        rng, reference = Random(n), Random(n)
        for _ in range(20):
            want = ()
            while not any(want):
                want = tuple(reference.randint(-1, 1) for _ in range(n))
            assert rand_frequency(rng, n) == want


def test_restrict_t():
    a = TorusForm.single(2, 1, idx=(1,), t_exp=2, has_t=True) \
        + TorusForm.single(2, 1, idx=(0,), has_t=True)
    assert a.restrict_t(1) == dx(2, 1)
    assert a.restrict_t(0).is_zero()
    assert a.restrict_t(Fraction(1, 3)) == dx(2, 1) * Fraction(1, 9)


def test_restrict_t_takes_only_rationals():
    a = TorusForm.single(2, 1, idx=(1,), t_exp=1, has_t=True)
    for bad in (0.1, "1/3", (1, 0)):
        with pytest.raises(TypeError):
            a.restrict_t(bad)


# -- the universal transform on even forms ---------------------------------

def test_chern_transform_examples():
    eta = TorusForm.volume(2).pullback([[1, 0, 0, 0], [0, 1, 0, 0]])
    zeta = TorusForm.single(4, 1, idx=(1, 2, 3, 4))
    assert chern_transform(eta, 1) == eta
    both = eta + zeta
    expected = eta.wedge(eta) * Fraction(1, 2) - zeta
    assert chern_transform(both, 2) == expected
    assert chern_transform(TorusForm.zero(4), 2).is_zero()


def test_chern_transform_ignores_degree_zero():
    eta = TorusForm.single(4, 2, idx=(1, 2))
    with_unit = TorusForm.const(4, 5) + eta
    for i in (1, 2):
        assert chern_transform(with_unit, i) == chern_transform(eta, i)


def test_chern_transform_dimension_cap():
    eta = TorusForm.single(2, 1, idx=(1, 2))
    with pytest.raises(ValueError):
        chern_transform(eta, 2)
    with pytest.raises(ValueError):
        chern_transforms(eta, 2)


def test_chern_transforms_match_polynomial_evaluation_seeded():
    rng = Random(61)
    for case in range(30):
        has_t = case % 2 == 1
        n = rng.randint(1, 5)
        cap = n + has_t
        even = sum((rand_homogeneous(rng, n, degree, has_t=has_t)
                    for degree in range(0, cap + 1, 2)), TorusForm.zero(n, has_t=has_t))
        transforms = chern_transforms(even, cap // 2)
        assert len(transforms) == cap // 2 + 1
        assert transforms[0] == TorusForm.const(n, 1, has_t=has_t)
        for i in range(1, cap // 2 + 1):
            expected = evaluate_chern_polynomial(even, i)
            assert transforms[i] == expected
            assert chern_transform(even, i) == expected


def test_total_chern_transform_examples():
    assert total_chern_transform(TorusForm.zero(4)) == TorusForm.const(4, 1)
    eta = TorusForm.single(4, 3, idx=(1, 2))
    total = total_chern_transform(eta)
    assert total.component(0) == TorusForm.const(4, 1)
    assert total.component(2) == eta
    assert total.component(4) == eta.wedge(eta) * Fraction(1, 2)


def test_total_transform_is_multiplicative_on_sums():
    rng = Random(18)
    for _ in range(30):
        n = 4
        def random_even():
            even = rand_homogeneous(rng, n, 2)
            if rng.random() < 0.5:
                even = even + rand_homogeneous(rng, n, 4)
            return even
        omega = random_even()
        omega_p = random_even()
        summed = total_chern_transform(omega + omega_p)
        product = total_chern_transform(omega).wedge(total_chern_transform(omega_p))
        assert summed == product


def test_chern_transform_naturality():
    rng = Random(19)
    for _ in range(40):
        n = 4
        m = rng.choice([2, 3, 4])
        parts = [rand_homogeneous(rng, n, 2)]
        if rng.random() < 0.5:
            parts.append(rand_homogeneous(rng, n, 4))
        even = sum(parts, TorusForm.zero(n))
        matrix = rand_int_matrix(rng, n, m)
        pulled = sum((f.pullback(matrix) for f in parts), TorusForm.zero(m))
        for i in (1, 2):
            if 2 * i > m:
                continue
            assert chern_transform(even, i).pullback(matrix) == \
                chern_transform(pulled, i)


def test_chern_transform_rejects_odd_content():
    with pytest.raises(ValueError):
        chern_transform(dx(2, 1), 1)
    with pytest.raises(ValueError):
        chern_transform(TorusForm.volume(2) + dx(2, 1), 1)
    with pytest.raises(ValueError):
        chern_transforms(dx(2, 1), 0)


def rand_even(rng, n, has_t):
    cap = n + has_t
    return sum((rand_homogeneous(rng, n, degree, has_t=has_t)
                for degree in range(0, cap + 1, 2)), TorusForm.zero(n, has_t=has_t))


def test_chern_transforms_memo_extends_and_hands_out_copies_seeded():
    rng = Random(64)
    for case in range(10):
        has_t = case % 2 == 1
        n = 6 - has_t
        even = rand_even(rng, n, has_t)
        for top in (1, 3, 2):
            # even * 1 is a new form with the same data and no memo
            assert chern_transforms(even, top) == chern_transforms(even * 1, top)
        assert chern_transforms(even, 3)[2] is chern_transforms(even, 2)[2]
        want = chern_transforms(even * 1, 3)
        got = chern_transforms(even, 3)
        got[1] = TorusForm.zero(n, has_t=has_t)
        got.append(TorusForm.zero(n, has_t=has_t))
        del got[2]
        assert chern_transforms(even, 3) == want
        assert chern_transforms(even, 1) == want[:2]


def test_chern_transforms_validates_before_reading_the_memo():
    eta = TorusForm.single(2, 1, idx=(1, 2))
    memo = chern_transforms(eta, 1)
    with pytest.raises(ValueError, match="dimension cap"):
        chern_transforms(eta, 2)
    # a memo long enough to answer still does not bypass the checks
    eta._transforms = memo + [TorusForm.zero(2)]
    with pytest.raises(ValueError, match="dimension cap"):
        chern_transforms(eta, 2)
    odd = dx(2, 1)
    odd._transforms = memo
    for top in (0, 1):
        with pytest.raises(ValueError, match="odd-degree content"):
            chern_transforms(odd, top)


def test_chern_log_exponentiates_to_the_total_transform_seeded():
    rng = Random(65)
    for case in range(20):
        has_t = case % 2 == 1
        n = rng.randint(1, 5)
        top = (n + has_t) // 2
        even = rand_even(rng, n, has_t)
        log = chern_log(even, top)
        assert log.component(0).is_zero()
        exp = sum(divided_powers(log, top, TorusForm.wedge, TorusForm.__mul__),
                  TorusForm.const(n, 1, has_t=has_t))
        for k, transform in enumerate(chern_transforms(even, top)):
            assert exp.component(2 * k) == transform


# -- serialization -----------------------------------------------------------

def test_serialization_golden():
    a = TorusForm.single(2, (Fraction(1, 2), Fraction(-3, 4)),
                         freq=(1, -2), idx=(0, 1), t_exp=2, has_t=True)
    assert a.to_text() == "(1/2-3/4i) t^2 exp[1,-2] d{t,1}"
    assert TorusForm.zero(2).to_text() == "0"
    assert parse_form(a.to_text()) == a


def test_to_text_folds_imaginary_sign():
    assert TorusForm.const(0, (Fraction(1, 2), Fraction(-3, 4))).to_text() == "(1/2-3/4i) exp[] d{}"
    assert TorusForm.const(0, 1).to_text() == "(1+0i) exp[] d{}"
    assert TorusForm.const(0, (0, 1)).to_text() == "(0+1i) exp[] d{}"
    assert TorusForm.const(0, (-2, Fraction(-1, 6))).to_text() == "(-2-1/6i) exp[] d{}"


def test_to_text_renders_coefficients_as_fraction_does():
    for den in range(1, 13):
        for num in range(-3 * den, 3 * den + 1):
            assert _ratio_text(num, den) == str(Fraction(num, den))
    # one shared den of 12, numerators 3 and -2, each reduced on its own
    shared = TorusForm.const(0, (Fraction(1, 4), Fraction(-1, 6)))
    assert shared.to_text() == "(1/4-1/6i) exp[] d{}"
    assert TorusForm.const(0, (Fraction(-3, 2), 0)).to_text() == "(-3/2+0i) exp[] d{}"


def test_parse_form_reads_coefficient_tokens():
    assert parse_form("(6/1-4/1i) exp[1] d{1}") == parse_form("(6-4i) exp[1] d{1}")
    assert parse_form("(-0/4+0/7i) exp[1] d{1}", n=1).is_zero()
    assert parse_form("(1/2 + 3/4i) exp[1] d{1}") == TorusForm.single(
        1, (Fraction(1, 2), Fraction(3, 4)), freq=(1,), idx=(1,))
    for text in ("(3/0+0i) exp[1] d{1}", "(1- 2/0i) exp[1] d{1}"):
        with pytest.raises(ValueError, match="zero denominator in form term"):
            parse_form(text)


def test_parse_form_sums_duplicates_and_drops_cancelled_terms():
    text = ("(1/2+1i) exp[0,0] d{1} + (1/3-1/4i) exp[1,0] d{2}\n"
            "(1/2-1/3i) exp[0,0] d{1} + (-1/3+1/4i) exp[1,0] d{2}")
    assert parse_form(text) == TorusForm.single(2, (1, Fraction(2, 3)), idx=(1,))
    assert parse_form("(1+0i) exp[0,1] d{} + (-1+0i) exp[0,1] d{}", n=2).is_zero()


def test_parse_form_multi_term_and_plus_separated():
    text = "(1+0i) exp[0,0] d{1} + (0-1/2i) exp[1,0] d{2}"
    form = parse_form(text)
    assert len(form.terms) == 2
    round_trip = parse_form(form.to_text())
    assert round_trip == form


def test_parse_form_rejects_garbage():
    with pytest.raises(ValueError):
        parse_form("(1+0i) exp[0,0")
    with pytest.raises(ValueError):
        parse_form("1.5 exp[0] d{}")
    with pytest.raises(ValueError):
        parse_form("(1+0i) exp[0] d{1} + (1+0i) exp[0,0] d{1}")


def test_serialization_round_trip_seeded():
    rng = Random(20)
    for _ in range(100):
        n = rng.choice([0, 1, 2, 3])
        has_t = rng.random() < 0.4
        a = rand_form(rng, n, has_t=has_t)
        text = a.to_text()
        assert parse_form(text, n=n, has_t=has_t) == a
        assert parse_form(text, n=n, has_t=has_t).to_text() == text


small_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@settings(max_examples=60)
@given(st.lists(st.tuples(small_coeffs, small_coeffs,
                          st.integers(-2, 2), st.integers(-2, 2),
                          st.sampled_from([(), (1,), (2,), (1, 2)])),
                max_size=4))
def test_round_trip_hypothesis(entries):
    terms = {}
    for re_part, im_part, k1, k2, idx in entries:
        if not (re_part or im_part):
            continue
        key = (0, (k1, k2), idx)
        old_re, old_im = terms.get(key, (0, 0))
        terms[key] = (old_re + re_part, old_im + im_part)
    form = TorusForm(2, {k: c for k, c in terms.items() if c != (0, 0)})
    assert parse_form(form.to_text(), n=2) == form


def _bits(subset):
    return sum(1 << j for j in subset)


def test_koszul_sign_is_permutation_parity():
    subsets = [s for r in range(8) for s in combinations(range(7), r)]
    for a in subsets:
        for b in subsets:
            if not set(a) & set(b):
                assert _koszul_sign(_bits(a), _bits(b)) == permutation_sign(a + b), (a, b)


def test_sums_drop_zero_coefficients_structurally():
    rng = Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        has_t = rng.random() < 0.5
        a = rand_form(rng, n, has_t=has_t)
        b = rand_form(rng, n, has_t=has_t)
        assert (a - a).is_zero()
        assert (a - a).terms == {}
        again = (a + b) - b
        assert again == a
        assert {key for key, _ in again.items()} == {key for key, _ in a.items()}


def test_scaling_round_trip_and_text_round_trip_seeded():
    rng = Random(23)
    scalars = [Fraction(7, 3), Fraction(-5, 12), Fraction(9, 4)]
    for case in range(60):
        n = rng.randint(0, 4)
        has_t = case % 2 == 1
        a = rand_form(rng, n, has_t=has_t)
        q = scalars[case % len(scalars)]
        scaled = a * q
        numerators = [x for num in scaled.terms.values() for x in num]
        assert scaled.den > 0 and gcd(scaled.den, *numerators) == 1
        assert (a - a).den == 1
        assert scaled * (1 / q) == a
        assert parse_form(a.to_text(), n=n, has_t=has_t) == a


# -- the kernel against its reference, and its storage invariants -----------------

def _stored(form):
    return form.den, dict(form.items())


def _form_over(rng, n, has_t, den, size):
    """A form of ``size`` terms whose stored den is ``den`` (n >= 1)."""
    indices = range(0 if has_t else 1, n + 1)
    terms = {}
    while len(terms) < size:
        idx = tuple(sorted(rng.sample(indices, rng.randint(0, min(len(indices), 3)))))
        freq = tuple(rng.randint(-1, 1) for _ in range(n))
        t_exp = rng.randint(0, 2) if has_t else 0
        terms[(t_exp, freq, idx)] = (Fraction(rng.randint(-4, 4), den), Fraction(1, den))
    form = TorusForm(n, terms, has_t=has_t)
    assert (form.den, len(form.items())) == (den, size)
    return form


def test_d_is_kept_on_the_form_seeded():
    rng = Random(43)
    for case in range(40):
        n = case % 6
        form = rand_form(rng, n, 6, has_t=case % 2 == 1)
        assert form._derivative is None
        first = form.d()
        assert form.d() is first
        assert _stored(first) == reference_d(form)
        # a form built from the same terms computes its own
        twin = TorusForm(n, {(m, freq, _indices(mask)): (Fraction(re_num, form.den),
                                                         Fraction(im_num, form.den))
                             for (m, freq, mask), (re_num, im_num) in form.items()},
                         has_t=form.has_t)
        assert twin == form
        assert twin.d() is not first and twin.d() == first


def test_multiplying_by_one_returns_the_operand():
    form = rand_form(Random(5), 3, 6) * Fraction(1, 6)
    for one in (1, Fraction(1), (1, 0), (Fraction(1), Fraction(0)), Fraction(2, 2)):
        assert form * one is form
        assert one * form is form
    for other in (-1, 2, Fraction(1, 2), (1, 1), (0, 1)):
        assert form * other is not form
    assert form * 2 == form + form and form * -1 == -form


def test_torus_dimension_takes_only_ints():
    for n in (2.0, Fraction(2), "2"):
        for build in (lambda: TorusForm(n, {(0, (0, 0), (1,)): 1}),
                      lambda: TorusForm.zero(n), lambda: TorusForm.const(n, 1),
                      lambda: TorusForm.single(n, 1),
                      lambda: TorusForm.single(n, 1, freq=(0, 0), idx=(1,))):
            with pytest.raises(TypeError, match="torus dimension must be an int"):
                build()
    for build in (lambda: TorusForm(-1), lambda: TorusForm.zero(-1),
                  lambda: TorusForm.const(-1, 1), lambda: TorusForm.single(-1, 1)):
        with pytest.raises(ValueError, match="torus dimension must be >= 0"):
            build()
    assert TorusForm.const(2, 1).n == TorusForm.zero(2).n == 2


def test_an_equal_non_int_is_never_read_as_the_cached_int_key():
    # the int keys are encoded first, so a cache that ignored types would hand them back
    TorusForm.single(2, 1, freq=(1, 0))
    TorusForm.single(2, 1, freq=(1, 0), t_exp=1, has_t=True)
    for build in (lambda: TorusForm.single(2, 1, freq=(1.0, 0)),
                  lambda: TorusForm.single(2, 1, freq=(Fraction(1), 0)),
                  lambda: TorusForm.single(2, 1, freq=(1, 0), t_exp=1.0, has_t=True)):
        with pytest.raises(TypeError):
            build()


def test_kernel_matches_the_reference_kernel_seeded():
    rng = Random(31)
    sums_rng = Random(41)  # apart, so the other operands stay as they were
    for case in range(120):
        n = case % 6
        has_t = case % 12 >= 6
        a = rand_form(rng, n, 6, has_t=has_t) + rand_form(rng, n, 6, has_t=has_t)
        b = rand_form(rng, n, 6, has_t=has_t) * (Fraction(2, 3), Fraction(-1, 5))
        zero = TorusForm.zero(n, has_t)
        # the last two pairs cancel completely: (a + b) - b and a^b - a^b
        for x, y in ((a, b), (b, a), (a, zero), (a + b, -b), (a.wedge(b), (-a).wedge(b))):
            assert _stored(x + y) == reference_add(x, y)
            assert _stored(x.wedge(y)) == reference_wedge(x, y)
        for x in (a, a.d(), b.wedge(a)):
            assert _stored(x.d()) == reference_d(x)
        # a sum copies one operand and walks the other: every relation of
        # the two dens, in both size orders, and a zero operand
        m = max(n, 1)
        for dens in ((6, 6), (3, 6), (6, 3), (4, 9)):
            for sizes in ((2, 5), (5, 2)):
                x, y = (_form_over(sums_rng, m, has_t, den, size)
                        for den, size in zip(dens, sizes))
                for p, q in ((x, y), (y, x), (x, TorusForm.zero(m, has_t)),
                             (TorusForm.zero(m, has_t), x), (x, -x)):
                    assert _stored(p + q) == reference_add(p, q)
        assert (a + b) - b == a
        assert (a.wedge(b) + (-a).wedge(b)).is_zero()
        assert a.d().d().is_zero()


def _assert_normalized(form):
    numerators = [x for _, num in form.items() for x in num]
    assert all(re_num or im_num for _, (re_num, im_num) in form.items())
    assert form.den > 0 and gcd(form.den, *numerators) == 1
    if form.is_zero():
        assert form.den == 1


def _assert_stored_invariants(form):
    _assert_normalized(form)
    # d is kept on the form, normalized and equal to the reference d
    derivative = form.d()
    assert form._derivative is derivative and form.d() is derivative
    _assert_normalized(derivative)
    assert _stored(derivative) == reference_d(form)
    # a wedge reads the mask groups and keeps them on the form
    form.wedge(TorusForm.const(form.n, 1, has_t=form.has_t))
    groups = {}
    for key, num in form.items():
        groups.setdefault(key[2], []).append((key, num))
    unpack = _layout(form.n).unpack
    assert {mask: [(unpack(key), num) for key, num in group]
            for mask, group in form._groups.items()} == groups


def test_every_operation_stores_normalized_terms_seeded():
    rng = Random(37)
    for case in range(60):
        n = 1 + case % 5
        # t^m terms for m = 0..3, so slices at t = 0 drop some of them
        a = rand_form(rng, n, 6, has_t=True) + rand_form(rng, n, 4, has_t=True).mul_t(1)
        b = rand_form(rng, n, 6, has_t=True)
        flat = a.restrict_t(Fraction(1, 2)) + rand_form(rng, n, 4)
        vector = [rng.randint(-2, 2) for _ in range(n)]
        singular = [[rng.randint(-1, 1) * v for v in vector] for _ in range(n)]
        results = [
            a + b, a - b, a - a, -a, (a + b) - b, a + TorusForm.zero(n, True),
            a.wedge(b), a.wedge(b) + (-a).wedge(b), a.d(), a.d().d(),
            a * 0, a * (0, 0), a * Fraction(0), a * (Fraction(1, 2), Fraction(-2, 3)),
            a * (0, 3), a * Fraction(6, 5), flat * (Fraction(5, 4), 2),
            a.restrict_t(0), a.restrict_t(1), a.restrict_t(Fraction(2, 3)),
            a.fiber_integrate_t(), flat.fiber_integrate_circle(1 + case % n),
            flat.pullback(singular), a.pullback(singular),
            a.mul_t(2), flat.with_t(), a.with_t(), TorusForm.zero(n, True),
        ] + [a.component(k) for k in range(n + 2)]
        for result in results:
            _assert_stored_invariants(result)
        assert a * 0 == a * (0, 0) == TorusForm.zero(n, True)


# -- packed keys against the tuple-keyed oracle ----------------------------------

B = CEILING


def _fits(t_exp, freq):
    return 0 <= t_exp < B and all(-B <= k < B for k in freq)


_frequency = st.one_of(st.integers(-2, 2), st.integers(-(B - 1), B - 1),
                       st.sampled_from([-B, -(B - 1), B - 1]))
_coefficient = st.tuples(st.fractions(-3, 3, max_denominator=6),
                         st.fractions(-3, 3, max_denominator=6))


@st.composite
def _form(draw, n, has_t, frequency=_frequency):
    indices = list(range(0 if has_t else 1, n + 1))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        idx = tuple(sorted(draw(st.sets(st.sampled_from(indices), max_size=3)))) \
            if indices else ()
        t_exp = draw(st.one_of(st.integers(0, 3), st.just(B - 1))) if has_t else 0
        freq = tuple(draw(frequency) for _ in range(n))
        terms[(t_exp, freq, idx)] = draw(_coefficient)
    return TorusForm(n, terms, has_t=has_t)


def _conjugate(form):
    """The complex conjugate, built through the public constructor."""
    return TorusForm(form.n, {(m, tuple(-k for k in freq), _indices(mask)):
                              (Fraction(re_num, form.den), Fraction(-im_num, form.den))
                              for (m, freq, mask), (re_num, im_num) in form.items()},
                     has_t=form.has_t)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_kernel_matches_the_tuple_keyed_oracle(data):
    n = data.draw(st.integers(0, 6), label="n")
    has_t = data.draw(st.booleans(), label="has_t")
    a = data.draw(_form(n, has_t), label="a")
    b = data.draw(_form(n, has_t), label="b")
    assert _stored(a + b) == reference_add(a, b)
    scalar = data.draw(st.one_of(st.integers(-3, 3), _coefficient), label="scalar")
    assert _stored(a * scalar) == reference_scale(a, scalar)
    assert _stored(a.d()) == reference_d(a)
    if any(not mask1 & mask2 and not _fits(m1 + m2, tuple(map(sum, zip(k1, k2))))
           for (m1, k1, mask1), _ in a.items() for (m2, k2, mask2), _ in b.items()):
        with pytest.raises(PreconditionError):
            a.wedge(b)
    else:
        assert _stored(a.wedge(b)) == reference_wedge(a, b)
    matrix = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                                min_size=n, max_size=n), label="matrix")
    if any(not _fits(0, [sum(row[l] * freq[j] for j, row in enumerate(matrix))
                         for l in range(3 if n else 0)])
           for (_, freq, _), _ in a.items()):
        with pytest.raises(PreconditionError):
            a.pullback(matrix)
    else:
        assert _stored(a.pullback(matrix)) == reference_pullback(a, matrix)
    assert a.is_real() == reference_is_real(a)
    if all(-B < k for (_, freq, _), _ in a.items() for k in freq):
        real = a + _conjugate(a)
        assert real.is_real() and reference_is_real(real)
    if has_t:
        value = data.draw(st.fractions(-2, 2, max_denominator=4), label="t")
        # t^(B-1) at a value other than 0 and +-1 builds huge integers
        if all(m < 4 for (m, _, _), _ in a.items()) or value in (0, 1, -1):
            assert _stored(a.restrict_t(value)) == reference_restrict_t(a, value)
        assert _stored(a.fiber_integrate_t()) == reference_fiber_integrate_t(a)
    else:
        for axis in range(1, n + 1):
            assert _stored(a.fiber_integrate_circle(axis)) == \
                reference_fiber_integrate_circle(a, axis)
        for degree in range(n + 2):
            assert a.invariant_table(degree) == reference_invariant_table(a, degree)


@pytest.mark.parametrize("n", range(7))
def test_packed_keys_round_trip_at_the_range_ends(n):
    for slot in range(n + 1):  # slot 0 is the t exponent
        for value in (-B, -(B - 1), -1, 0, 1, B - 1):
            if slot == 0 and value < 0:
                continue
            freq = tuple(value if j == slot else (-1) ** j * j for j in range(1, n + 1))
            t_exp = value if slot == 0 else 1
            idx = (0,) + tuple(range(1, n + 1, 2))
            form = TorusForm.single(n, (2, -1), freq=freq, idx=idx, t_exp=t_exp, has_t=True)
            assert form.items() == [((t_exp, freq, sum(1 << j for j in idx)), (2, -1))]
            assert parse_form(form.to_text(), n=n, has_t=True) == form
    for bad in (B, -B - 1, 2 ** 40):
        if n:
            with pytest.raises(ValueError, match="frequency vector .* outside the key range"):
                TorusForm.single(n, 1, freq=(0,) * (n - 1) + (bad,))
    for bad in (B, 2 ** 40):
        with pytest.raises(ValueError, match="t exponent .* outside the key range"):
            TorusForm.single(n, 1, t_exp=bad, has_t=True)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_a_product_that_leaves_the_key_range_raises(n):
    def mode(slot, k, t_exp=0):
        return TorusForm.single(n, 1, freq=tuple(k if j == slot else 0 for j in range(1, n + 1)),
                                t_exp=t_exp, has_t=True)

    for slot in (1, n):
        for k1, k2 in ((B - 1, 1), (-B, -1), (B - 1, B - 1), (-B, -B)):
            with pytest.raises(PreconditionError):
                mode(slot, k1).wedge(mode(slot, k2))
            with pytest.raises(PreconditionError):
                mode(slot, k2).wedge(mode(slot, k1))
        # one step inside either end stays exact
        assert mode(slot, B - 2).wedge(mode(slot, 1)) == mode(slot, B - 1)
        assert mode(slot, -(B - 1)).wedge(mode(slot, -1)) == mode(slot, -B)
    with pytest.raises(PreconditionError):
        mode(1, 0, B - 1).wedge(mode(1, 0, 1))
    with pytest.raises(PreconditionError):
        mode(1, 0, B - 1).mul_t(1)
    with pytest.raises(PreconditionError):
        mode(1, 0).mul_t(B)
    assert mode(1, 0, B - 2).wedge(mode(1, 0, 1)) == mode(1, 0, B - 1) == mode(1, 0).mul_t(B - 1)
    with pytest.raises(PreconditionError):
        mode(n, B - 1).pullback([[2 if j == l else 0 for l in range(n)] for j in range(n)])
    # a derivative keeps every frequency, and the slots next to a changed one stay put
    assert mode(n, -B).d() == TorusForm.single(n, (0, -B), freq=(0,) * (n - 1) + (-B,),
                                               idx=(n,), has_t=True)


# -- shared constant forms and the checked builder -----------------------------

def _constants():
    """``(build, args, public)``: each shared constant's builder and arguments,
    beside the public constructor's form."""
    for n in range(5):
        for has_t in (False, True):
            yield TorusForm.zero, (n, has_t), TorusForm(n, {}, has_t=has_t)
            yield (TorusForm.const, (n, 1, has_t),
                   TorusForm(n, {(0, (0,) * n, ()): 1}, has_t=has_t))
            for j in range(0 if has_t else 1, n + 1):
                yield (TorusForm.dx, (n, j, has_t),
                       TorusForm(n, {(0, (0,) * n, (j,)): 1}, has_t=has_t))
        yield TorusForm.volume, (n,), TorusForm(n, {(0, (0,) * n, tuple(range(1, n + 1))): 1})


def test_shared_constants_are_one_form_each_equal_to_the_constructors():
    for build, args, public in _constants():
        first = build(*args)
        assert build(*args) is first, (build, args)
        assert first == public and first.to_text() == public.to_text(), (build, args)
        assert type(first.n) is int and type(first.has_t) is bool, (build, args)
    assert TorusForm.const(3, Fraction(1)) == TorusForm.const(3, 1)
    assert TorusForm.const(3, Fraction(1), True) == TorusForm.const(3, 1, True)
    assert TorusForm.const(3, 2) is not TorusForm.const(3, 2)
    assert TorusForm.zero(2, 1) is TorusForm.zero(2, True)


def test_shared_constants_validate_before_the_lookup():
    TorusForm.zero(2)
    for bad in (2.0, "2", Fraction(2)):
        with pytest.raises(TypeError):
            TorusForm.zero(bad)
        with pytest.raises(TypeError):
            TorusForm.const(bad, 1)
        with pytest.raises(TypeError):
            TorusForm.volume(bad)
    with pytest.raises(ValueError):
        TorusForm.zero(-1)
    with pytest.raises(ValueError):
        TorusForm.dx(2, 0)
    with pytest.raises(ValueError):
        TorusForm.dx(2, 3)
    with pytest.raises(TypeError):
        TorusForm.dx(2, 1.0)
    with pytest.raises(TypeError):
        TorusForm.const(2, 1.0)
    # a bool dimension is an int, as the constructor reads it, with its own entry
    assert TorusForm.zero(True).n is True and TorusForm.zero(1).n == 1
    assert TorusForm.zero(1).n is not True


def test_shared_constants_survive_the_suites():
    from chernforge.verify import run_suite

    shared = [(build, args, build(*args), public) for build, args, public in _constants()]
    stored = [(form.n, form.has_t, form.den, dict(form.terms)) for _, _, form, _ in shared]
    assert run_suite("calculus", 0, 20)["ok"]
    assert run_suite("odd", 0, 5)["ok"]
    for (build, args, form, public), data in zip(shared, stored):
        assert build(*args) is form, (build, args)
        assert (form.n, form.has_t, form.den, form.terms) == data, (build, args)
        assert form == public, (build, args)


def test_checked_builder_checks_every_key_as_the_constructor_does():
    # every key is checked before the terms are summed: a term whose
    # coefficient is zero, or whose duplicates cancel, is refused with
    # the error of coefficient 1, and otherwise leaves the zero form
    index_sets = ([()] + [(a,) for a in INDEX_ENTRIES]
                  + [(a, b) for a in INDEX_ENTRIES for b in INDEX_ENTRIES])
    keys = [(t_exp, freq, idx) for idx in index_sets
            for t_exp in (0, 1, -1) for freq in ((0, 0), (1, -1), (0,), (CEILING, 0))]
    parsed = 0
    for key in keys:
        t_exp, freq, idx = key
        # the keys that the text grammar writes on T^2
        text = None
        if t_exp >= 0 and len(freq) == 2 and all(type(j) is int for j in idx):
            text = f"t^{t_exp} exp[{freq[0]},{freq[1]}] d{{{','.join(map(str, idx))}}}"
        for has_t in (False, True):
            want = _outcome(lambda: TorusForm(2, {key: 1}, has_t=has_t))
            refused = not isinstance(want, TorusForm)
            builds = {
                1: [lambda: TorusForm._checked(2, has_t, 1, [(key, (1, 0))])],
                0: [lambda: TorusForm(2, {key: 0}, has_t=has_t),
                    lambda: TorusForm._checked(2, has_t, 1, [(key, (0, 0))]),
                    lambda: TorusForm._checked(2, has_t, 1, [(key, (1, 0)), (key, (-1, 0))])],
            }
            if text is not None:
                parsed += 1
                builds[1].append(lambda: parse_form(f"(1+0i) {text}", 2, has_t))
                builds[0] += [lambda: parse_form(f"(0+0i) {text}", 2, has_t),
                              lambda: parse_form(f"(1+0i) {text} + (-1+0i) {text}", 2, has_t)]
            for coeff, outcomes in builds.items():
                expected = want if coeff or refused else TorusForm.zero(2, has_t)
                for build in outcomes:
                    assert _outcome(build) == expected, (key, has_t, coeff)
            assert _outcome(lambda: reference_construct(2, {key: 0}, has_t)) == (
                want if refused else (1, {})), (key, has_t)
    assert parsed == 43 * 2 * 3 * 2  # int index sets, t exponents, T^2 frequencies, has_t
    with pytest.raises(TypeError):
        TorusForm._checked(2.0, False, 1, [])


def test_checked_builder_stores_what_the_constructor_stores():
    rng = Random(23)
    for _ in range(200):
        n, has_t = rng.randint(0, 4), rng.random() < 0.5
        den = rng.randint(1, 30)
        pairs = []
        for _ in range(rng.randint(0, 6)):
            idx = tuple(sorted(rng.sample(range(0 if has_t else 1, n + 1),
                                          rng.randint(0, min(n + has_t, 3)))))
            key = (rng.randint(0, 2) if has_t else 0,
                   tuple(rng.randint(-1, 1) for _ in range(n)), idx)
            pairs.append((key, (rng.randint(-3, 3), rng.randint(-3, 3))))
        summed = {}
        for key, (re_num, im_num) in pairs:
            re_sum, im_sum = summed.get(key, (0, 0))
            summed[key] = (re_sum + Fraction(re_num, den), im_sum + Fraction(im_num, den))
        assert TorusForm._checked(n, has_t, den, pairs) == TorusForm(n, summed, has_t=has_t)
