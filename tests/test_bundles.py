from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from oracle import chern_form, total_chern_transform

from chernforge.bundles import (BETA_RULE, PHASE_RULE, RHO_RULE, DiagBundle, LineBundle,
                                OddKCycle, checked_form)
from chernforge.forms import TorusForm
from chernforge.generators import (rand_bundle, rand_line_bundle,
                                   rand_odd_cycle, rand_phase)


def sin_one_form(n, freq, axis, amplitude=Fraction(1, 2)):
    half = Fraction(amplitude, 2)
    return TorusForm(n, {(0, freq, (axis,)): (0, -half),
                         (0, tuple(-x for x in freq), (axis,)): (0, half)})


def test_curvature_examples():
    L = LineBundle(2, K=[[0, 1], [-1, 0]])
    assert L.curvature() == TorusForm.volume(2)
    flat = LineBundle.flat(2)
    assert flat.curvature().is_zero()
    beta = sin_one_form(2, (1, 0), 2)
    L2 = LineBundle(2, K=[[0, 2], [-2, 0]], beta=beta)
    assert L2.curvature() == TorusForm.volume(2) * 2 + beta.d()
    assert L2.curvature().invariant_table(2) == {(1, 2): (2, 0)}


def test_harmonic_curvature_is_the_constructors_form_of_K():
    rng = Random(17)
    lines = [rand_line_bundle(rng, n) for n in range(7) for _ in range(10)]
    lines.append(LineBundle(2, K=((0, True), (-1, 0))))
    for line in lines:
        public = TorusForm.from_harmonic(line.n, {
            (j + 1, l + 1): line.K[j][l] for j in range(line.n) for l in range(j + 1, line.n)})
        harmonic = line.harmonic_curvature()
        assert harmonic == public and harmonic.to_text() == public.to_text()
        assert line.harmonic_curvature() is harmonic


def test_holonomy_shifts_take_only_rationals():
    assert LineBundle(2, theta=(Fraction(1, 3), 2)).theta == (Fraction(1, 3), 2)
    for bad in ((0.1, 0), ("1/3", 0), ((1, 0), 0)):
        with pytest.raises(TypeError):
            LineBundle(2, theta=bad)


def test_curvature_matrix_validation():
    with pytest.raises(ValueError):
        LineBundle(2, K=[[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        LineBundle(2, K=[[0, 1]])
    with pytest.raises(ValueError):
        LineBundle(2, beta=TorusForm.single(2, 1, freq=(1, 0), idx=(1,)))


def test_integer_data_takes_only_ints():
    # int() would store 1.5 as 1 and -1.9 as -1, an antisymmetric matrix
    with pytest.raises(TypeError):
        LineBundle(2, K=[[0, 1.5], [-1.9, 0]])
    with pytest.raises(TypeError):
        OddKCycle(2, [((1.7, '2'), None)])
    line = LineBundle(2, K=[[0, 1], [-1, 0]])
    with pytest.raises(TypeError):
        line.pullback([[0.5, 0], [0, 1]])  # int() would give zero curvature
    assert OddKCycle(2, [((1, -2), None)]).components[0][0] == (1, -2)


def test_period_integrality_invariant():
    rng = Random(31)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        line = rand_line_bundle(rng, n)
        curv = line.curvature()
        assert curv.is_closed()
        table = curv.invariant_table(2)
        for subset in combinations(range(1, n + 1), 2):
            j, l = subset
            assert table.get(subset, (0, 0)) == (line.K[j - 1][l - 1], 0)


def test_chern_character_examples():
    flat = DiagBundle.trivial(2)
    ch = flat.chern_character()
    assert ch.component(0) == TorusForm.const(2, 1)
    assert ch.component(2).is_zero()

    single = DiagBundle.of(LineBundle(2, K=[[0, 5], [-5, 0]]))
    ch = single.chern_character()
    assert ch.component(0) == TorusForm.const(2, 1)
    assert ch.component(2) == TorusForm.volume(2) * 5

    K1 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    K2 = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]]
    pair = DiagBundle.of(LineBundle(4, K=K1), LineBundle(4, K=K2))
    ch = pair.chern_character()
    assert ch.component(0) == TorusForm.const(4, 2)
    assert ch.component(4).is_zero()  # each line curvature is decomposable


def test_pfaffian_line_gives_integer_character():
    # a single line whose curvature squares to a nonzero 4-form
    K = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    line = DiagBundle.of(LineBundle(4, K=K))
    ch4 = line.chern_character().component(4)
    assert ch4 == TorusForm.single(4, 1, idx=(1, 2, 3, 4))


def test_chern_form_examples():
    K1 = [[0, 3, 0, 0], [-3, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    K2 = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 4], [0, 0, -4, 0]]
    bundle = DiagBundle.of(LineBundle(4, K=K1), LineBundle(4, K=K2))
    total = chern_form(bundle, 1)
    assert total == bundle.lines[0].curvature() + bundle.lines[1].curvature()
    c2 = chern_form(bundle, 2)
    assert c2 == TorusForm.single(4, 12, idx=(1, 2, 3, 4))


def test_chern_form_beyond_rank_vanishes():
    bundle = DiagBundle.of(LineBundle(4, K=[[0, 1, 0, 0], [-1, 0, 0, 0],
                                            [0, 0, 0, 0], [0, 0, 0, 0]]))
    assert chern_form(bundle, 2).is_zero()


def test_chern_form_route_agreement_seeded():
    rng = Random(32)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        bundle = rand_bundle(rng, n)
        for i in range(1, n // 2 + 1):
            chern_form(bundle, i)  # raises on route disagreement


def test_tensor_dual_sum_examples():
    a = LineBundle(2, K=[[0, 2], [-2, 0]])
    b = LineBundle(2, K=[[0, 3], [-3, 0]])
    # the line with the summed curvature data carries the summed curvature
    assert LineBundle(2, K=[[0, 5], [-5, 0]]).curvature() == a.curvature() + b.curvature()
    third = LineBundle.flat(2, theta=(Fraction(1, 3), 0))
    summed = DiagBundle.of(a).direct_sum(DiagBundle.of(b, third))
    assert summed.rank == 3


def test_suspend_generator():
    cycle = OddKCycle.winding(1, (1,))
    bundle, correction = cycle.suspend()
    assert bundle.n == 2 and bundle.rank == 1
    assert bundle.lines[0].K[0][1] == 1
    assert correction.is_zero()
    curv = bundle.lines[0].curvature()
    assert curv.fiber_integrate_circle(1) == TorusForm.dx(1, 1)


@pytest.mark.parametrize("m", range(-3, 4))
def test_suspend_winding(m):
    cycle = OddKCycle.winding(1, (m,))
    bundle, _ = cycle.suspend()
    curv = bundle.lines[0].curvature()
    assert curv.fiber_integrate_circle(1) == TorusForm.dx(1, 1) * m


def test_suspend_pure_phase():
    rng = Random(33)
    phase = rand_phase(rng, 2)
    while phase.is_zero():
        phase = rand_phase(rng, 2)
    cycle = OddKCycle(2, [((0, 0), phase)])
    bundle, correction = cycle.suspend()
    assert bundle.lines[0].curvature().is_zero()
    lifted = correction.fiber_integrate_circle(1)
    assert lifted == -phase  # the correction is -phase wedge the circle form
    assert correction.d().fiber_integrate_circle(1) == phase.d()


def test_suspension_bookkeeping_seeded():
    rng = Random(34)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        cycle = rand_odd_cycle(rng, n)
        bundle, correction = cycle.suspend()
        total = TorusForm.zero(bundle.n)
        for line in bundle.lines:
            total = total + line.curvature()
        total = total + correction.d()
        assert total.fiber_integrate_circle(1) == cycle.odd_chern_form()


def test_odd_chern_form_is_the_windings_plus_d_of_the_phases_seeded():
    rng = Random(35)
    for n in range(5):
        for _ in range(6):
            cycle = rand_odd_cycle(rng, n)
            # the reference sum, built one dx_l term at a time
            want = TorusForm.zero(n)
            for winding, phase in cycle.components:
                for l, m_l in enumerate(winding, start=1):
                    want = want + TorusForm.dx(n, l) * m_l
                want = want + phase.d()
            assert cycle.odd_chern_form() == want
            assert cycle.winding_form() == want - sum(
                (phase.d() for _, phase in cycle.components), TorusForm.zero(n))


def test_odd_cycle_validation():
    with pytest.raises(ValueError):
        OddKCycle(2, [((1,), None)])  # winding arity
    constant = TorusForm.const(2, Fraction(1, 2))
    with pytest.raises(ValueError):
        OddKCycle(2, [((0, 0), constant)])  # constant mode
    cos_pair = TorusForm(2, {(0, (1, 0), ()): Fraction(1, 2),
                             (0, (-1, 0), ()): Fraction(1, 2)})
    with pytest.raises(ValueError):
        OddKCycle(2, [((0, 0), cos_pair)])  # nonzero at the basepoint


def test_odd_cycle_rejects_constant_mode_vanishing_at_basepoint():
    # 1/3 - (1/3) cos(2 pi x_1): zero at the basepoint, mean 1/3
    dip = (TorusForm.const(2, Fraction(1, 3))
           + TorusForm(2, {(0, (1, 0), ()): Fraction(-1, 6),
                           (0, (-1, 0), ()): Fraction(-1, 6)}))
    assert dip.invariant_table(0) == {}
    with pytest.raises(ValueError, match="constant Fourier mode"):
        OddKCycle(2, [((1, 0), dip)])
    sine = TorusForm(2, {(0, (1, 1), ()): (0, Fraction(-1, 4)),
                         (0, (-1, -1), ()): (0, Fraction(1, 4))})
    assert OddKCycle(2, [((1, 0), sine)]).components[0][1] == sine


def test_odd_cycle_mean_check_is_a_key_look_up(monkeypatch):
    def refuse(*args):
        raise AssertionError("the mean check builds no volume form and no wedge")

    monkeypatch.setattr(TorusForm, "wedge", refuse)
    monkeypatch.setattr(TorusForm, "volume", refuse)
    for n in range(4):
        zero = (0,) * n
        assert OddKCycle(n, [(zero, None)]).components[0][1].is_zero()
        with pytest.raises(ValueError, match="constant Fourier mode"):
            OddKCycle(n, [(zero, TorusForm.const(n, 2))])
        if not n:
            continue
        step = tuple(int(j == n - 1) for j in range(n))
        back = tuple(-x for x in step)
        # sin(2 pi x_n) and 1 - cos(2 pi x_n): both vanish at the basepoint
        sine = TorusForm(n, {(0, step, ()): (0, Fraction(-1, 2)),
                             (0, back, ()): (0, Fraction(1, 2))})
        dip = TorusForm.const(n, 1) + TorusForm(n, {(0, step, ()): Fraction(-1, 2),
                                                    (0, back, ()): Fraction(-1, 2)})
        assert OddKCycle(n, [(zero, sine)]).components[0][1] == sine
        # the constant mode among three others is still found
        with pytest.raises(ValueError, match="constant Fourier mode"):
            OddKCycle(n, [(zero, sine), (zero, dip + sine)])


def test_whitney_at_form_level():
    # total Chern form of a direct sum is the product of the total forms
    rng = Random(35)
    for _ in range(15):
        n = rng.choice([4, 5, 6])
        first = rand_bundle(rng, n, max_rank=2)
        second = rand_bundle(rng, n, max_rank=2)
        combined = total_chern_transform(first.direct_sum(second).chern_character())
        product = total_chern_transform(first.chern_character()).wedge(
            total_chern_transform(second.chern_character()))
        assert combined == product


def test_pullback_bundle():
    line = LineBundle(2, K=[[0, 1], [-1, 0]], theta=(Fraction(1, 4), 0))
    doubling = [[2, 0], [0, 2]]
    pulled = line.pullback(doubling)
    assert pulled.K[0][1] == 4
    assert pulled.theta[0] == Fraction(1, 2)
    assert pulled.curvature() == line.curvature().pullback(doubling)


@pytest.mark.parametrize("rule, form", [
    (BETA_RULE, TorusForm.dx(2, 1)), (RHO_RULE, TorusForm.dx(2, 1)),
    (PHASE_RULE, TorusForm.single(2, (0, 1), freq=(1, 0))
     + TorusForm.single(2, (0, -1), freq=(-1, 0))),
], ids=["beta", "rho", "phase"])
def test_checked_form_refuses_t_data_by_content(rule, form):
    name = rule[0]
    assert checked_form(form, 2, rule) is form
    for t_data in (TorusForm.dx(2, 0), form.mul_t(1), form + TorusForm.dx(2, 0)):
        with pytest.raises(ValueError, match=f"^{name} lives on the wrong space$"):
            checked_form(t_data, 2, rule)
