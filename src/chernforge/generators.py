"""Deterministic pseudo-random instance generation for the test suites.

All generators draw from a caller-supplied ``random.Random`` so the
same seed reproduces the same case stream.  Distributions are bounded
for exact-arithmetic cost: torus dimension at most 6, curvature entries
in [-3, 3], at most 4 Fourier modes per form, denominators at most 12.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .bundles import DiagBundle, KCycle, LineBundle, OddKCycle
from .forms import TorusForm, _accumulate

MAX_CURVATURE = 3
MAX_DENOMINATOR = 12
MAX_MODES = 4
MAX_T_EXPONENT = 2


def rand_fraction(rng: Random, max_num: int = 3) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, MAX_DENOMINATOR))


def rand_frequency(rng: Random, n: int) -> tuple[int, ...]:
    """A non-zero vector in [-1, 1]^n; none exists for n < 1."""
    if n < 1:
        raise ValueError(f"no non-zero frequency vector on T^{n}")
    while True:
        freq = tuple(rng.randint(-1, 1) for _ in range(n))
        if any(freq):
            return freq


def rand_subset(rng: Random, n: int, size: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1, n + 1), size)))


def rand_form(rng: Random, n: int, max_terms: int = MAX_MODES,
              has_t: bool = False) -> TorusForm:
    """General (complex) form with a handful of small Fourier modes."""
    terms = []
    indices = list(range(0 if has_t else 1, n + 1))
    for _ in range(rng.randint(1, max_terms)):
        re_part, im_part = rand_fraction(rng), rand_fraction(rng)
        if not (re_part or im_part):
            continue
        freq = tuple(rng.randint(-1, 1) for _ in range(n))
        size = rng.randint(0, min(len(indices), 3))
        idx = tuple(sorted(rng.sample(indices, size)))
        t_exp = rng.randint(0, MAX_T_EXPONENT) if has_t else 0
        terms.append(((t_exp, freq, idx), (re_part, im_part)))
    return TorusForm(n, _accumulate({}, terms), has_t=has_t)


def rand_homogeneous(rng: Random, n: int, degree: int, max_terms: int = 3,
                     has_t: bool = False) -> TorusForm:
    """Complex form of one pure degree (dt counts toward the degree)."""
    indices = list(range(0 if has_t else 1, n + 1))
    if degree > len(indices):
        return TorusForm.zero(n, has_t=has_t)
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        re_part, im_part = rand_fraction(rng), rand_fraction(rng)
        if not (re_part or im_part):
            continue
        idx = tuple(sorted(rng.sample(indices, degree)))
        freq = tuple(rng.randint(-1, 1) for _ in range(n))
        t_exp = rng.randint(0, MAX_T_EXPONENT) if has_t else 0
        terms.append(((t_exp, freq, idx), (re_part, im_part)))
    return TorusForm(n, _accumulate({}, terms), has_t=has_t)


def rand_real_form(rng: Random, n: int, degree: int,
                   max_modes: int = 2, allow_harmonic: bool = True) -> TorusForm:
    """Real form of a pure degree: conjugate-symmetric mode pairs plus an
    optional translation-invariant part."""
    if degree > n:
        return TorusForm.zero(n)
    total = TorusForm.zero(n)
    for _ in range(rng.randint(0, max_modes)):
        idx = rand_subset(rng, n, degree)
        freq = rand_frequency(rng, n)
        re_part, im_part = rand_fraction(rng), rand_fraction(rng)
        if not (re_part or im_part):
            continue
        pair = TorusForm(n, {(0, freq, idx): (re_part, im_part),
                             (0, tuple(-x for x in freq), idx): (re_part, -im_part)})
        total = total + pair
    if allow_harmonic and rng.random() < 0.7:
        coeff = rand_fraction(rng)
        if coeff:
            total = total + TorusForm.single(n, coeff, idx=rand_subset(rng, n, degree))
    return total


def rand_line_bundle(rng: Random, n: int) -> LineBundle:
    K = [[0] * n for _ in range(n)]
    for j in range(n):
        for l in range(j + 1, n):
            value = rng.randint(-MAX_CURVATURE, MAX_CURVATURE)
            K[j][l] = value
            K[l][j] = -value
    theta = tuple(rand_fraction(rng, max_num=2) for _ in range(n))
    beta = rand_real_form(rng, n, 1, max_modes=1, allow_harmonic=False)
    return LineBundle(n, K, theta, beta)


def rand_bundle(rng: Random, n: int, max_rank: int = 3) -> DiagBundle:
    rank = rng.randint(1, max_rank)
    return DiagBundle([rand_line_bundle(rng, n) for _ in range(rank)])


def rand_odd_real_form(rng: Random, n: int, max_modes: int = 2) -> TorusForm:
    """Inhomogeneous odd real form: degree-1 part, degree-3 part when it fits."""
    total = rand_real_form(rng, n, 1, max_modes=max_modes)
    if n >= 3 and rng.random() < 0.5:
        total = total + rand_real_form(rng, n, 3, max_modes=1)
    return total


def rand_cycle(rng: Random, n: int, max_rank: int = 3) -> KCycle:
    rho = rand_odd_real_form(rng, n)  # drawn first: each seed's case stream depends on it
    return KCycle(rand_bundle(rng, n, max_rank), rho)


def rand_phase(rng: Random, n: int) -> TorusForm:
    """Real sine polynomial: no constant mode and vanishing at the basepoint."""
    total = TorusForm.zero(n)
    for _ in range(rng.randint(0, 2)):
        freq = rand_frequency(rng, n)
        amp = rand_fraction(rng)
        if not amp:
            continue
        half = Fraction(amp, 2)
        pair = TorusForm(n, {(0, freq, ()): (0, -half),
                             (0, tuple(-x for x in freq), ()): (0, half)})
        total = total + pair
    return total


def rand_odd_cycle(rng: Random, n: int) -> OddKCycle:
    components = []
    for _ in range(rng.randint(1, 2)):
        winding = tuple(rng.randint(-MAX_CURVATURE, MAX_CURVATURE) for _ in range(n))
        components.append((winding, rand_phase(rng, n)))
    return OddKCycle(n, components)


def rand_int_matrix(rng: Random, target_dim: int, source_dim: int) -> list[list[int]]:
    return [[rng.randint(-2, 2) for _ in range(source_dim)]
            for _ in range(target_dim)]


def rand_integral_shift(rng: Random, n: int) -> TorusForm:
    """Closed odd form with integer periods: integer harmonic part plus an
    exact perturbation."""
    total = TorusForm.zero(n)
    for _ in range(rng.randint(0, 2)):
        total = total + TorusForm.single(n, rng.randint(-2, 2),
                                         idx=rand_subset(rng, n, 1))
    if n >= 3 and rng.random() < 0.4:
        total = total + TorusForm.single(n, rng.randint(-2, 2),
                                         idx=rand_subset(rng, n, 3))
    exact = rand_real_form(rng, n, 0, max_modes=1, allow_harmonic=False).d()
    return total + exact
