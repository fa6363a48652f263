"""Deterministic pseudo-random instance generation for the test suites.

All generators draw from a caller-supplied ``random.Random`` so the
same seed reproduces the same case stream.  Distributions are bounded
for exact-arithmetic cost: torus dimension at most 6, curvature entries
in [-3, 3], at most 4 Fourier modes per form, denominators at most 12.

Each drawn number is one RNG call: a fixed range is a module-level
tuple that ``rng.choice`` indexes, which consumes the stream exactly as
``rng.randint`` over the same range does (both are ``lo +
_randbelow(width)``).  Coefficients are drawn as int numerators over
their drawn denominators, and each generated form is one
``TorusForm._checked`` call over the common denominator ``_DEN``, which
builds through the public constructor's builder, so its keys pass the
constructor's checks.  ``tests/oracle.py`` keeps
the generators as they were written with ``randint``, ``Fraction`` and
the public constructor, and a tier-1 test pins every stream to them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from random import Random

from .bundles import DiagBundle, KCycle, LineBundle, OddKCycle
from .forms import TorusForm

MAX_CURVATURE = 3
MAX_DENOMINATOR = 12
MAX_MODES = 4
MAX_T_EXPONENT = 2

# the fixed ranges drawn from, each as the tuple that rng.choice indexes
_NUMERATORS = tuple(range(-3, 4))
_SMALL = tuple(range(-2, 3))  # matrix entries and integral shifts
_DENOMINATORS = tuple(range(1, MAX_DENOMINATOR + 1))
_CURVATURES = tuple(range(-MAX_CURVATURE, MAX_CURVATURE + 1))
_FREQUENCIES = (-1, 0, 1)
_T_EXPONENTS = tuple(range(MAX_T_EXPONENT + 1))
_FEW = (0, 1, 2)  # mode counts of phases and integral shifts
_COMPONENTS = (1, 2)
# every drawn denominator q divides _DEN, so a draw may pick _DEN // q
_DEN = lcm(*_DENOMINATORS)
_COFACTORS = tuple(_DEN // q for q in _DENOMINATORS)


def rand_fraction(rng: Random, max_num: int = 3) -> Fraction:
    return Fraction(rng.choice(range(-max_num, max_num + 1)), rng.choice(_DENOMINATORS))


def _rand_numerator(rng: Random) -> int:
    """The draws of ``rand_fraction(rng)`` as a numerator over ``_DEN``."""
    return rng.choice(_NUMERATORS) * rng.choice(_COFACTORS)


def rand_frequency(rng: Random, n: int) -> tuple[int, ...]:
    """A non-zero vector in [-1, 1]^n; none exists for n < 1."""
    if n < 1:
        raise ValueError(f"no non-zero frequency vector on T^{n}")
    choice = rng.choice
    while True:
        freq = tuple([choice(_FREQUENCIES) for _ in range(n)])
        if any(freq):
            return freq


def rand_subset(rng: Random, n: int, size: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1, n + 1), size)))


def rand_form(rng: Random, n: int, max_terms: int = MAX_MODES,
              has_t: bool = False) -> TorusForm:
    """General (complex) form with a handful of small Fourier modes."""
    choice = rng.choice
    terms = []
    indices = list(range(0 if has_t else 1, n + 1))
    for _ in range(rng.randint(1, max_terms)):
        re_num, im_num = _rand_numerator(rng), _rand_numerator(rng)
        if not (re_num or im_num):
            continue
        freq = tuple([choice(_FREQUENCIES) for _ in range(n)])
        size = rng.randint(0, min(len(indices), 3))
        idx = tuple(sorted(rng.sample(indices, size)))
        t_exp = choice(_T_EXPONENTS) if has_t else 0
        terms.append(((t_exp, freq, idx), (re_num, im_num)))
    return TorusForm._checked(n, has_t, _DEN, terms)


def rand_homogeneous(rng: Random, n: int, degree: int, max_terms: int = 3,
                     has_t: bool = False) -> TorusForm:
    """Complex form of one pure degree (dt counts toward the degree)."""
    indices = list(range(0 if has_t else 1, n + 1))
    if degree > len(indices):
        return TorusForm.zero(n, has_t=has_t)
    choice = rng.choice
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        re_num, im_num = _rand_numerator(rng), _rand_numerator(rng)
        if not (re_num or im_num):
            continue
        idx = tuple(sorted(rng.sample(indices, degree)))
        freq = tuple([choice(_FREQUENCIES) for _ in range(n)])
        t_exp = choice(_T_EXPONENTS) if has_t else 0
        terms.append(((t_exp, freq, idx), (re_num, im_num)))
    return TorusForm._checked(n, has_t, _DEN, terms)


def _real_terms(rng: Random, n: int, degree: int, max_modes: int,
                allow_harmonic: bool) -> list:
    """The terms of :func:`rand_real_form` over ``_DEN``, in draw order."""
    terms = []
    for _ in range(rng.randint(0, max_modes)):
        idx = rand_subset(rng, n, degree)
        freq = rand_frequency(rng, n)
        re_num, im_num = _rand_numerator(rng), _rand_numerator(rng)
        if not (re_num or im_num):
            continue
        terms.append(((0, freq, idx), (re_num, im_num)))
        terms.append(((0, tuple([-x for x in freq]), idx), (re_num, -im_num)))
    if allow_harmonic and rng.random() < 0.7:
        num = _rand_numerator(rng)
        if num:
            terms.append(((0, (0,) * n, rand_subset(rng, n, degree)), (num, 0)))
    return terms


def rand_real_form(rng: Random, n: int, degree: int,
                   max_modes: int = 2, allow_harmonic: bool = True) -> TorusForm:
    """Real form of a pure degree: conjugate-symmetric mode pairs plus an
    optional translation-invariant part."""
    if degree > n:
        return TorusForm.zero(n)
    return TorusForm._checked(n, False, _DEN,
                              _real_terms(rng, n, degree, max_modes, allow_harmonic))


def rand_line_bundle(rng: Random, n: int) -> LineBundle:
    choice = rng.choice
    K = [[0] * n for _ in range(n)]
    for j in range(n):
        for l in range(j + 1, n):
            value = choice(_CURVATURES)
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
    if n < 1:
        return TorusForm.zero(n)
    terms = _real_terms(rng, n, 1, max_modes, True)
    if n >= 3 and rng.random() < 0.5:
        terms += _real_terms(rng, n, 3, 1, True)
    return TorusForm._checked(n, False, _DEN, terms)


def rand_cycle(rng: Random, n: int, max_rank: int = 3) -> KCycle:
    rho = rand_odd_real_form(rng, n)  # drawn first: each seed's case stream depends on it
    return KCycle(rand_bundle(rng, n, max_rank), rho)


def rand_phase(rng: Random, n: int) -> TorusForm:
    """Real sine polynomial: no constant mode and vanishing at the basepoint."""
    terms = []
    for _ in range(rng.choice(_FEW)):
        freq = rand_frequency(rng, n)
        # the amplitude over _DEN, so that half of it is over 2 * _DEN
        amp = _rand_numerator(rng)
        if not amp:
            continue
        terms.append(((0, freq, ()), (0, -amp)))
        terms.append(((0, tuple([-x for x in freq]), ()), (0, amp)))
    return TorusForm._checked(n, False, 2 * _DEN, terms)


def rand_odd_cycle(rng: Random, n: int) -> OddKCycle:
    choice = rng.choice
    components = []
    for _ in range(choice(_COMPONENTS)):
        winding = tuple([choice(_CURVATURES) for _ in range(n)])
        components.append((winding, rand_phase(rng, n)))
    return OddKCycle(n, components)


def rand_int_matrix(rng: Random, target_dim: int, source_dim: int) -> list[list[int]]:
    choice = rng.choice
    return [[choice(_SMALL) for _ in range(source_dim)]
            for _ in range(target_dim)]


def rand_integral_shift(rng: Random, n: int) -> TorusForm:
    """Closed odd form with integer periods: integer harmonic part plus an
    exact perturbation."""
    zero = (0,) * n
    terms = []
    for _ in range(rng.choice(_FEW)):
        coeff = rng.choice(_SMALL)
        terms.append(((0, zero, rand_subset(rng, n, 1)), (coeff, 0)))
    if n >= 3 and rng.random() < 0.4:
        coeff = rng.choice(_SMALL)
        terms.append(((0, zero, rand_subset(rng, n, 3)), (coeff, 0)))
    exact = rand_real_form(rng, n, 0, max_modes=1, allow_harmonic=False).d()
    return TorusForm._checked(n, False, 1, terms) + exact
