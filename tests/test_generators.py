"""The case generators against the reference generators of the oracle.

``tests/oracle.py`` keeps each generator as first written, with
``randint``, ``Fraction`` and the public constructor.  From equal seeds
both must store equal forms, bundles and cycles and leave the random
stream in the same state, so every suite draws the same cases.
"""

from random import Random

import oracle
import pytest

from chernforge import generators
from chernforge.bundles import DiagBundle, KCycle, LineBundle, OddKCycle
from chernforge.forms import TorusForm

SEEDS = range(20)
DIMENSIONS = range(1, 7)
DRAWS_PER_STREAM = 3


def _data(value):
    """A drawn value's stored data, comparable with ``==`` and types included."""
    if isinstance(value, TorusForm):
        return ("form", value.n, value.has_t, value.den, value.terms, value.to_text())
    if isinstance(value, LineBundle):
        return ("line", value.n, value.K, value.theta, _data(value.beta))
    if isinstance(value, DiagBundle):
        return ("bundle", [_data(line) for line in value.lines])
    if isinstance(value, KCycle):
        return ("cycle", _data(value.bundle), _data(value.rho))
    if isinstance(value, OddKCycle):
        return ("odd", value.n, [(winding, _data(phase)) for winding, phase in value.components])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_data(item) for item in value])
    return (type(value).__name__, value)


def _arguments(name: str, n: int) -> list[tuple]:
    """The argument tuples each generator is drawn with on T^n."""
    if name == "rand_fraction":
        return [(), (2,)]
    if name == "rand_subset":
        return [(n, size) for size in range(n + 1)]
    if name in ("rand_form", "rand_homogeneous"):
        sizes = [(4,), (8,)] if name == "rand_form" else [(degree, 3) for degree in range(n + 3)]
        return [(n, *size, has_t) for size in sizes for has_t in (False, True)]
    if name == "rand_real_form":
        return [(n, degree, *rest) for degree in range(n + 2)
                for rest in ((), (1, False))]
    if name in ("rand_bundle", "rand_cycle"):
        return [(n,), (n, 2)]
    if name == "rand_int_matrix":
        return [(n, m) for m in (1, 2, 3)]
    return [(n,)]


GENERATORS = ("rand_fraction", "rand_frequency", "rand_subset", "rand_form",
              "rand_homogeneous", "rand_real_form", "rand_line_bundle", "rand_bundle",
              "rand_odd_real_form", "rand_cycle", "rand_phase", "rand_odd_cycle",
              "rand_int_matrix", "rand_integral_shift")


def test_every_public_generator_is_covered():
    public = {name for name in vars(generators)
              if name.startswith("rand_") and callable(getattr(generators, name))}
    assert public == set(GENERATORS)


@pytest.mark.parametrize("name", GENERATORS)
def test_generators_draw_the_reference_stream(name):
    draw, reference = getattr(generators, name), getattr(oracle, f"reference_{name}")
    for n in DIMENSIONS:
        for arguments in _arguments(name, n):
            for seed in SEEDS:
                rng, reference_rng = Random(seed), Random(seed)
                for _ in range(DRAWS_PER_STREAM):
                    drawn, expected = draw(rng, *arguments), reference(reference_rng, *arguments)
                    assert _data(drawn) == _data(expected), (name, arguments, seed)
                    assert rng.getstate() == reference_rng.getstate(), (name, arguments, seed)
