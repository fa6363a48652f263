from fractions import Fraction
from random import Random

import pytest

from chernforge.bundles import KCycle, OddKCycle
from chernforge.config import parse_config, serialize_config
from chernforge.errors import ConfigError
from chernforge.forms import parse_form
from chernforge.generators import rand_cycle, rand_odd_cycle

EXAMPLE = """\
# line bundle with curvature 3 and a holonomy shift
dim = 2
indices = 1

[line]
K = 0 3 / -3 0
theta = 1/3 0
beta = (0-1/4i) exp[1,0] d{1} + (0+1/4i) exp[-1,0] d{1}

[rho]
terms = (1/5+0i) exp[0,0] d{1}

[component]
winding = 2 0
phase = (0-1/4i) exp[1,0] d{} + (0+1/4i) exp[-1,0] d{}
"""


def _line_data(cycle: KCycle) -> list:
    return [(line.K, line.theta, line.beta) for line in cycle.bundle.lines]


def test_parse_example():
    indices, cycle, odd = parse_config(EXAMPLE)
    assert cycle.n == odd.n == 2
    assert indices == [1]
    assert len(cycle.bundle.lines) == 1
    assert cycle.bundle.lines[0].K == ((0, 3), (-3, 0))
    assert cycle.bundle.lines[0].theta == (Fraction(1, 3), 0)
    assert cycle.bundle.lines[0].beta.is_real()
    assert cycle.rho == parse_form("(1/5+0i) exp[0,0] d{1}", n=2)
    assert len(odd.components) == 1
    assert odd.components[0][0] == (2, 0)


def test_build_cycle_and_odd_cycle():
    _, cycle, odd = parse_config(EXAMPLE)
    assert isinstance(cycle, KCycle) and isinstance(odd, OddKCycle)
    assert cycle.bundle.lines[0].K[0][1] == 3
    assert odd.components[0][1] == parse_form(
        "(0-1/4i) exp[1,0] d{} + (0+1/4i) exp[-1,0] d{}", n=2)


def test_serializer_round_trip():
    indices, cycle, odd = parse_config(EXAMPLE)
    text = serialize_config(cycle, indices)
    again_indices, again, _ = parse_config(text)
    assert serialize_config(again, again_indices) == text
    assert again_indices == indices
    assert _line_data(again) == _line_data(cycle)  # K, theta and beta
    assert again.rho == cycle.rho
    odd_text = serialize_config(odd)
    _, _, odd_again = parse_config(odd_text)
    assert odd_again.components == odd.components  # windings and phases
    assert serialize_config(odd_again) == odd_text


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_cycles_round_trip(seed):
    rng = Random(seed)
    for n in range(7):
        cycle = rand_cycle(rng, n)
        text = serialize_config(cycle, [1, 2])
        indices, again, _ = parse_config(text)
        assert indices == [1, 2]
        assert _line_data(again) == _line_data(cycle)
        assert again.rho == cycle.rho
        assert serialize_config(again, indices) == text
        odd = rand_odd_cycle(rng, n)  # on T^0 every phase is zero
        text = serialize_config(odd)
        _, _, again = parse_config(text)
        assert again.components == odd.components
        assert serialize_config(again) == text


def test_unknown_key_reports_line():
    bad = "dim = 2\nbogus = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.line == 2


def test_form_error_reports_line():
    bad = "dim = 2\n[rho]\nterms = (1+0i exp[0,0] d{1}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.line == 3


@pytest.mark.parametrize("text, message", [
    ("dim = 2\n[line]\nbeta = (0+0i) t^1 exp[0,0] d{1}\n",
     "line 3: connection perturbation lives on the wrong space"),
    ("dim = 2\n[rho]\nterms = (1+0i) exp[0,0] d{1} + (1+0i) exp[0,0] d{t}\n",
     "line 3: cycle form lives on the wrong space"),
    # t data is named before a degree, as the form check of the constructor names it
    ("dim = 2\n[component]\nwinding = 1 0\nphase = (1+0i) exp[1,0] d{1} + (1+0i) exp[1,0] d{t}\n",
     "line 4: phase lives on the wrong space"),
], ids=["beta", "rho", "phase"])
def test_written_t_data_names_the_datum(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, line", [
    ("dim = 2\n[line]\ntheta = 1/0 0\n", 3),
    ("dim = 2\n[line]\nbeta = (1/0+0i) exp[0,0] d{1}\n", 3),
    ("dim = 2\n\n[rho]\nterms = (1/0+0i) exp[0,0] d{1}\n", 4),
    ("dim = 2\n[component]\nwinding = 1 0\nphase = (0+1/0i) exp[1,0] d{}\n", 4),
], ids=["theta", "beta", "rho", "phase"])
def test_zero_denominator_reports_line(text, line):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line


@pytest.mark.parametrize("token", ["0.5", "1e-2", "+1/3", ".5", "1_0", "\uff11", "1/0"])
def test_theta_takes_only_integer_or_ratio_tokens(token):
    with pytest.raises(ConfigError) as err:
        parse_config(f"dim = 2\n[line]\ntheta = {token} 0\n")
    assert err.value.line == 3
    assert str(err.value) == f"line 3: expected a rational, got {token!r}"


def test_theta_reads_signed_ratios():
    _, cycle, _ = parse_config("dim = 2\n[line]\ntheta = -1/2 3\n")
    assert cycle.bundle.lines[0].theta == (Fraction(-1, 2), 3)


@pytest.mark.parametrize("text, line, token", [
    ("dim = +1\n", 1, "+1"),
    ("dim = 1_0\n", 1, "1_0"),
    ("dim = \uff12\n", 1, "\uff12"),
    ("dim = 2.0\n", 1, "2.0"),
    ("dim = 2\nindices = +1\n", 2, "+1"),
    ("dim = 2\nindices = 1_0\n", 2, "1_0"),
    ("dim = 2\nindices = \uff11\n", 2, "\uff11"),
    ("dim = 2\n[line]\nK = 0 +1 / -1 0\n", 3, "+1"),
    ("dim = 2\n[line]\nK = 0 1_0 / -1_0 0\n", 3, "1_0"),
    ("dim = 2\n[line]\nK = 0 \uff11 / -1 0\n", 3, "\uff11"),
    ("dim = 2\n[component]\nwinding = +1 0\n", 3, "+1"),
    ("dim = 2\n[component]\nwinding = 1_0 0\n", 3, "1_0"),
    ("dim = 2\n[component]\nwinding = \uff12 0\n", 3, "\uff12"),
])
def test_integers_take_only_ascii_digits(text, line, token):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == f"line {line}: expected an integer, got {token!r}"


@pytest.mark.parametrize("terms", [
    "(1+0i) exp[+1,0] d{1}", "(1+0i) exp[1_0,0] d{1}", "(1+0i) exp[\uff12,0] d{1}",
    "(1+0i) exp[1,0] d{+1}", "(1+0i) exp[1,0] d{\uff11}", "(1+0i) exp[1,,0] d{1}",
    "(1+0i) exp[1073741824,0] d{1}", "(1+0i) exp[0,-1073741825] d{1}",
    "(1+0i) exp[99999999999999999999999,0] d{1}",
], ids=["plus", "underscore", "full-width", "index plus", "index full-width",
        "empty entry", "ceiling", "below the floor", "huge"])
def test_form_integers_take_only_ascii_digits_below_the_ceiling(terms):
    with pytest.raises(ConfigError) as err:
        parse_config(f"dim = 2\n[rho]\nterms = {terms}\n")
    assert err.value.line == 3


def test_frequencies_reach_the_floor_and_one_below_the_ceiling():
    terms = "(1+0i) exp[1073741823,0] d{1} + (1+0i) exp[-1073741823,0] d{1}"
    _, cycle, _ = parse_config(f"dim = 2\n[rho]\nterms = {terms}\n")
    assert cycle.rho.to_text() == "\n".join(reversed(terms.split(" + ")))
    assert parse_config(serialize_config(cycle))[1].rho == cycle.rho
    # the floor is read, but its conjugate 2^30 is out of range, so a
    # form that holds it is not real: the block refuses it on its header
    with pytest.raises(ConfigError) as err:
        parse_config("dim = 2\n[rho]\nterms = (1+0i) exp[0,-1073741824] d{1}\n")
    assert str(err.value) == "line 2: cycle form must be real"


@pytest.mark.parametrize("text, line, named", [
    ("dim = 2\ndim = 3\n", 2, "'dim'"),
    ("dim = 2\nindices = 1\nindices = 1\n", 3, "'indices'"),
    ("dim = 2\n[line]\nK = 0 1 / -1 0\nK = 0 2 / -2 0\n", 4, "'K' given twice in [line]"),
    ("dim = 1\n[line]\ntheta = 0\ntheta = 1/2\n", 4, "'theta'"),
    ("dim = 2\n[component]\nwinding = 1 0\nwinding = 0 1\n", 4, "'winding'"),
    ("dim = 2\n[rho]\nterms = (1+0i) exp[0,0] d{1}\nterms = (1+0i) exp[0,0] d{2}\n",
     4, "'terms' given twice in [rho]"),
    ("dim = 2\n[rho]\nterms = (1+0i) exp[0,0] d{1}\n[rho]\nterms = (1+0i) exp[0,0] d{2}\n",
     4, "[rho] given twice"),
], ids=["dim", "indices", "K", "theta", "winding", "terms", "rho"])
def test_a_key_or_rho_given_twice_is_an_error(text, line, named):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line
    assert named in str(err.value)


def test_each_block_takes_its_keys_once():
    _, cycle, odd = parse_config("dim = 2\n[line]\nK = 0 1 / -1 0\n[line]\nK = 0 2 / -2 0\n"
                                 "[component]\nwinding = 1 0\n[component]\nwinding = 0 1\n")
    assert [line.K[0][1] for line in cycle.bundle.lines] == [1, 2]
    assert [winding for winding, _ in odd.components] == [(1, 0), (0, 1)]


def test_parse_form_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_form("(1/0+0i) exp[0,0] d{1}", n=2)


def test_missing_dim():
    with pytest.raises(ConfigError):
        parse_config("indices = 1\n")


@pytest.mark.parametrize("key", ["degree", "seed", "cases", "format"])
def test_unread_keys_are_unknown(key):
    # no command reads these from a config, so the grammar does not accept them
    with pytest.raises(ConfigError) as err:
        parse_config(f"dim = 2\n{key} = 9\n")
    assert err.value.line == 2
    assert repr(key) in str(err.value)


@pytest.mark.parametrize("text, line, value", [
    ("dim = -1\n", 1, -1),
    ("# comment\n\ndim = -12\n[line]\nK = 0 1 / -1 0\n", 3, -12),
    ("indices = 1\ndim = -3\n[component]\nwinding = 1 0 0\n", 2, -3),
])
def test_a_negative_dim_is_refused_on_its_line(text, line, value):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: dim must be >= 0, got {value}"


def test_dim_zero_is_a_torus():
    assert parse_config("dim = 0\n")[1].n == 0
    assert parse_config("dim = -0\n")[2].n == 0


def test_dim_required_before_forms():
    bad = "[rho]\nterms = (1+0i) exp[0,0] d{1}\ndim = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert str(err.value) == "line 1: 'dim' must be set before any block"


def test_unknown_section():
    with pytest.raises(ConfigError) as err:
        parse_config("dim = 2\n[mystery]\n")
    assert err.value.line == 2


def test_default_bundle_is_trivial_line():
    _, cycle, odd = parse_config("dim = 3\n")
    assert cycle.bundle.rank == 1
    assert cycle.bundle.lines[0].curvature().is_zero()
    assert cycle.rho.is_zero()
    assert odd.components == ()
