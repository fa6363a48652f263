"""Structured-text configuration for the command-line front end.

The format is line oriented: ``key = value`` pairs, ``[line]``,
``[rho]`` and ``[component]`` section headers, ``#`` comments.  Integers
are ASCII digits with an optional ``-`` (``forms._INT_RE``), exact
rationals are written ``p`` or ``p/q``; differential forms use the term
grammar ``(a+bi) t^m exp[k1,...,kn] d{t,1,3}`` with terms joined by
``+``.  A key may be given once per block and ``[rho]`` once per file;
``dim`` comes before the first block.

``parse_config`` reads the text straight into cycles, so every block is
checked, whatever the command: each ``[line]`` and ``[component]``
block is built by its constructor when the block ends, and ``[rho]``
with the cycle at the end of the file.  Every error names its 1-based
line: a parse error or a written form term of the wrong degree (also
one whose coefficient is zero or whose duplicates cancel) names the
key's line, a ``dim`` above ``MAX_DIM`` its own line, before any later
error, and cycle data that the ``bundles`` constructors refuse names
the header of the block it came from.  ``serialize_config`` writes a
cycle as text: cycle -> text -> equal cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Optional

from .bundles import DiagBundle, KCycle, LineBundle, OddKCycle
from .errors import ConfigError, PreconditionError
from .forms import _INT_RE, _RATIONAL_RE, TorusForm, _ratio, parse_form


# The largest torus dimension a config may give.  Cost grows about 2.5x
# per dimension: with Python 3.11 on a 2-core Xeon, a rank-3 config with
# a few Fourier modes takes 4.7 s and 95 MiB on T^12 and 11.9 s and
# 174 MiB on T^13, and a report lists 2^(dim-1) holonomies, 17.6 MB at
# dim = 20.  It is checked on the ``dim`` line, before a block builds a
# dim x dim curvature matrix.
MAX_DIM = 12


@contextmanager
def _cycle_data(lineno: Optional[int]):
    # constructors reject malformed cycle data with ValueError; to the
    # front end that is bad input, like any other config error
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc), lineno) from None


def _parse_int(value: str, lineno: int) -> int:
    if not _INT_RE.fullmatch(value):
        raise ConfigError(f"expected an integer, got {value!r}", lineno)
    return int(value)


def _parse_int_list(value: str, lineno: int) -> list[int]:
    return [_parse_int(tok, lineno) for tok in value.split()]


def _parse_dim(value: str, lineno: int) -> int:
    dim = _parse_int(value, lineno)
    if dim < 0:
        raise ConfigError(f"dim must be >= 0, got {dim}", lineno)
    if dim > MAX_DIM:
        raise PreconditionError(f"dim = {dim} exceeds the ceiling {MAX_DIM}")
    return dim


def _parse_indices(value: str, lineno: int) -> list[int]:
    indices = _parse_int_list(value, lineno)
    if not indices:
        raise ConfigError("'indices' lists no index", lineno)
    return indices


def _parse_rationals(value: str, lineno: int) -> list[Fraction]:
    # the tokens a form coefficient takes, ``p`` or ``p/q``; 1/0 is refused
    out = []
    for tok in value.split():
        try:
            if _RATIONAL_RE.fullmatch(tok):
                out.append(Fraction(_ratio(tok, tok)))
                continue
        except ValueError:
            pass
        raise ConfigError(f"expected a rational, got {tok!r}", lineno)
    return out


def _parse_matrix(value: str, lineno: int) -> list[list[int]]:
    rows = [row.strip() for row in value.split("/")]
    return [_parse_int_list(row, lineno) for row in rows if row]


# the keys of each block, with the parser of their values; a form
# (None) is read by ``_parse_form_value``
_KEYS = {
    None: {"dim": _parse_dim, "indices": _parse_indices},
    "line": {"K": _parse_matrix, "theta": _parse_rationals, "beta": None},
    "rho": {"terms": None},
    "component": {"winding": _parse_int_list, "phase": None},
}

# the degree each form key takes, and the message of the constructor
# that checks it; ``parse_config`` checks the written terms, so a term
# whose coefficient is zero or whose duplicates cancel is refused too
_FORM_DEGREES = {
    "beta": (lambda degree: degree == 1, "connection perturbation must be a 1-form"),
    "terms": (lambda degree: degree % 2 == 1, "cycle form must have odd degrees"),
    "phase": (lambda degree: degree == 0, "phase must be a function"),
}


def _parse_form_value(key: str, value: str, dim: int, lineno: int) -> TorusForm:
    try:
        form = parse_form(value, n=dim, has_t=False)
    except ValueError as exc:
        raise ConfigError(str(exc), lineno) from None
    # every term of a text that parse_form has read matches forms._TERM_RE,
    # where only the index list opens with ``d{``
    takes, message = _FORM_DEGREES[key]
    for piece in value.split("d{")[1:]:
        index_list = piece.partition("}")[0]
        if not takes(index_list.count(",") + 1 if index_list.strip() else 0):
            raise ConfigError(message, lineno)
    return form


def _end_block(section: str, block: dict, dim: int, lineno: int):
    """The data of a finished block, checked by its constructor.

    A refusal names the block's header, ``lineno``.  ``[rho]`` is kept
    with that line, to be checked when the cycle is built.
    """
    if section == "rho":
        return block.get("terms"), lineno
    if section == "component" and "winding" not in block:
        raise ConfigError("odd component is missing 'winding'", lineno)
    with _cycle_data(lineno):
        if section == "line":
            return LineBundle(dim, block.get("K"), block.get("theta"), block.get("beta"))
        return OddKCycle(dim, [(block["winding"], block.get("phase"))]).components[0]


def parse_config(text: str) -> tuple[list[int], KCycle, OddKCycle]:
    """Read a config into ``(indices, cycle, odd_cycle)``.

    ``indices`` is empty when the config gives none.  ``cycle`` has one
    trivial line when there is no ``[line]`` block, and ``odd_cycle`` no
    component when there is no ``[component]`` block.  A ``dim`` above
    ``MAX_DIM`` raises ``PreconditionError``, any other fault
    ``ConfigError``.
    """
    top: dict = {}
    section, header, block = None, None, top
    built: dict = {"line": [], "rho": [], "component": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if section is not None:
                built[section].append(_end_block(section, block, top["dim"], header))
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            if "dim" not in top:
                raise ConfigError("'dim' must be set before any block", lineno)
            if section == "rho" and built["rho"]:
                raise ConfigError("section [rho] given twice", lineno)
            header, block = lineno, {}
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno, raw.index(raw.strip()[0]) + 1)
        key, value = (part.strip() for part in line.split("=", 1))
        where = f" in [{section}]" if section else ""
        if key in block:
            raise ConfigError(f"key {key!r} given twice{where}", lineno)
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key {key!r}{where}", lineno)
        parse = _KEYS[section][key]
        block[key] = parse(value, lineno) if parse else \
            _parse_form_value(key, value, top["dim"], lineno)
    if "dim" not in top:
        raise ConfigError("missing 'dim'")
    dim = top["dim"]
    if section is not None:
        built[section].append(_end_block(section, block, dim, header))
    rho, rho_lineno = built["rho"][0] if built["rho"] else (None, None)
    with _cycle_data(rho_lineno):
        cycle = KCycle(DiagBundle(built["line"] or [LineBundle(dim)]), rho)
    return top.get("indices", []), cycle, OddKCycle(dim, built["component"])


def _form_line(form: TorusForm) -> str:
    return " + ".join(form.to_text().splitlines())


def _ints(values) -> str:
    return " ".join(str(v) for v in values)


def serialize_config(cycle: KCycle | OddKCycle, indices=()) -> str:
    """Canonical text for a cycle; ``parse_config`` reads back an equal cycle."""
    out = [f"dim = {cycle.n}"]
    if indices:
        out.append("indices = " + _ints(indices))
    if isinstance(cycle, OddKCycle):
        for winding, phase in cycle.components:
            out += ["", "[component]", "winding = " + _ints(winding)]
            if not phase.is_zero():
                out.append("phase = " + _form_line(phase))
        return "\n".join(out) + "\n"
    for line in cycle.bundle.lines:
        out += ["", "[line]", "K = " + " / ".join(_ints(row) for row in line.K),
                "theta = " + _ints(line.theta)]
        if not line.beta.is_zero():
            out.append("beta = " + _form_line(line.beta))
    if not cycle.rho.is_zero():
        out += ["", "[rho]", "terms = " + _form_line(cycle.rho)]
    return "\n".join(out) + "\n"
