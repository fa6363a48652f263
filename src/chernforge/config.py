"""Structured-text configuration for the command-line front end.

The format is line oriented: ``key = value`` pairs, ``[line]``,
``[rho]`` and ``[component]`` section headers, ``#`` comments.  Integers
are ASCII digits with an optional ``-`` (``forms._INT_RE``), exact
rationals are written ``p`` or ``p/q``; differential forms use the term
grammar ``(a+bi) t^m exp[k1,...,kn] d{t,1,3}`` with terms joined by
``+``.  A key may be given once per block and ``[rho]`` once per file.
Every error names its 1-based line: a parse error or a written form
term of the wrong degree (also one whose coefficient is zero or whose
duplicates cancel) names the key's line, and cycle data that the
``bundles`` constructors refuse names the header of the block it came
from.  A parsed configuration re-serializes bit-exactly.

The records are plain classes rather than dataclasses, which would
import ``inspect`` and its dependencies with every command.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Optional

from .bundles import DiagBundle, KCycle, LineBundle, OddKCycle
from .errors import ConfigError
from .forms import _INT_RE, _RATIONAL_RE, TorusForm, _ratio, parse_form


class _Record:
    """Keyword construction, mutable attributes, ``==`` field by field.

    ``_fields`` holds the data; the text line a record came from is kept
    beside it for error messages, and equality ignores it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._fields)


class LineSpec(_Record):
    """A ``[line]`` block; ``lineno`` is its header's line."""

    _fields = ("K", "theta", "beta")
    __slots__ = _fields + ("lineno",)

    def __init__(self, K: Optional[list[list[int]]] = None,
                 theta: Optional[list[Fraction]] = None,
                 beta: Optional[TorusForm] = None, lineno: Optional[int] = None):
        self.K = K
        self.theta = theta
        self.beta = beta
        self.lineno = lineno


class ComponentSpec(_Record):
    """A ``[component]`` block; ``lineno`` is its header's line."""

    _fields = ("winding", "phase")
    __slots__ = _fields + ("lineno",)

    def __init__(self, winding: Optional[list[int]] = None,
                 phase: Optional[TorusForm] = None, lineno: Optional[int] = None):
        self.winding = winding
        self.phase = phase
        self.lineno = lineno


@contextmanager
def _cycle_data(lineno: Optional[int]):
    # constructors reject malformed cycle data with ValueError; to the
    # front end that is bad input, like any other config error
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc), lineno) from None


def _first_refused(n: int, specs: list[ComponentSpec]) -> Optional[int]:
    """Header line of the first component that ``OddKCycle`` refuses alone.

    Each component is checked on its own data, in order, so this is the
    component whose error the whole cycle raised.
    """
    for spec in specs:
        try:
            OddKCycle(n, [(spec.winding, spec.phase)])
        except ValueError:
            return spec.lineno
    return None


class Config(_Record):
    """A parsed file; ``rho_lineno`` is the line of its ``[rho]`` header."""

    _fields = ("dim", "indices", "lines", "rho", "components")
    __slots__ = _fields + ("rho_lineno",)

    def __init__(self, dim: Optional[int] = None, indices: Optional[list[int]] = None,
                 lines: Optional[list[LineSpec]] = None, rho: Optional[TorusForm] = None,
                 components: Optional[list[ComponentSpec]] = None):
        self.dim = dim
        self.indices = [] if indices is None else indices
        self.lines = [] if lines is None else lines
        self.rho = rho
        self.components = [] if components is None else components
        self.rho_lineno = None

    def build_bundle(self) -> DiagBundle:
        if self.dim is None:
            raise ConfigError("missing 'dim'")
        lines = []
        for spec in self.lines or [LineSpec()]:
            with _cycle_data(spec.lineno):
                lines.append(LineBundle(self.dim, spec.K, spec.theta, spec.beta))
        return DiagBundle(lines)

    def build_cycle(self) -> KCycle:
        bundle = self.build_bundle()
        with _cycle_data(self.rho_lineno):
            return KCycle(bundle, self.rho)

    def build_odd_cycle(self) -> OddKCycle:
        if self.dim is None:
            raise ConfigError("missing 'dim'")
        if not self.components:
            raise ConfigError("no [component] blocks for an odd cycle")
        comps = []
        for spec in self.components:
            if spec.winding is None:
                raise ConfigError("odd component is missing 'winding'", spec.lineno)
            comps.append((spec.winding, spec.phase))
        try:
            return OddKCycle(self.dim, comps)
        except ValueError as exc:
            raise ConfigError(str(exc), _first_refused(self.dim, self.components)) from None


def _parse_int(value: str, lineno: int) -> int:
    if not _INT_RE.fullmatch(value):
        raise ConfigError(f"expected an integer, got {value!r}", lineno)
    return int(value)


def _parse_int_list(value: str, lineno: int) -> list[int]:
    return [_parse_int(tok, lineno) for tok in value.split()]


def _parse_rational(tok: str, lineno: int) -> Fraction:
    # the tokens a form coefficient takes, ``p`` or ``p/q``; 1/0 is refused
    try:
        if _RATIONAL_RE.fullmatch(tok):
            return Fraction(_ratio(tok, tok))
    except ValueError:
        pass
    raise ConfigError(f"expected a rational, got {tok!r}", lineno)


def _parse_matrix(value: str, lineno: int) -> list[list[int]]:
    rows = [row.strip() for row in value.split("/")]
    return [_parse_int_list(row, lineno) for row in rows if row]


# the degree each form key takes, and the message of the constructor
# that checks it; ``parse_config`` checks the written terms, so a term
# whose coefficient is zero or whose duplicates cancel is refused too
_FORM_DEGREES = {
    "beta": (lambda degree: degree == 1, "connection perturbation must be a 1-form"),
    "terms": (lambda degree: degree % 2 == 1, "cycle form must have odd degrees"),
    "phase": (lambda degree: degree == 0, "phase must be a function"),
}


def _parse_form_value(key: str, value: str, dim: Optional[int], lineno: int) -> TorusForm:
    if dim is None:
        raise ConfigError("'dim' must be set before any form data", lineno)
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


def parse_config(text: str) -> Config:
    config = Config()
    section: Optional[str] = None
    current_line: Optional[LineSpec] = None
    current_component: Optional[ComponentSpec] = None
    seen: set[str] = set()  # keys of the current block
    rho_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            section = line[1:-1].strip()
            seen = set()
            if section == "line":
                current_line = LineSpec(lineno=lineno)
                config.lines.append(current_line)
            elif section == "rho":
                if rho_seen:
                    raise ConfigError("section [rho] given twice", lineno)
                rho_seen = True
                config.rho_lineno = lineno
            elif section == "component":
                current_component = ComponentSpec(lineno=lineno)
                config.components.append(current_component)
            else:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno, raw.index(raw.strip()[0]) + 1)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            where = f" in [{section}]" if section else ""
            raise ConfigError(f"key {key!r} given twice{where}", lineno)
        seen.add(key)
        if section is None:
            if key == "dim":
                config.dim = _parse_int(value, lineno)
                if config.dim < 0:
                    raise ConfigError(f"dim must be >= 0, got {config.dim}", lineno)
            elif key == "indices":
                config.indices = _parse_int_list(value, lineno)
            else:
                raise ConfigError(f"unknown key {key!r}", lineno)
        elif section == "line":
            if key == "K":
                current_line.K = _parse_matrix(value, lineno)
            elif key == "theta":
                current_line.theta = [_parse_rational(tok, lineno) for tok in value.split()]
            elif key == "beta":
                current_line.beta = _parse_form_value(key, value, config.dim, lineno)
            else:
                raise ConfigError(f"unknown key {key!r} in [line]", lineno)
        elif section == "rho":
            if key == "terms":
                config.rho = _parse_form_value(key, value, config.dim, lineno)
            else:
                raise ConfigError(f"unknown key {key!r} in [rho]", lineno)
        elif section == "component":
            if key == "winding":
                current_component.winding = _parse_int_list(value, lineno)
            elif key == "phase":
                current_component.phase = _parse_form_value(key, value, config.dim, lineno)
            else:
                raise ConfigError(f"unknown key {key!r} in [component]", lineno)
    if config.dim is None:
        raise ConfigError("missing 'dim'")
    return config


def _form_line(form: TorusForm) -> str:
    return " + ".join(form.to_text().splitlines())


def serialize_config(config: Config) -> str:
    """Canonical text for a configuration; parses back bit-exactly."""
    out = [f"dim = {config.dim}"]
    if config.indices:
        out.append("indices = " + " ".join(str(i) for i in config.indices))
    for spec in config.lines:
        out.append("")
        out.append("[line]")
        if spec.K is not None:
            out.append("K = " + " / ".join(" ".join(str(v) for v in row)
                                           for row in spec.K))
        if spec.theta is not None:
            out.append("theta = " + " ".join(str(v) for v in spec.theta))
        if spec.beta is not None and not spec.beta.is_zero():
            out.append("beta = " + _form_line(spec.beta))
    if config.rho is not None and not config.rho.is_zero():
        out.append("")
        out.append("[rho]")
        out.append("terms = " + _form_line(config.rho))
    for spec in config.components:
        out.append("")
        out.append("[component]")
        if spec.winding is not None:
            out.append("winding = " + " ".join(str(v) for v in spec.winding))
        if spec.phase is not None and not spec.phase.is_zero():
            out.append("phase = " + _form_line(spec.phase))
    return "\n".join(out) + "\n"
