"""Structured-text configuration for the command-line front end.

The format is line oriented: ``key = value`` pairs, ``[line]``,
``[rho]`` and ``[component]`` section headers, ``#`` comments.  Integers
are ASCII digits with an optional ``-`` (``forms._INT_RE``), exact
rationals are written ``p`` or ``p/q``; differential forms use the term
grammar ``(a+bi) t^m exp[k1,...,kn] d{t,1,3}`` with terms joined by
``+``.  A key may be given once per block and ``[rho]`` once per file.
Parsing failures carry 1-based line numbers; a parsed configuration
re-serializes bit-exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bundles import DiagBundle, KCycle, LineBundle, OddKCycle
from .errors import ConfigError
from .forms import _INT_RE, _RATIONAL_RE, TorusForm, _ratio, parse_form


@dataclass
class LineSpec:
    K: Optional[list[list[int]]] = None
    theta: Optional[list[Fraction]] = None
    beta: Optional[TorusForm] = None


@dataclass
class ComponentSpec:
    winding: Optional[list[int]] = None
    phase: Optional[TorusForm] = None


@contextmanager
def _cycle_data():
    # constructors reject malformed cycle data with ValueError; to the
    # front end that is bad input, like any other config error
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass
class Config:
    dim: Optional[int] = None
    indices: list[int] = field(default_factory=list)
    lines: list[LineSpec] = field(default_factory=list)
    rho: Optional[TorusForm] = None
    components: list[ComponentSpec] = field(default_factory=list)

    def build_bundle(self) -> DiagBundle:
        if self.dim is None:
            raise ConfigError("missing 'dim'")
        specs = self.lines or [LineSpec()]
        with _cycle_data():
            return DiagBundle([LineBundle(self.dim, spec.K, spec.theta, spec.beta)
                               for spec in specs])

    def build_cycle(self) -> KCycle:
        bundle = self.build_bundle()
        with _cycle_data():
            return KCycle(bundle, self.rho)

    def build_odd_cycle(self) -> OddKCycle:
        if self.dim is None:
            raise ConfigError("missing 'dim'")
        if not self.components:
            raise ConfigError("no [component] blocks for an odd cycle")
        comps = []
        for spec in self.components:
            if spec.winding is None:
                raise ConfigError("odd component is missing 'winding'")
            comps.append((spec.winding, spec.phase))
        with _cycle_data():
            return OddKCycle(self.dim, comps)


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


def _parse_form_value(value: str, dim: Optional[int], lineno: int) -> TorusForm:
    if dim is None:
        raise ConfigError("'dim' must be set before any form data", lineno)
    try:
        return parse_form(value, n=dim, has_t=False)
    except ValueError as exc:
        raise ConfigError(str(exc), lineno) from None


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
                current_line = LineSpec()
                config.lines.append(current_line)
            elif section == "rho":
                if rho_seen:
                    raise ConfigError("section [rho] given twice", lineno)
                rho_seen = True
            elif section == "component":
                current_component = ComponentSpec()
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
                current_line.beta = _parse_form_value(value, config.dim, lineno)
            else:
                raise ConfigError(f"unknown key {key!r} in [line]", lineno)
        elif section == "rho":
            if key == "terms":
                config.rho = _parse_form_value(value, config.dim, lineno)
            else:
                raise ConfigError(f"unknown key {key!r} in [rho]", lineno)
        elif section == "component":
            if key == "winding":
                current_component.winding = _parse_int_list(value, lineno)
            elif key == "phase":
                current_component.phase = _parse_form_value(value, config.dim, lineno)
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
