"""Exact differential-form calculus on flat tori.

A form on the n-torus, optionally extended by a parameter t in [0,1],
is a finite sum of terms

    coeff * t^m * exp(2*pi*i*<k, x>) * dx_I

with Gaussian-rational coefficients, integer frequency vectors k and
strictly increasing index sets I (index 0 names dt and is only present
on t-extended forms).  Forms are Chern-normalized: the stored exterior
derivative multiplies a Fourier coefficient by i*k_j, which absorbs the
2*pi of the usual conventions and keeps every period rational.

Orientation conventions, pinned by the interval Stokes identity
d(int_t a) + int_t(d a) = a|_{t=1} - a|_{t=0}:

* interval fibers integrate the dt factor from the front,
  int(dt ^ eta) = +eta;
* circle fibers integrate with the Koszul sign that moves dx_axis to
  the front, so int_circle(d a) = -d(int_circle a) on a closed fiber.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
import re
from typing import Iterable, Optional, Sequence

from .scalars import GaussRat, collect

# Term key: (t_exponent, frequency vector, index set).
Key = tuple[int, tuple[int, ...], tuple[int, ...]]


def _merge_idx(a: tuple[int, ...], b: tuple[int, ...]):
    """Sign and merged index set of dx_a ^ dx_b, or None if they collide.

    Both inputs are strictly increasing, so a single merge pass counts
    the Koszul inversions.
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    i = j = inversions = 0
    la, lb = len(a), len(b)
    out = []
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            return None
        if x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
            inversions += la - i
    out.extend(a[i:])
    out.extend(b[j:])
    return (1 if inversions % 2 == 0 else -1), tuple(out)


class TorusForm:
    """Differential form with trigonometric-polynomial coefficients.

    Immutable by convention.  Stored terms never carry zero
    coefficients, so equality of forms is equality of the term maps.
    """

    __slots__ = ("n", "has_t", "terms")

    def __init__(self, n: int, terms: Optional[dict] = None, has_t: bool = False):
        if n < 0:
            raise ValueError("torus dimension must be >= 0")
        self.n = n
        self.has_t = bool(has_t)
        clean: dict[Key, GaussRat] = {}
        if terms:
            for key, coeff in terms.items():
                coeff = GaussRat.coerce(coeff)
                if not coeff:
                    continue
                t_exp, freq, idx = key
                if len(freq) != n:
                    raise ValueError(f"frequency vector {freq} has wrong arity for T^{n}")
                if tuple(sorted(set(idx))) != idx:
                    raise ValueError(f"index set {idx} is not strictly increasing")
                if any(j < 0 or j > n for j in idx):
                    raise ValueError(f"index set {idx} out of range for T^{n}")
                if not self.has_t and (t_exp != 0 or 0 in idx):
                    raise ValueError("t data on a form without the t extension")
                if t_exp < 0:
                    raise ValueError("negative t exponent")
                clean[key] = coeff
        self.terms = clean

    @classmethod
    def _make(cls, n: int, has_t: bool, terms: dict) -> "TorusForm":
        # trusted constructor: keys must be valid, coefficients non-zero
        self = object.__new__(cls)
        self.n, self.has_t, self.terms = n, has_t, terms
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, has_t: bool = False) -> "TorusForm":
        return cls(n, has_t=has_t)

    @classmethod
    def const(cls, n: int, coeff, has_t: bool = False) -> "TorusForm":
        return cls(n, {(0, (0,) * n, ()): GaussRat.coerce(coeff)}, has_t=has_t)

    @classmethod
    def single(cls, n: int, coeff, freq: Optional[Sequence[int]] = None,
               idx: Sequence[int] = (), t_exp: int = 0,
               has_t: bool = False) -> "TorusForm":
        freq = tuple(freq) if freq is not None else (0,) * n
        return cls(n, {(t_exp, freq, tuple(idx)): GaussRat.coerce(coeff)}, has_t=has_t)

    @classmethod
    def dx(cls, n: int, j: int, has_t: bool = False) -> "TorusForm":
        low = 0 if has_t else 1
        if not low <= j <= n:
            raise ValueError(f"no coordinate {j} on T^{n}")
        return cls.single(n, 1, idx=(j,), has_t=has_t)

    @classmethod
    def volume(cls, n: int) -> "TorusForm":
        return cls.single(n, 1, idx=tuple(range(1, n + 1)))

    @classmethod
    def from_harmonic(cls, n: int, table: dict) -> "TorusForm":
        """Translation-invariant form sum c_I dx_I from a rational table {I: c_I}."""
        return cls(n, {(0, (0,) * n, tuple(idx)): GaussRat(coeff)
                       for idx, coeff in table.items()})

    # -- ring structure -------------------------------------------------

    def _compatible(self, other: "TorusForm"):
        if self.n != other.n or self.has_t != other.has_t:
            raise ValueError("forms live on different spaces")

    def __add__(self, other: "TorusForm") -> "TorusForm":
        self._compatible(other)
        return self._make(self.n, self.has_t, collect(other.terms.items(), self.terms))

    def __neg__(self) -> "TorusForm":
        return self._make(self.n, self.has_t, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TorusForm") -> "TorusForm":
        return self + (-other)

    def __mul__(self, scalar) -> "TorusForm":
        scalar = GaussRat.coerce(scalar)
        if not scalar:
            return TorusForm.zero(self.n, self.has_t)
        return self._make(self.n, self.has_t, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def wedge(self, other: "TorusForm") -> "TorusForm":
        """Graded-commutative product with the standard Koszul sign."""
        self._compatible(other)

        def products():
            for (m1, k1, i1), c1 in self.terms.items():
                for (m2, k2, i2), c2 in other.terms.items():
                    merged = _merge_idx(i1, i2)
                    if merged is None:
                        continue
                    sign, idx = merged
                    prod = c1 * c2
                    yield (m1 + m2, tuple(map(add, k1, k2)), idx), \
                        (prod if sign > 0 else -prod)

        return self._make(self.n, self.has_t, collect(products()))

    def d(self) -> "TorusForm":
        """Exterior derivative on the stored (Chern-normalized) data."""

        def derivatives():
            for (m, freq, idx), coeff in self.terms.items():
                if m > 0:
                    merged = _merge_idx((0,), idx)
                    if merged is not None:
                        sign, new_idx = merged
                        yield (m - 1, freq, new_idx), coeff * (m * sign)
                for j, kj in enumerate(freq, start=1):
                    if kj == 0:
                        continue
                    merged = _merge_idx((j,), idx)
                    if merged is None:
                        continue
                    sign, new_idx = merged
                    yield (m, freq, new_idx), coeff * GaussRat(0, kj * sign)

        return self._make(self.n, self.has_t, collect(derivatives()))

    # -- structure queries ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_closed(self) -> bool:
        return self.d().is_zero()

    def is_real(self) -> bool:
        for (m, freq, idx), coeff in self.terms.items():
            neg = (m, tuple(-x for x in freq), idx)
            if self.terms.get(neg, GaussRat()) != coeff.conj():
                return False
        return True

    def conj(self) -> "TorusForm":
        return self._make(self.n, self.has_t,
                          {(m, tuple(-x for x in freq), idx): c.conj()
                           for (m, freq, idx), c in self.terms.items()})

    def degrees(self) -> set[int]:
        return {len(idx) for (_, _, idx) in self.terms}

    def degree(self) -> Optional[int]:
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("form is not homogeneous")
        return degs.pop()

    def component(self, degree: int) -> "TorusForm":
        return self._make(self.n, self.has_t,
                          {k: c for k, c in self.terms.items() if len(k[2]) == degree})

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusForm):
            return NotImplemented
        return (self.n == other.n and self.has_t == other.has_t
                and self.terms == other.terms)

    # -- t extension ----------------------------------------------------

    def with_t(self) -> "TorusForm":
        """The same form viewed on the t-extended space."""
        if self.has_t:
            return self
        return self._make(self.n, True, dict(self.terms))

    def mul_t(self, power: int) -> "TorusForm":
        """Multiply by t^power (requires the t extension)."""
        if not self.has_t:
            raise ValueError("mul_t needs a t-extended form")
        if power < 0:
            raise ValueError("t power must be >= 0")
        return self._make(self.n, True, {(m + power, freq, idx): c
                                         for (m, freq, idx), c in self.terms.items()})

    def restrict_t(self, value) -> "TorusForm":
        """Restrict a t-extended form to the slice t = value."""
        if not self.has_t:
            raise ValueError("restrict_t needs a t-extended form")
        value = Fraction(value)
        return self._make(self.n, False, collect(
            ((0, freq, idx), coeff * (value ** m if m else 1))
            for (m, freq, idx), coeff in self.terms.items() if 0 not in idx))

    def fiber_integrate_t(self) -> "TorusForm":
        """Integrate the t fiber away: int(t^m dt ^ eta) = eta/(m+1)."""
        if not self.has_t:
            raise ValueError("fiber_integrate_t needs a t-extended form")
        return self._make(self.n, False, collect(
            ((0, freq, idx[1:]), coeff / (m + 1))
            for (m, freq, idx), coeff in self.terms.items() if idx and idx[0] == 0))

    # -- circle fibers and periods ----------------------------------------

    def fiber_integrate_circle(self, axis: int) -> "TorusForm":
        """Integrate over the circle factor named by ``axis``.

        Keeps terms whose index set contains the axis with frequency
        zero along it, with the Koszul sign that moves dx_axis to the
        front; everything else integrates to zero.  The result lives on
        the torus of one dimension less, coordinates above the axis
        shifting down.
        """
        if self.has_t:
            raise ValueError("circle integration is defined on t-free forms")
        if not 1 <= axis <= self.n:
            raise ValueError(f"no coordinate {axis} on T^{self.n}")
        pos = axis - 1

        def integrated():
            for (m, freq, idx), coeff in self.terms.items():
                if axis not in idx or freq[pos] != 0:
                    continue
                rest = tuple(p for p in idx if p != axis)
                sign, _ = _merge_idx((axis,), rest)
                new_idx = tuple(p if p < axis else p - 1 for p in rest)
                yield (0, freq[:pos] + freq[pos + 1:], new_idx), \
                    (coeff if sign > 0 else -coeff)

        return self._make(self.n - 1, False, collect(integrated()))

    def subtorus_integral(self, subset: Iterable[int]) -> GaussRat:
        """Integral over the coordinate subtorus through the basepoint 0.

        Coordinates outside ``subset`` are frozen at 0; the normalized
        volume of every subtorus is 1.  The form must be homogeneous of
        degree ``len(subset)``.
        """
        if self.has_t:
            raise ValueError("subtorus integrals are defined on t-free forms")
        subset = tuple(sorted(subset))
        if len(set(subset)) != len(subset) or any(not 1 <= j <= self.n for j in subset):
            raise ValueError(f"bad subtorus {subset} for T^{self.n}")
        degs = self.degrees()
        if degs and degs != {len(subset)}:
            raise ValueError(f"degree mismatch: form degrees {sorted(degs)}, subtorus {subset}")
        total = GaussRat()
        positions = [j - 1 for j in subset]
        for (m, freq, idx), coeff in self.terms.items():
            if idx != subset:
                continue
            if any(freq[p] for p in positions):
                continue
            total = total + coeff
        return total

    def period(self, subset: Iterable[int]) -> GaussRat:
        """Subtorus integral of a closed form (checked)."""
        if not self.is_closed():
            raise ValueError("period requires a closed form")
        return self.subtorus_integral(subset)

    def integrate_torus(self) -> GaussRat:
        """Top-degree integral over the whole torus."""
        return self.subtorus_integral(range(1, self.n + 1))

    def harmonic_table(self) -> dict[tuple[int, ...], Fraction]:
        """Inverse of :meth:`from_harmonic` on real translation-invariant forms."""
        table: dict[tuple[int, ...], Fraction] = {}
        for (t_exp, freq, idx), coeff in self.terms.items():
            if t_exp or any(freq):
                raise ValueError("form has non-harmonic content")
            if not coeff.is_real():
                raise ValueError("harmonic data must be real")
            table[idx] = coeff.re
        return table

    # -- pullback ---------------------------------------------------------

    def pullback(self, matrix: Sequence[Sequence[int]]) -> "TorusForm":
        """Pullback along the torus map x -> A x.

        ``matrix`` has one row per target coordinate (matching this
        form's dimension) and one column per source coordinate, so
        frequencies map by the transpose and dy_j expands to
        sum_l A[j][l] dx_l.  t data is carried through unchanged.
        """
        rows = [tuple(int(v) for v in row) for row in matrix]
        if len(rows) != self.n:
            raise ValueError(f"matrix has {len(rows)} rows, expected {self.n}")
        m_src = len(rows[0]) if rows else 0
        if any(len(r) != m_src for r in rows):
            raise ValueError("ragged matrix")

        def pulled():
            for (t_exp, freq, idx), coeff in self.terms.items():
                new_freq = tuple(
                    sum(rows[j][l] * freq[j] for j in range(self.n)) for l in range(m_src)
                )
                has_dt = bool(idx) and idx[0] == 0
                spatial = idx[1:] if has_dt else idx
                partial: list[tuple[int, tuple[int, ...], GaussRat]] = [(1, (), coeff)]
                for j in spatial:
                    grown = []
                    for sign, chosen, c in partial:
                        for l in range(m_src):
                            entry = rows[j - 1][l]
                            if entry == 0:
                                continue
                            merged = _merge_idx(chosen, (l + 1,))
                            if merged is None:
                                continue
                            s2, new_chosen = merged
                            grown.append((sign * s2, new_chosen, c * entry))
                    partial = grown
                    if not partial:
                        break
                for sign, chosen, c in partial:
                    full_idx = ((0,) + chosen) if has_dt else chosen
                    yield (t_exp, new_freq, full_idx), (c if sign > 0 else -c)

        return self._make(m_src, self.has_t, collect(pulled()))

    # -- textual serialization ---------------------------------------------

    def to_text(self) -> str:
        """Canonical rendering, one term per line; bit-exact round-trip."""
        if not self.terms:
            return "0"
        lines = []
        for key in sorted(self.terms, key=lambda k: (k[2], k[0], k[1])):
            t_exp, freq, idx = key
            parts = [str(self.terms[key])]
            if t_exp:
                parts.append(f"t^{t_exp}")
            parts.append("exp[" + ",".join(str(v) for v in freq) + "]")
            parts.append("d{" + ",".join("t" if j == 0 else str(j) for j in idx) + "}")
            lines.append(" ".join(parts))
        return "\n".join(lines)

    def __repr__(self):
        flat = "; ".join(self.to_text().splitlines())
        return f"TorusForm(T^{self.n}{'+t' if self.has_t else ''}: {flat})"


_TERM_RE = re.compile(
    r"^\(\s*(-?\d+(?:/\d+)?)\s*([+-]\s*\d+(?:/\d+)?)i\s*\)"
    r"(?:\s+t\^(\d+))?"
    r"\s+exp\[([^\]]*)\]"
    r"\s+d\{([^}]*)\}\s*$"
)


def split_form_terms(text: str) -> list[str]:
    """Split serialized form text into term strings.

    Terms are separated by newlines or by '+' tokens at bracket depth
    zero, so coefficient signs inside parentheses survive.
    """
    chunks: list[str] = []
    for line in text.splitlines():
        depth = 0
        current = []
        for ch in line:
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
            if ch == "+" and depth == 0:
                chunks.append("".join(current))
                current = []
            else:
                current.append(ch)
        chunks.append("".join(current))
    return [c.strip() for c in chunks if c.strip()]


def parse_form(text: str, n: Optional[int] = None,
               has_t: Optional[bool] = None) -> TorusForm:
    """Parse the textual form grammar back into a :class:`TorusForm`.

    The literal ``0`` denotes the empty form (dimension must then be
    supplied).  Raises ValueError with the offending term on bad input.
    """
    pieces = split_form_terms(text)
    if pieces == ["0"] or not pieces:
        if n is None:
            raise ValueError("cannot infer dimension of the zero form")
        return TorusForm.zero(n, has_t=bool(has_t))
    terms: list[tuple[Key, GaussRat]] = []
    saw_t = False
    for piece in pieces:
        match = _TERM_RE.match(piece)
        if not match:
            raise ValueError(f"bad form term: {piece!r}")
        re_part, im_part, t_exp, freq_part, idx_part = match.groups()
        coeff = GaussRat(Fraction(re_part), Fraction(im_part.replace(" ", "")))
        freq = tuple(int(v) for v in freq_part.split(",")) if freq_part.strip() else ()
        idx_items = [s.strip() for s in idx_part.split(",") if s.strip()]
        idx = tuple(0 if s == "t" else int(s) for s in idx_items)
        m = int(t_exp) if t_exp else 0
        if m or 0 in idx:
            saw_t = True
        if n is None:
            n = len(freq)
        elif len(freq) != n:
            raise ValueError(f"term {piece!r} has arity {len(freq)}, expected {n}")
        terms.append(((m, freq, idx), coeff))
    if has_t is None:
        has_t = saw_t
    return TorusForm(n, collect(terms), has_t=has_t)


class EvenForm:
    """Even form stored by homogeneous degree, degree-0 part included."""

    __slots__ = ("n", "has_t", "parts")

    def __init__(self, n: int, parts: Optional[dict] = None, has_t: bool = False):
        self.n = n
        self.has_t = bool(has_t)
        clean: dict[int, TorusForm] = {}
        if parts:
            for degree, form in parts.items():
                if degree % 2 or degree < 0:
                    raise ValueError(f"odd or negative degree {degree} in even form")
                if form.n != n or form.has_t != self.has_t:
                    raise ValueError("component lives on the wrong space")
                if not all(len(idx) == degree for (_, _, idx) in form.terms):
                    raise ValueError(f"component of degree {degree} is not homogeneous")
                if not form.is_zero():
                    clean[degree] = form
        self.parts = clean

    @classmethod
    def from_form(cls, form: TorusForm) -> "EvenForm":
        parts: dict[int, TorusForm] = {}
        for degree in sorted(form.degrees()):
            if degree % 2:
                raise ValueError("form has odd-degree content")
            parts[degree] = form.component(degree)
        return cls(form.n, parts, has_t=form.has_t)

    def component(self, degree: int) -> TorusForm:
        if degree in self.parts:
            return self.parts[degree]
        return TorusForm.zero(self.n, self.has_t)

    def add(self, other: "EvenForm") -> "EvenForm":
        if self.n != other.n or self.has_t != other.has_t:
            raise ValueError("even forms live on different spaces")
        degrees = set(self.parts) | set(other.parts)
        parts = {d: self.component(d) + other.component(d) for d in degrees}
        return EvenForm(self.n, parts, has_t=self.has_t)

    def with_t(self) -> "EvenForm":
        if self.has_t:
            return self
        return EvenForm(self.n, {d: f.with_t() for d, f in self.parts.items()},
                        has_t=True)

    def total(self) -> TorusForm:
        total = TorusForm.zero(self.n, self.has_t)
        for form in self.parts.values():
            total = total + form
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvenForm):
            return NotImplemented
        return self.n == other.n and self.has_t == other.has_t and self.parts == other.parts

    def __repr__(self):
        return f"EvenForm(T^{self.n}, degrees={sorted(self.parts)})"


def chern_transform(even: EvenForm, i: int) -> TorusForm:
    """Apply the degree-i universal polynomial to an even form.

    Substitutes the degree-2j component for the j'th variable; the
    degree-0 component never enters.  Components wedge-commute, so the
    substitution order is immaterial.
    """
    from .symfun import chern_polynomial

    if i < 1:
        raise ValueError("index must be >= 1")
    cap = even.n + (1 if even.has_t else 0)
    if 2 * i > cap:
        raise ValueError(f"degree {2 * i} exceeds the dimension cap {cap}")
    poly = chern_polynomial(i)
    powers: dict[tuple[int, int], TorusForm] = {}

    def power(j: int, exp: int) -> TorusForm:
        key = (j, exp)
        if key not in powers:
            if exp == 1:
                powers[key] = even.component(2 * j)
            else:
                powers[key] = power(j, exp - 1).wedge(even.component(2 * j))
        return powers[key]

    total = TorusForm.zero(even.n, even.has_t)
    for mono, coeff in poly.terms.items():
        term = TorusForm.const(even.n, Fraction(coeff), has_t=even.has_t)
        for (prime, idx), exp in mono:
            term = term.wedge(power(idx, exp))
            if term.is_zero():
                break
        total = total + term
    return total


def total_chern_transform(even: EvenForm) -> EvenForm:
    """1 + sum of all chern_transform components up to the dimension cap."""
    cap = even.n + (1 if even.has_t else 0)
    parts: dict[int, TorusForm] = {0: TorusForm.const(even.n, 1, has_t=even.has_t)}
    for i in range(1, cap // 2 + 1):
        component = chern_transform(even, i)
        if not component.is_zero():
            parts[2 * i] = component
    return EvenForm(even.n, parts, has_t=even.has_t)
