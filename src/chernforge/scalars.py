"""Exact Gaussian-rational scalars used as Fourier coefficients.

Also home of :func:`collect`, the one accumulate step shared by every
sparse exact map in the package (forms, polynomials, characters).
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def collect(pairs, start=()) -> dict:
    """Sum exact values per key onto a copy of the sparse map ``start``,
    dropping every key whose sum is zero.

    Sparse maps store only non-zero coefficients, so equal values have
    identical key sets and equality stays structural.
    """
    out = dict(start)
    get = out.get
    for key, value in pairs:
        existing = get(key)
        if existing is not None:
            value = existing + value
        if value:
            out[key] = value
        elif existing is not None:
            del out[key]
    return out


class GaussRat:
    """Gaussian rational ``re + im*i`` with exact rational parts.

    Values are immutable by convention; all arithmetic returns new
    instances and never rounds.  Pure-real products and sums take fast
    paths since they dominate in practice.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def _make(cls, re: Fraction, im: Fraction) -> "GaussRat":
        # trusted constructor: arguments must already be Fractions
        self = object.__new__(cls)
        self.re = re
        self.im = im
        return self

    @classmethod
    def coerce(cls, value) -> "GaussRat":
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussRat")

    def conj(self) -> "GaussRat":
        return GaussRat._make(self.re, -self.im)

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = GaussRat.coerce(other)
        return GaussRat._make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat._make(-self.re, -self.im)

    def __sub__(self, other):
        other = GaussRat.coerce(other)
        return GaussRat._make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussRat.coerce(other) - self

    def __mul__(self, other):
        other = GaussRat.coerce(other)
        a, b = self.re, self.im
        c, d = other.re, other.im
        if not b:
            if not d:
                return GaussRat._make(a * c, _ZERO)
            return GaussRat._make(a * c, a * d)
        if not d:
            return GaussRat._make(a * c, b * c)
        return GaussRat._make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRat.coerce(other)
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return GaussRat._make(self.re / other.re, self.im / other.re)
        norm = other.re * other.re + other.im * other.im
        num = self * other.conj()
        return GaussRat._make(num.re / norm, num.im / norm)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"

