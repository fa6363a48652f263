"""Exact differential-form calculus on flat tori.

A form on the n-torus, optionally extended by a parameter t in [0,1],
is a finite sum of terms

    coeff * t^m * exp(2*pi*i*<k, x>) * dx_I

with Gaussian-rational coefficients, integer frequency vectors k and
strictly increasing index sets I (index 0 names dt and is only present
on t-extended forms).  Forms are Chern-normalized: the stored exterior
derivative multiplies a Fourier coefficient by i*k_j, which absorbs the
2*pi of the usual conventions and keeps every period rational.

Storage: one positive integer denominator ``den`` shared by all terms,
and a map ``terms`` from a packed int key to a Gaussian-integer
numerator ``(re, im)`` of ints, so a term's coefficient is
``(re + im*i) / den``.  The key of ``t^m exp(2*pi*i*<k, x>) dx_I``
(:class:`_Layout`) holds the index mask in bits 0..n, bit j set when
dx_j is in I, and above it one ``SLOT_BITS``-wide slot for m and one per
coordinate for k_j, each holding its value plus ``CEILING``.  Stored
values lie in [-CEILING, CEILING), so the top bit of every slot, its
guard bit, is clear.  Disjoint masks add without carries, so the key of
a product of two terms is ``key1 + key2 - bias``; a slot whose sum
leaves the range sets its guard bit (one that goes below zero borrows
from the slot above and still shows its own), so one test against the
guards catches every such product, and the wedge raises
:class:`PreconditionError` rather than store a key that could alias
another.  The public constructor and :func:`parse_form` refuse a t
exponent or frequency outside the range with ValueError, and
:meth:`TorusForm.pullback` a pulled-back frequency with
PreconditionError.  Keys are encoded by ``_slots``, through one bounded
cache, and only one builder and pullback encode.  The builder,
:func:`_packed_terms`, passes every key through :func:`_packed_key`
first, a zero coefficient's too, then adds repeated keys and drops the
zero sums; the public constructor and :func:`parse_form` reach it
with their coefficients as int numerators over one den
(:func:`_over_common_den`), and ``TorusForm._checked`` with int
numerators its caller gives.  A slot is read by a shift and a mask:
``_Layout.unpack`` reads whole keys for
:meth:`TorusForm.items`, text and pullback, and ``d`` reads the slots
it needs in place.  Circle integration splices slots: it drops the
axis slot and moves the slots above it down one, so nothing is decoded
or re-encoded.  Every other operation is arithmetic on the keys.
Index sets merge with
``|``, collide when ``&`` is non-zero, and the Koszul sign is a popcount
parity (:func:`_koszul_sign`).  Every sign comes from that one table,
filled on first use with at most one entry per pair of disjoint masks:
3^(n+1) of them on T^n with t.  Every form is normalized on
construction: no zero numerator is stored, gcd(den, every numerator)
== 1 and the zero form has den == 1.  Equal forms therefore have equal
storage, and equality is structural.  Zero numerators are dropped as
sums are formed (:func:`_accumulate` deletes a key whose sum cancels),
so a finished form is never scanned for them, and the gcd is divided
out only when den > 1.  ``zero``, ``const(n, 1)``, ``dx`` and ``volume``
return one shared form per validated argument tuple, from two caches,
one of zero forms and one of units ``1 dx_I``: no operation
writes to a ``terms`` dict that it did not build, so a shared form, and
the memos kept on it, never change.  A sum copies the operand that
needs no scaling to the common den (or the larger one) and walks the
other into the copy.  The terms grouped by index mask, which
:meth:`TorusForm.wedge` reads, are built once and kept on the form.  The public constructor
checks each index set through its mask: one that the cached
``_indices(mask)`` gives back unchanged is strictly increasing and in
range, and only any other runs the full checks.  Coefficients enter as
an int, a Fraction or an ``(re, im)`` pair of them and subtorus
integrals leave :meth:`TorusForm.invariant_table` as ``(re, im)`` pairs
of Fractions, so this storage is the only Gaussian-rational type.  Text
leaves :meth:`TorusForm.to_text` without Fraction objects, each
numerator reduced against ``den`` by one gcd, and :func:`parse_form`
reads each coefficient as ints, making a Fraction only when its
denominator is not 1.

Orientation conventions, pinned by the interval Stokes identity
d(int_t a) + int_t(d a) = a|_{t=1} - a|_{t=0}:

* interval fibers integrate the dt factor from the front,
  int(dt ^ eta) = +eta;
* circle fibers integrate with the Koszul sign that moves dx_axis to
  the front, so int_circle(d a) = -d(int_circle a) on a closed fiber.

The Chern transforms run :func:`symfun.newton` with the wedge product
and are kept on the form they were computed from, as :meth:`TorusForm.d`
keeps the derivative; a product with exactly 1 returns the operand.
Subtorus integrals are one scan, ``_invariant_sums``, whose integer
numerators over ``den`` the character layer reads directly;
:meth:`TorusForm.invariant_table` turns them into Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import factorial, gcd, lcm
from operator import lshift
import re
from typing import Optional, Sequence

from .errors import PreconditionError
from .symfun import collect, newton, rational

# Width of each slot of a packed key, and the bias of every slot value:
# a slot holds value + CEILING in [0, 2 * CEILING), its top bit clear.
SLOT_BITS = 32
CEILING = 1 << (SLOT_BITS - 2)
_SLOT = (1 << SLOT_BITS) - 1
_RANGE = f"[-2^{SLOT_BITS - 2}, 2^{SLOT_BITS - 2})"
_KEPT = 1 << 12  # encoded keys kept


class _Layout:
    """The packed term keys of T^n: bit positions and the constants of key arithmetic.

    A key holds the index mask in bits 0..n; above it, from ``t_shift``,
    sit one slot for the t exponent and then one per coordinate
    (``shifts``), each holding its value + CEILING.  ``bias`` is the key
    of t^0 exp(0) with the empty index set, ``guards`` the top bit of
    every slot and ``freq_bias`` the frequency part of ``bias``.
    """

    __slots__ = ("n", "mask_bits", "t_shift", "shifts",
                 "bias", "guards", "freq_bias", "low_bits")

    def __init__(self, n: int):
        self.n = n
        self.mask_bits = (1 << (n + 1)) - 1
        self.t_shift = n + 1
        self.shifts = tuple(self.t_shift + SLOT_BITS * j for j in range(1, n + 1))
        every_slot = ((1 << SLOT_BITS * (n + 1)) - 1) // _SLOT  # 1 in each of the n + 1 slots
        self.bias = CEILING * every_slot << self.t_shift
        self.freq_bias = self.bias - (CEILING << self.t_shift)
        self.guards = 2 * self.bias
        self.low_bits = (1 << (self.t_shift + SLOT_BITS)) - 1

    def unpack(self, key: int) -> tuple[int, tuple[int, ...], int]:
        """``(t_exp, freq, mask)`` of a key, each slot read by shift and mask."""
        return ((key >> self.t_shift & _SLOT) - CEILING,
                tuple([(key >> shift & _SLOT) - CEILING for shift in self.shifts]),
                key & self.mask_bits)


_layout = cache(_Layout)


@lru_cache(maxsize=_KEPT, typed=True)
def _slots(t_exp: int, *freq: int) -> int:
    """The key of t^t_exp exp(2*pi*i*<freq, x>) on T^len(freq), with no index bits.

    ``t_exp`` must be >= 0.  Raises ValueError for a t exponent or a
    frequency outside the key range and TypeError for one that is not
    an int.  Keys repeat their slot values, so the keys are cached;
    with each value's type, so that one equal to an int without being
    one (1.0) is never read as that int.
    """
    if t_exp >= CEILING:
        raise ValueError(f"t exponent {t_exp} outside the key range {_RANGE}")
    if freq and not (-CEILING <= min(freq) and max(freq) < CEILING):
        raise ValueError(f"frequency vector {freq} outside the key range {_RANGE}")
    layout = _layout(len(freq))
    return sum(map(lshift, freq, layout.shifts), layout.bias + (t_exp << layout.t_shift))


@cache
def _zero_slots(n: int, mask: int) -> tuple[int, int]:
    """``(select, zero)``: a key's frequency vanishes on the coordinates of
    ``mask`` exactly when ``key & select == zero``."""
    shifts = _layout(n).shifts
    coords = [j for j in _indices(mask) if j]
    return (sum(_SLOT << shifts[j - 1] for j in coords),
            sum(CEILING << shifts[j - 1] for j in coords))


@cache
def _koszul_sign(a: int, b: int) -> int:
    """Sign of dx_a ^ dx_b against dx_(a|b), for disjoint index masks.

    The sign is the parity of the pairs (i in a, j in b) with i > j.
    Shifting a down by s and masking with b finds the pairs with
    i - j == s; only the parity of their total count matters, and it
    equals the popcount parity of the XOR of those overlaps.  Cached:
    every caller passes disjoint masks, so the table holds at most one
    entry per such pair, 3^(n+1) of them on T^n with t.
    """
    overlaps = 0
    a >>= 1
    while a:
        overlaps ^= a & b
        a >>= 1
    return -1 if overlaps.bit_count() & 1 else 1


@cache
def _indices(mask: int) -> tuple[int, ...]:
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def _index_mask(idx, n: int) -> Optional[int]:
    """The mask of ``idx`` if it is a strictly increasing tuple of ints in 0..n, else None.

    An entry above n is refused before it is shifted, so no huge int is
    built; a shift raises TypeError for an entry that is not an int and
    ValueError for a negative one.  Any other index set, out of order,
    repeated or not a tuple, differs from the cached ``_indices(mask)``.
    """
    mask = 0
    try:
        for j in idx:
            if j > n:
                return None
            mask |= 1 << j
    except (TypeError, ValueError):
        return None
    return mask if _indices(mask) == idx else None


def _gauss_parts(value) -> tuple[int, int, int]:
    """(re, im, den) with value == (re + im*i) / den and den the least.

    ``value`` is an int, a Fraction or an ``(re, im)`` tuple of them;
    an int or a pair of ints is taken as it is.
    """
    if type(value) is int:
        return value, 0, 1
    if not (isinstance(value, tuple) and len(value) == 2):
        value = rational(value)
        return value.numerator, 0, value.denominator
    re_part, im_part = value
    if type(re_part) is int and type(im_part) is int:
        return re_part, im_part, 1
    re_part, im_part = map(rational, value)
    den = lcm(re_part.denominator, im_part.denominator)
    return (re_part.numerator * (den // re_part.denominator),
            im_part.numerator * (den // im_part.denominator), den)


def int_tuple(values) -> tuple[int, ...]:
    """Integer data (a matrix row, a winding vector) as a tuple, never rounded."""
    values = tuple(values)
    if not all(isinstance(value, int) for value in values):
        raise TypeError(f"expected integers, got {values!r}")
    return values


def _dimension(n: int) -> int:
    if not isinstance(n, int):
        raise TypeError(f"torus dimension must be an int, got {n!r}")
    if n < 0:
        raise ValueError("torus dimension must be >= 0")
    return n


def _packed_key(n: int, has_t: bool, t_exp: int, freq, idx) -> int:
    """The key of the term ``(t_exp, freq, idx)`` on T^n, checked as the constructor checks it.

    In order: the frequency arity, the index set (strictly increasing,
    in range), t data on a form without t, the sign of the t exponent,
    and the key range of the t exponent and the frequencies (``_slots``).
    """
    if len(freq) != n:
        raise ValueError(f"frequency vector {freq} has wrong arity for T^{n}")
    mask = _index_mask(idx, n)
    if mask is None:
        if tuple(sorted(set(idx))) != idx:
            raise ValueError(f"index set {idx} is not strictly increasing")
        if any(j < 0 or j > n for j in idx):
            raise ValueError(f"index set {idx} out of range for T^{n}")
    if not has_t and (t_exp != 0 or 0 in idx):
        raise ValueError("t data on a form without the t extension")
    if t_exp < 0:
        raise ValueError("negative t exponent")
    slots = _slots(t_exp, *freq)
    if mask is None:
        # only an index that is not an int gets here: the shift raises TypeError
        mask = sum(1 << j for j in idx)
    return slots + mask


def _normalized(den: int, terms: dict) -> tuple[int, dict]:
    """Divide out gcd(den, all numerators); ``terms`` holds no zero numerator."""
    if den == 1:
        return den, terms
    if not terms:
        return 1, terms
    common = den
    for re_num, im_num in terms.values():
        common = gcd(common, re_num, im_num)
        if common == 1:
            return den, terms
    return den // common, {key: (re_num // common, im_num // common)
                           for key, (re_num, im_num) in terms.items()}


def _over_common_den(pairs) -> tuple[int, list]:
    """``(key, coeff)`` pairs as ``(den, [(key, (re, im)), ...])``: int numerators
    over ``den``, the lcm of the coefficients' least dens (:func:`_gauss_parts`).

    One pass converts; a second scales the numerators only when some
    den is not 1.
    """
    parts, dens = [], []
    for key, coeff in pairs:
        re_num, im_num, part_den = _gauss_parts(coeff)
        parts.append((key, (re_num, im_num)))
        dens.append(part_den)
    den = lcm(*dens)
    if den == 1:
        return den, parts
    return den, [(key, (re_num * (den // part_den), im_num * (den // part_den)))
                 for (key, (re_num, im_num)), part_den in zip(parts, dens)]


def _accumulate(out: dict, pairs) -> dict:
    """Add ``(re, im)`` pairs per key into ``out``, which holds no zero pair.

    A key whose sum cancels is deleted and a zero pair is never
    inserted, so ``out`` still holds no zero pair afterwards.
    """
    get = out.get
    for key, (re_num, im_num) in pairs:
        prev = get(key)
        if prev is not None:
            re_num += prev[0]
            im_num += prev[1]
        if re_num or im_num:
            out[key] = (re_num, im_num)
        elif prev is not None:
            del out[key]
    return out


def _packed_terms(n: int, has_t: bool, pairs) -> dict:
    """``{packed key: (re, im)}`` of ``((t_exp, freq, idx), (re, im))`` pairs.

    The one body that builds a form's terms from term keys: every key
    passes :func:`_packed_key` first, a zero coefficient's and a
    cancelling one's too; then repeated keys add up and zero sums are
    dropped.
    """
    return _accumulate({}, [(_packed_key(n, has_t, *key), num) for key, num in pairs])


class TorusForm:
    """Differential form with trigonometric-polynomial coefficients.

    Immutable by convention.  Stored in the normalized integer layout
    described in the module docstring, so equality of forms is equality
    of the stored data.  ``_transforms`` holds ``[1, C_1, ...]`` once
    :func:`chern_transforms` has run on the form, ``_groups`` the terms
    grouped by index mask once :meth:`wedge` has read them, and
    ``_derivative`` the form :meth:`d` returned.
    """

    __slots__ = ("n", "has_t", "den", "terms", "_transforms", "_groups", "_derivative")

    def __init__(self, n: int, terms: Optional[dict] = None, has_t: bool = False):
        self.n = n = _dimension(n)
        self.has_t = has_t = bool(has_t)
        self._transforms = self._groups = self._derivative = None
        den, pairs = _over_common_den((terms or {}).items())
        self.den, self.terms = _normalized(den, _packed_terms(n, has_t, pairs))

    @classmethod
    def _make(cls, n: int, has_t: bool, den: int, terms: dict) -> "TorusForm":
        # trusted constructor: keys must be valid, den positive and no
        # numerator zero (sums drop theirs in _accumulate)
        self = object.__new__(cls)
        self.n, self.has_t = n, has_t
        self.den, self.terms = _normalized(den, terms)
        self._transforms = self._groups = self._derivative = None
        return self

    @classmethod
    def _checked(cls, n: int, has_t: bool, den: int, pairs) -> "TorusForm":
        """The form of ``pairs``: ``((t_exp, freq, idx), (re, im))``, numerators over ``den``.

        The public constructor's body (:func:`_packed_terms`) without
        its coefficient conversion: the numerators must be ints and
        ``den`` a positive int.
        """
        n, has_t = _dimension(n), bool(has_t)
        return cls._make(n, has_t, den, _packed_terms(n, has_t, pairs))

    # -- constructors ---------------------------------------------------
    # zero, const(n, 1), dx and volume are shared: one form per validated
    # argument tuple, which no operation mutates; the last three are units

    @classmethod
    def zero(cls, n: int, has_t: bool = False) -> "TorusForm":
        return _shared_zero(_dimension(n), bool(has_t))

    @classmethod
    def const(cls, n: int, coeff, has_t: bool = False) -> "TorusForm":
        n = _dimension(n)
        if type(coeff) is int and coeff == 1:
            return _shared_unit(n, bool(has_t))
        return cls(n, {(0, (0,) * n, ()): coeff}, has_t=has_t)

    @classmethod
    def single(cls, n: int, coeff, freq: Optional[Sequence[int]] = None,
               idx: Sequence[int] = (), t_exp: int = 0,
               has_t: bool = False) -> "TorusForm":
        n = _dimension(n)
        freq = tuple(freq) if freq is not None else (0,) * n
        return cls(n, {(t_exp, freq, tuple(idx)): coeff}, has_t=has_t)

    @classmethod
    def dx(cls, n: int, j: int, has_t: bool = False) -> "TorusForm":
        low = 0 if has_t else 1
        if not low <= j <= n:
            raise ValueError(f"no coordinate {j} on T^{n}")
        return _shared_unit(_dimension(n), bool(has_t), j)

    @classmethod
    def volume(cls, n: int) -> "TorusForm":
        return _shared_unit(_dimension(n), False, *range(1, n + 1))

    @classmethod
    def from_harmonic(cls, n: int, table: dict) -> "TorusForm":
        """Translation-invariant form sum c_I dx_I from a table {I: c_I}.

        Each I and c_I is an index set and a coefficient as in the
        constructor, which validates them.
        """
        return cls(n, {(0, (0,) * n, idx): coeff for idx, coeff in table.items()})

    # -- ring structure -------------------------------------------------

    def _compatible(self, other: "TorusForm"):
        if self.n != other.n or self.has_t != other.has_t:
            raise ValueError("forms live on different spaces")

    def _scaled(self, factor: int) -> dict:
        if factor == 1:
            return dict(self.terms)
        return {key: (re_num * factor, im_num * factor)
                for key, (re_num, im_num) in self.terms.items()}

    def __add__(self, other: "TorusForm") -> "TorusForm":
        self._compatible(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        den = lcm(self.den, other.den)
        # copy the operand that needs no scaling, or the larger, and walk
        # the other one into the copy; the stored sum is the same either way
        first, second = self, other
        if (den == other.den, len(other.terms)) > (den == self.den, len(self.terms)):
            first, second = other, self
        factor = den // second.den
        terms = _accumulate(first._scaled(den // first.den),
                            (second.terms if factor == 1 else second._scaled(factor)).items())
        return self._make(self.n, self.has_t, den, terms)

    def __neg__(self) -> "TorusForm":
        return self._make(self.n, self.has_t, self.den, self._scaled(-1))

    def __sub__(self, other: "TorusForm") -> "TorusForm":
        return self + (-other)

    def __mul__(self, scalar) -> "TorusForm":
        s_re, s_im, s_den = _gauss_parts(scalar)
        if not (s_re or s_im):
            return self.zero(self.n, self.has_t)
        if (s_re, s_im, s_den) == (1, 0, 1):
            return self
        if not s_im:
            terms = self._scaled(s_re)
        else:
            terms = {key: (a * s_re - b * s_im, a * s_im + b * s_re)
                     for key, (a, b) in self.terms.items()}
        return self._make(self.n, self.has_t, self.den * s_den, terms)

    __rmul__ = __mul__

    def _by_mask(self) -> dict[int, list]:
        """``{mask: [(key, (re, im)), ...]}``, built once and kept."""
        groups = self._groups
        if groups is None:
            groups = self._groups = {}
            mask_bits = _layout(self.n).mask_bits
            for key, num in self.terms.items():
                groups.setdefault(key & mask_bits, []).append((key, num))
        return groups

    def wedge(self, other: "TorusForm") -> "TorusForm":
        """Graded-commutative product with the standard Koszul sign.

        Terms are grouped by index set, so the collision test and the
        sign are computed once per pair of index sets.  The key of each
        product is one addition, the layout's bias taken off the left
        key once per row; a product whose t exponent or frequency leaves
        the key range raises PreconditionError.
        """
        self._compatible(other)
        layout = _layout(self.n)
        bias, guards = layout.bias, layout.guards
        right = other._by_mask()
        out: dict = {}
        get = out.get
        for mask1, group1 in self._by_mask().items():
            for mask2, group2 in right.items():
                if mask1 & mask2:
                    continue
                negate = _koszul_sign(mask1, mask2) < 0
                for key1, (a, b) in group1:
                    if negate:
                        a, b = -a, -b
                    key1 -= bias
                    for key2, (c, d) in group2:
                        key = key1 + key2
                        if key & guards:
                            raise PreconditionError(
                                f"a wedge product leaves the key range {_RANGE}")
                        # a product of non-zero Gaussian integers is not zero
                        re_num = a * c - b * d
                        im_num = a * d + b * c
                        prev = get(key)
                        if prev is None:
                            out[key] = (re_num, im_num)
                        else:
                            re_num += prev[0]
                            im_num += prev[1]
                            if re_num or im_num:
                                out[key] = (re_num, im_num)
                            else:
                                del out[key]
        return self._make(self.n, self.has_t, self.den * other.den, out)

    def d(self) -> "TorusForm":
        """Exterior derivative on the stored (Chern-normalized) data, kept on the form."""
        if self._derivative is not None:
            return self._derivative
        out: dict = {}
        if self.terms:
            layout = _layout(self.n)
            mask_bits, t_shift = layout.mask_bits, layout.t_shift
            coords = [(1 << j, shift) for j, shift in enumerate(layout.shifts, start=1)]
            derivatives = []
            for key, (re_num, im_num) in self.terms.items():
                mask = key & mask_bits
                # dt sorts first, so d(t^m) ^ dx_I needs no sign
                if not mask & 1:
                    m = (key >> t_shift & _SLOT) - CEILING
                    if m:
                        derivatives.append((key - (1 << t_shift) + 1, (m * re_num, m * im_num)))
                for bit, shift in coords:
                    if mask & bit:
                        continue
                    kj = (key >> shift & _SLOT) - CEILING
                    if kj:
                        # multiply by i * k_j, with the sign that moves dx_j in
                        scale = kj * _koszul_sign(bit, mask)
                        derivatives.append((key + bit, (-im_num * scale, re_num * scale)))
            _accumulate(out, derivatives)
        self._derivative = self._make(self.n, self.has_t, self.den, out)
        return self._derivative

    # -- structure queries ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_closed(self) -> bool:
        return self.d().is_zero()

    def is_real(self) -> bool:
        terms = self.terms
        layout = _layout(self.n)
        # negating every frequency maps a slot value v to 2 * CEILING - v
        # and keeps the mask and the t slot, the key's low bits
        conjugate_base, low_bits = 2 * layout.freq_bias, layout.low_bits
        for key, (re_num, im_num) in terms.items():
            low = key & low_bits
            if terms.get(conjugate_base + 2 * low - key) != (re_num, -im_num):
                return False
        return True

    def degrees(self) -> set[int]:
        mask_bits = _layout(self.n).mask_bits
        return {(key & mask_bits).bit_count() for key in self.terms}

    def degree(self) -> Optional[int]:
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("form is not homogeneous")
        return degs.pop()

    def is_invariant(self) -> bool:
        """True when every term has frequency zero: translation invariance."""
        layout = _layout(self.n)
        # the frequency slots are the key's top bits
        low = layout.t_shift + SLOT_BITS
        zero = layout.freq_bias >> low
        return all(key >> low == zero for key in self.terms)

    def component(self, degree: int) -> "TorusForm":
        mask_bits = _layout(self.n).mask_bits
        return self._make(self.n, self.has_t, self.den,
                          {key: num for key, num in self.terms.items()
                           if (key & mask_bits).bit_count() == degree})

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusForm):
            return NotImplemented
        return (self.n == other.n and self.has_t == other.has_t
                and self.den == other.den and self.terms == other.terms)

    # -- t extension ----------------------------------------------------

    def with_t(self) -> "TorusForm":
        """The same form viewed on the t-extended space."""
        if self.has_t:
            return self
        return self._make(self.n, True, self.den, self.terms)

    def mul_t(self, power: int) -> "TorusForm":
        """Multiply by t^power (requires the t extension)."""
        if not self.has_t:
            raise ValueError("mul_t needs a t-extended form")
        if power < 0:
            raise ValueError("t power must be >= 0")
        layout = _layout(self.n)
        shift = power << layout.t_shift
        terms = {key + shift: num for key, num in self.terms.items()}
        if power >= CEILING or any(key & layout.guards for key in terms):
            raise PreconditionError(f"a t exponent leaves the key range {_RANGE}")
        return self._make(self.n, True, self.den, terms)

    def restrict_t(self, value) -> "TorusForm":
        """Restrict a t-extended form to the slice t = value, an int or a Fraction."""
        if not self.has_t:
            raise ValueError("restrict_t needs a t-extended form")
        value = rational(value)
        p, q = value.numerator, value.denominator
        t_shift = _layout(self.n).t_shift
        kept = [(key, (key >> t_shift & _SLOT) - CEILING, num)
                for key, num in self.terms.items() if not key & 1]
        top = max((m for _, m, _ in kept), default=0)
        # t^m = p^m q^(top-m) / q^top over the common denominator
        return self._make(self.n, False, self.den * q ** top, _accumulate({}, (
            (key - (m << t_shift), (re_num * p ** m * q ** (top - m),
                                    im_num * p ** m * q ** (top - m)))
            for key, m, (re_num, im_num) in kept)))

    def fiber_integrate_t(self) -> "TorusForm":
        """Integrate the t fiber away: int(t^m dt ^ eta) = eta/(m+1)."""
        if not self.has_t:
            raise ValueError("fiber_integrate_t needs a t-extended form")
        t_shift = _layout(self.n).t_shift
        kept = [(key, (key >> t_shift & _SLOT) - CEILING, num)
                for key, num in self.terms.items() if key & 1]
        common = lcm(*(m + 1 for _, m, _ in kept))
        # t^m -> t^0 and dt dropped from the front of the mask
        return self._make(self.n, False, self.den * common, _accumulate({}, (
            (key - (m << t_shift) - 1, (re_num * (common // (m + 1)),
                                        im_num * (common // (m + 1))))
            for key, m, (re_num, im_num) in kept)))

    # -- circle fibers and subtorus integrals -----------------------------

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
        bit = 1 << axis
        below = bit - 1
        layout = _layout(self.n)
        mask_bits = layout.mask_bits
        shift = layout.shifts[axis - 1]  # the axis slot
        kept_low = ((1 << shift) - 1) ^ mask_bits  # the t slot and the slots below the axis
        # distinct kept keys give distinct keys, so no sum is formed
        terms = {}
        for key, (re_num, im_num) in self.terms.items():
            mask = key & mask_bits
            if not mask & bit or key >> shift & _SLOT != CEILING:
                continue
            rest = mask ^ bit
            sign = _koszul_sign(bit, rest)
            # the mask loses its axis bit, so the slots below the axis move
            # down one bit and those above it one slot and one bit
            slots = (key & kept_low) >> 1 | key >> (shift + SLOT_BITS) << (shift - 1)
            terms[slots + ((rest & below) | rest >> (axis + 1) << axis)] = \
                (sign * re_num, sign * im_num)
        return self._make(self.n - 1, False, self.den, terms)

    def invariant_table(self, degree: int) -> dict[tuple[int, ...], tuple[Fraction, Fraction]]:
        """Subtorus integrals of the degree-``degree`` part, in one scan.

        Maps each index set to the (real, imaginary) sum of the terms of
        that degree whose frequency vanishes on their own index set: the
        only terms with a non-zero integral over the coordinate subtorus
        through the basepoint 0, whose coordinates outside the index set
        are frozen at 0 and whose volume is 1.  Index sets whose terms
        cancel are left out, so a missing index set integrates to zero
        and ``{}`` means every integral of that degree vanishes.
        """
        return {_indices(mask): (Fraction(re_sum, self.den), Fraction(im_sum, self.den))
                for mask, (re_sum, im_sum) in self._invariant_sums(degree).items()}

    def _invariant_sums(self, degree: int) -> dict[int, tuple[int, int]]:
        """The scan behind :meth:`invariant_table`: ``{mask: (re, im)}``, numerators over ``den``."""
        if self.has_t:
            raise ValueError("subtorus integrals are defined on t-free forms")
        n = self.n
        mask_bits = _layout(n).mask_bits

        def vanishing():
            for key, num in self.terms.items():
                mask = key & mask_bits
                if mask.bit_count() == degree:
                    select, zero = _zero_slots(n, mask)
                    if key & select == zero:
                        yield mask, num

        return _accumulate({}, vanishing())

    # -- pullback ---------------------------------------------------------

    def pullback(self, matrix: Sequence[Sequence[int]]) -> "TorusForm":
        """Pullback along the torus map x -> A x.

        ``matrix`` has one row per target coordinate (matching this
        form's dimension) and one column per source coordinate, so
        frequencies map by the transpose and dy_j expands to
        sum_l A[j][l] dx_l.  t data is carried through unchanged.
        """
        rows = [int_tuple(row) for row in matrix]
        if len(rows) != self.n:
            raise ValueError(f"matrix has {len(rows)} rows, expected {self.n}")
        m_src = len(rows[0]) if rows else 0
        if any(len(r) != m_src for r in rows):
            raise ValueError("ragged matrix")
        expansions: dict[int, dict[int, int]] = {}

        def expand(spatial: int) -> dict[int, int]:
            """dy_I as {source mask: integer coefficient}: the minors of A."""
            partial = {0: 1}
            for j in _indices(spatial):
                partial = collect(
                    (chosen | 1 << l, c * entry * _koszul_sign(chosen, 1 << l))
                    for chosen, c in partial.items()
                    for l, entry in enumerate(rows[j - 1], start=1)
                    if entry and not chosen >> l & 1)
            return partial

        layout = _layout(self.n)

        def pulled():
            for key, (re_num, im_num) in self.terms.items():
                t_exp, freq, mask = layout.unpack(key)
                new_freq = tuple(
                    sum(rows[j][l] * freq[j] for j in range(self.n)) for l in range(m_src)
                )
                try:
                    base = _slots(t_exp, *new_freq)
                except ValueError:
                    raise PreconditionError(f"pulled-back frequency vector {new_freq} "
                                            f"leaves the key range {_RANGE}") from None
                dt = mask & 1
                spatial = mask ^ dt
                if spatial not in expansions:
                    expansions[spatial] = expand(spatial)
                for chosen, c in expansions[spatial].items():
                    yield base + (chosen | dt), (re_num * c, im_num * c)

        return self._make(m_src, self.has_t, self.den, _accumulate({}, pulled()))

    # -- textual serialization ---------------------------------------------

    def items(self) -> list:
        """Every stored term as ``((t_exp, freq, mask), (re, im))``, in storage order.

        The keys decoded: the coefficient is ``(re + im*i) / den`` and
        bit j of ``mask`` is set when dx_j is in the index set.
        """
        unpack = _layout(self.n).unpack
        return [(unpack(key), num) for key, num in self.terms.items()]

    def to_text(self) -> str:
        """Canonical rendering, one term per line; bit-exact round-trip."""
        if not self.terms:
            return "0"
        rows = sorted((_indices(mask), t_exp, freq, num)
                      for (t_exp, freq, mask), num in self.items())
        lines = []
        den = self.den
        for idx, t_exp, freq, (re_num, im_num) in rows:
            sign = "-" if im_num < 0 else "+"
            if den == 1:
                parts = [f"({re_num}{sign}{abs(im_num)}i)"]
            else:
                parts = [f"({_ratio_text(re_num, den)}{sign}{_ratio_text(abs(im_num), den)}i)"]
            if t_exp:
                parts.append(f"t^{t_exp}")
            parts.append("exp[" + ",".join(map(str, freq)) + "]")
            indices = ",".join(map(str, idx))
            if indices[:1] == "0":  # index 0 is dt, which sorts first
                indices = "t" + indices[1:]
            parts.append("d{" + indices + "}")
            lines.append(" ".join(parts))
        return "\n".join(lines)

    def __repr__(self):
        flat = "; ".join(self.to_text().splitlines())
        return f"TorusForm(T^{self.n}{'+t' if self.has_t else ''}: {flat})"


# The shared constants, keyed by validated arguments; typed, so that an
# argument equal to an int without being one (True) has its own entry.

@lru_cache(maxsize=None, typed=True)
def _shared_zero(n: int, has_t: bool) -> TorusForm:
    return TorusForm._make(n, has_t, 1, {})


@lru_cache(maxsize=None, typed=True)
def _shared_unit(n: int, has_t: bool, *idx: int) -> TorusForm:
    # idx is spread, so that each entry's type is in the cache key: a
    # tuple argument would share one entry between (1.0,) and (1,)
    return TorusForm._checked(n, has_t, 1, [((0, (0,) * n, idx), (1, 0))])


def _ratio_text(num: int, den: int) -> str:
    """``num/den`` in lowest terms, as ``str(Fraction(num, den))`` renders it."""
    common = gcd(num, den)
    if common == den:
        return str(num // den)
    return f"{num // common}/{den // common}"


def _ratio(token: str, piece: str):
    """A coefficient token ``p`` or ``p/q`` as an int, or as a Fraction when q != 1."""
    num, _, den = token.partition("/")
    den = int(den or 1)
    if not den:
        raise ValueError(f"zero denominator in form term: {piece!r}")
    return int(num) if den == 1 else Fraction(int(num), den)


# the one integer grammar of forms and configs, ASCII digits with an
# optional minus; a rational token as _ratio reads it is ``p`` or ``p/q``
_INT_RE = re.compile(r"-?\d+", re.ASCII)
_RATIONAL_RE = re.compile(rf"{_INT_RE.pattern}(?:/\d+)?", re.ASCII)


def _list_pattern(item: str) -> str:
    """Comma-separated ``item``s, possibly none, with spaces around each."""
    return rf"\s*(?:(?:{item})\s*(?:,\s*(?:{item})\s*)*)?"


_TERM_RE = re.compile(
    rf"^\(\s*({_RATIONAL_RE.pattern})\s*([+-]\s*\d+(?:/\d+)?)i\s*\)"
    r"(?:\s+t\^(\d+))?"
    rf"\s+exp\[({_list_pattern(_INT_RE.pattern)})\]"
    rf"\s+d\{{({_list_pattern('t|' + _INT_RE.pattern)})\}}\s*$",
    re.ASCII,
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
    terms = []
    saw_t = False
    for piece in pieces:
        match = _TERM_RE.match(piece)
        if not match:
            raise ValueError(f"bad form term: {piece!r}")
        re_part, im_part, t_exp, freq_part, idx_part = match.groups()
        coeff = (_ratio(re_part, piece), _ratio(im_part.replace(" ", ""), piece))
        # _TERM_RE admits only _INT_RE entries, which int() reads as written
        freq = tuple(map(int, freq_part.split(","))) if freq_part.strip() else ()
        idx = tuple(0 if s.strip() == "t" else int(s) for s in idx_part.split(",")) \
            if idx_part.strip() else ()
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
    # every key is checked; then duplicates add up and those that cancel are dropped
    return TorusForm._checked(n, has_t, *_over_common_den(terms))


def chern_transforms(form: TorusForm, top: int) -> list[TorusForm]:
    """[1, C_1(form), ..., C_top(form)]: every universal polynomial at once.

    C_k is the degree-k universal polynomial with the degree-2j
    component of ``form`` substituted for the j'th variable, so it is
    the k'th elementary symmetric function of roots whose j'th power
    sums are p_j = j! * component(2j); :func:`symfun.newton` builds
    them in one pass, and the degree-0 component never enters.
    Even forms commute and the arithmetic is exact, so the stored
    forms equal those of evaluating each polynomial monomial by
    monomial.  A form with odd-degree content is rejected.

    The list is kept on the form: a later call validates its arguments,
    then extends the kept prefix if it is too short, and returns a
    fresh list.
    """
    if any(degree % 2 for degree in form.degrees()):
        raise ValueError("form has odd-degree content")
    cap = form.n + (1 if form.has_t else 0)
    if 2 * top > cap:
        raise ValueError(f"degree {2 * top} exceeds the dimension cap {cap}")
    known = form._transforms or [TorusForm.const(form.n, 1, has_t=form.has_t)]
    if len(known) <= top:
        sums = [None] + [form.component(2 * j) * factorial(j) for j in range(1, top + 1)]
        known = form._transforms = newton(sums, known, TorusForm.wedge,
                                          TorusForm.__add__, TorusForm.__mul__)
    return known[:top + 1]


def chern_log(form: TorusForm, top: int) -> TorusForm:
    """L(form) = sum_(j <= top) (-1)^(j-1) (j-1)! component(2j).

    Newton's identity in generating-function form: on an even form the
    total transform 1 + C_1 + C_2 + ... is exp(L(form)) up to degree
    2 * top.  L is linear, so exp(L) turns a sum of even forms into the
    wedge of their total transforms.
    """
    total = TorusForm.zero(form.n, form.has_t)
    for j in range(1, top + 1):
        total = total + form.component(2 * j) * ((-1) ** (j - 1) * factorial(j - 1))
    return total


def chern_transform(form: TorusForm, i: int) -> TorusForm:
    """Apply the degree-i universal polynomial to an even form.

    Entry ``i`` of :func:`chern_transforms` (Newton's identity): the
    degree-2j component stands for the j'th variable and the degree-0
    component never enters.  A form with odd-degree content is
    rejected.
    """
    if i < 1:
        raise ValueError("index must be >= 1")
    return chern_transforms(form, i)[i]
