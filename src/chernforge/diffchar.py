"""Differential characters on flat tori and differential Chern classes.

A character of degree d is stored as two forms: a harmonic part, a
real translation-invariant d-form with rational coefficients (an
integral class has denominator 1), and a global real transgression
form of degree d-1.  Its curvature is harmonic + d(transgression).  On
a torus the coordinate subtori form a homology basis and the cohomology
is torsion-free, so curvature together with subtorus holonomies mod 1
is faithful data; equality of characters is defined through exactly
that pair.

The constructor checks both parts with the one form check of every
cycle and character, ``bundles.checked_form``: the harmonic part must
be a real d-form, the transgression a real (d-1)-form; the harmonic
part must also be translation-invariant.

The main constructions: the degree-2i class of a cycle (bundle plus odd
form) built from Cheeger-Simons line classes and a transgression
correction, every index of a cycle at once; an independent route
that runs Newton's identity on the character components, also every
index at once; the Whitney check on the total class, which is the
plain list [1, c_1, ..., c_(n//2)]; and odd classes by suspension and
circle integration.  The recurrences are the ring-generic ones of
:mod:`symfun`, run here with cup as the product.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Optional, Sequence

from .bundles import RHO_RULE, KCycle, LineBundle, OddKCycle, checked_form
from .errors import PreconditionError
from .forms import TorusForm, _indices, chern_log, chern_transforms
from .symfun import divided_powers, elementary_symmetric, newton, rational

Subset = tuple[int, ...]


def _check_degree(n: int, degree: int):
    if degree < 0 or degree > n:
        raise ValueError(f"no degree-{degree} characters on T^{n}")


class DiffChar:
    """Differential character on T^n of pure degree d."""

    __slots__ = ("n", "degree", "harmonic", "trans", "_curvature")

    def __init__(self, n: int, degree: int,
                 harmonic: Optional[TorusForm] = None,
                 trans: Optional[TorusForm] = None):
        _check_degree(n, degree)
        harmonic = checked_form(harmonic, n, (
            "harmonic part", degree.__eq__, "harmonic part must have the character's degree"))
        if not harmonic.is_invariant():
            raise ValueError("harmonic part must be translation-invariant")
        trans = checked_form(trans, n, (
            "transgression", (degree - 1).__eq__,
            "transgression degree must be one below the character"))
        self.n, self.degree, self.harmonic, self.trans = n, degree, harmonic, trans
        self._curvature = None

    @classmethod
    def _make(cls, n: int, degree: int, harmonic: TorusForm,
              trans: TorusForm) -> "DiffChar":
        # trusted constructor: the parts must already be valid for (n, degree)
        self = object.__new__(cls)
        self.n, self.degree, self.harmonic, self.trans = n, degree, harmonic, trans
        self._curvature = None
        return self

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n: int, degree: int) -> "DiffChar":
        _check_degree(n, degree)
        zero = TorusForm.zero(n)
        return cls._make(n, degree, zero, zero)

    @classmethod
    def unit(cls, n: int) -> "DiffChar":
        _check_degree(n, 0)
        return cls._make(n, 0, TorusForm.const(n, 1), TorusForm.zero(n))

    @classmethod
    def from_form(cls, rho: TorusForm, degree: Optional[int] = None) -> "DiffChar":
        """The inclusion of forms: harmonic part zero, transgression rho."""
        if degree is None:
            if rho.is_zero():
                raise ValueError("degree of the zero-form character is ambiguous")
            degree = rho.degree() + 1
        return cls(rho.n, degree, None, rho)

    # -- structure maps ---------------------------------------------------

    @property
    def integral(self) -> bool:
        return self.harmonic.den == 1

    def curvature(self) -> TorusForm:
        if self._curvature is None:
            self._curvature = self.harmonic + self.trans.d()
        return self._curvature

    def period_table(self) -> dict[Subset, int]:
        """Integer periods of the curvature over coordinate subtori.

        The exterior derivative never produces translation-invariant
        terms and exact forms have vanishing periods, so the table is
        exactly the harmonic coefficient table.
        """
        if not self.integral:
            raise PreconditionError("period table of a non-integral character")
        # an integral harmonic part has den 1, so the numerators are the periods
        return {_indices(mask): re_sum
                for mask, (re_sum, _) in self.harmonic._invariant_sums(self.degree).items()}

    def _holonomies(self) -> tuple[int, dict[int, int]]:
        """``(den, {mask: re})``: the holonomy over a (d-1)-subtorus is re/den mod 1.

        One scan of the transgression, no Fraction; a subtorus that is
        missing has holonomy zero.  An imaginary holonomy raises.
        """
        if self.degree == 0:
            return 1, {}
        sums = self.trans._invariant_sums(self.degree - 1)
        if any(im_sum for _, im_sum in sums.values()):
            raise ArithmeticError("holonomy of a real transgression must be real")
        return self.trans.den, {mask: re_sum for mask, (re_sum, _) in sums.items()}

    def holonomy_table(self) -> dict[Subset, Fraction]:
        """Holonomy mod 1 over every (d-1)-subtorus, zero ones included."""
        if self.degree == 0:
            return {}
        den, holonomies = self._holonomies()
        table = dict.fromkeys(combinations(range(1, self.n + 1), self.degree - 1),
                              Fraction(0))
        for mask, re_sum in holonomies.items():
            if re_sum % den:
                table[_indices(mask)] = Fraction(re_sum % den, den)
        return table

    # -- additive structure -----------------------------------------------

    def add(self, other: "DiffChar") -> "DiffChar":
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("characters live in different groups")
        return DiffChar._make(self.n, self.degree, self.harmonic + other.harmonic,
                              self.trans + other.trans)

    def scale(self, value) -> "DiffChar":
        """Multiply by a rational ``value``, an int or a Fraction; by 1 it is ``self``."""
        value = rational(value)
        if value == 1:
            return self
        return DiffChar._make(self.n, self.degree, self.harmonic * value,
                              self.trans * value)

    # -- multiplicative structure ------------------------------------------

    def cup(self, other: "DiffChar") -> "DiffChar":
        """Cup product on the even-degree fragment.

        The transgression of the product is
        x.trans ^ curvature(y) + x.harmonic ^ y.trans, which equals
        x.trans ^ y.harmonic + x.harmonic ^ y.trans + x.trans ^ d(y.trans)
        since curvature(y) = y.harmonic + d(y.trans) and the wedge is
        exactly bilinear: it stores the same forms with one wedge fewer,
        and reads the curvature ``y`` keeps.  Curvature multiplicativity
        is asserted on every call.
        """
        if self.degree % 2 or other.degree % 2:
            raise PreconditionError("cup is supported on even degrees only")
        if self.n != other.n:
            raise ValueError("characters live on different tori")
        if self.degree + other.degree > self.n:
            raise PreconditionError(
                f"cup degree {self.degree + other.degree} exceeds T^{self.n}")
        hx, hy = self.harmonic, other.harmonic
        trans = self.trans.wedge(other.curvature()) + hx.wedge(other.trans)
        result = DiffChar._make(self.n, self.degree + other.degree, hx.wedge(hy), trans)
        if result.curvature() != self.curvature().wedge(other.curvature()):
            raise ArithmeticError("cup product broke curvature multiplicativity")
        return result

    # -- functoriality ------------------------------------------------------

    def pullback(self, matrix: Sequence[Sequence[int]]) -> "DiffChar":
        """Pullback along x -> A x; rows of A index this character's torus."""
        harmonic = self.harmonic.pullback(matrix)
        _check_degree(harmonic.n, self.degree)
        return DiffChar._make(harmonic.n, self.degree, harmonic,
                              self.trans.pullback(matrix))

    def integrate_circle(self) -> "DiffChar":
        """Integrate over the circle coordinate 1, degree dropping by one.

        The underlying-class data integrates with the front Koszul sign.
        The transgression has odd degree, so it carries the degree twist
        (a minus sign) that makes circle integration commute with taking
        curvature; with that twist the form-level and character-level
        integrations agree on all even forms.
        """
        if self.degree < 1:
            raise PreconditionError("cannot integrate a degree-0 character")
        return DiffChar._make(self.n - 1, self.degree - 1,
                              self.harmonic.fiber_integrate_circle(1),
                              -(self.trans.fiber_integrate_circle(1)))

    # -- comparison ----------------------------------------------------------

    def _holonomy_gaps(self, other: "DiffChar"):
        """``(mask, num, den)`` for each subtorus whose holonomies differ mod 1 by num/den.

        ``self`` is scanned first, so its imaginary holonomy raises first.
        """
        den_a, mine = self._holonomies()
        den_b, theirs = other._holonomies()
        den = den_a * den_b
        for mask in mine.keys() | theirs.keys():
            gap = (mine.get(mask, 0) * den_b - theirs.get(mask, 0) * den_a) % den
            if gap:
                yield mask, gap, den

    def same_class(self, other: "DiffChar") -> bool:
        """Equality as characters: same curvature, same holonomies mod 1."""
        if self.n != other.n or self.degree != other.degree:
            return False
        if self.curvature() != other.curvature():
            return False
        return next(self._holonomy_gaps(other), None) is None

    def discrepancy(self, other: "DiffChar") -> dict:
        """Exact difference data; all-zero entries mean equal classes."""
        curv = self.curvature() - other.curvature()
        gaps = sorted((_indices(mask), Fraction(gap, den))
                      for mask, gap, den in self._holonomy_gaps(other))
        holo = {",".join(map(str, subset)): str(diff) for subset, diff in gaps}
        return {
            "verdict": curv.is_zero() and not holo,
            "curvature_discrepancy": curv.to_text(),
            "holonomy_discrepancy": holo,
        }

    def __repr__(self):
        return (f"DiffChar(T^{self.n}, deg={self.degree}, "
                f"harmonic={self.harmonic.to_text()!r}, trans={self.trans.to_text()!r})")


def cs_class(line: LineBundle) -> DiffChar:
    """Degree-2 Cheeger-Simons class of a line bundle with connection.

    Curvature is the bundle curvature; the holonomy along coordinate
    loop l is theta_l plus the loop integral of the perturbation, mod 1.
    Built once per line and kept on it.
    """
    if line._cs_class is None:
        shifts = TorusForm.from_harmonic(line.n, {(l,): v for l, v in enumerate(line.theta, 1)})
        line._cs_class = DiffChar(line.n, 2, line.harmonic_curvature(), line.beta + shifts)
    return line._cs_class


def _classes_along(cycle: KCycle, rho_t: TorusForm) -> list[DiffChar]:
    """[1, c_1, ..., c_(n//2)] of a cycle along the t-extended path rho_t.

    The base classes e_a are the elementary symmetric polynomials of
    the Cheeger-Simons line classes under cup.  The transgression
    correction a(int_t C_k(R)) of the path curvature
    R = ch + d rho_t comes from the product formula
    C(R) = prod_l (1 + F_l) ^ exp(L(d rho_t)), L being the linear map of
    :func:`chern_log`: the line factor e_a(F_1, ..., F_r) is the
    curvature of e_a and has no t, so
    int_t C_k(R) = sum_(a<k) e_a ^ [int_t exp(L(d rho_t))]_(2(k-a)-1),
    with one divided-power pass and one fiber integration for all k.
    Two postconditions are asserted for every index: the harmonic part
    is integral, and the curvature equals the Newton pass on the cycle
    curvature.  Equal curvatures have equal periods, since d adds no
    translation-invariant term, so the curvature check also pins the
    underlying class once it is integral.
    """
    n, top = cycle.n, cycle.n // 2
    # below T^2 a line has no degree-2 class, and the total class is [1]
    lines = cycle.bundle.lines if top else ()
    base = elementary_symmetric(
        [cs_class(line) for line in lines],
        [DiffChar.unit(n)] + [DiffChar.zero(n, 2 * k) for k in range(1, top + 1)],
        DiffChar.cup, DiffChar.add)
    # the constant 1 of exp has no dt and integrates to zero
    rho_factor = sum(divided_powers(chern_log(rho_t.d(), top), top,
                                    TorusForm.wedge, TorusForm.__mul__),
                     TorusForm.zero(n)).fiber_integrate_t()
    expected_curvature = chern_transforms(cycle.curvature(), top)
    classes = [base[0]]
    for i in range(1, top + 1):
        # e_0 = 1, so the a = 0 term needs no wedge
        trans = rho_factor.component(2 * i - 1)
        for a in range(1, i):
            trans = trans + base[a].curvature().wedge(rho_factor.component(2 * (i - a) - 1))
        result = base[i].add(DiffChar.from_form(trans, degree=2 * i))
        if not result.integral:
            raise ArithmeticError(f"integrality failed at index {i}")
        if result.curvature() != expected_curvature[i]:
            raise ArithmeticError(f"curvature compatibility failed at index {i}")
        classes.append(result)
    return classes


def _chern_classes(cycle: KCycle) -> list[DiffChar]:
    """The classes along the linear path t * rho, built once per cycle."""
    if cycle._classes is None:
        cycle._classes = _classes_along(cycle, cycle.rho.mul_t(1))
    return cycle._classes


def _check_even_index(cycle: KCycle, i: int):
    if i < 1:
        raise PreconditionError("class index must be >= 1")
    if 2 * i > cycle.n:
        raise PreconditionError(f"no degree-{2 * i} classes on T^{cycle.n}")


def chern_class(cycle: KCycle, i: int) -> DiffChar:
    """The degree-2i differential Chern class of a cycle.

    The base class is the i'th elementary symmetric polynomial of the
    Cheeger-Simons line classes under cup, plus the transgression
    correction a(int_t C_i(R)) along the linear path rho_t = t rho,
    C_i being the universal form transform and R = ch + d rho_t the
    path curvature; the correction is read off the product formula
    C(R) = prod_l (1 + F_l) ^ exp(L(d rho_t)).  Every index of a cycle
    is computed in one pass on the first call and kept on the cycle;
    that pass asserts, for every index, that the harmonic part is
    integral and that the curvature equals the universal polynomial of
    the cycle curvature (a Newton pass, a different algorithm from the
    product formula).  Together they make the underlying integral class
    the topological one, whose periods the curvature carries.
    """
    _check_even_index(cycle, i)
    return _chern_classes(cycle)[i]


def chern_class_via_ch(cycle: KCycle, i: int) -> DiffChar:
    """Independent route: evaluate the universal polynomial on the
    differential character components.

    The degree-2j character component ch_j is the divided-power series
    of the line classes under cup plus the inclusion of the matching
    odd-form component; one :func:`newton` pass over the power sums
    j! * ch_j gives every index, kept on the cycle.  Each class must
    come out integral, which is asserted.  Contract: agrees with
    :func:`chern_class` as characters.
    """
    _check_even_index(cycle, i)
    n = cycle.n
    if cycle._via_ch is None:
        top = n // 2
        comps = [DiffChar.from_form(cycle.rho.component(2 * j - 1), degree=2 * j)
                 for j in range(1, top + 1)]
        for line in cycle.bundle.lines:
            powers = divided_powers(cs_class(line), top, DiffChar.cup, DiffChar.scale)
            comps = list(map(DiffChar.add, comps, powers))
        classes = newton([None] + [ch.scale(factorial(j)) for j, ch in enumerate(comps, 1)],
                         [DiffChar.unit(n)], DiffChar.cup, DiffChar.add, DiffChar.scale)
        for k, result in enumerate(classes[1:], 1):
            if not result.integral:
                raise ArithmeticError(
                    f"character route produced a non-integral class at index {k}")
        cycle._via_ch = classes
    return cycle._via_ch[i]


def total_chern_class(cycle: KCycle) -> list[DiffChar]:
    """The total class [1, c_1, ..., c_(n//2)], a copy of the memoised list."""
    return list(_chern_classes(cycle))


def check_group_hom(w: KCycle, v: KCycle) -> tuple[bool, dict]:
    """Whitney check: total class of the sum against the cup of totals,
    formed degree by degree with the unit terms added directly."""
    if w.n != v.n:
        raise ValueError("cycles on different tori")
    combined = total_chern_class(w.add(v))
    x, y = total_chern_class(w), total_chern_class(v)
    components = {}
    for k in range(1, len(combined)):
        product = x[k].add(y[k])
        for a in range(1, k):
            product = product.add(x[a].cup(y[k - a]))
        components[str(2 * k)] = combined[k].discrepancy(product)
    verdict = all(entry["verdict"] for entry in components.values())
    return verdict, {"verdict": verdict, "components": components}


def check_path_independence(cycle: KCycle, rho_t: TorusForm) -> list[bool]:
    """Recompute every class along the t-extended path rho_t, which must
    run from 0 at t = 0 to the cycle's form at t = 1, and compare each
    exactly with the memoised one: entry i is the verdict for c_i."""
    if rho_t.n != cycle.n:
        raise PreconditionError(f"path must be a form on T^{cycle.n} x [0,1]")
    if not rho_t.restrict_t(0).is_zero():
        raise PreconditionError("path must vanish at t=0")
    if rho_t.restrict_t(1) != cycle.rho:
        raise PreconditionError("path must equal the cycle form at t=1")
    return list(map(DiffChar.same_class, _classes_along(cycle, rho_t),
                    _chern_classes(cycle)))


def _require_admissible_shift(shift: Optional[TorusForm], n: int) -> TorusForm:
    """The shift once it is admissible, ``None`` read as zero."""
    # the shift is added to rho, so it takes rho's degree rule under its own name
    try:
        shift = checked_form(shift, n, ("shift", RHO_RULE[1], "shift must have odd degrees"))
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None
    if not shift.is_closed():
        raise PreconditionError("shift must be closed")
    for degree in shift.degrees():
        for re_sum, im_sum in shift._invariant_sums(degree).values():
            if im_sum or re_sum % shift.den:
                raise PreconditionError("shift must have integer periods")
    return shift


def check_shift_invariance(cycle: KCycle, shift: Optional[TorusForm]) -> list[bool]:
    """Classes must not move under closed integer-period (or exact) shifts:
    entry i is the verdict for c_i of the shifted cycle; ``None`` is the zero shift."""
    shift = _require_admissible_shift(shift, cycle.n)
    shifted = KCycle(cycle.bundle, cycle.rho + shift)
    return list(map(DiffChar.same_class, _chern_classes(shifted), _chern_classes(cycle)))


def odd_chern_class(cycle: OddKCycle, i: int) -> DiffChar:
    """Odd-degree class: suspend, take the even class, integrate the circle.

    Only odd i with i <= n are admissible.  The harmonic part of the
    result is checked against the winding data: each suspended harmonic
    curvature has a dx_1 factor, so it is sum_j sum_l m_jl dx_l for
    i = 1 and zero above.
    """
    if i < 1 or i % 2 == 0:
        raise PreconditionError("odd classes need an odd positive index")
    if i > cycle.n:
        raise PreconditionError(f"no degree-{i} classes on T^{cycle.n}")
    half = (i + 1) // 2
    result = chern_class(cycle.suspended(), half).integrate_circle()
    expected = TorusForm.zero(cycle.n) if i > 1 else cycle.winding_form()
    if result.harmonic != expected:
        raise ArithmeticError("odd-class periods disagree with the winding data")
    return result
