"""Exact graded polynomial algebra over the rationals.

Houses the three recurrences behind every Chern class, written once
with the ring given as callables and run on polynomials, forms and
characters alike: :func:`elementary_symmetric` (roots to classes),
:func:`newton` (power sums to classes) and :func:`divided_powers` (a
root to its character series).  On top sit the universal polynomials
that turn Chern-character components into Chern classes,
the inverse conversion, expansion into Chern roots up to a degree
bound, and the total-class sum identity behind the Whitney formula.
Variables come in two alphabets (``s1, s2, ...`` and a primed copy) so
that the sum identity is a single-ring statement; ``s_i`` and its
primed twin both carry degree ``i``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations, groupby, repeat
from math import factorial, lcm, prod
from operator import add, mul
from typing import Callable, Optional


# A variable is (alphabet, index) with alphabet 0 for s_i and 1 for the
# primed copy; a monomial is a sorted tuple of (variable, exponent)
# pairs with positive exponents.
Var = tuple[int, int]
Mono = tuple[tuple[Var, int], ...]

ONE_MONO: Mono = ()


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


def rational(value) -> Fraction:
    """An int or a Fraction as a Fraction; a Fraction is returned as it is.

    Anything else, a float or a string included, raises TypeError, so
    no input is ever rounded or parsed.  The one check for exact
    rational inputs, here and in forms, characters and bundles.
    """
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, int):
        raise TypeError(f"expected an int or a Fraction, got {value!r}")
    return Fraction(value)


def mono_degree(mono: Mono) -> int:
    return sum(var[1] * exp for var, exp in mono)


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for var, exp in b:
        merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def elementary_symmetric(factors, start: list, times, plus) -> list:
    """[e_0, e_1, ..., e_top] of ``factors`` in any ring, in one pass.

    ``start`` is ``[1, 0_1, ..., 0_top]``, since a zero can depend on its
    degree.  Each factor x updates E_k <- E_k + E_(k-1) * x from the top
    down (E_1 <- E_1 + x); entries above the number of factors stay the
    start zeros.  The order is fixed because the cup product of
    characters commutes only up to exact transgressions, so another
    order stores other forms.  Every product here multiplies factors in
    their given order, so with ``times`` and ``plus`` exactly bilinear
    this stores the same forms as summing the product of every k-subset.
    """
    out = list(start)
    top = len(out) - 1
    for count, x in enumerate(factors):
        for k in range(min(count + 1, top), 1, -1):
            out[k] = plus(out[k], times(out[k - 1], x))
        if top:
            out[1] = plus(out[1], x)
    return out


def newton(sums: list, start: list, times, plus, scale) -> list:
    """[e_0, e_1, ..., e_top] from the power sums [_, p_1, ..., p_top].

    Newton's identity k * e_k = sum_{j=1..k} (-1)^(j-1) * e_(k-j) * p_j
    in any ring given by its operations; ``scale`` multiplies by a
    Fraction.  ``start`` is a known prefix [e_0, ..., e_m], at least
    [1], that the pass extends.  The signs are folded into the power
    sums once, the j = k term is the signed p_k itself (e_0 being 1),
    and ``e`` stays on the left of every product.
    """
    signed = [None] + [p if j % 2 else scale(p, -1) for j, p in enumerate(sums[1:], 1)]
    out = list(start)
    for k in range(len(out), len(sums)):
        total = signed[k]
        for j in range(1, k):
            total = plus(total, times(out[k - j], signed[j]))
        out.append(scale(total, Fraction(1, k)))
    return out


def divided_powers(x, top: int, times, scale) -> list:
    """[x, x^2/2!, ..., x^top/top!] in any ring, one product per entry."""
    out = []
    for j in range(1, top + 1):
        out.append(scale(times(out[-1], x), Fraction(1, j)) if out else x)
    return out


class GradedPoly:
    """Polynomial with exact rational coefficients in graded variables.

    Stored as a map from canonical monomials to nonzero coefficients, so
    equal polynomials have identical representations.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = collect((mono, rational(coeff)) for mono, coeff in (terms or {}).items())

    @classmethod
    def _make(cls, terms: dict) -> "GradedPoly":
        # trusted constructor: coefficients must be non-zero Fractions
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def const(cls, value) -> "GradedPoly":
        return cls({ONE_MONO: value})

    @classmethod
    def var(cls, index: int, prime: int = 0) -> "GradedPoly":
        if index < 1:
            raise ValueError("variable index must be >= 1")
        if prime not in (0, 1):
            raise ValueError("alphabet must be 0 or 1")
        return cls({(((prime, index), 1),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        return GradedPoly._make(collect(other.terms.items(), self.terms))

    def __neg__(self) -> "GradedPoly":
        return GradedPoly._make({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def scale(self, value) -> "GradedPoly":
        """Multiply by a rational ``value``, an int or a Fraction."""
        value = rational(value)
        if not value:
            return GradedPoly()
        return GradedPoly._make({m: c * value for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return GradedPoly._make(collect(
            (mono_mul(m1, m2), c1 * c2)
            for m1, c1 in self.terms.items() for m2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def uses_only_unprimed(self) -> bool:
        return all(var[0] == 0 for mono in self.terms for var, _ in mono)

    def substitute(self, table: Callable[[Var], "GradedPoly"]) -> "GradedPoly":
        """Replace each variable by ``table(var)`` and expand.

        Powers of the images are cached per call.
        """
        powers: dict[tuple[Var, int], GradedPoly] = {}

        def power(var: Var, exp: int) -> GradedPoly:
            key = (var, exp)
            if key not in powers:
                powers[key] = table(var) if exp == 1 else power(var, exp - 1) * table(var)
            return powers[key]

        def expanded():
            for mono, coeff in self.terms.items():
                term = GradedPoly.const(coeff)
                for var, exp in mono:
                    term = term * power(var, exp)
                yield from term.terms.items()

        return GradedPoly._make(collect(expanded()))

    def render(self) -> str:
        """Debug rendering: sorted monomials in ``a/b*s1^2*s2`` form."""
        if not self.terms:
            return "0"
        def mono_key(mono: Mono):
            return (mono_degree(mono), mono)
        chunks = []
        for mono in sorted(self.terms, key=mono_key):
            coeff = self.terms[mono]
            factors = [str(coeff)]
            for (prime, idx), exp in mono:
                name = f"sp{idx}" if prime else f"s{idx}"
                factors.append(name if exp == 1 else f"{name}^{exp}")
            chunks.append("*".join(factors))
        return " + ".join(chunks)

    def __repr__(self):
        return f"GradedPoly({self.render()})"


class RootPoly:
    """Polynomial in root variables x1..xk, truncated at total degree D."""

    __slots__ = ("k", "bound", "terms")

    def __init__(self, k: int, bound: int, terms: Optional[dict] = None):
        self.k = k
        self.bound = bound
        # every coefficient is converted, also one above the bound
        converted = [(expvec, rational(coeff)) for expvec, coeff in (terms or {}).items()]
        self.terms = collect(pair for pair in converted if sum(pair[0]) <= bound)

    @classmethod
    def _make(cls, k: int, bound: int, terms: dict) -> "RootPoly":
        # trusted constructor: coefficients non-zero, degrees within bound
        self = object.__new__(cls)
        self.k, self.bound, self.terms = k, bound, terms
        return self

    @classmethod
    def const(cls, k: int, bound: int, value) -> "RootPoly":
        return cls(k, bound, {(0,) * k: value})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootPoly):
            return NotImplemented
        return self.k == other.k and self.terms == other.terms

    def __add__(self, other: "RootPoly") -> "RootPoly":
        return RootPoly._make(self.k, self.bound, collect(other.terms.items(), self.terms))

    def __sub__(self, other: "RootPoly") -> "RootPoly":
        return self + RootPoly._make(other.k, other.bound,
                                     {e: -c for e, c in other.terms.items()})

    def __mul__(self, other: "RootPoly") -> "RootPoly":
        right = [(e2, sum(e2), c2) for e2, c2 in other.terms.items()]
        return RootPoly._make(self.k, self.bound, collect(
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, d2, c2 in right
            if sum(e1) + d2 <= self.bound))

    def __repr__(self):
        return f"RootPoly(k={self.k}, bound={self.bound}, {len(self.terms)} terms)"


@cache
def _sigma(i: int) -> GradedPoly:
    # the j'th character component is p_j / j!, so p_j = j! * s_j; one
    # Newton step extends the prefix [1, sigma_1, ..., sigma_(i-1)]
    if not i:
        return GradedPoly.const(1)
    return newton(
        [None] + [GradedPoly.var(j).scale(factorial(j)) for j in range(1, i + 1)],
        [_sigma(j) for j in range(i)],
        GradedPoly.__mul__, GradedPoly.__add__, GradedPoly.scale)[i]


def chern_polynomial(i: int) -> GradedPoly:
    """The degree-i universal polynomial in s1..si.

    Substituting the Chern-character components for the variables gives
    the i'th elementary symmetric function of the Chern roots; the
    computation runs through Newton's identities and is exact.
    """
    if i < 1:
        raise ValueError("chern_polynomial requires i >= 1")
    return _sigma(i)


@cache
def _power_sum_in_sigma(k: int) -> GradedPoly:
    # p_k = sigma_1 p_{k-1} - sigma_2 p_{k-2} + ... + (-1)^{k-1} k sigma_k,
    # with the variables s_i now standing for sigma_i.
    acc = GradedPoly.var(k).scale(Fraction((-1) ** (k - 1) * k))
    for m in range(1, k):
        term = GradedPoly.var(m) * _power_sum_in_sigma(k - m)
        acc = acc + term.scale(Fraction((-1) ** (m - 1)))
    return acc


def ch_from_chern(j: int) -> GradedPoly:
    """Inverse conversion: the j'th character component in the sigma basis.

    Round-trips with :func:`chern_polynomial`: composing the two
    substitutions is the identity on generators.
    """
    if j < 1:
        raise ValueError("ch_from_chern requires j >= 1")
    return _power_sum_in_sigma(j).scale(Fraction(1, factorial(j)))


def _times_power_sum(terms: dict, j: int, k: int) -> dict:
    """p_j times an integer combination of monomial symmetric polynomials.

    A key is a partition (descending tuple of at most k parts) standing
    for m_lambda in k variables.  Raising one part a of lambda to a+j
    (a = 0 appends a part, allowed while lambda has fewer than k parts)
    gives mu, and p_j * m_lambda is the sum over distinct a of
    mult_mu(a+j) * m_mu (Macdonald, Symmetric Functions and Hall
    Polynomials, I.6).
    """
    def products():
        for part, coeff in terms.items():
            raised = set(part)
            if len(part) < k:
                raised.add(0)
            for a in raised:
                rest = list(part)
                if a:
                    rest.remove(a)
                mu = tuple(sorted(rest + [a + j], reverse=True))
                yield mu, coeff * mu.count(a + j)

    return collect(products())


def _arrangements(part: tuple[int, ...], k: int):
    """Every distinct exponent vector in k slots whose non-zero entries,
    sorted descending, are ``part``: the monomials of m_part."""
    vectors = [[0] * k]
    for value, group in groupby(part):
        mult = len(list(group))
        spread = []
        for vec in vectors:
            free = [pos for pos, e in enumerate(vec) if not e]
            for chosen in combinations(free, mult):
                new = vec.copy()
                for pos in chosen:
                    new[pos] = value
                spread.append(new)
        vectors = spread
    return map(tuple, vectors)


def expand_in_roots(poly: GradedPoly, k: int, bound: int) -> RootPoly:
    """Expand an unprimed polynomial into k Chern roots, truncated.

    Applies the defining substitution s_j -> sum_i x_i^j / j! and drops
    all monomials of total degree above ``bound``.  Each monomial is
    homogeneous, so it is kept whole or dropped whole; its power-sum
    product is built over partitions (the monomial symmetric basis) with
    integer coefficients and spread into exponent vectors only once, for
    the partitions whose summed coefficient is non-zero.
    """
    if k < 1:
        raise ValueError("need at least one root variable")
    if not poly.uses_only_unprimed():
        raise ValueError("expand_in_roots is defined on the unprimed alphabet only")
    # p-products keyed by their sorted power-sum indices; each extends
    # the product of its prefix, so monomials share their common factors
    products: dict[tuple[int, ...], dict] = {(): {(): 1}}

    def power_sum_product(indices: tuple[int, ...]) -> dict:
        # recursion depth is the monomial's degree, at most the bound
        if indices not in products:
            products[indices] = _times_power_sum(
                power_sum_product(indices[:-1]), indices[-1], k)
        return products[indices]

    contributions = []
    for mono, coeff in poly.terms.items():
        if mono_degree(mono) > bound:
            continue
        indices = tuple(chain.from_iterable(repeat(idx, exp) for (_, idx), exp in mono))
        denom = prod(factorial(idx) ** exp for (_, idx), exp in mono)
        contributions.append((coeff / denom, power_sum_product(indices)))
    if not contributions:
        return RootPoly(k, bound)
    # accumulate integer numerators over one common denominator and
    # convert to fractions only once at the end
    common = lcm(*(scale.denominator for scale, _ in contributions))
    # zip and map scale each numerator map without a bytecode loop per term
    accumulated = collect(chain.from_iterable(
        zip(numerators, map(mul, numerators.values(),
                            repeat(scale.numerator * (common // scale.denominator))))
        for scale, numerators in contributions))
    return RootPoly._make(k, bound, {
        expvec: Fraction(value, common)
        for part, value in accumulated.items()
        for expvec in _arrangements(part, k)})


def verify_sum_identity(bound: int) -> tuple[bool, GradedPoly]:
    """C(s + s') = C(s) * C(s') in every degree up to ``bound``.

    The sum of [1, C_1, ..., C_bound] under s_i -> s_i + s'_i, which
    preserves degree, against the Cauchy sum of C_a * C'_b over
    a + b <= bound, C'_b the primed copy: each C_k is homogeneous of
    degree k, so no term needs cutting.  Returns the verdict and the
    discrepancy, zero exactly when the identity holds.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    classes = [GradedPoly.const(1)] + [chern_polynomial(i) for i in range(1, bound + 1)]
    primed = [c.substitute(lambda var: GradedPoly.var(var[1], 1)) for c in classes]
    lhs = sum(classes, GradedPoly()).substitute(
        lambda var: GradedPoly.var(var[1], 0) + GradedPoly.var(var[1], 1))
    rhs = GradedPoly._make(collect(chain.from_iterable(
        (classes[a] * primed[b]).terms.items()
        for a in range(bound + 1) for b in range(bound + 1 - a))))
    diff = lhs - rhs
    return diff.is_zero(), diff
