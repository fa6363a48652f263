"""Independent brute-force oracles used by the tests.

Everything here is computed by direct enumeration, separate from the
library's own expansion code paths, so the two sides of each check stay
independent.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import factorial, gcd, lcm
from operator import add
from random import Random

from chernforge.bundles import DiagBundle, KCycle, LineBundle, OddKCycle
from chernforge.forms import TorusForm, _gauss_parts, chern_transform, chern_transforms
from chernforge.symfun import RootPoly, chern_polynomial, elementary_symmetric


def brute_elementary_symmetric(i: int, k: int) -> RootPoly:
    """sigma_i(x_1..x_k) by enumerating all i-element subsets."""
    terms = {}
    for subset in combinations(range(k), i):
        expvec = [0] * k
        for pos in subset:
            expvec[pos] = 1
        terms[tuple(expvec)] = Fraction(1)
    return RootPoly(k, i, terms)


def subset_elementary_symmetric(factors, i: int, times, plus, zero):
    """e_i of ``factors`` for i >= 1 by enumerating subsets.

    Adds, onto ``zero``, the left-to-right product under ``times`` of
    every i-subset, subsets in lexicographic order.
    """
    total = zero
    for subset in combinations(factors, i):
        total = plus(total, reduce(times, subset))
    return total


def brute_character_component(j: int, k: int, bound: int) -> RootPoly:
    """Degree-j component of sum_i (e^{x_i} - 1): sum_i x_i^j / j!."""
    terms = {}
    if j <= bound:
        for pos in range(k):
            expvec = [0] * k
            expvec[pos] = j
            terms[tuple(expvec)] = Fraction(1, factorial(j))
    return RootPoly(k, bound, terms)


def brute_total_product(k: int, bound: int) -> RootPoly:
    """prod_i (1 + x_i) truncated at total degree ``bound``."""
    terms = {}
    for size in range(0, min(k, bound) + 1):
        for subset in combinations(range(k), size):
            expvec = [0] * k
            for pos in subset:
                expvec[pos] = 1
            terms[tuple(expvec)] = Fraction(1)
    return RootPoly(k, bound, terms)


def evaluate_chern_polynomial(form: TorusForm, i: int) -> TorusForm:
    """chern_polynomial(i) evaluated monomial by monomial on an even form.

    The degree-2j component stands for the j'th variable; each monomial
    is the constant coefficient wedged with one factor per power.
    """
    total = TorusForm.zero(form.n)
    for mono, coeff in chern_polynomial(i).terms.items():
        term = TorusForm.const(form.n, Fraction(coeff))
        for (_, j), exponent in mono:
            for _ in range(exponent):
                term = term.wedge(form.component(2 * j))
        total = total + term
    return total


def total_chern_transform(form: TorusForm) -> TorusForm:
    """1 + C_1(form) + ... up to the dimension cap, as one form."""
    cap = form.n + form.has_t
    one, *components = chern_transforms(form, cap // 2)
    return sum(components, one)


def chern_form(bundle, i: int) -> TorusForm:
    """Degree-2i Chern form of a diagonal bundle, along two routes.

    Evaluates the universal polynomial on the character form and the
    elementary symmetric polynomial of the line curvatures; a
    disagreement raises.
    """
    if i < 1:
        raise ValueError("index must be >= 1")
    if 2 * i > bundle.n:
        raise ValueError(f"no {2 * i}-forms on T^{bundle.n}")
    via_character = chern_transform(bundle.chern_character(), i)
    via_roots = elementary_symmetric(
        [line.curvature() for line in bundle.lines],
        [TorusForm.const(bundle.n, 1)] + [TorusForm.zero(bundle.n)] * i,
        TorusForm.wedge, add)[i]
    if via_character != via_roots:
        raise ArithmeticError(
            f"chern_form route disagreement at i={i}: "
            f"{via_character.to_text()} vs {via_roots.to_text()}"
        )
    return via_roots


def path_transgressions(cycle, rho_t: TorusForm) -> list:
    """[None, T_1, ..., T_top] with T_k = int_t C_k(ch + d rho_t).

    One Newton pass over the whole t-extended path curvature, then the
    fiber integral over t of each entry; dt-free terms are computed and
    dropped.  The engine builds the same forms from the product formula.
    """
    curv_path = cycle.bundle.chern_character() + rho_t.d()
    return [None] + [form.fiber_integrate_t()
                     for form in chern_transforms(curv_path, cycle.n // 2)[1:]]


# -- reference forms kernel ------------------------------------------------------
#
# The operations of the forms kernel as first written, on tuple keys
# ``(t_exp, freq, mask)``: every product or derivative term goes through
# a generator into a plain per-key sum, zero sums included, and the
# result is rescanned to drop zero numerators and divide out the gcd.
# Each reads a form through ``TorusForm.items()`` and returns the
# normalized ``(den, terms)`` of the result, to be compared with a kernel
# form's ``(den, dict(items()))``; nothing bounds a frequency here.
# Signs come from counting inversions, not from the kernel's sign table.

def permutation_sign(seq) -> int:
    """(-1)^(number of inversions of ``seq``)."""
    inversions = sum(1 for a, b in combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def _mask_indices(mask: int) -> list[int]:
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def reference_koszul_sign(a: int, b: int) -> int:
    """Sign of dx_a ^ dx_b against dx_(a|b): the parity of the concatenated indices."""
    return permutation_sign(_mask_indices(a) + _mask_indices(b))


def reference_construct(n: int, terms: dict) -> tuple[int, dict]:
    """The public constructor's checks in their first order, then its stored data.

    Returns the normalized ``(den, terms)`` that ``TorusForm(n, terms)``
    must store, or raises what it must raise.  Every coefficient is
    read first.  Then every key is checked, a zero coefficient's too:
    the frequency arity, the index set (strictly increasing, in range),
    the sign of the t exponent, the key range of the t exponent and of
    the frequencies, and last the mask shift, which raises TypeError
    for an index that is not an int.  Zero numerators are dropped only
    after that.
    """
    if n < 0:
        raise ValueError("torus dimension must be >= 0")
    parts = {}
    for key, part in [(key, _gauss_parts(coeff)) for key, coeff in terms.items()]:
        t_exp, freq, idx = key
        if len(freq) != n:
            raise ValueError(f"frequency vector {freq} has wrong arity for T^{n}")
        if tuple(sorted(set(idx))) != idx:
            raise ValueError(f"index set {idx} is not strictly increasing")
        if any(j < 0 or j > n for j in idx):
            raise ValueError(f"index set {idx} out of range for T^{n}")
        if t_exp < 0:
            raise ValueError("negative t exponent")
        if t_exp >= 2 ** 30:
            raise ValueError(f"t exponent {t_exp} outside the key range [-2^30, 2^30)")
        if not all(-2 ** 30 <= k < 2 ** 30 for k in freq):
            raise ValueError(f"frequency vector {freq} outside the key range [-2^30, 2^30)")
        parts[(t_exp, freq, sum(1 << j for j in idx))] = part
    den = lcm(*(part_den for _, _, part_den in parts.values()))
    return reference_normalized(den, {
        key: (re_num * (den // part_den), im_num * (den // part_den))
        for key, (re_num, im_num, part_den) in parts.items()})

def reference_normalized(den: int, terms: dict) -> tuple[int, dict]:
    """Drop zero numerators and divide out gcd(den, all numerators)."""
    clean = {key: num for key, num in terms.items() if num[0] or num[1]}
    if not clean:
        return 1, clean
    common = den
    for re_num, im_num in clean.values():
        common = gcd(common, re_num, im_num)
        if common == 1:
            return den, clean
    return den // common, {key: (re_num // common, im_num // common)
                           for key, (re_num, im_num) in clean.items()}


def _reference_accumulate(out: dict, pairs) -> dict:
    for key, (re_num, im_num) in pairs:
        prev = out.get(key)
        out[key] = (re_num, im_num) if prev is None \
            else (prev[0] + re_num, prev[1] + im_num)
    return out


def _reference_scaled(form: TorusForm, factor: int) -> dict:
    return {key: (re_num * factor, im_num * factor)
            for key, (re_num, im_num) in form.items()}


def reference_add(a: TorusForm, b: TorusForm) -> tuple[int, dict]:
    den = lcm(a.den, b.den)
    terms = _reference_accumulate(_reference_scaled(a, den // a.den),
                                  _reference_scaled(b, den // b.den).items())
    return reference_normalized(den, terms)


def reference_wedge(a: TorusForm, b: TorusForm) -> tuple[int, dict]:
    zero_freq = (0,) * a.n

    def by_mask(form):
        groups = {}
        for (m, freq, mask), num in form.items():
            groups.setdefault(mask, []).append((m, freq, num))
        return groups

    right = by_mask(b)

    def products():
        for mask1, group1 in by_mask(a).items():
            for mask2, group2 in right.items():
                if mask1 & mask2:
                    continue
                sign = reference_koszul_sign(mask1, mask2)
                mask = mask1 | mask2
                for m1, k1, (p, q) in group1:
                    if sign < 0:
                        p, q = -p, -q
                    for m2, k2, (r, s) in group2:
                        if k2 == zero_freq:
                            freq = k1
                        elif k1 == zero_freq:
                            freq = k2
                        else:
                            freq = tuple(map(add, k1, k2))
                        yield (m1 + m2, freq, mask), (p * r - q * s, p * s + q * r)

    return reference_normalized(a.den * b.den, _reference_accumulate({}, products()))


def reference_d(form: TorusForm) -> tuple[int, dict]:
    def derivatives():
        for (m, freq, mask), (re_num, im_num) in form.items():
            if m > 0 and not mask & 1:
                yield (m - 1, freq, mask | 1), (m * re_num, m * im_num)
            for j, kj in enumerate(freq, start=1):
                bit = 1 << j
                if kj == 0 or mask & bit:
                    continue
                scale = kj * reference_koszul_sign(bit, mask)
                yield (m, freq, mask | bit), (-im_num * scale, re_num * scale)

    return reference_normalized(form.den, _reference_accumulate({}, derivatives()))


def reference_scale(form: TorusForm, scalar) -> tuple[int, dict]:
    s_re, s_im, s_den = _gauss_parts(scalar)
    return reference_normalized(form.den * s_den, {
        key: (a * s_re - b * s_im, a * s_im + b * s_re) for key, (a, b) in form.items()})


def reference_pullback(form: TorusForm, matrix) -> tuple[int, dict]:
    """dy_j -> sum_l A[j][l] dx_l expanded factor by factor, frequencies by A^T."""
    m_src = len(matrix[0]) if matrix else 0

    def pulled():
        for (t_exp, freq, mask), (re_num, im_num) in form.items():
            new_freq = tuple(sum(matrix[j][l] * freq[j] for j in range(form.n))
                             for l in range(m_src))
            partial = {mask & 1: 1}
            for j in _mask_indices(mask & ~1):
                grown = {}
                for chosen, c in partial.items():
                    for l, entry in enumerate(matrix[j - 1], start=1):
                        if entry and not chosen >> l & 1:
                            sign = reference_koszul_sign(chosen, 1 << l)
                            grown[chosen | 1 << l] = grown.get(chosen | 1 << l, 0) \
                                + c * entry * sign
                partial = grown
            for chosen, c in partial.items():
                yield (t_exp, new_freq, chosen), (re_num * c, im_num * c)

    return reference_normalized(form.den, _reference_accumulate({}, pulled()))


def reference_restrict_t(form: TorusForm, value: Fraction) -> tuple[int, dict]:
    """Sum of coeff * value^m over the dt-free terms, in Fractions."""
    sums = {}
    for (m, freq, mask), (re_num, im_num) in form.items():
        if not mask & 1:
            prev = sums.get((0, freq, mask), (Fraction(0), Fraction(0)))
            scale = Fraction(value) ** m / form.den
            sums[(0, freq, mask)] = (prev[0] + re_num * scale, prev[1] + im_num * scale)
    return _normalized_fractions(sums)


def reference_fiber_integrate_t(form: TorusForm) -> tuple[int, dict]:
    """int(t^m dt ^ eta) = eta / (m + 1), in Fractions."""
    sums = {}
    for (m, freq, mask), (re_num, im_num) in form.items():
        if mask & 1:
            prev = sums.get((0, freq, mask ^ 1), (Fraction(0), Fraction(0)))
            scale = Fraction(1, (m + 1) * form.den)
            sums[(0, freq, mask ^ 1)] = (prev[0] + re_num * scale, prev[1] + im_num * scale)
    return _normalized_fractions(sums)


def reference_fiber_integrate_circle(form: TorusForm, axis: int) -> tuple[int, dict]:
    """Terms with dx_axis and no frequency along it, dx_axis moved to the front."""
    def integrated():
        for (m, freq, mask), (re_num, im_num) in form.items():
            if not mask >> axis & 1 or freq[axis - 1]:
                continue
            rest = [j for j in _mask_indices(mask) if j != axis]
            sign = permutation_sign([axis] + rest)
            new_mask = sum(1 << (j - 1 if j > axis else j) for j in rest)
            yield (0, freq[:axis - 1] + freq[axis:], new_mask), (sign * re_num, sign * im_num)

    return reference_normalized(form.den, _reference_accumulate({}, integrated()))


def reference_is_real(form: TorusForm) -> bool:
    terms = dict(form.items())
    return all(terms.get((m, tuple(-k for k in freq), mask)) == (re_num, -im_num)
               for (m, freq, mask), (re_num, im_num) in terms.items())


def reference_invariant_table(form: TorusForm, degree: int) -> dict:
    """Per index set of that degree, the sum of its terms whose frequency
    vanishes on the index set, as Fractions; vanishing sums left out."""
    sums = {}
    for (_, freq, mask), (re_num, im_num) in form.items():
        idx = tuple(_mask_indices(mask))
        if len(idx) == degree and not any(freq[j - 1] for j in idx):
            prev = sums.get(idx, (0, 0))
            sums[idx] = (prev[0] + re_num, prev[1] + im_num)
    return {idx: (Fraction(re_sum, form.den), Fraction(im_sum, form.den))
            for idx, (re_sum, im_sum) in sums.items() if re_sum or im_sum}


def _normalized_fractions(sums: dict) -> tuple[int, dict]:
    """``{key: (re, im)}`` of Fractions as a normalized ``(den, terms)``."""
    den = lcm(*(part.denominator for pair in sums.values() for part in pair))
    return reference_normalized(den, {key: (int(re_part * den), int(im_part * den))
                                      for key, (re_part, im_part) in sums.items()})


# -- reference character layer ---------------------------------------------------
#
# The cup with three product wedges and the holonomy comparison through
# tables of Fractions, as they were before the cup read the curvature
# its right factor keeps and holonomies were compared as integers.

def reference_cup(x, y) -> tuple[TorusForm, TorusForm]:
    """``(harmonic, trans)`` of x cup y, the transgression as
    x.trans ^ y.harmonic + x.harmonic ^ y.trans + x.trans ^ d(y.trans)."""
    trans = (x.trans.wedge(y.harmonic) + x.harmonic.wedge(y.trans)
             + x.trans.wedge(y.trans.d()))
    return x.harmonic.wedge(y.harmonic), trans


def reference_holonomy_table(char) -> dict:
    """Holonomy mod 1 over every (d-1)-subtorus, read from ``invariant_table``."""
    if char.degree == 0:
        return {}
    table = dict.fromkeys(combinations(range(1, char.n + 1), char.degree - 1), Fraction(0))
    for subset, (re_part, im_part) in char.trans.invariant_table(char.degree - 1).items():
        if im_part:
            raise ArithmeticError("holonomy of a real transgression must be real")
        table[subset] = re_part % 1
    return table


def reference_same_class(x, y) -> bool:
    if x.n != y.n or x.degree != y.degree:
        return False
    if x.curvature() != y.curvature():
        return False
    return reference_holonomy_table(x) == reference_holonomy_table(y)


def reference_discrepancy(x, y) -> dict:
    curv = x.curvature() - y.curvature()
    holo = {}
    mine, theirs = reference_holonomy_table(x), reference_holonomy_table(y)
    for subset in sorted(set(mine) | set(theirs)):
        diff = (mine.get(subset, Fraction(0)) - theirs.get(subset, Fraction(0))) % 1
        if diff:
            holo[",".join(map(str, subset))] = str(diff)
    return {
        "verdict": curv.is_zero() and not holo,
        "curvature_discrepancy": curv.to_text(),
        "holonomy_discrepancy": holo,
    }


# The case generators as first written: every number drawn by randint,
# every coefficient a Fraction, every form built by the public
# constructor and summed with +.  chernforge.generators must draw the
# same numbers in the same order and store the same forms.

def reference_rand_fraction(rng: Random, max_num: int = 3) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, 12))


def reference_rand_frequency(rng: Random, n: int) -> tuple:
    if n < 1:
        raise ValueError(f"no non-zero frequency vector on T^{n}")
    while True:
        freq = tuple(rng.randint(-1, 1) for _ in range(n))
        if any(freq):
            return freq


def reference_rand_subset(rng: Random, n: int, size: int) -> tuple:
    return tuple(sorted(rng.sample(range(1, n + 1), size)))


def reference_rand_form(rng: Random, n: int, max_terms: int = 4,
                        has_t: bool = False) -> TorusForm:
    terms = []
    indices = list(range(0 if has_t else 1, n + 1))
    for _ in range(rng.randint(1, max_terms)):
        re_part, im_part = reference_rand_fraction(rng), reference_rand_fraction(rng)
        if not (re_part or im_part):
            continue
        freq = tuple(rng.randint(-1, 1) for _ in range(n))
        size = rng.randint(0, min(len(indices), 3))
        idx = tuple(sorted(rng.sample(indices, size)))
        t_exp = rng.randint(0, 2) if has_t else 0
        terms.append(((t_exp, freq, idx), (re_part, im_part)))
    return TorusForm(n, _reference_accumulate({}, terms))


def reference_rand_homogeneous(rng: Random, n: int, degree: int, max_terms: int = 3,
                               has_t: bool = False) -> TorusForm:
    indices = list(range(0 if has_t else 1, n + 1))
    if degree > len(indices):
        return TorusForm(n, {})
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        re_part, im_part = reference_rand_fraction(rng), reference_rand_fraction(rng)
        if not (re_part or im_part):
            continue
        idx = tuple(sorted(rng.sample(indices, degree)))
        freq = tuple(rng.randint(-1, 1) for _ in range(n))
        t_exp = rng.randint(0, 2) if has_t else 0
        terms.append(((t_exp, freq, idx), (re_part, im_part)))
    return TorusForm(n, _reference_accumulate({}, terms))


def reference_rand_real_form(rng: Random, n: int, degree: int, max_modes: int = 2,
                             allow_harmonic: bool = True) -> TorusForm:
    total = TorusForm(n)
    if degree > n:
        return total
    for _ in range(rng.randint(0, max_modes)):
        idx = reference_rand_subset(rng, n, degree)
        freq = reference_rand_frequency(rng, n)
        re_part, im_part = reference_rand_fraction(rng), reference_rand_fraction(rng)
        if not (re_part or im_part):
            continue
        total = total + TorusForm(n, {(0, freq, idx): (re_part, im_part),
                                      (0, tuple(-x for x in freq), idx): (re_part, -im_part)})
    if allow_harmonic and rng.random() < 0.7:
        coeff = reference_rand_fraction(rng)
        if coeff:
            total = total + TorusForm.single(n, coeff,
                                             idx=reference_rand_subset(rng, n, degree))
    return total


def reference_rand_line_bundle(rng: Random, n: int) -> LineBundle:
    K = [[0] * n for _ in range(n)]
    for j in range(n):
        for l in range(j + 1, n):
            value = rng.randint(-3, 3)
            K[j][l] = value
            K[l][j] = -value
    theta = tuple(reference_rand_fraction(rng, max_num=2) for _ in range(n))
    beta = reference_rand_real_form(rng, n, 1, max_modes=1, allow_harmonic=False)
    return LineBundle(n, K, theta, beta)


def reference_rand_bundle(rng: Random, n: int, max_rank: int = 3) -> DiagBundle:
    rank = rng.randint(1, max_rank)
    return DiagBundle([reference_rand_line_bundle(rng, n) for _ in range(rank)])


def reference_rand_odd_real_form(rng: Random, n: int, max_modes: int = 2) -> TorusForm:
    total = reference_rand_real_form(rng, n, 1, max_modes=max_modes)
    if n >= 3 and rng.random() < 0.5:
        total = total + reference_rand_real_form(rng, n, 3, max_modes=1)
    return total


def reference_rand_cycle(rng: Random, n: int, max_rank: int = 3) -> KCycle:
    rho = reference_rand_odd_real_form(rng, n)
    return KCycle(reference_rand_bundle(rng, n, max_rank), rho)


def reference_rand_phase(rng: Random, n: int) -> TorusForm:
    total = TorusForm(n)
    modes = rng.randint(0, 2)
    if not n:
        return total  # no non-zero frequency on T^0
    for _ in range(modes):
        freq = reference_rand_frequency(rng, n)
        amp = reference_rand_fraction(rng)
        if not amp:
            continue
        half = Fraction(amp, 2)
        total = total + TorusForm(n, {(0, freq, ()): (0, -half),
                                      (0, tuple(-x for x in freq), ()): (0, half)})
    return total


def reference_rand_odd_cycle(rng: Random, n: int) -> OddKCycle:
    components = []
    for _ in range(rng.randint(1, 2)):
        winding = tuple(rng.randint(-3, 3) for _ in range(n))
        components.append((winding, reference_rand_phase(rng, n)))
    return OddKCycle(n, components)


def reference_rand_int_matrix(rng: Random, target_dim: int, source_dim: int) -> list:
    return [[rng.randint(-2, 2) for _ in range(source_dim)]
            for _ in range(target_dim)]


def reference_rand_integral_shift(rng: Random, n: int) -> TorusForm:
    total = TorusForm(n)
    for _ in range(rng.randint(0, 2)):
        total = total + TorusForm.single(n, rng.randint(-2, 2),
                                         idx=reference_rand_subset(rng, n, 1))
    if n >= 3 and rng.random() < 0.4:
        total = total + TorusForm.single(n, rng.randint(-2, 2),
                                         idx=reference_rand_subset(rng, n, 3))
    exact = reference_rand_real_form(rng, n, 0, max_modes=1, allow_harmonic=False).d()
    return total + exact
