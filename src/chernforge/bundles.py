"""Hermitian line bundles with connection data on flat tori.

A line bundle is recorded by an antisymmetric integer matrix (the
harmonic curvature data, Chern-normalized so its entries are the
periods of the curvature over coordinate 2-subtori), rational holonomy
shifts along the coordinate loops, and a real periodic 1-form
perturbing the connection.  Diagonal direct sums of lines stand in for
higher-rank bundles.  An even cycle pairs such a sum with an odd real
form; odd cycles are diagonal unitaries given by windings and phases,
realized as even cycles by a clutching-style suspension.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .forms import TorusForm, int_tuple
from .symfun import divided_powers, rational


def _check_antisymmetric(matrix: tuple[tuple[int, ...], ...], n: int):
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"curvature matrix must be {n}x{n}")
    for j in range(n):
        for l in range(n):
            if matrix[j][l] != -matrix[l][j]:
                raise ValueError("curvature matrix must be antisymmetric")


class LineBundle:
    """Rank-1 hermitian bundle with connection data on T^n."""

    # _cs_class holds the line's Cheeger-Simons class, built once by
    # diffchar.cs_class (diffchar imports this module, not the reverse)
    __slots__ = ("n", "K", "theta", "beta", "_harmonic", "_curvature", "_cs_class")

    def __init__(self, n: int, K: Optional[Sequence[Sequence[int]]] = None,
                 theta: Optional[Sequence] = None,
                 beta: Optional[TorusForm] = None):
        self.n = n
        self.K = tuple(map(int_tuple, K)) if K is not None \
            else tuple((0,) * n for _ in range(n))
        _check_antisymmetric(self.K, n)
        theta = tuple(theta) if theta is not None else (0,) * n
        self.theta = tuple(rational(v) for v in theta)
        if len(self.theta) != n:
            raise ValueError(f"holonomy vector must have length {n}")
        self.beta = beta if beta is not None else TorusForm.zero(n)
        if self.beta.n != n or self.beta.has_t:
            raise ValueError("connection perturbation lives on the wrong space")
        if not self.beta.is_zero() and self.beta.degree() != 1:
            raise ValueError("connection perturbation must be a 1-form")
        if not self.beta.is_real():
            raise ValueError("connection perturbation must be real")
        self._harmonic = self._curvature = self._cs_class = None

    @classmethod
    def flat(cls, n: int, theta: Optional[Sequence] = None) -> "LineBundle":
        return cls(n, theta=theta)

    def harmonic_curvature(self) -> TorusForm:
        """The translation-invariant curvature part sum K_jl dx_j dx_l, built once."""
        if self._harmonic is None:
            zero = (0,) * self.n
            # int() reads a bool entry as the constructor reads it
            self._harmonic = TorusForm._checked(self.n, False, 1, [
                ((0, zero, (j + 1, l + 1)), (int(self.K[j][l]), 0))
                for j in range(self.n) for l in range(j + 1, self.n)])
        return self._harmonic

    def curvature(self) -> TorusForm:
        if self._curvature is None:
            self._curvature = self.harmonic_curvature() + self.beta.d()
        return self._curvature

    def pullback(self, matrix: Sequence[Sequence[int]]) -> "LineBundle":
        """Pullback along x -> A x; rows of A index this bundle's coordinates."""
        # the form pullback checks the matrix: integer rows, one per coordinate
        beta = self.beta.pullback(matrix)
        m = beta.n
        K = tuple(
            tuple(
                sum(matrix[a][r] * self.K[a][b] * matrix[b][s]
                    for a in range(self.n) for b in range(self.n))
                for s in range(m)
            )
            for r in range(m)
        )
        theta = tuple(
            sum(matrix[j][l] * self.theta[j] for j in range(self.n)) for l in range(m)
        )
        return LineBundle(m, K, theta, beta)

    def __repr__(self):
        return f"LineBundle(T^{self.n}, K={self.K}, theta={self.theta})"


class DiagBundle:
    """Diagonal direct sum of line bundles; rank equals the line count."""

    __slots__ = ("n", "lines", "_character")

    def __init__(self, lines: Sequence[LineBundle]):
        lines = tuple(lines)
        if not lines:
            raise ValueError("a bundle needs at least one line")
        self.n = lines[0].n
        if any(line.n != self.n for line in lines):
            raise ValueError("all lines must share the torus dimension")
        self.lines = lines
        self._character = None

    @property
    def rank(self) -> int:
        return len(self.lines)

    @classmethod
    def of(cls, *lines: LineBundle) -> "DiagBundle":
        return cls(lines)

    @classmethod
    def trivial(cls, n: int) -> "DiagBundle":
        return cls([LineBundle.flat(n)])

    def direct_sum(self, other: "DiagBundle") -> "DiagBundle":
        if self.n != other.n:
            raise ValueError("direct sum needs equal dimensions")
        return DiagBundle(self.lines + other.lines)

    def chern_character(self) -> TorusForm:
        """Exponential character form: rank in degree 0, sum of F^k/k! above."""
        if self._character is not None:
            return self._character
        total = TorusForm.const(self.n, self.rank)
        for line in self.lines:
            for power in divided_powers(line.curvature(), self.n // 2,
                                        TorusForm.wedge, TorusForm.__mul__):
                total = total + power
        self._character = total
        return total

    def pullback(self, matrix: Sequence[Sequence[int]]) -> "DiagBundle":
        return DiagBundle([line.pullback(matrix) for line in self.lines])

    def __repr__(self):
        return f"DiagBundle(T^{self.n}, rank={self.rank})"


class KCycle:
    """Cycle for an even differential K-class: bundle plus odd real form.

    Memos: the curvature and two lists [1, c_1, ..., c_(n//2)], each
    filled on first use: ``_classes``, the classes along the linear
    transgression path t * rho, filled by ``diffchar.chern_class``, and
    ``_via_ch``, the classes of the character-component route, filled
    by ``diffchar.chern_class_via_ch``.
    """

    __slots__ = ("bundle", "rho", "_curvature", "_classes", "_via_ch")

    def __init__(self, bundle: DiagBundle, rho: Optional[TorusForm] = None):
        self.bundle = bundle
        if rho is None:
            rho = TorusForm.zero(bundle.n)
        if rho.n != bundle.n or rho.has_t:
            raise ValueError("odd form lives on the wrong space")
        if any(d % 2 == 0 for d in rho.degrees()):
            raise ValueError("cycle form must have odd degrees")
        if not rho.is_real():
            raise ValueError("cycle form must be real")
        self.rho = rho
        self._curvature = self._classes = self._via_ch = None

    @property
    def n(self) -> int:
        return self.bundle.n

    @classmethod
    def zero(cls, n: int) -> "KCycle":
        return cls(DiagBundle.trivial(n), TorusForm.zero(n))

    def curvature(self) -> TorusForm:
        if self._curvature is None:
            self._curvature = self.bundle.chern_character() + self.rho.d()
        return self._curvature

    def add(self, other: "KCycle") -> "KCycle":
        return KCycle(self.bundle.direct_sum(other.bundle), self.rho + other.rho)

    def pullback(self, matrix: Sequence[Sequence[int]]) -> "KCycle":
        return KCycle(self.bundle.pullback(matrix), self.rho.pullback(matrix))

    def __repr__(self):
        return f"KCycle({self.bundle!r}, rho={self.rho.to_text()!r})"


class OddKCycle:
    """Diagonal unitary on T^n: winding vectors plus phase functions.

    Each component stands for the unitary exp(2*pi*i*(<m, x> + phi))
    with an integer winding vector m and a real phase phi that has no
    constant Fourier mode and vanishes at the basepoint.
    """

    __slots__ = ("n", "components", "_suspended")

    def __init__(self, n: int, components: Sequence[tuple]):
        self.n = n
        volume = TorusForm.volume(n)
        comps = []
        for winding, phase in components:
            winding = int_tuple(winding)
            if len(winding) != n:
                raise ValueError(f"winding vector must have length {n}")
            if phase is None:
                phase = TorusForm.zero(n)
            if phase.n != n or phase.has_t:
                raise ValueError("phase lives on the wrong space")
            if phase.degrees() not in (set(), {0}):
                raise ValueError("phase must be a function")
            if not phase.is_real():
                raise ValueError("phase must be real")
            # the constant Fourier mode of a function is its mean
            if phase.wedge(volume)._invariant_sums(n):
                raise ValueError("phase must have no constant Fourier mode")
            if phase._invariant_sums(0):
                raise ValueError("phase must vanish at the basepoint")
            comps.append((winding, phase))
        self.components = tuple(comps)
        self._suspended = None

    @classmethod
    def winding(cls, n: int, vector: Sequence[int]) -> "OddKCycle":
        return cls(n, [(tuple(vector), TorusForm.zero(n))])

    def odd_chern_form(self) -> TorusForm:
        """Degree-1 form sum_j (<m_j, dx> + d phi_j)."""
        total = TorusForm.zero(self.n)
        for winding, phase in self.components:
            for l, m_l in enumerate(winding, start=1):
                if m_l:
                    total = total + TorusForm.dx(self.n, l) * m_l
            total = total + phase.d()
        return total

    def suspend(self) -> tuple[DiagBundle, TorusForm]:
        """Realize the cycle on the suspended torus T^(1+n).

        Coordinate 1 of the result is the suspension circle; each
        component becomes a clutching line bundle whose curvature matrix
        couples the circle to the winding vector, and all phase data
        moves into a global correction form.  The sign of the correction
        is pinned by the identity

            int_circle(curvature of (bundle, correction)) = odd Chern form.
        """
        N = self.n + 1
        lines = []
        phases = TorusForm.zero(self.n)
        for winding, phase in self.components:
            K = [[0] * N for _ in range(N)]
            for l, m_l in enumerate(winding, start=1):
                K[0][l] = m_l
                K[l][0] = -m_l
            lines.append(LineBundle(N, K))
            phases = phases + phase
        # pull the phases back along the projection that forgets the circle
        drop_circle = [[1 if l == j + 1 else 0 for l in range(N)] for j in range(self.n)]
        correction = TorusForm.single(N, -1, idx=(1,)).wedge(phases.pullback(drop_circle))
        return DiagBundle(lines), correction

    def suspended(self) -> KCycle:
        """The suspension as an even cycle, built once."""
        if self._suspended is None:
            self._suspended = KCycle(*self.suspend())
        return self._suspended

    def __repr__(self):
        return f"OddKCycle(T^{self.n}, {len(self.components)} components)"
