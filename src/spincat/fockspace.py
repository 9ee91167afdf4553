"""Dense linear algebra on a truncated two-mode Fock space.

Everything downstream reduces to a handful of single-mode building blocks:
displacement matrices D(alpha) = exp(alpha a+ - alpha* a), the photon-number
parity Pi = (-1)^(a+a), and the displaced parity kernel

    Delta(alpha) = D(alpha) Pi D(alpha)+ = D(2 alpha) Pi,

which is Hermitian and involutory.  Two-mode operators are Kronecker products
with mode 1 as the major index: the flat index of the Fock pair (n1, n2) is
n1 * (n2_max + 1) + n2.

Conventions: hbar = 1 and alpha = (q + i p) / sqrt(2).

Matrix elements of D(gamma) are generated by a three-term recurrence along
each diagonal of the matrix (the associated-Laguerre recurrence rewritten on
the scale of the matrix entries themselves, which are bounded by 1).  This
stays accurate for |gamma|^2 well beyond 200, where naive factorial-ratio
evaluation overflows and matrix exponentials become untrustworthy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import lgamma, factorial

import numpy as np

__all__ = [
    "TruncationWarning",
    "FockCutoff",
    "TwoModeOperator",
    "DensityMatrix",
    "displacement_matrix",
    "parity_matrix",
    "single_mode_kernel",
    "smoothed_kernel_element",
    "displaced_parity_kernel",
    "hermitian_sqrt",
    "adequate_n_max",
    "default_n_max",
    "displacement_column_defect",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-10
SQRT_EIG_ABORT = -1e-8


class TruncationWarning(UserWarning):
    """A truncated-space result may be distorted by neglected Fock tails."""


@dataclass(frozen=True)
class FockCutoff:
    """Per-mode Fock truncation; each mode keeps levels 0..n_max inclusive.

    ``FockCutoff(n)`` truncates both modes at n.  The two cutoffs may differ:
    a Gaussian noise channel acting on mode 1 only inflates that mode, and
    keeping mode 2 at its natural support keeps matrices small.
    """

    n1_max: int
    n2_max: int = -1  # -1: same as mode 1

    def __post_init__(self):
        if self.n2_max == -1:
            object.__setattr__(self, "n2_max", self.n1_max)
        if self.n1_max < 0 or self.n2_max < 0:
            raise ValueError(f"cutoffs must be >= 0, got ({self.n1_max}, {self.n2_max})")

    @property
    def dim1(self) -> int:
        return self.n1_max + 1

    @property
    def dim2(self) -> int:
        return self.n2_max + 1

    @property
    def dim(self) -> int:
        return self.dim1 * self.dim2

    def index(self, n1: int, n2: int) -> int:
        """Flat index of |n1, n2> (mode 1 major)."""
        if not (0 <= n1 <= self.n1_max and 0 <= n2 <= self.n2_max):
            raise ValueError(f"({n1}, {n2}) outside cutoff {self}")
        return n1 * self.dim2 + n2

    def supports_spin(self, j: float) -> bool:
        """Dicke states of spin j need levels up to 2j in both modes."""
        twoj = int(round(2 * j))
        return self.n1_max >= twoj and self.n2_max >= twoj


def default_n_max(j: float, max_abs_alpha: float = 0.0) -> int:
    """Default truncation: resolves the state shell and moderate displacements.

    max(2*ceil(2j) + 10, ceil(4*|alpha|^2) + 15).  This is plotting-grade; for
    tolerances at the 1e-8 level use :func:`adequate_n_max`, which accounts for
    the slow Fock tails of displaced number states.
    """
    shell = 2 * int(np.ceil(2 * j)) + 10
    disp = int(np.ceil(4.0 * max_abs_alpha**2)) + 15
    return max(shell, disp)


def adequate_n_max(x: float, q_max: int, margin: float = 5.0) -> int:
    """Truncation that keeps column q <= q_max of D(gamma), |gamma|^2 = x,
    normalized to better than ~1e-10.

    Displaced number states live below roughly (sqrt(x) + sqrt(q))^2 photons
    with super-exponential decay beyond; margin = 5 was calibrated to hold the
    column-norm defect under 1e-10 for x <= 200, q <= 10.
    """
    return int(np.ceil((np.sqrt(max(x, 0.0)) + np.sqrt(max(q_max, 0)) + margin) ** 2))


def _as_n_max(cutoff) -> int:
    if isinstance(cutoff, FockCutoff):
        return cutoff.n1_max
    return int(cutoff)


def displacement_matrix(alpha: complex, cutoff, ncols: int | None = None) -> np.ndarray:
    """Single-mode displacement matrix <p|D(alpha)|q> for p <= n_max, q < ncols.

    ``cutoff`` is an int n_max or a FockCutoff (mode-1 cutoff is used);
    ``ncols`` defaults to all n_max + 1 columns.  All returned entries are the
    exact infinite-dimensional matrix elements; the truncation only limits the
    index range.  Columns therefore have norm <= 1, reaching 1 only when the
    displaced state fits under the cutoff.  The recurrence stops at the
    requested columns, and the result equals the leading columns of the full
    matrix bit for bit.
    """
    if not np.isfinite(alpha):
        raise ValueError(f"displacement amplitude must be finite, got {alpha}")
    n_max = _as_n_max(cutoff)
    d = n_max + 1
    ncols = d if ncols is None else min(int(ncols), d)
    gamma = complex(alpha)
    if gamma == 0:
        return np.eye(d, ncols, dtype=complex)

    x = abs(gamma) ** 2
    lg = np.array([lgamma(k + 1.0) for k in range(d)])

    def diagonals(g: complex, n_offsets: int) -> np.ndarray:
        # E[a, k] = <k+a|D(g)|k> for diagonal offsets a < n_offsets, k < ncols.
        offsets = np.arange(n_offsets, dtype=float)
        E = np.zeros((n_offsets, ncols), dtype=complex)
        log_first = -x / 2 + offsets * np.log(abs(g)) - 0.5 * lg[:n_offsets]
        E[:, 0] = np.exp(log_first) * np.exp(1j * offsets * np.angle(g))
        if ncols > 1:
            E[:, 1] = (1 + offsets - x) * E[:, 0] / np.sqrt(1 + offsets)
        for k in range(1, ncols - 1):
            E[:, k + 1] = (
                (2 * k + 1 + offsets - x) * E[:, k]
                - np.sqrt(k * (k + offsets)) * E[:, k - 1]
            ) / np.sqrt((k + 1) * (k + 1 + offsets))
        return E

    lower = diagonals(gamma, d)
    upper = diagonals(-gamma, ncols)  # <p|D(gamma)|q> = conj(<q|D(-gamma)|p>) for q > p
    p, q = np.indices((d, ncols))
    below = p >= q
    D = np.empty((d, ncols), dtype=complex)
    D[below] = lower[(p - q)[below], q[below]]
    D[~below] = np.conj(upper[(q - p)[~below], p[~below]])
    return D


def parity_matrix(cutoff) -> np.ndarray:
    """Photon-number parity Pi = diag((-1)^n); involutory exactly."""
    n_max = _as_n_max(cutoff)
    return np.diag((-1.0) ** np.arange(n_max + 1))


def single_mode_kernel(alpha: complex, cutoff, ncols: int | None = None) -> np.ndarray:
    """Displaced parity kernel Delta(alpha) = D(2 alpha) Pi for one mode, its
    first ``ncols`` columns (all by default).

    Built as a column sign flip of the displacement matrix, so every entry is
    the exact operator matrix element (no truncated intermediate sums) and the
    full square result is Hermitian to rounding.
    """
    D = displacement_matrix(2 * alpha, _as_n_max(cutoff), ncols)
    return D * (-1.0) ** np.arange(D.shape[1])


def smoothed_kernel_element(p: int, q: int, alpha: complex, noise: float = 0.0) -> complex:
    """Matrix element <p| integral of Delta(alpha - z) over a complex Gaussian |q>.

    The Gaussian measure is exp(-|z|^2/s) d^2z / (pi s) with s = ``noise``;
    noise = 0 gives the plain kernel element <p|Delta(alpha)|q>.  Closed form
    with k = 2/(2s+1):

        (k/2) e^(-k|alpha|^2) sqrt(p! q!)
            * sum_r (k alpha)^(p-r) (k alpha*)^(q-r) (1-k)^r
                    / ((p-r)! (q-r)! r!)

    For p, q beyond ~30 the factorials are combined in log space.
    """
    if noise < 0:
        raise ValueError("noise must be >= 0")
    k = 2.0 / (2.0 * noise + 1.0)
    ka = k * complex(alpha)
    kac = np.conj(ka)
    omk = 1.0 - k
    if p <= 30 and q <= 30:
        total = 0.0 + 0.0j
        for r in range(min(p, q) + 1):
            total += (
                ka ** (p - r)
                * kac ** (q - r)
                * omk**r
                / (factorial(p - r) * factorial(q - r) * factorial(r))
            )
        pref = np.sqrt(float(factorial(p)) * float(factorial(q)))
        return (k / 2.0) * np.exp(-k * abs(alpha) ** 2) * pref * total

    # log-space path; magnitudes can span hundreds of orders for large p, q
    if ka == 0 and p != q:
        return 0.0 + 0.0j
    log_ka = np.log(abs(ka)) if ka != 0 else 0.0
    ph_ka = np.angle(ka)
    phase = np.exp(1j * ph_ka * (p - q))
    terms = []
    for r in range(min(p, q) + 1):
        if ka == 0 and (p - r or q - r):
            continue
        if omk == 0 and r > 0:
            break
        lm = (
            (p + q - 2 * r) * log_ka
            + (r * np.log(abs(omk)) if r else 0.0)
            + 0.5 * (lgamma(p + 1) + lgamma(q + 1))
            - lgamma(p - r + 1)
            - lgamma(q - r + 1)
            - lgamma(r + 1)
        )
        terms.append(np.exp(lm) * phase * np.sign(omk) ** r)
    total = complex(np.sum(terms)) if terms else 0.0 + 0.0j
    return (k / 2.0) * np.exp(-k * abs(alpha) ** 2) * total


@dataclass(frozen=True)
class TwoModeOperator:
    """Dense operator on the truncated two-mode space (mode 1 major)."""

    cutoff: FockCutoff
    entries: np.ndarray

    def __post_init__(self):
        d = self.cutoff.dim
        if self.entries.shape != (d, d):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match cutoff dim {d}"
            )

    def as_modes(self) -> np.ndarray:
        """View as a 4-index array [n1, n2, n1', n2']."""
        c = self.cutoff
        return self.entries.reshape(c.dim1, c.dim2, c.dim1, c.dim2)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD (up to numerical noise) two-mode operator.

    ``tail_defect`` records how much trace mass a producing operation (e.g. a
    noise channel at finite cutoff) discarded; 0 for exactly supported states.
    """

    cutoff: FockCutoff
    entries: np.ndarray
    tail_defect: float = field(default=0.0, compare=False)

    def __post_init__(self):
        d = self.cutoff.dim
        if self.entries.shape != (d, d):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match cutoff dim {d}"
            )
        herm = np.abs(self.entries - self.entries.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: defect {herm:.3e}")
        tr = self.entries.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")

    def as_modes(self) -> np.ndarray:
        c = self.cutoff
        return self.entries.reshape(c.dim1, c.dim2, c.dim1, c.dim2)

    def purity(self) -> float:
        return float(np.real(np.vdot(self.entries, self.entries)))

    def mode_support(self) -> tuple[int, int]:
        """Smallest (d1, d2) block outside which all entries vanish."""
        r4 = np.abs(self.as_modes())
        occ1 = np.maximum(r4.max(axis=(1, 2, 3)), r4.max(axis=(0, 1, 3)))
        occ2 = np.maximum(r4.max(axis=(0, 2, 3)), r4.max(axis=(0, 1, 2)))
        d1 = int(np.max(np.nonzero(occ1)[0])) + 1 if occ1.any() else 1
        d2 = int(np.max(np.nonzero(occ2)[0])) + 1 if occ2.any() else 1
        return d1, d2


def displaced_parity_kernel(point, cutoff: FockCutoff) -> TwoModeOperator:
    """Two-mode kernel Delta(alpha, beta) = Delta(alpha) (x) Delta(beta).

    Hermitian; involutory on the untruncated space.  ``point`` is any object
    with complex attributes ``alpha`` and ``beta`` (see wigner.PhasePoint).
    """
    k1 = single_mode_kernel(point.alpha, cutoff.n1_max)
    k2 = single_mode_kernel(point.beta, cutoff.n2_max)
    return TwoModeOperator(cutoff, np.kron(k1, k2))


def hermitian_sqrt(rho: DensityMatrix) -> TwoModeOperator:
    """Hermitian PSD square root of a density matrix via eigendecomposition.

    Eigenvalues in [-1e-8, 0) are clamped to 0 (quadrature-built states carry
    that much negative noise); anything below -1e-8 signals an invalid state
    upstream and raises.
    """
    lam, vec = np.linalg.eigh(rho.entries)
    if lam.min() < SQRT_EIG_ABORT:
        raise ValueError(
            f"density matrix has eigenvalue {lam.min():.3e} < {SQRT_EIG_ABORT}; "
            "not a physical state"
        )
    # below the eigh noise floor sqrt(lambda) would inject O(1e-8) garbage
    lam = np.where(lam < 1e-14, 0.0, lam)
    root = (vec * np.sqrt(lam)) @ vec.conj().T
    root = 0.5 * (root + root.conj().T)
    return TwoModeOperator(rho.cutoff, root)


def displacement_column_defect(alpha: complex, n_max: int, q_max: int) -> float:
    """Worst column-norm defect 1 - ||D(alpha)[:, q]|| over columns q <= q_max.

    This is the trace mass the truncation pushes above n_max; it bounds the
    error of kernel-mean quantities computed from those columns.
    """
    D = displacement_matrix(alpha, n_max, q_max + 1)
    norms = np.linalg.norm(D, axis=0)
    return float(np.max(1.0 - norms))


def warn_if_truncated(rho: DensityMatrix, tol: float = 1e-6) -> None:
    if rho.tail_defect > tol:
        warnings.warn(
            f"state carries truncation tail defect {rho.tail_defect:.3e}; "
            "kernel-mean values may be off by that much",
            TruncationWarning,
            stacklevel=3,
        )
