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

By rotation covariance, <p|D(r e^(i phi))|q> = e^(i (p-q) phi) <p|D(r)|q>
with D(r) real and D(r)[p, q] = (-1)^(p+q) D(r)[q, p] (Cahill & Glauber
1969), so the recurrence is real, runs once per distinct modulus of a batch
of amplitudes, and fills only the lower triangle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import atan2, factorial, lgamma, log

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
    "hermitian_sqrt",
    "adequate_n_max",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-10
SQRT_EIG_ABORT = -1e-8
# relative to a block's largest eigenvalue
SQRT_EIG_FLOOR = 1e-14
N_MAX_MARGIN = 5.0
TAIL_WARN_TOL = 1e-6
# lgamma(a + 1) for a < size, shared by every recurrence run
_LGAMMA = np.zeros(0)


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


def adequate_n_max(x: float, q_max: int) -> int:
    """Truncation that keeps column q <= q_max of D(gamma), |gamma|^2 = x,
    normalized to better than ~1e-10.

    Displaced number states live below roughly (sqrt(x) + sqrt(q))^2 photons
    with super-exponential decay beyond; N_MAX_MARGIN = 5 was calibrated to
    hold the column-norm defect under 1e-10 for x <= 200, q <= 10.
    """
    return int(np.ceil((np.sqrt(max(x, 0.0)) + np.sqrt(max(q_max, 0)) + N_MAX_MARGIN) ** 2))


def _as_n_max(cutoff) -> int:
    if isinstance(cutoff, FockCutoff):
        return cutoff.n1_max
    return int(cutoff)


def _lgamma_prefix(d: int) -> np.ndarray:
    """lgamma(a + 1) for a < d, from a module table that only ever grows."""
    global _LGAMMA
    if _LGAMMA.size < d:
        _LGAMMA = np.append(_LGAMMA, [lgamma(a + 1.0) for a in range(_LGAMMA.size, d)])
    return _LGAMMA[:d]


def displacement_matrix(alpha, cutoff, ncols: int | None = None) -> np.ndarray:
    """Single-mode displacement matrix <p|D(alpha)|q> for p <= n_max, q < ncols.

    ``cutoff`` is an int n_max or a FockCutoff (mode-1 cutoff is used);
    ``ncols`` defaults to all n_max + 1 columns.  All returned entries are the
    exact infinite-dimensional matrix elements; the truncation only limits the
    index range.  Columns therefore have norm <= 1, reaching 1 only when the
    displaced state fits under the cutoff.  The recurrence stops at the
    requested columns, and the result equals the leading columns of the full
    matrix bit for bit.

    ``alpha`` may also be a 1-d array of n amplitudes; the result is then the
    stack (n, n_max + 1, ncols), and each entry equals the single-amplitude
    call bit for bit.  A real ``alpha`` gives a real result.

    One real recurrence loop serves every distinct modulus r = |alpha| (by
    scalar abs), writing straight into the columns of D(r), with no chunking.
    A complex amplitude gets e^(i (p-q) phi) D(r), a negative real one
    (-1)^(p+q) D(r) and a zero one identity columns; distinct non-negative
    real amplitudes in ascending order get D(r) itself, with no copy.
    """
    gammas = np.asarray(alpha, dtype=complex if np.iscomplexobj(alpha) else float)
    if not np.isfinite(gammas).all():
        raise ValueError(f"displacement amplitude must be finite, got {alpha}")
    n_max = _as_n_max(cutoff)
    d = n_max + 1
    ncols = d if ncols is None else min(int(ncols), d)
    if ncols < 1:
        raise ValueError(f"ncols must be >= 1, got {ncols}")
    # distinct moduli by Python's sort: numpy's float sort would page in its
    # SIMD kernels, some 0.4 MB of resident memory in a fresh process
    flat = gammas.ravel().tolist()
    moduli = sorted({abs(g) for g in flat})
    inverse = np.searchsorted(moduli, [abs(g) for g in flat]).tolist()
    D = np.empty((len(moduli), d, ncols))
    zero = int(moduli[:1] == [0.0])
    D[:zero] = np.eye(d, ncols)
    R, r = D[zero:], np.array(moduli[zero:])[:, None]
    # <k+a|D(r)|k> along diagonal a: column 0 in closed form, then
    # E[k+1] = ((2k+1+a - r^2) E[k] - sqrt(k(k+a)) E[k-1]) / sqrt((k+1)(k+1+a))
    x = r * r
    a = np.arange(d, dtype=float)
    log_r = np.array([log(m) for m in r[:, 0]])[:, None]
    np.exp(-x / 2 + a * log_r - 0.5 * _lgamma_prefix(d), out=R[:, :, 0])
    sign = (-1.0) ** a
    for k in range(ncols - 1):
        # row k right of the diagonal: D(r)[k, k+a] = (-1)^a D(r)[k+a, k]
        R[:, k, k + 1:] = sign[1:ncols - k] * R[:, k + 1:ncols, k]
        step = (2 * k + 1 + a[:d - k - 1] - x) * R[:, k:d - 1, k]
        if k:
            step -= root[:d - k - 1] * R[:, k - 1:d - 2, k - 1]
        root = np.sqrt((k + 1) * (k + 1 + a[:d - k - 1]))  # sqrt(k (k+a)) at step k + 1
        R[:, k + 1:, k + 1] = step / root
    if np.isrealobj(gammas) and min(flat, default=0) >= 0 and inverse == list(range(len(flat))):
        return D if gammas.ndim else D[0]  # distinct moduli in ascending order
    out = np.empty((len(flat), d, ncols), dtype=gammas.dtype)
    for i, (g, m) in enumerate(zip(flat, inverse)):
        out[i] = D[m]
        if g.imag or g.real < 0:  # u_p conj(u_q) = e^(i (p-q) phi)
            u = np.exp(1j * atan2(g.imag, g.real) * a) if isinstance(g, complex) else sign
            out[i] *= u[:, None]
            out[i] *= u[:ncols].conj()
    return out if gammas.ndim else out[0]


def parity_matrix(cutoff) -> np.ndarray:
    """Photon-number parity Pi = diag((-1)^n); involutory exactly."""
    n_max = _as_n_max(cutoff)
    return np.diag((-1.0) ** np.arange(n_max + 1))


def single_mode_kernel(alpha, cutoff, ncols: int | None = None) -> np.ndarray:
    """Displaced parity kernel Delta(alpha) = D(2 alpha) Pi for one mode, its
    first ``ncols`` columns (all by default); a stack for a 1-d array of
    amplitudes, and real for a real alpha, as displacement_matrix.

    Built as a column sign flip of the displacement matrix, so every entry is
    the exact operator matrix element (no truncated intermediate sums) and the
    full square result is Hermitian to rounding.
    """
    D = displacement_matrix(2 * np.asarray(alpha), _as_n_max(cutoff), ncols)
    D *= (-1.0) ** np.arange(D.shape[-1])
    return D


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
        # a ufunc sum of squares: a BLAS dot can stall for milliseconds here
        return float(np.square(np.ravel(self.entries).view(float)).sum())

    def mode_support(self) -> tuple[int, int]:
        """Smallest (d1, d2) block outside which all entries vanish."""
        r4 = np.abs(self.as_modes())
        occ1 = np.maximum(r4.max(axis=(1, 2, 3)), r4.max(axis=(0, 1, 3)))
        occ2 = np.maximum(r4.max(axis=(0, 2, 3)), r4.max(axis=(0, 1, 2)))
        d1 = int(np.max(np.nonzero(occ1)[0])) + 1 if occ1.any() else 1
        d2 = int(np.max(np.nonzero(occ2)[0])) + 1 if occ2.any() else 1
        return d1, d2


def _root_blocks(entries: np.ndarray, dim2: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The Hermitian PSD square root of a density matrix, block by block.

    ``entries`` is the (d, d) matrix on flat indices n1 * dim2 + n2.  Returns
    [(b, r)]: the flat indices b of one block and the root r on them.  When
    no entry couples two different total photon numbers N = n1 + n2 (a cat
    state's shell, and its channel output), there is one block per N, in
    ascending N; otherwise one block holds every index.  Per block,
    eigenvalues below SQRT_EIG_FLOOR times the block's largest are taken as
    0: eigh resolves them only to rounding of the block's scale, and sqrt
    would turn that noise into O(1e-8) garbage.  An eigenvalue below -1e-8
    signals an invalid state upstream and raises ValueError.
    """
    d = entries.shape[0]
    total = np.arange(d) // dim2 + np.arange(d) % dim2
    blocks = [np.flatnonzero(total == n) for n in range(total[-1] + 1)]
    subs = [entries[np.ix_(b, b)] for b in blocks]
    if sum(np.count_nonzero(sub) for sub in subs) != np.count_nonzero(entries):
        blocks, subs = [np.arange(d)], [entries]
    roots = []
    for b, sub in zip(blocks, subs):
        lam, vec = np.linalg.eigh(sub)
        if lam[0] < SQRT_EIG_ABORT:
            raise ValueError(
                f"density matrix has eigenvalue {lam[0]:.3e} < {SQRT_EIG_ABORT}; "
                "not a physical state"
            )
        lam = np.where(lam < SQRT_EIG_FLOOR * lam[-1], 0.0, lam)
        r = (vec * np.sqrt(lam)) @ vec.conj().T
        roots.append((b, 0.5 * (r + r.conj().T)))
    return roots


def hermitian_sqrt(rho: DensityMatrix) -> TwoModeOperator:
    """Hermitian PSD square root of a density matrix via eigendecomposition.

    Taken per block of one total photon number N = n1 + n2 when no entry
    couples two different N, otherwise as one block (see _root_blocks, which
    also gives the eigenvalue floor and the ValueError for an unphysical
    state).  Each block is symmetrized before it is scattered, so a state
    with N-blocks holds no dense temporary beside the result.
    """
    root = np.zeros_like(rho.entries)
    for b, r in _root_blocks(rho.entries, rho.cutoff.dim2):
        root[np.ix_(b, b)] = r
    return TwoModeOperator(rho.cutoff, root)


def warn_if_truncated(rho: DensityMatrix) -> None:
    if rho.tail_defect > TAIL_WARN_TOL:
        warnings.warn(
            f"state carries truncation tail defect {rho.tail_defect:.3e}; "
            "kernel-mean values may be off by that much",
            TruncationWarning,
            stacklevel=3,
        )
