"""Variance and Wigner-Yanase skew information against the displaced parity kernel.

The skew information I(rho, Delta) = -1/2 Tr[sqrt(rho), Delta]^2 expands to

    I = Tr[rho Delta^2] - Tr[sqrt(rho) Delta sqrt(rho) Delta],

and this form is evaluated literally, with Delta^2 the computed square of the
truncated kernel rather than the identity it equals in infinite dimension.
Keeping the computed square makes the chain of inequalities

    0 <= I <= Var = Tr[rho Delta^2] - W^2,    I + W^2 <= Tr[rho Delta^2] <= 1

exact at any truncation (a truncated kernel is a contraction), so the
symmetry/asymmetry budget I + W^2 can never spuriously exceed 1.  For pure
states the budget saturates: I + W^2 = 1 up to the neglected Fock tails.

Grids are evaluated mode by mode: Delta(alpha, beta) = Delta(alpha) (x)
Delta(beta), and each distinct alpha (beta) gets its factors once, the kernel
block k on the state's support and the Gram matrix g = c^H c of its kernel
columns c (the same block of Delta^2).  With rho[a,b,x,y], S = sqrt(rho):

    W               = sum rho[a,b,x,y] k1[x,a] k2[y,b]
    Tr[rho Delta^2] = the same sum with g1, g2
    Tr[(S Delta)^2] = sum P[b,d,f,e] k2[d,f] k2[e,b],
        P[b,d,f,e]  = sum_{a,c} A[a,b,d,c] A[c,f,e,a],  A[a,b,d,c] = sum_x S[a,b,x,d] k1[x,c].

The rho and P contractions run once per distinct alpha, in one
SkewEvaluator.values call for all of that alpha's points.  Since
Delta(r e^(i phi))[m, n] = e^(i (m-n) phi) Delta(r)[m, n] with Delta(r) real,
k and g are built once per distinct modulus r, as real k(r) and c(r)^T c(r),
in chunks whose real column stack fits CHUNK_BYTES; a value's phase pattern
is applied only when that value is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import atan2

import numpy as np

from .fockspace import (
    DensityMatrix,
    FockCutoff,
    adequate_n_max,
    hermitian_sqrt,
    single_mode_kernel,
)
from .grids import axis_groups
from .states import StateVector
from .wigner import PhasePoint, _as_real

__all__ = [
    "SymmetryRecord",
    "SkewEvaluator",
    "parity_variance",
    "skew_information",
    "pure_point_values",
    "symmetry_sweep",
]

SKEW_CLAMP = -1e-9
PURITY_TOL = 1e-10
AUDIT_TOL = 1e-7
AUDIT_POINTS = 5
# working-set budget of one chunk of real kernel columns
CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class SymmetryRecord:
    """Symmetry (W^2) and asymmetry (skew information) of one phase point."""

    point: PhasePoint
    w: float
    w_squared: float
    skew: float
    budget: float  # skew + w_squared; <= 1 always, = 1 for pure states


def _kernel_rows(alpha: complex, block: int) -> int:
    """Rows of Delta(alpha)'s first ``block`` columns that keep the neglected
    tail below ~1e-10."""
    return adequate_n_max(4.0 * abs(alpha) ** 2, block - 1) + 1


def _kernel_columns(alpha: complex, block: int) -> np.ndarray:
    """First ``block`` columns of Delta(alpha), rows extended far enough that
    the neglected tail is below ~1e-10."""
    return single_mode_kernel(alpha, _kernel_rows(alpha, block) - 1, block)


def _value_factors(values, block: int):
    """(i, k, g) for every values[i]: Delta(v) and Delta(v)^2 on levels < block.

    Moduli go in ascending order (so do their rows), one single_mode_kernel
    call per chunk; each Gram matrix uses its own modulus' rows.
    """
    members = {}  # modulus: [(index, phase)], without numpy's float sort
    for i, v in enumerate(np.ravel(values).tolist()):
        members.setdefault(abs(v), []).append((i, atan2(v.imag, v.real)))
    moduli = sorted(members)
    rows = [_kernel_rows(r, block) for r in moduli]
    levels = np.arange(block)
    lo = 0
    while lo < len(moduli):
        hi = lo + 1
        while hi < len(moduli) and (hi + 1 - lo) * rows[hi] * block * 8 <= CHUNK_BYTES:
            hi += 1
        cols = single_mode_kernel(np.array(moduli[lo:hi]), rows[hi - 1] - 1, block)
        factors = [(c[:block].copy(), c[:r].T @ c[:r]) for c, r in zip(cols, rows[lo:hi])]
        del cols  # only the blocks stay while the chunk's values are used
        for (k, g), r in zip(factors, moduli[lo:hi]):
            for i, phi in members[r]:
                u = np.exp(1j * phi * levels)
                yield i, u[:, None] * k * u.conj(), u[:, None] * g * u.conj()
        lo = hi


def _mode_factors(values, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacks k[i], g[i] of the factors of values[i], in fresh arrays."""
    k = np.empty((len(values), block, block), dtype=complex)
    g = np.empty_like(k)
    for i, k_i, g_i in _value_factors(values, block):
        k[i], g[i] = k_i, g_i
    return k, g


def pure_point_values(psi: StateVector, point: PhasePoint) -> tuple[float, float]:
    """(W, I) for a pure state from the commutator definition.

    For rank-1 sqrt(rho) = rho the skew information reduces to
    I = ||Delta psi||^2 - <psi|Delta|psi>^2, which needs only kernel columns
    over the state's support; every kernel entry is exact, so the only
    truncation error is the Fock tail of Delta psi, controlled by the
    adequate-cutoff rule.
    """
    c = psi.cutoff
    psi4 = psi.amplitudes.reshape(c.dim1, c.dim2)
    c1 = _kernel_columns(point.alpha, c.dim1)
    c2 = _kernel_columns(point.beta, c.dim2)
    dpsi = c1 @ psi4 @ c2.T  # (N1, N2) image of Delta |psi>
    w = _as_real(np.vdot(psi4, dpsi[: c.dim1, : c.dim2]), "kernel mean")
    norm_sq = float(np.real(np.vdot(dpsi, dpsi)))
    return w, norm_sq - w**2


class SkewEvaluator:
    """Skew-information engine for one state over any set of phase points.

    Works on the state's support block, whose square root is taken when the
    skew is first asked for (hermitian_sqrt; it raises for an unphysical
    state).  Skew values in [-1e-9, 0) are clamped to zero and counted in
    ``clamped_points``; anything more negative raises (the truncation was
    inadequate).  See the module docstring for the factorisation.
    """

    def __init__(self, rho: DensityMatrix):
        d1, d2 = rho.mode_support()
        self.d1, self.d2 = d1, d2
        self.block = np.ascontiguousarray(
            rho.as_modes()[:d1, :d2, :d1, :d2].reshape(d1 * d2, d1 * d2))
        # rows (b, y), columns (x, a): a product with f.ravel() sums rho[a,b,x,y] f[x,a]
        self._rho_pairs = self.block.reshape(d1, d2, d1, d2).transpose(1, 3, 2, 0).reshape(
            d2 * d2, d1 * d1)
        self.clamped_points = 0

    @cached_property
    def _sqrt_rows(self) -> np.ndarray:
        """sqrt(rho) as S[a,b,x,d] with rows (a, b, d) and column x."""
        d1, d2 = self.d1, self.d2
        root = hermitian_sqrt(DensityMatrix(FockCutoff(d1 - 1, d2 - 1), self.block)).entries
        return root.reshape(d1, d2, d1, d2).transpose(0, 1, 3, 2).reshape(d1 * d2 * d2, d1)

    def _contract(self, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
        """sum rho[a,b,x,y] f1[x,a] f2[p][y,b] for every stacked f2[p]."""
        m = (self._rho_pairs @ f1.ravel()).reshape(self.d2, self.d2)
        return np.einsum("pyb,by->p", f2, m)

    def _square_trace(self, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
        """Tr[(sqrt(rho) Delta)^2] for every stacked k2[p] at one alpha."""
        d1, d2 = self.d1, self.d2
        a = (self._sqrt_rows @ k1).reshape(d1, d2, d2, d1)  # A[a,b,d,c]
        p = a.transpose(1, 2, 0, 3).reshape(d2 * d2, d1 * d1) @ a.transpose(3, 0, 1, 2).reshape(
            d1 * d1, d2 * d2)
        return np.einsum("bdfe,pdf,peb->p", p.reshape(d2, d2, d2, d2), k2, k2).real

    def kernel_means(self, alphas, betas) -> np.ndarray:
        """W = Tr[rho Delta] at the points (alphas[i], betas[i]).

        Needs only the kernel blocks k, which are exact on the support's own
        levels, so no tail rows and no Gram matrices are built."""
        alphas, betas = np.ravel(alphas), np.ravel(betas)
        b_vals, b_idx = np.unique(betas, return_inverse=True)
        k2 = single_mode_kernel(b_vals, self.d2 - 1, self.d2)
        a_vals, groups = axis_groups(alphas)
        k1 = single_mode_kernel(a_vals, self.d1 - 1, self.d1)
        w = np.empty(alphas.size, dtype=complex)
        for k, at in zip(k1, groups):
            w[at] = self._contract(k, k2[b_idx[at]])
        return _as_real(w, "kernel mean")

    def grid(self, alphas, betas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(W, variance, skew) arrays at the points (alphas[i], betas[i]): one
        values() call per distinct alpha.  Each distinct beta's factors are
        built once; the alphas' are built chunk by chunk, so no stack of all
        alpha factors is held."""
        alphas, betas = np.ravel(alphas), np.ravel(betas)
        b_vals, b_idx = np.unique(betas, return_inverse=True)
        k2, g2 = _mode_factors(b_vals, self.d2)
        a_vals, groups = axis_groups(alphas)
        out = np.empty((3, alphas.size))
        for i, k, g in _value_factors(a_vals, self.d1):
            at = groups[i]
            point = PhasePoint(a_vals[i], betas[at])
            out[:, at] = self.values(point, (k2[b_idx[at]], g2[b_idx[at]]), (k, g))
        return out[0], out[1], out[2]

    def values(self, point: PhasePoint, mode2: tuple[np.ndarray, np.ndarray] | None = None,
               mode1: tuple[np.ndarray, np.ndarray] | None = None):
        """(W, variance, skew) at one phase point, as floats; as arrays for a
        batch that shares one alpha (point.beta a 1-d array).  ``mode2`` =
        (k2, g2) passes in the stacked mode-2 factors of point.beta and
        ``mode1`` = (k1, g1) the factors of point.alpha, which grid() builds
        in chunks, once per distinct value."""
        single = np.ndim(point.beta) == 0
        k2, g2 = mode2 if mode2 is not None else _mode_factors(np.ravel(point.beta), self.d2)
        if mode1 is None:
            (k1,), (g1,) = _mode_factors(np.ravel(point.alpha), self.d1)
        else:
            k1, g1 = mode1
        w = _as_real(self._contract(k1, k2), "kernel mean")
        # Tr[rho Delta^2]: the block of Delta^2 is the column Gram matrix
        t1 = self._contract(g1, g2).real
        skew = t1 - self._square_trace(k1, k2)
        if skew.min() < SKEW_CLAMP:
            raise ArithmeticError(
                f"skew information {skew.min():.3e} below clamp threshold; increase "
                "the truncation"
            )
        negative = skew < 0.0
        self.clamped_points += int(negative.sum())
        skew[negative] = 0.0
        var = t1 - w * w
        if single:
            return float(w[0]), float(var[0]), float(skew[0])
        return w, var, skew


def parity_variance(rho: DensityMatrix, point: PhasePoint) -> float:
    """Var(rho, Delta) = Tr[rho Delta^2] - W^2.

    Equals 1 - W^2 up to the truncation tail, since Delta^2 = 1 on the
    untruncated space.  Computed by SkewEvaluator.values, so it raises where
    that does: for an unphysical state or a skew below the clamp threshold.
    """
    return SkewEvaluator(rho).values(point)[1]


def skew_information(rho: DensityMatrix, point: PhasePoint) -> float:
    """One-shot commutator-definition skew information; for repeated points on
    the same state use SkewEvaluator directly."""
    return SkewEvaluator(rho).values(point)[2]


def symmetry_sweep(rho: DensityMatrix, grid, pure_hint: bool = False,
                   seed: int = 0) -> list[SymmetryRecord]:
    """One SymmetryRecord per grid point, row-major over the grid axes.

    With ``pure_hint`` the skew column is the fast path 1 - W^2, spot-audited
    against the commutator definition at 5 random grid points (tolerance
    1e-7); an audit failure aborts, since it means the state was not actually
    pure or the truncation is inadequate.
    """
    alphas, betas = grid.amplitudes()
    engine = SkewEvaluator(rho)
    if pure_hint:
        purity = rho.purity()
        if abs(purity - 1.0) > PURITY_TOL:
            raise ValueError(f"pure_hint set but purity is {purity}; state is not pure")
        w = engine.kernel_means(alphas, betas)
        skew, budget = 1.0 - w * w, np.ones_like(w)
        rng = np.random.default_rng(seed)
        audit = rng.choice(len(w), size=min(AUDIT_POINTS, len(w)), replace=False)
        _, _, reference = engine.grid(alphas[audit], betas[audit])
        for i, ref in zip(audit, reference):
            if abs(ref - skew[i]) > AUDIT_TOL:
                raise ArithmeticError(
                    f"pure-path audit failed at {PhasePoint(alphas[i], betas[i])}: "
                    f"fast skew {skew[i]} vs commutator {ref}"
                )
    else:
        w, _, skew = engine.grid(alphas, betas)
        budget = skew + w * w
    return [SymmetryRecord(PhasePoint(a, b), wi, wi * wi, si, bi)
            for a, b, wi, si, bi in zip(alphas.tolist(), betas.tolist(), w.tolist(),
                                        skew.tolist(), budget.tolist())]
