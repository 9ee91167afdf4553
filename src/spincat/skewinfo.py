"""Variance and Wigner-Yanase skew information against the displaced parity kernel.

The skew information I(rho, Delta) = -1/2 Tr[sqrt(rho), Delta]^2 expands to

    I = Tr[rho Delta^2] - Tr[sqrt(rho) Delta sqrt(rho) Delta],

and Delta is Hermitian and involutory, so Tr[rho Delta^2] = Tr rho exactly:
no Fock tail enters it.  With K the block of Delta on rho's support (a
contraction) and rho = sum_i lam_i |i><i|, the chain

    0 <= I <= Var = Tr rho - W^2,    I + W^2 <= Tr rho

holds at any truncation:
    Tr[(sqrt(rho) K)^2] = sum_ij sqrt(lam_i lam_j) |K_ij|^2 <= Tr[rho K^2] <= Tr rho,
    Tr[(sqrt(rho) K)^2] >= sum_i lam_i K_ii^2 >= W^2 (Cauchy-Schwarz, Tr rho <= 1).
For pure states the budget saturates: I + W^2 = 1.  A pure cat state needs
neither root nor density matrix: every pure W that a sweep writes is
_shell_kernel_mean's, from square kernel blocks, and pure_point_values, the
per-point commutator oracle, audits it from tall kernel columns.  A density
matrix, pure or mixed, takes one route: SkewEvaluator.grid.

Grids are evaluated mode by mode: Delta(alpha, beta) = Delta(alpha) (x)
Delta(beta), and each distinct alpha (beta) gets its kernel block k on the
state's support once.  With rho[a,b,x,y], S = sqrt(rho):

    W               = sum rho[a,b,x,y] k1[x,a] k2[y,b]
    Tr[(S Delta)^2] = sum P[b,d,f,e] k2[d,f] k2[e,b],
        P[b,d,f,e]  = sum_{a,c} A[a,b,d,c] A[c,f,e,a],  A[a,b,d,c] = sum_x S[a,b,x,d] k1[x,c].

With M the terms a < c and D those with a = c, P = M + M^T + D D^T: one
product over the d1 (d1 + 1) / 2 pairs a <= c, and no transposed copy of A.
When rho has one block per total photon number N = n1 + n2, as every state
the package builds has (a cat state lives on one shell, and the channel is
phase-covariant on mode 1), so does S: rho[a,b,x,d] and S[a,b,x,d] vanish
unless x = a + b - d.  W then sums rho's N-band, m[b,d] =
sum_a rho[a,b,a+b-d,d] k1[a+b-d,a], and the factors of P are gathers,
A[a,b,d,c] = S[a,b,a+b-d,d] k1[a+b-d,c], with flat indices and root weights
fixed once per state.  A rho that couples different N takes dense
contractions on its support block instead.

Since Delta(r e^(i phi))[m, n] = e^(i (m-n) phi) Delta(r)[m, n] with Delta(r)
real, k is built once per distinct modulus r, as real k(r), in chunks whose
real blocks fit CHUNK_BYTES.  For N-blocks the phase of alpha = r e^(i phi)
factors out of both contractions, since x = a + b - d:

    P(alpha)[b,d,f,e] = e^(i (b-d+f-e) phi) P(r)[b,d,f,e],
    m(alpha)[b,d]     = e^(i (b-d) phi) m(r)[b,d],

and both patterns fold onto beta's block, k2'[x,y] = e^(-i (x-y) phi) k2[x,y],
which is Delta(beta e^(-i phi)).  So P(r) and m(r) are built once per distinct
modulus from the real k(r), and each distinct alpha's SkewEvaluator.values
call, one for all of its points, takes two small contractions against its
betas' k2'.  A preset cat has phi1, phi2 in {0, 2 pi}, which
states.spin_coherent_amplitudes reduces to 0: its amplitudes and rho' are
then exactly real, and so are the N-block roots (eigh keeps them real; the
engine checks), so P(r) is one real GEMM per modulus.
Complex root weights (any other phi) take the same route in complex
arithmetic.  A rho that couples different N gets m and P per distinct alpha
from its own complex block.
"""

from __future__ import annotations

from functools import cached_property
from math import atan2, sqrt
from typing import NamedTuple

import numpy as np

from .fockspace import (
    N_MAX_MARGIN,
    DensityMatrix,
    _root_blocks,
    adequate_n_max,
    single_mode_kernel,
)
from .grids import axis_groups
from .states import CatParams, StateVector
from .wigner import PhasePoint, _as_real, _shell_sum

__all__ = ["SkewEvaluator", "pure_point_values"]

SKEW_CLAMP = -1e-9
AUDIT_TOL = 1e-7
# working-set budget of one chunk of real kernel blocks
CHUNK_BYTES = 1 << 19
# largest |alpha| and |beta| of the oracle pure_point_values, and so of a pure
# sweep, which audits its largest ones (|q + i p| <= 141 per mode): a modulus
# r takes kernel columns of (2 r + sqrt(2j) + 5)^2 rows
MAX_AMPLITUDE = 100.0


def _kernel_columns(alpha: complex, block: int) -> np.ndarray:
    """First ``block`` columns of Delta(alpha), rows extended far enough that
    the neglected tail is below ~1e-10."""
    return single_mode_kernel(alpha, adequate_n_max(4.0 * abs(alpha) ** 2, block - 1), block)


def _tall_bytes(r: float, block: int) -> float:
    """Bytes of one modulus r's kernel columns (_kernel_columns), block real
    columns of adequate_n_max(4 r^2, block - 1) + 1 rows, in floats that no
    finite r overflows into an error."""
    x = 2.0 * r + sqrt(block - 1) + N_MAX_MARGIN
    return 8.0 * block * (x * x + 1.0)


def _kernel_blocks(values, block: int):
    """(k, members) for every distinct modulus r of ``values``: k = Delta(r)
    on levels < block, real, and members the (i, phi) with values[i] =
    r e^(i phi), so that Delta(values[i]) = _phased(k, phi).

    Moduli go in ascending order, one real single_mode_kernel call per chunk
    of CHUNK_BYTES // (8 block^2) of them (at least one).
    """
    members = {}  # modulus: [(index, phase)], without numpy's float sort
    for i, v in enumerate(np.ravel(values).tolist()):
        members.setdefault(abs(v), []).append((i, atan2(v.imag, v.real)))
    moduli = sorted(members)
    per_chunk = max(1, CHUNK_BYTES // (8 * block * block))
    for lo in range(0, len(moduli), per_chunk):
        chunk = moduli[lo:lo + per_chunk]
        for k, r in zip(single_mode_kernel(np.array(chunk), block - 1, block), chunk):
            yield k, members[r]


def _phased(k: np.ndarray, phi) -> np.ndarray:
    """U k U^H with U = diag(e^(i n phi)), a fresh complex array: Delta(r e^(i phi))
    from k = Delta(r), for one block and a float phi, or a stack and a column
    phi[i, 0] per block."""
    u = np.exp(1j * phi * np.arange(k.shape[-1]))
    return u[..., None] * k * u[..., None, :].conj()


def _kernel_stack(values, block: int) -> tuple[np.ndarray, np.ndarray]:
    """(k, phi): the real blocks k[i] = Delta(|values[i]|), stacked in a fresh
    array, and the phases phi[i, 0] of values[i], so _phased(k, phi) is the
    stack of Delta(values[i])."""
    k, phi = np.empty((np.size(values), block, block)), np.empty((np.size(values), 1))
    for k_r, members in _kernel_blocks(values, block):
        for i, t in members:
            k[i], phi[i] = k_r, t
    return k, phi


def _audit(kind: str, coords: np.ndarray, column: str, written, reference) -> None:
    """Raise ArithmeticError unless a written column is within AUDIT_TOL of
    its reference at every point (a NaN fails).  ``written`` and ``reference``
    are (label, values) pairs, and coords[i] is the (q1, p1, q2, p2) of
    values[i]; the message names the worst point and both values."""
    (name, ours), (ref_name, theirs) = written, reference
    gap = np.abs(ours - theirs)
    i = int(gap.argmax())
    if not gap[i] <= AUDIT_TOL:
        raise ArithmeticError(
            f"{kind} audit failed at (q1, p1, q2, p2) = {tuple(coords[i].tolist())}: "
            f"{name} {column}={ours[i]} vs {ref_name} {column}={theirs[i]}"
        )


def _shell_kernel_mean(params: CatParams, alphas, betas) -> np.ndarray:
    """Kernel mean of the pure cat state at the points (alphas[i], betas[i]),
    1-d arrays: the shell sum (wigner._shell_sum) over the exact square
    kernel blocks of its 2j + 1 levels (_kernel_blocks)."""
    def blocks(values):
        for k, members in _kernel_blocks(values, params.twoj + 1):
            for i, phi in members:
                yield i, _phased(k, phi)

    return _shell_sum(params, alphas, betas, blocks, blocks)


def pure_point_values(psi: StateVector, point: PhasePoint):
    """(W, I) for a pure state from the commutator definition: floats for one
    point, arrays for a batch (point.alpha and point.beta broadcast).

    For rank-1 sqrt(rho) = rho the skew information reduces to
    I = ||Delta psi||^2 - <psi|Delta|psi>^2.  Each point gets
    Delta psi = c1 psi c2^T from its own kernel columns c1, c2 over the
    state's support (_kernel_columns), psi as a matrix (rows n1, columns n2),
    with the phases of alpha and beta moved onto psi so that the columns and
    the products are real.  Every kernel entry is exact, so the only
    truncation error is the Fock tail of Delta psi.  This is the per-point
    oracle that pure sweeps audit against.  A modulus above MAX_AMPLITUDE is
    a ValueError, raised before any column is built.
    """
    c = psi.cutoff
    alphas, betas = np.broadcast_arrays(np.asarray(point.alpha, dtype=complex),
                                        np.asarray(point.beta, dtype=complex))
    alphas, betas = alphas.ravel(), betas.ravel()
    for name, values, block in (("alpha", alphas, c.dim1), ("beta", betas, c.dim2)):
        r = float(np.max(np.abs(values), initial=0.0))
        if r > MAX_AMPLITUDE:
            raise ValueError(
                f"|{name}| = {r:.6g} exceeds skewinfo.MAX_AMPLITUDE = {MAX_AMPLITUDE:g}: its "
                f"kernel columns would take {_tall_bytes(r, block) / 1e9:.3g} GB at block {block}")
    psi4 = psi.amplitudes.reshape(c.dim1, c.dim2)
    n1, n2 = np.arange(c.dim1)[:, None], np.arange(c.dim2)
    w = np.zeros(alphas.size, dtype=complex)
    norm2 = np.zeros(alphas.size)
    for i, (a, b) in enumerate(zip(alphas, betas)):
        # Delta(r e^(i t)) = U Delta(r) U^H, U = diag(e^(i n t)): Delta psi =
        # U1 y U2 with y = k1 phi k2^T, phi = U1^H psi U2^H, k1 and k2 the real
        # columns of |alpha| and |beta|; y is taken per real part of phi
        phi = psi4 * np.exp(-1j * (n1 * np.angle(a) + n2 * np.angle(b)))
        k1, k2 = _kernel_columns(abs(a), c.dim1), _kernel_columns(abs(b), c.dim2)
        for part, unit in ((phi.real, 1.0), (phi.imag, 1j)):
            y = k1 @ part @ k2.T
            w[i] += unit * np.vdot(phi, y[:c.dim1, :c.dim2])
            norm2[i] += np.vdot(y, y)
    w = _as_real(w, "kernel mean")
    skew = norm2 - w**2
    if np.ndim(point.alpha) == np.ndim(point.beta) == 0:
        return float(w[0]), float(skew[0])
    return w, skew


class _Batch(NamedTuple):  # grid()'s points of one alpha, checked there, not per call
    alpha: complex
    beta: np.ndarray


class SkewEvaluator:
    """Skew-information engine for one state over any set of phase points.

    Works on the state's support block, whose square root is taken when the
    skew is first asked for (_root_blocks; it raises for an unphysical
    state).  Skew values in [-1e-9, 0) are clamped to zero and counted in
    ``clamped_points``; anything more negative raises (the truncation was
    inadequate).  See the module docstring for the factorisation.
    """

    def __init__(self, rho: DensityMatrix):
        d1, d2 = rho.mode_support()
        self.d1, self.d2 = d1, d2
        self.block = np.ascontiguousarray(
            rho.as_modes()[:d1, :d2, :d1, :d2].reshape(d1 * d2, d1 * d2))
        # Tr[rho Delta^2]: Delta^2 = 1, and its block on the support is the identity
        self.trace = float(self.block.trace().real)
        self.clamped_points = 0

    @cached_property
    def _root(self) -> tuple:
        """(rows, band, (idx, wt)) for _pair_product and _band.

        A factor of P has rows j, the pairs (a, c) = (pa[j], pc[j]), a <= c,
        and columns (b, d), and is src.flat[idx] * wt with src = k1 when
        rows is None: the N-block case, where idx and wt fold in x and the
        root entry, and band = (idx, wt) gathers rho[a,b,x,d] k1[x,a] on rows
        a.  Otherwise rows holds the dense root rows (b, d, a), column x,
        src = rows @ k1 is A itself, and band is None."""
        d1, d2 = self.d1, self.d2
        pa, pc = np.triu_indices(d1)
        half = np.where(pa == pc, 0.5, 1.0)[:, None]  # P = X + X^T counts a = c twice
        roots = _root_blocks(self.block, d2)
        if len(roots) != d1 + d2 - 1:  # one block couples different N
            (_, root), = roots
            rows = root.reshape(d1, d2, d1, d2).transpose(1, 3, 0, 2).reshape(d2 * d2 * d1, d1)
            bd = np.arange(d2 * d2) * d1 * d1
            return rows, None, (np.stack([bd + (pa * d1 + pc)[:, None],
                                          bd + (pc * d1 + pa)[:, None]]),
                                np.stack([half, np.ones_like(half)]))
        s = np.zeros((d1, d2, d2), dtype=complex)
        for b, r in roots:
            n1, n2 = np.divmod(b, d2)
            s[n1[:, None], n2[:, None], n2] = r  # r[p, q] = S[n1[p], n2[p], n1[q], n2[q]]
        a, b, d = np.ogrid[:d1, :d2, :d2]
        x = np.clip(a + b - d, 0, d1 - 1)  # s and the band are 0 where clipped
        band = self.block.reshape(d1, d2, d1, d2)[a, b, x, d] * (x == a + b - d)
        if not (band.imag.any() or s.imag.any()):  # real amplitudes: eigh keeps them real
            s, band = s.real, band.real
        x, s = x.reshape(d1, -1), s.reshape(d1, -1)
        return None, (x * d1 + a[:, 0], band.reshape(d1, -1)), (
            np.stack([x[pa] * d1 + pc[:, None], x[pc] * d1 + pa[:, None]]),
            np.stack([s[pa] * half, s[pc]]))

    def _band(self, k1: np.ndarray) -> np.ndarray:
        """m[b, y] = sum rho[a,b,x,y] k1[x,a], so that W = sum m[b,y] k2[y,b]."""
        d1, d2 = self.d1, self.d2
        _, band, _ = self._root
        if band is None:
            return np.einsum("abxy,xa->by", self.block.reshape(d1, d2, d1, d2), k1)
        return (np.take(k1, band[0]) * band[1]).sum(axis=0).reshape(d2, d2)

    def _pair_product(self, k1: np.ndarray) -> np.ndarray:
        """P[(b, d), (f, e)] = sum_{a,c} A[a,b,d,c] A[c,f,e,a] at one kernel
        block k1, as X + X^T with X = M + D D^T / 2 over the pairs a <= c."""
        rows, _, (idx, wt) = self._root
        g = np.take(k1 if rows is None else rows @ k1, idx) * wt
        x = g[0].T @ g[1]
        return x + x.T

    def grid(self, alphas, betas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(W, variance, skew) arrays at the points (alphas[i], betas[i]): one
        values() call per distinct alpha.  Each distinct beta's real kernel
        block is built once, and the alphas' chunk by chunk, so no stack of
        all alpha blocks is held.  With N-blocks, each distinct modulus |alpha|
        gets one band and one P from its real block, and alpha's phase goes
        onto its betas' blocks; otherwise each alpha gets both from its own."""
        alphas, betas = np.ravel(alphas), np.ravel(betas)
        if not (np.isfinite(alphas).all() and np.isfinite(betas).all()):
            raise ValueError("phase points must be finite, got a non-finite alpha or beta")
        out = np.empty((3, alphas.size))
        dense = self._root[0] is not None  # the root's eigh before a chunk of alpha blocks
        b_vals, b_idx = np.unique(betas, return_inverse=True)
        k2, psi = _kernel_stack(b_vals, self.d2)
        a_vals, groups = axis_groups(alphas)
        for k, members in _kernel_blocks(a_vals, self.d1):
            if not dense:
                mode1 = self._band(k), self._pair_product(k)
            for i, phi in members:
                if dense:
                    k1 = _phased(k, phi)
                    mode1, phi = (self._band(k1), self._pair_product(k1)), 0.0
                at, b = groups[i], b_idx[groups[i]]
                out[:, at] = self.values(_Batch(a_vals[i], betas[at]),
                                         _phased(k2[b], psi[b] - phi), mode1)
        return out[0], out[1], out[2]

    def values(self, point: PhasePoint, mode2: np.ndarray | None = None,
               mode1: tuple | None = None):
        """(W, variance, skew) at the points (point.alpha, point.beta), which
        broadcast against each other and go through grid(): floats for one
        point, 1-d arrays in C order for a batch.  grid() calls values() once
        per distinct alpha, with ``mode1`` = (_band(k1), _pair_product(k1))
        and ``mode2`` the stacked blocks k2 of point.beta, its betas: k1 (x) k2
        is Delta(alpha) (x) Delta(beta), or for N-blocks its rotation by
        e^(-i phi N), alpha = |alpha| e^(i phi), which leaves W and I as they
        are (see the module docstring)."""
        if mode1 is None and mode2 is None:
            out = self.grid(*np.broadcast_arrays(point.alpha, point.beta))
            if np.ndim(point.alpha) == np.ndim(point.beta) == 0:
                return tuple(float(v[0]) for v in out)
            return out
        m, p = mode1
        w = _as_real(np.einsum("pyb,by->p", mode2, m), "kernel mean")
        p = p.reshape((self.d2,) * 4)
        skew = self.trace - np.einsum("bdfe,pdf,peb->p", p, mode2, mode2).real
        if skew.min() < SKEW_CLAMP:
            raise ArithmeticError(
                f"skew information {skew.min():.3e} below clamp threshold; increase "
                "the truncation"
            )
        negative = skew < 0.0
        self.clamped_points += int(negative.sum())
        skew[negative] = 0.0
        return w, self.trace - w * w, skew
