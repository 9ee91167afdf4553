"""Wigner functions of spin-j cat states, three ways.

* closed forms of the kernel mean Tr[rho Delta(alpha, beta)], built from
  exact displaced-parity matrix elements on the 2j shell.  They agree with
  the brute-force kernel trace to rounding at small j and obey |W| <= 1;
  their error grows with j (4e-10 on fig2-q2 at j = 10).  The
  batched ``_closed_kernel_mean`` audits the W that sweeps write (the
  square-block W of skewinfo._shell_kernel_mean for a pure state, the skew
  engine's behind the channel, through channel_wigner_convolution);
  ``wigner_closed_general`` wraps it for one point, and the spin-1/2 formula
  ``wigner_closed_half`` stays as an oracle.

* ``wigner_kernel_trace`` - the brute-force route: contract a density matrix
  against explicitly constructed kernel matrices.  Serves as the oracle for
  everything else.

* the Gaussian-branch surrogate, a closed form in which each Dicke component
  |n> enters as if it were a coherent state of amplitude n, so every term is
  a pure Gaussian in phase space.  The batched ``_gaussian_form`` is its one
  evaluator, with or without the mode-1 noise convolution;
  ``wigner_gaussian_general`` wraps it for one point, and the spin-1/2
  formula ``wigner_gaussian_half`` stays as an oracle.  This surrogate is
  useful for shape-level studies (its peaks track the shell structure) but
  it is NOT the kernel mean: for any single-shell state the true kernel mean
  is an even function of (alpha, beta) while the Gaussian form is not, so no
  constant rescaling can reconcile them.  Use ``reconcile_gaussian_form`` to
  quantify the mismatch on a grid.

``_form`` picks one of the two batched evaluators by name ("closed" or
"gaussian") after the checks the channel routes share.

Every value returned here is a kernel mean (or the surrogate); the output
convention is applied by sweep.evaluate_grid alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fockspace import (
    DensityMatrix,
    single_mode_kernel,
    smoothed_kernel_element,
    warn_if_truncated,
)
from .grids import axis_groups, stacked_and_looped
from .states import CatParams, cat_branches_half, cat_norm_half, cat_shell_amplitudes

__all__ = [
    "PhasePoint",
    "wigner_closed_half",
    "wigner_closed_general",
    "wigner_gaussian_half",
    "wigner_gaussian_general",
    "wigner_kernel_trace",
    "GaussianFormReport",
    "reconcile_gaussian_form",
]

IMAG_RESIDUE_TOL = 1e-10
THETA_BOUNDARY_TOL = 1e-12
SYMMETRY_VIOLATION_THRESHOLD = 0.01  # W^2 below this counts as parity violation


@dataclass(frozen=True)
class PhasePoint:
    """A point (alpha, beta) of two-mode phase space; q = sqrt(2) Re, p = sqrt(2) Im.
    Array-valued alpha and beta make a batch of points for the batched
    evaluators (channel_wigner_convolution, SkewEvaluator.values)."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        if not (np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.beta))):
            raise ValueError(f"phase point must be finite, got ({self.alpha}, {self.beta})")

    @classmethod
    def from_quadratures(cls, q1: float, p1: float, q2: float, p2: float) -> "PhasePoint":
        return cls((q1 + 1j * p1) / np.sqrt(2), (q2 + 1j * p2) / np.sqrt(2))

    @property
    def q1(self) -> float:
        return float(np.sqrt(2) * self.alpha.real)

    @property
    def p1(self) -> float:
        return float(np.sqrt(2) * self.alpha.imag)

    @property
    def q2(self) -> float:
        return float(np.sqrt(2) * self.beta.real)

    @property
    def p2(self) -> float:
        return float(np.sqrt(2) * self.beta.imag)

    def quadratures(self) -> tuple[float, float, float, float]:
        return (self.q1, self.p1, self.q2, self.p2)


def _as_real(value, what: str):
    """Real part of a complex scalar (as float) or array, once its imaginary
    residue is checked against IMAG_RESIDUE_TOL."""
    value = np.asarray(value)
    residue = np.abs(value.imag).max(initial=0.0)
    if residue > IMAG_RESIDUE_TOL:
        raise ArithmeticError(f"{what} has imaginary residue {residue:.3e}")
    return value.real if value.ndim else float(value.real)


def _require_interior_theta(params: CatParams) -> None:
    for name in ("theta1", "theta2"):
        th = getattr(params, name)
        if th < THETA_BOUNDARY_TOL or th > np.pi - THETA_BOUNDARY_TOL:
            raise ValueError(
                f"{name} = {th} lies on the boundary of ]0, pi[; the general "
                "closed form is stated for interior angles only"
            )


# ---------------------------------------------------------------------------
# exact closed forms (kernel mean)
# ---------------------------------------------------------------------------

def _shell_sum(params: CatParams, alphas, betas, blocks1, blocks2) -> np.ndarray:
    """W = sum_{a,x} c*_a c_x K1[a, x] K2[n - a, n - x] over the 2j = n shell
    (c = cat_shell_amplitudes) at the points (alphas[i], betas[i]), 1-d
    arrays; blocks1(values) (blocks2) yields (i, K1 (K2) at values[i]).

    A distinct alpha's row holds the (n + 1)^2 entries c*_a c_x K1[a, x], a
    distinct beta's K2[n - a, n - x].  The rows of the mode with fewer
    distinct values are stacked (grids.stacked_and_looped), the other's are
    multiplied into the whole stack as they are yielded: on a grid, one dot
    product per point, and a working set of the stack and one row.
    """
    d = params.twoj + 1
    c = cat_shell_amplitudes(params)
    weights = np.outer(c.conj(), c)
    (s_pts, s_rows), (l_pts, l_rows) = stacked_and_looped(
        (alphas, lambda v: ((i, (weights * k).ravel()) for i, k in blocks1(v))),
        (betas, lambda v: ((i, k[::-1, ::-1].ravel()) for i, k in blocks2(v))))
    s_vals, s_idx = np.unique(s_pts, return_inverse=True)
    stack = np.empty((s_vals.size, d * d), dtype=complex)
    for i, row in s_rows(s_vals):
        stack[i] = row
    out = np.empty(len(alphas), dtype=complex)
    l_vals, groups = axis_groups(l_pts)
    for i, row in l_rows(l_vals):
        out[groups[i]] = (stack @ row)[s_idx[groups[i]]]
    return out


def _closed_kernel_mean(params: CatParams, alpha, beta, noise: float = 0.0) -> np.ndarray:
    """Kernel mean W over the 2j shell (_shell_sum) at the points (alpha[i],
    beta[i]) (they broadcast; 0-d for one point), from the closed-form
    elements K[p, q] = smoothed_kernel_element(p, q, .).  With noise > 0 the
    mode-1 element is the Gaussian-smoothed one, which is exactly the kernel
    mean after a random-displacement channel of strength ``noise`` on mode 1.
    """
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=complex),
                                      np.asarray(beta, dtype=complex))
    levels = range(params.twoj + 1)

    def blocks(values, s):
        for i, v in enumerate(values):
            yield i, np.array([[smoothed_kernel_element(p, q, v, s) for q in levels]
                               for p in levels])

    w = _shell_sum(params, alpha.ravel(), beta.ravel(), lambda v: blocks(v, noise),
                   lambda v: blocks(v, 0.0))
    return w.reshape(alpha.shape)


def wigner_closed_half(params: CatParams, point: PhasePoint) -> float:
    """Closed-form kernel mean for a spin-1/2 cat.

    With c = cos(t1/2) + cos(t2/2), d = e^(-i p1) sin(t1/2) + e^(-i p2) sin(t2/2):

        W = N^2 e^(-2|a|^2 - 2|b|^2) [ 4|c|^2 |b|^2 - |c|^2
                                       + 4|d|^2 |a|^2 - |d|^2
                                       + 8 Re(c d* a b*) ]

    Accepts the full theta range [0, pi].  Agrees with the kernel trace to
    rounding and obeys |W| <= 1.
    """
    if params.twoj != 1:
        raise ValueError(f"wigner_closed_half requires j = 1/2, got j = {params.j}")
    n = cat_norm_half(params)
    c, d = cat_branches_half(params)
    a, b = point.alpha, point.beta
    bracket = (
        abs(c) ** 2 * (4 * abs(b) ** 2 - 1)
        + abs(d) ** 2 * (4 * abs(a) ** 2 - 1)
        + 8 * np.real(c * np.conj(d) * a * np.conj(b))
    )
    w = n**2 * np.exp(-2 * (abs(a) ** 2 + abs(b) ** 2)) * bracket
    return float(w)


def wigner_closed_general(params: CatParams, point: PhasePoint) -> float:
    """Closed-form kernel mean for a general spin-j cat (theta strictly inside
    ]0, pi[; use wigner_closed_half or the kernel trace on the boundary)."""
    _require_interior_theta(params)
    w = _closed_kernel_mean(params, point.alpha, point.beta)
    return _as_real(w, "closed-form Wigner value")


# ---------------------------------------------------------------------------
# Gaussian-branch surrogate forms
# ---------------------------------------------------------------------------

def _gaussian_form(params: CatParams, alpha, beta, noise: float = 0.0) -> np.ndarray:
    """Gaussian-branch surrogate at the points (alpha[i], beta[i]) (they
    broadcast; 0-d for one point), with mode 1 convolved with the Gaussian
    measure of variance s = ``noise`` (s = 0: no convolution).

    A double sum over the Dicke indices m (of the conjugated amplitude) and n
    in {-j, ..., j}: term (m, n) carries
    exp(-|2j - 2 alpha + m + n|^2 / 2 + (alpha - alpha*)(m - n)) and the
    mirrored beta factor; the (n, m) term is its conjugate, so the sum is
    real.  In alpha the exponent is c0 + c1 alpha + c2 alpha* - 2|alpha|^2
    with c1 = 2j + 2m, c2 = 2j + 2n, so the convolution appends
    s (2 alpha* - c1)(2 alpha - c2) / (2s + 1) to it and divides the term by
    2s + 1.  The factors are built once per distinct alpha and per distinct
    beta, and one einsum sums the terms for every (alpha, beta) pair: as
    many values as points on a grid, n^2 for n points off any grid.
    """
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=complex),
                                      np.asarray(beta, dtype=complex))
    a, a_idx = np.unique(alpha.ravel(), return_inverse=True)
    b, b_idx = np.unique(beta.ravel(), return_inverse=True)
    twoj = params.twoj
    m = np.arange(twoj + 1)[:, None, None] - params.j
    n = m.transpose(1, 0, 2)
    e1 = np.exp(
        -np.abs(twoj - 2 * a + m + n) ** 2 / 2
        + (a - a.conj()) * (m - n)
        + noise * (2 * a.conj() - twoj - 2 * m) * (2 * a - twoj - 2 * n) / (2 * noise + 1)
    ) / (2 * noise + 1)
    e2 = np.exp(-np.abs(twoj - 2 * b - m - n) ** 2 / 2 + (b - b.conj()) * (n - m))
    c = cat_shell_amplitudes(params)
    pairs = np.einsum("m,n,mnx,mny->xy", c.conj(), c, e1, e2)
    return pairs[a_idx, b_idx].reshape(alpha.shape)


def wigner_gaussian_half(params: CatParams, point: PhasePoint) -> float:
    """Four-term Gaussian-branch form for a spin-1/2 cat.

    The four terms are Gaussians centred where the Dicke components would sit
    if they were coherent amplitudes (0 and 1); see the module docstring for
    the relation to the true kernel mean.
    """
    if params.twoj != 1:
        raise ValueError(f"wigner_gaussian_half requires j = 1/2, got j = {params.j}")
    c, d = cat_branches_half(params)
    n = cat_norm_half(params)
    a, b = point.alpha, point.beta
    t1 = abs(c) ** 2 * np.exp(-2 * abs(a) ** 2) * np.exp(-2 * abs(1 - b) ** 2)
    cross = (
        c
        * d
        * np.exp(-0.5 * abs(2 * a - 1) ** 2 - a + np.conj(a))
        * np.exp(-0.5 * abs(1 - 2 * b) ** 2 + b - np.conj(b))
    )
    t4 = abs(d) ** 2 * np.exp(-2 * abs(1 - a) ** 2) * np.exp(-2 * abs(b) ** 2)
    w = n**2 * (t1 + 2 * np.real(cross) + t4)
    return float(w)


def wigner_gaussian_general(params: CatParams, point: PhasePoint) -> float:
    """Gaussian-branch form for a general spin-j cat (theta inside ]0, pi[)."""
    _require_interior_theta(params)
    w = _gaussian_form(params, point.alpha, point.beta)
    return _as_real(w, "Gaussian-form Wigner value")


def _form(params: CatParams, form: str):
    """The batched evaluator of ``form``: _closed_kernel_mean for "closed",
    _gaussian_form for "gaussian"; both take (params, alpha, beta, noise).

    The one check of ``form`` and of theta for the channel routes: an unknown
    form raises ValueError, and so does a boundary theta once 2j > 1.  The
    function is looked up by its module-global name at each call, so a
    wrapper set in this module's namespace is the one returned.
    """
    if form not in ("closed", "gaussian"):
        raise ValueError(f"unknown form {form!r}; expected 'closed' or 'gaussian'")
    if params.twoj > 1:
        _require_interior_theta(params)
    return _closed_kernel_mean if form == "closed" else _gaussian_form


# ---------------------------------------------------------------------------
# brute-force kernel trace
# ---------------------------------------------------------------------------

def wigner_kernel_trace(rho: DensityMatrix, point: PhasePoint) -> float:
    """W = Tr[rho Delta(alpha, beta)] by direct contraction.

    Kernel entries are exact matrix elements on rho's stored block, so the
    result is exact for states genuinely supported inside their cutoff (any
    pure shell state); for channel outputs it is off by at most the recorded
    tail defect, and a TruncationWarning fires when that exceeds
    fockspace.TAIL_WARN_TOL.
    """
    warn_if_truncated(rho)
    c = rho.cutoff
    k1 = single_mode_kernel(point.alpha, c.n1_max)
    k2 = single_mode_kernel(point.beta, c.n2_max)
    w = np.einsum("abxy,xa,yb->", rho.as_modes(), k1, k2, optimize=True)
    return _as_real(w, "kernel-trace Wigner value")


# ---------------------------------------------------------------------------
# reconciliation of the Gaussian form against the kernel trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianFormReport:
    """Best single constant relating the Gaussian form to the kernel mean on a
    sample of points, and the residual shape mismatch that remains."""

    scale: float
    max_residual: float
    rms_residual: float
    matched: bool
    tol: float
    n_points: int


def reconcile_gaussian_form(params: CatParams, points: list[PhasePoint],
                            tol: float = 1e-5) -> GaussianFormReport:
    """Least-squares fit of kernel-mean W = scale * Gaussian-form W.

    ``matched`` is true only if one constant brings every sampled point within
    ``tol``.  For spin-shell cats this fails structurally (the kernel mean is
    even under (alpha, beta) -> -(alpha, beta); the Gaussian form is not) and
    the report then documents the mismatch rather than hiding it.
    """
    alphas = np.array([pt.alpha for pt in points], dtype=complex)
    betas = np.array([pt.beta for pt in points], dtype=complex)
    exact, gauss = (_as_real(_form(params, form)(params, alphas, betas), f"{form}-form value")
                    for form in ("closed", "gaussian"))
    denom = float(gauss @ gauss)
    scale = float(gauss @ exact) / denom if denom > 0 else 0.0
    residual = np.abs(scale * gauss - exact)
    return GaussianFormReport(
        scale=scale,
        max_residual=float(residual.max()),
        rms_residual=float(np.sqrt(np.mean(residual**2))),
        matched=bool(residual.max() <= tol),
        tol=tol,
        n_points=len(points),
    )

