"""Gaussian noise channel on mode 1: random displacements D(z) averaged over a
complex Gaussian of variance s.

Three routes to the post-channel Wigner function are provided and must agree:

* ``apply_channel_density`` gives the channel output rho' exactly, up to a
  mode-1 truncation: the channel factors into a pure loss of transmissivity
  1/(1+s) followed by a quantum-limited amplifier of gain 1+s, and both act
  through closed-form Fock Kraus operators.  The output lives on an enlarged
  mode-1 cutoff sized from the slow thermal tail the channel creates.

* ``channel_wigner_convolution`` evaluates the convolution
  W'(alpha, beta) = integral W(alpha - z, beta) dmu_s(z) in closed form:
  for the exact kernel mean this is the Gaussian-smoothed kernel element
  (fockspace.smoothed_kernel_element); for the Gaussian-branch form each term
  integrates by completing the square.  Both are the batched evaluators of
  wigner, called once with noise = s.

* ``channel_wigner_quadrature`` integrates the same convolution numerically
  at order QUADRATURE_ORDER, one batched call over all nodes, existing purely
  as the independent oracle for the analytic route.

Both Wigner routes take the form and its checks from wigner._form and
return kernel means (or the surrogate); sweep.evaluate_grid applies the
output convention.

Quadrature scaling: the raw substitution z = sqrt(s) u makes Gauss-Hermite
agonizingly slow for s >~ 1 because the integrand's own Gaussian envelope is
then much narrower than the weight.  Each Wigner value carries the known
envelope exp(-2|z|^2), so the substitution sigma = sqrt(s/(1+2s)) flattens
the product exactly (``gaussian_measure_nodes(envelope=2)``; a displacement
sandwich D(z) rho D(z)+ decays like exp(-|z|^2), envelope 1).  At order 24
this reaches ~1e-9 where the raw scaling stalls near 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, log1p

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .fockspace import DensityMatrix, FockCutoff, _lgamma_prefix
from .states import CatParams
from .wigner import PhasePoint, _as_real, _form

__all__ = [
    "ChannelParams",
    "gaussian_measure_nodes",
    "apply_channel_density",
    "channel_wigner_convolution",
    "channel_wigner_quadrature",
    "required_mode1_growth",
]

TRACE_DRIFT_ABORT = 1e-6
TAIL_TARGET = 1e-10
# the output purity must drop by more than this
PURITY_MARGIN = 1e-10
# Gauss-Hermite order per axis of the channel_wigner_quadrature oracle
QUADRATURE_ORDER = 24


@dataclass(frozen=True)
class ChannelParams:
    """Noise strength s: the variance of the random displacement, and the
    mean photon number the channel adds to mode 1."""

    s: float

    def __post_init__(self):
        if not (np.isfinite(self.s) and self.s > 0):
            raise ValueError(f"noise strength s must be finite and > 0, got {self.s}")


def gaussian_measure_nodes(s: float, order: int,
                           envelope: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z_k and weights w_k with sum_k w_k f(z_k) ~ integral f dmu_s.

    dmu_s(z) = exp(-|z|^2/s) d^2 z / (pi s).  ``envelope`` declares the decay
    the integrand itself carries, f ~ exp(-envelope |z|^2) * smooth; the node
    scale is tuned to flatten the combined Gaussian.  envelope = 0 reproduces
    plain z = sqrt(s) t scaling, whose weights sum to 1 exactly.
    """
    t, w = hermgauss(order)
    sigma = np.sqrt(s / (1.0 + envelope * s))
    resid = 1.0 - sigma**2 / s  # residual exponent folded into the weights
    scale = sigma**2 / (np.pi * s)
    zs = np.empty(order * order, dtype=complex)
    ws = np.empty(order * order)
    idx = 0
    for i in range(order):
        for k in range(order):
            zs[idx] = sigma * (t[i] + 1j * t[k])
            ws[idx] = w[i] * w[k] * np.exp(resid * (t[i] ** 2 + t[k] ** 2)) * scale
            idx += 1
    return zs, ws


def required_mode1_growth(s: float) -> int:
    """Extra mode-1 levels needed so the channel's thermal tail mass stays
    below TAIL_TARGET: the vacuum output spectrum is s^n / (1+s)^(n+1), whose
    mass above N is (s/(1+s))^(N+1)."""
    return int(np.ceil(np.log(TAIL_TARGET) / np.log(s / (1.0 + s)))) + 4


def _apply_mode1(rho: DensityMatrix, ch: ChannelParams) -> DensityMatrix:
    """Loss of transmissivity eta = 1/(1+s), then an amplifier of gain 1/eta,
    on mode 1.  With L = log eta and M = log(s/(1+s)), both Kraus maps share
    w_l[m] = sqrt(C(m+l, l)) exp((m L + l M) / 2):

        <m|A_l|m+l> = w_l[m],    <m+l|B_l|m> = w_l[m] sqrt(eta).

    Each A_l moves rho[a, x, b, y] down by l levels in a and b, each B_l up;
    the amplifier keeps the terms with m + l below the output cutoff."""
    d1_in, _ = rho.mode_support()
    d2 = rho.cutoff.dim2
    d1_out = d1_in + required_mode1_growth(ch.s)
    log_eta = -log1p(ch.s)
    log_mix = log(ch.s) + log_eta
    lg = _lgamma_prefix(d1_out + d1_in)

    def weights(l: int, k: int) -> np.ndarray:
        """w_l[m] w_l[m'] for m, m' < k, shaped to scale rho4[m, :, m', :]."""
        m = np.arange(k)
        w = np.exp(0.5 * (lg[m + l] - lg[l] - lg[m] + m * log_eta + l * log_mix))
        return np.multiply.outer(w, w)[:, None, :, None]

    rho4 = rho.as_modes()[:d1_in, :, :d1_in, :]
    lossy = np.zeros_like(rho4)
    for l in range(d1_in):
        k = d1_in - l
        lossy[:k, :, :k, :] += weights(l, k) * rho4[l:, :, l:, :]
    lossy *= np.exp(log_eta)  # the amplifier's sqrt(eta) on both sides
    out4 = np.zeros((d1_out, d2, d1_out, d2), dtype=rho4.dtype)
    for l in range(d1_out):
        k = min(d1_in, d1_out - l)
        out4[l:l + k, :, l:l + k, :] += weights(l, k) * lossy[:k, :, :k, :]
    out = out4.reshape(d1_out * d2, d1_out * d2)
    trace = float(np.real(out.trace()))
    drift = abs(trace - 1.0)
    if drift > TRACE_DRIFT_ABORT:
        raise ArithmeticError(
            f"channel trace drift {drift:.3e} exceeds {TRACE_DRIFT_ABORT:g} at mode-1 "
            f"cutoff n1_max = {d1_out - 1} (s = {ch.s:g})"
        )
    out /= trace
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(
        FockCutoff(d1_out - 1, d2 - 1),
        out,
        tail_defect=rho.tail_defect + drift,
    )


def apply_channel_density(rho: DensityMatrix, ch: ChannelParams) -> DensityMatrix:
    """Exact action of the channel on mode 1, truncated to a grown cutoff.

    The channel is a pure-loss channel of transmissivity 1/(1+s) followed by
    a quantum-limited amplifier of gain 1+s (Caruso, Giovannetti & Holevo,
    New J. Phys. 8, 310 (2006)), both in closed-form Fock Kraus operators, so
    the output is exact on levels below its mode-1 cutoff, which grows by
    required_mode1_growth(s) beyond the input's mode-1 support.  The mass the
    amplifier sends above that cutoff is the trace drift: beyond 1e-6 the
    call raises ArithmeticError; smaller drift is recorded on the output's
    tail_defect and the matrix is renormalized to unit trace.  Both maps
    conserve n1 - n1', so a state supported on fixed n1 + n2 (a cat state's
    shell) leaves every entry between different n1 + n2 exactly zero.

    Noise strictly mixes, so the output purity must drop by more than
    PURITY_MARGIN (1e-10), or the call aborts.  With a clean trace (drift
    below that margin) a failure means the noise is too weak for the check,
    and the ValueError names s and the purity drop (the fig3a state loses
    about 4s, so s = 1e-8 passes and 1e-12 fails); otherwise the truncation
    is blamed with an ArithmeticError.
    """
    result = _apply_mode1(rho, ch)
    drop = rho.purity() - result.purity()
    if drop < PURITY_MARGIN:
        if result.tail_defect - rho.tail_defect < PURITY_MARGIN:
            raise ValueError(
                f"noise strength s = {ch.s:g} lowers the purity by {drop:.3e}, not by "
                f"more than the {PURITY_MARGIN:g} margin the channel check needs; "
                "use a larger s"
            )
        raise ArithmeticError(
            "channel output purity did not decrease; the mode-1 truncation is "
            f"inadequate (in {rho.purity():.12f}, out {result.purity():.12f})"
        )
    return result


def channel_wigner_convolution(params: CatParams, ch: ChannelParams, point: PhasePoint,
                               form: str = "closed") -> float:
    """Post-channel Wigner value by exact Gaussian convolution of a closed form.

    form = "closed": kernel mean of the channel output (smoothed kernel
    elements; matches the Kraus route).  form = "gaussian": the
    Gaussian-branch surrogate convolved term by term.  Both forms also take
    a batch of points (point.alpha and point.beta arrays) and then return an
    array; the grid engine evaluates a whole noisy sweep in one call.
    """
    w = _form(params, form)(params, point.alpha, point.beta, noise=ch.s)
    return _as_real(w, f"convolved {form}-form value")


def channel_wigner_quadrature(params: CatParams, ch: ChannelParams, point: PhasePoint,
                              form: str = "closed") -> float:
    """Post-channel Wigner value by numerical integration of
    integral W(alpha - z, beta) dmu_s(z); the oracle for the analytic route.
    All nodes of one point go through one batched call of the form."""
    f = _form(params, form)
    zs, ws = gaussian_measure_nodes(ch.s, QUADRATURE_ORDER, envelope=2.0)
    vals = f(params, point.alpha - zs, point.beta)
    return _as_real(complex(np.dot(ws, vals)), "quadrature Wigner value")
