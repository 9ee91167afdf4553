"""Self-contained invariant battery behind the `spincat verify` CLI command.

Each check raises AssertionError with a diagnostic on violation; the runner
collects one pass/fail line per check.  All randomized draws derive from one
seed, so a given seed is fully reproducible.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import (
    ChannelParams,
    apply_channel_density,
    channel_wigner_convolution,
    channel_wigner_quadrature,
    gaussian_measure_nodes,
)
from .fockspace import (
    FockCutoff,
    displacement_matrix,
    hermitian_sqrt,
    parity_matrix,
    single_mode_kernel,
)
from .grids import GridSpec
from .skewinfo import SkewEvaluator, _kernel_columns, pure_point_values
from .states import (
    CatParams,
    cat_branches_half,
    cat_norm_general,
    cat_norm_half,
    cat_state,
    density_from_vector,
    spin_coherent_amplitudes,
    spin_coherent_vector,
)
from .wigner import (
    PhasePoint,
    wigner_closed_general,
    wigner_closed_half,
    wigner_gaussian_general,
    wigner_gaussian_half,
    wigner_kernel_trace,
)

__all__ = ["run_battery", "CheckResult"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rand_params(rng, j=None, interior=True) -> CatParams:
    jv = j if j is not None else float(rng.choice([0.5, 1.0, 1.5, 2.0]))
    lo, hi = (0.05, np.pi - 0.05) if interior else (0.0, np.pi)
    th = rng.uniform(lo, hi, 2)
    ph = rng.uniform(0.0, 2 * np.pi, 2)
    return CatParams(jv, th[0], th[1], ph[0], ph[1])


def _rand_point(rng, radius=2.0) -> PhasePoint:
    pts = radius * np.sqrt(rng.uniform(0, 1, 2)) * np.exp(2j * np.pi * rng.uniform(0, 1, 2))
    return PhasePoint(complex(pts[0]), complex(pts[1]))


def _closed(params, pt):
    if params.twoj == 1:
        return wigner_closed_half(params, pt)
    return wigner_closed_general(params, pt)


# ---------------------------------------------------------------------------

def check_parity_involution(rng):
    for n in (1, 9, 24):
        pi_m = parity_matrix(n)
        assert np.array_equal(pi_m @ pi_m, np.eye(n + 1)), f"parity not involutory at n={n}"
    assert parity_matrix(9).trace() == 0.0, "alternating trace over 10 levels"
    return "Pi^2 = 1 exactly; Tr over 10 levels = 0"


def check_displacement_composition(rng):
    n_max = 40
    block = n_max // 4
    worst = 0.0
    for _ in range(5):
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        alpha *= np.sqrt(n_max) / 4 / max(abs(alpha), 1e-9) * rng.uniform(0.2, 1.0)
        prod = displacement_matrix(alpha, n_max) @ displacement_matrix(-alpha, n_max)
        worst = max(worst, np.abs(prod[:block, :block] - np.eye(n_max + 1)[:block, :block]).max())
    assert worst < 1e-8, f"composition defect {worst:.3e}"
    return f"D(a) D(-a) = 1 on the central block to {worst:.1e}"


def check_kernel_hermiticity(rng):
    worst = 0.0
    for _ in range(5):
        pt = _rand_point(rng)
        k = single_mode_kernel(pt.alpha, 30)
        worst = max(worst, np.abs(k - k.conj().T).max())
    assert worst < 1e-12, f"kernel hermiticity defect {worst:.3e}"
    return f"kernel Hermitian to {worst:.1e}"


def check_kernel_involution(rng):
    n_max = 100
    block = 12
    worst = 0.0
    for _ in range(3):
        alpha = rng.uniform(0.2, 1.0) * np.sqrt(n_max) / 8 * np.exp(2j * np.pi * rng.uniform())
        k = single_mode_kernel(alpha, n_max)
        worst = max(worst, np.abs((k @ k)[:block, :block] - np.eye(n_max + 1)[:block, :block]).max())
    assert worst < 1e-6, f"involution defect {worst:.3e}"
    return f"Delta^2 = 1 on the central block to {worst:.1e}"


def check_sqrt_roundtrip(rng):
    params = _rand_params(rng)
    rho = density_from_vector(cat_state(params))
    root = hermitian_sqrt(rho)
    err = np.abs(root.entries @ root.entries - rho.entries).max()
    assert err < 1e-9, f"sqrt square defect {err:.3e}"
    assert np.abs(root.entries - rho.entries).max() < 1e-9, "projector is its own root"
    # a mixed state whose root is taken per N-block: fig5a's channel output
    fig5_cat = CatParams(1.0, np.pi / 3, np.pi / 2, 0.0, 2 * np.pi)
    noisy = apply_channel_density(density_from_vector(cat_state(fig5_cat)), ChannelParams(1.0))
    root = hermitian_sqrt(noisy)
    err_noisy = np.abs(root.entries @ root.entries - noisy.entries).max()
    assert err_noisy < 1e-9, f"sqrt square defect {err_noisy:.3e} on the channel output"
    return f"sqrt(rho)^2 = rho to {err:.1e} (pure), {err_noisy:.1e} (fig5a channel output)"


def check_shell_support(rng):
    for _ in range(10):
        params = _rand_params(rng, interior=False)
        try:
            psi = cat_state(params, FockCutoff(params.twoj + 4))
        except ValueError:
            continue  # degenerate draw
        amps = psi.amplitudes.reshape(psi.cutoff.dim1, psi.cutoff.dim2)
        n1, n2 = np.indices(amps.shape)
        off_shell = np.abs(amps[(n1 + n2) != params.twoj]).max()
        assert off_shell <= 1e-15, f"off-shell amplitude {off_shell:.3e}"
    return "all amplitude mass on the n1+n2 = 2j shell"


def check_norm_oracle(rng):
    worst = 0.0
    for _ in range(100):
        params = _rand_params(rng, j=float(rng.choice([0.5, 1.0, 2.0, 3.5])), interior=False)
        b = spin_coherent_amplitudes(params.j, params.theta1, params.phi1) + \
            spin_coherent_amplitudes(params.j, params.theta2, params.phi2)
        nrm = np.linalg.norm(b)
        if nrm < 1e-6:
            continue
        worst = max(worst, abs(cat_norm_general(params) - 1.0 / nrm))
    assert worst < 1e-10, f"norm formula vs vector norm: {worst:.3e}"
    return f"normalization formula matches brute force to {worst:.1e}"


def check_norm_reduction(rng):
    worst = 0.0
    for _ in range(100):
        params = _rand_params(rng, j=0.5, interior=False)
        try:
            worst = max(worst, abs(cat_norm_general(params) - cat_norm_half(params)))
        except ValueError:
            continue
    assert worst < 1e-12, f"j=1/2 reduction defect {worst:.3e}"
    return f"general normalization reduces to spin-1/2 form to {worst:.1e}"


def check_jz_expectation(rng):
    worst = 0.0
    for _ in range(20):
        j = float(rng.choice([0.5, 1.0, 2.5, 4.0]))
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        psi = spin_coherent_vector(j, theta, phi, FockCutoff(int(2 * j)))
        amps = psi.amplitudes.reshape(psi.cutoff.dim1, psi.cutoff.dim2)
        n1, n2 = np.indices(amps.shape)
        jz = float(np.sum(np.abs(amps) ** 2 * (n1 - n2) / 2.0))
        worst = max(worst, abs(jz + j * np.cos(theta)))
    assert worst < 1e-10, f"<Jz> defect {worst:.3e}"
    return f"<Jz> = -j cos(theta) to {worst:.1e}"


def check_closed_vs_kernel(rng):
    worst = 0.0
    for _ in range(30):
        params = _rand_params(rng)
        pt = _rand_point(rng)
        rho = density_from_vector(cat_state(params))
        worst = max(worst, abs(_closed(params, pt) - wigner_kernel_trace(rho, pt)))
    assert worst < 1e-5, f"closed vs kernel trace: {worst:.3e}"
    return f"closed form matches kernel trace to {worst:.1e}"


def check_wigner_bounded(rng):
    worst = 0.0
    for _ in range(50):
        params = _rand_params(rng)
        worst = max(worst, abs(_closed(params, _rand_point(rng))))
    assert worst <= 1.0 + 1e-9, f"|W| = {worst} exceeds 1"
    return f"|W| <= 1 (max seen {worst:.6f})"


def check_half_reduction(rng):
    worst_c = worst_g = 0.0
    for _ in range(100):
        params = _rand_params(rng, j=0.5)
        pt = _rand_point(rng)
        worst_c = max(worst_c, abs(wigner_closed_general(params, pt) - wigner_closed_half(params, pt)))
        worst_g = max(worst_g, abs(wigner_gaussian_general(params, pt) - wigner_gaussian_half(params, pt)))
    assert worst_c < 1e-10, f"closed-form reduction defect {worst_c:.3e}"
    assert worst_g < 1e-10, f"Gaussian-form reduction defect {worst_g:.3e}"
    return f"general forms reduce to spin-1/2 forms to {max(worst_c, worst_g):.1e}"


def check_branch_swap(rng):
    worst = 0.0
    for _ in range(20):
        params = _rand_params(rng)
        pt = _rand_point(rng)
        worst = max(worst, abs(_closed(params, pt) - _closed(params.swapped(), pt)))
    assert worst < 1e-12, f"branch swap defect {worst:.3e}"
    return f"branch-symmetric to {worst:.1e}"


def check_density_normalization(rng):
    # integral of W (density convention) over dq1 dp1 dq2 dp2 ~ Tr rho = 1.
    # The kernel mean factorizes over modes, so each mode's plane integral is
    # taken separately on a quadrature box.
    params = CatParams(0.5, 2.0, 1.0, 0.5, 1.5)
    xs = np.linspace(-6.0, 6.0, 41)
    dx = xs[1] - xs[0]
    c = np.array(cat_branches_half(params)) * cat_norm_half(params)
    from .fockspace import smoothed_kernel_element

    k_int = np.zeros((2, 2), dtype=complex)  # plane integral of <p|Delta|q> / pi
    for p in range(2):
        for q in range(2):
            acc = 0.0
            for x in xs:
                for y in xs:
                    a = (x + 1j * y) / np.sqrt(2)
                    acc += smoothed_kernel_element(p, q, a) * dx * dx / np.pi
            k_int[p, q] = acc
    total = np.real(
        np.conj(c[0]) * c[0] * k_int[0, 0] * k_int[1, 1]
        + np.conj(c[0]) * c[1] * k_int[1, 0] * k_int[0, 1]
        + np.conj(c[1]) * c[0] * k_int[0, 1] * k_int[1, 0]
        + np.conj(c[1]) * c[1] * k_int[1, 1] * k_int[0, 0]
    )
    assert abs(total - 1.0) < 1e-3, f"normalization integral {total}"
    return f"integral of W (density convention) = {total:.6f}"


def check_pure_conservation(rng):
    worst = 0.0
    for _ in range(1000):
        params = _rand_params(rng)
        psi = cat_state(params)
        w, skew = pure_point_values(psi, _rand_point(rng))
        worst = max(worst, abs(skew + w * w - 1.0))
    assert worst < 1e-8, f"conservation defect {worst:.3e}"
    return f"I + W^2 = 1 to {worst:.1e} over 1000 pure draws"


def check_wigner_realness(rng):
    from .wigner import _closed_kernel_mean, _gaussian_form

    worst = 0.0
    for _ in range(20):
        params = _rand_params(rng)
        pt = _rand_point(rng)
        worst = max(worst, abs(_closed_kernel_mean(params, pt.alpha, pt.beta).imag),
                    abs(_gaussian_form(params, pt.alpha, pt.beta).imag))
    assert worst < 1e-10, f"imaginary residue {worst:.3e}"
    return f"imaginary residue of the evaluators <= {worst:.1e}"


def check_commuting_zero(rng):
    # Fock-diagonal states commute with the parity kernel at the origin
    cutoff = FockCutoff(3, 3)
    diag = rng.uniform(0.1, 1.0, cutoff.dim)
    diag /= diag.sum()
    from .fockspace import DensityMatrix
    rho = DensityMatrix(cutoff, np.diag(diag.astype(complex)))
    skew = SkewEvaluator(rho).values(PhasePoint(0j, 0j))[2]
    assert skew <= 1e-10, f"commuting-case skew {skew:.3e}"
    return f"diagonal state has zero skew at origin ({skew:.1e})"


def _kron_variance(rho, pt) -> float:
    """Tr[rho Delta^2] - W^2 from Kronecker products of the two modes' kernel
    columns on rho's support block; a reference for the factorised engine."""
    d1, d2 = rho.mode_support()
    block = rho.as_modes()[:d1, :d2, :d1, :d2].reshape(d1 * d2, d1 * d2)
    c1, c2 = _kernel_columns(pt.alpha, d1), _kernel_columns(pt.beta, d2)
    w = np.trace(block @ np.kron(c1[:d1], c2[:d2])).real
    return float(np.trace(block @ np.kron(c1.conj().T @ c1, c2.conj().T @ c2)).real - w * w)


def check_skew_dominated(rng):
    params = _rand_params(rng, j=0.5)
    rho = apply_channel_density(density_from_vector(cat_state(params)), ChannelParams(1.0))
    engine = SkewEvaluator(rho)
    strict = 0
    for _ in range(10):
        pt = _rand_point(rng)
        w, var, skew = engine.values(pt)
        assert -1e-9 <= skew <= var + 1e-8, f"I={skew} outside [0, Var={var}]"
        assert skew + w * w <= 1.0 + 1e-8, f"budget {skew + w * w} exceeds 1"
        assert abs(var - _kron_variance(rho, pt)) < 1e-12
        if skew + w * w < 1.0 - 1e-6:
            strict += 1
    assert strict >= 5, f"only {strict}/10 points strictly mixed"
    return f"0 <= I <= Var, I + W^2 <= 1 post-channel (strict at {strict}/10)"


def check_duality_derivative(rng):
    # pure states: d(I)/d(theta1) = -d(W^2)/d(theta1) by finite differences
    step = 1e-4
    worst = 0.0
    for _ in range(10):
        params = _rand_params(rng)
        pt = _rand_point(rng, radius=1.0)

        def both(theta1):
            p = CatParams(params.j, theta1, params.theta2, params.phi1, params.phi2)
            w, skew = pure_point_values(cat_state(p), pt)
            return w * w, skew

        w2p, ip_ = both(params.theta1 + step)
        w2m, im_ = both(params.theta1 - step)
        dw2 = (w2p - w2m) / (2 * step)
        di = (ip_ - im_) / (2 * step)
        scale = max(abs(dw2), abs(di), 1e-12)
        worst = max(worst, abs(di + dw2) / scale)
    assert worst < 1e-4, f"duality derivative mismatch {worst:.3e}"
    return f"dI/dtheta = -dW^2/dtheta to relative {worst:.1e}"


def check_measure_normalization(rng):
    for s in (0.5, 1.0, 2.0):
        _, ws = gaussian_measure_nodes(s, 24)
        assert abs(ws.sum() - 1.0) < 1e-12, f"measure normalization at s={s}"
    return "plain Gauss-Hermite weights integrate 1 to 1e-12"


def check_channel_identity_limit(rng):
    params = CatParams(0.5, np.pi, 0.0, 0.0, 2 * np.pi)
    rho = density_from_vector(cat_state(params))
    out = apply_channel_density(rho, ChannelParams(1e-6))
    d = rho.cutoff.dim1
    diff = np.abs(out.as_modes()[:d, :, :d, :] - rho.as_modes()).max()
    assert diff < 1e-5, f"identity limit defect {diff:.3e}"
    return f"s = 1e-6 output matches input to {diff:.1e}"


def check_three_route(rng):
    worst = 0.0
    cases = [(j, s, 4) for j in (0.5, 1.0) for s in (0.5, 1.0, 2.0)] + [(2.5, 1.0, 2)]
    for j, s, n_points in cases:
        params = _rand_params(rng, j=j)
        ch = ChannelParams(s)
        rho = apply_channel_density(density_from_vector(cat_state(params)), ch)
        for _ in range(n_points):
            pt = _rand_point(rng)
            wa = channel_wigner_convolution(params, ch, pt)
            wq = channel_wigner_quadrature(params, ch, pt)
            wk = wigner_kernel_trace(rho, pt)
            worst = max(worst, abs(wa - wq), abs(wa - wk), abs(wq - wk))
    assert worst < 1e-8, f"three-route disagreement {worst:.3e}"
    return f"analytic/quadrature/Kraus routes agree to {worst:.1e} (j <= 5/2)"


def check_semigroup(rng):
    worst = 0.0
    for _ in range(5):
        s1, s2 = rng.uniform(0.2, 0.6, 2)
        params = _rand_params(rng, j=0.5)
        rho = density_from_vector(cat_state(params))
        a = apply_channel_density(apply_channel_density(rho, ChannelParams(s1)),
                                  ChannelParams(s2))
        b = apply_channel_density(rho, ChannelParams(s1 + s2))
        d1 = min(a.cutoff.dim1, b.cutoff.dim1)
        worst = max(worst, np.abs(
            a.as_modes()[:d1, :, :d1, :] - b.as_modes()[:d1, :, :d1, :]
        ).max())
    assert worst < 1e-6, f"semigroup defect {worst:.3e}"
    return f"s1 then s2 composes to s1+s2 within {worst:.1e} (5 cases)"


def check_channel_flattening(rng):
    params = CatParams(0.5, np.pi, 0.0, 0.0, 2 * np.pi)
    qs = np.linspace(-4, 4, 21)
    prev = None
    for s in (0.5, 1.0, 2.0, 4.0):
        ch = ChannelParams(s)
        mx = max(
            channel_wigner_convolution(params, ch, PhasePoint(q / np.sqrt(2) + 0j, 0j)) ** 2
            for q in qs
        )
        assert prev is None or mx <= prev + 1e-12, f"W^2 max grew at s={s}"
        prev = mx
    return "max W^2 over the q1 slice is non-increasing in s"


def check_sweep_determinism(rng):
    from .sweep import run_preset, serialize_csv

    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        serialize_csv(run_preset("origin-check"), buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1], "preset output not byte-identical"
    res = run_preset("origin-check")
    assert len(res.records) == 1
    return "repeated preset runs are byte-identical"


def check_grid_budget(rng):
    params = _rand_params(rng, j=1.0)
    alphas, betas = GridSpec(axes=(("q1", -1.5, 1.5, 7), ("q2", -1.5, 1.5, 7))).amplitudes()
    rho = density_from_vector(cat_state(params))
    w, _, skew = SkewEvaluator(rho).grid(alphas, betas)
    gap = np.abs(skew + w * w - 1.0).max()
    assert gap <= 1e-8, f"pure budget off 1 by {gap:.3e}"
    post = apply_channel_density(rho, ChannelParams(1.0))
    w, _, skew = SkewEvaluator(post).grid(alphas, betas)
    top = (skew + w * w).max()
    assert top <= 1.0 + 1e-8, f"post-channel budget {top} exceeds 1"
    return "pure budget = 1, post-channel budget <= 1 on a 7x7 grid"


CHECKS: list[tuple[str, Callable]] = [
    ("parity involution", check_parity_involution),
    ("displacement composition", check_displacement_composition),
    ("kernel hermiticity", check_kernel_hermiticity),
    ("kernel involution", check_kernel_involution),
    ("hermitian sqrt roundtrip", check_sqrt_roundtrip),
    ("shell support", check_shell_support),
    ("normalization oracle", check_norm_oracle),
    ("normalization reduction", check_norm_reduction),
    ("Jz expectation", check_jz_expectation),
    ("closed form vs kernel trace", check_closed_vs_kernel),
    ("Wigner boundedness", check_wigner_bounded),
    ("spin-1/2 reduction", check_half_reduction),
    ("branch swap symmetry", check_branch_swap),
    ("density-convention normalization", check_density_normalization),
    ("Wigner realness", check_wigner_realness),
    ("pure-state conservation", check_pure_conservation),
    ("commuting-case zero skew", check_commuting_zero),
    ("skew dominated by variance", check_skew_dominated),
    ("symmetry-asymmetry duality", check_duality_derivative),
    ("Gaussian measure normalization", check_measure_normalization),
    ("channel identity limit", check_channel_identity_limit),
    ("three-route channel agreement", check_three_route),
    ("channel semigroup", check_semigroup),
    ("channel flattening", check_channel_flattening),
    ("sweep determinism", check_sweep_determinism),
    ("engine grid budgets", check_grid_budget),
]


def run_battery(seed: int = 42, emit=print) -> list[CheckResult]:
    """Run every invariant check with draws derived from one seed."""
    results = []
    root = np.random.default_rng(seed)
    for name, fn in CHECKS:
        rng = np.random.default_rng(root.integers(0, 2**63))
        try:
            detail = fn(rng)
            results.append(CheckResult(name, True, detail or ""))
            emit(f"[ok]   {name}: {detail}")
        except Exception as exc:  # noqa: BLE001 - report every failure mode
            results.append(CheckResult(name, False, str(exc)))
            emit(f"[FAIL] {name}: {exc}")
    return results
