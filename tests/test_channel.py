import numpy as np
import pytest

import spincat.channel as channel_mod
from spincat.channel import (
    QUADRATURE_ORDER,
    ChannelParams,
    apply_channel_density,
    channel_wigner_convolution,
    channel_wigner_quadrature,
    gaussian_measure_nodes,
    required_mode1_growth,
)
from spincat.fockspace import FockCutoff, displacement_matrix
from spincat.states import (
    CatParams,
    cat_norm_general,
    cat_state,
    density_from_vector,
    spin_coherent_amplitudes,
)
from spincat.sweep import PRESETS
from spincat.wigner import (
    PhasePoint,
    _closed_kernel_mean,
    _gaussian_form,
    wigner_closed_half,
    wigner_gaussian_general,
    wigner_kernel_trace,
)

RNG = np.random.default_rng(99)

HALF_CAT = CatParams(0.5, np.pi, 0.0, 0.0, 2 * np.pi)


def random_point(radius=2.0):
    r = radius * np.sqrt(RNG.uniform(size=2))
    ang = RNG.uniform(0, 2 * np.pi, 2)
    return PhasePoint(complex(r[0] * np.exp(1j * ang[0])), complex(r[1] * np.exp(1j * ang[1])))


def random_params(j):
    return CatParams(j, RNG.uniform(0.05, np.pi - 0.05), RNG.uniform(0.05, np.pi - 0.05),
                     RNG.uniform(0, 2 * np.pi), RNG.uniform(0, 2 * np.pi))


class TestChannelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(0.0)
        with pytest.raises(ValueError):
            ChannelParams(-1.0)
        for s in (np.inf, np.nan):
            with pytest.raises(ValueError):
                ChannelParams(s)


class TestMeasureNodes:
    def test_plain_weights_integrate_one(self):
        for s in (0.5, 1.0, 2.0):
            _, ws = gaussian_measure_nodes(s, 24)
            assert abs(ws.sum() - 1.0) < 1e-12

    def test_tuned_nodes_integrate_gaussian_exactly(self):
        # integral exp(-2|z - c|^2) dmu_s(z) = exp(-2|c|^2/(2s+1)) / (2s+1)
        s, c = 1.3, 0.7 - 0.4j
        zs, ws = gaussian_measure_nodes(s, 24, envelope=2.0)
        val = np.sum(ws * np.exp(-2 * np.abs(zs - c) ** 2))
        expected = np.exp(-2 * abs(c) ** 2 / (2 * s + 1)) / (2 * s + 1)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_mean_square_displacement(self):
        _, ws = gaussian_measure_nodes(1.7, 32)
        zs, _ = gaussian_measure_nodes(1.7, 32)
        assert np.sum(ws * np.abs(zs) ** 2) == pytest.approx(1.7, rel=1e-10)


class TestApplyChannelDensity:
    def test_identity_limit(self):
        rho = density_from_vector(cat_state(HALF_CAT))
        out = apply_channel_density(rho, ChannelParams(1e-6))
        d1 = rho.cutoff.dim1
        diff = np.abs(out.as_modes()[:d1, :, :d1, :] - rho.as_modes()).max()
        assert diff < 1e-5

    def test_vacuum_mean_photon_number(self):
        # random displacement of the vacuum: <n1> = E|z|^2 = s
        cut = FockCutoff(0, 0)
        from spincat.fockspace import DensityMatrix

        vac = DensityMatrix(cut, np.array([[1.0 + 0j]]))
        s = 1.0
        out = apply_channel_density(vac, ChannelParams(s))
        n1 = np.arange(out.cutoff.dim1)
        mean_n = np.real(np.einsum("a,axax->", n1.astype(float), out.as_modes()))
        assert mean_n == pytest.approx(s, abs=1e-4)

    def test_mean_displacement_derivation_by_monte_carlo(self):
        # E|z|^2 under exp(-|z|^2/s) d^2z/(pi s) is s: verified by sampling
        s, n_samples = 1.0, 100_000
        rng = np.random.default_rng(7)
        z = rng.normal(scale=np.sqrt(s / 2), size=(n_samples, 2))
        est = np.mean(z[:, 0] ** 2 + z[:, 1] ** 2)
        stderr = s / np.sqrt(n_samples)
        assert abs(est - s) < 5 * stderr

    def test_trace_preserved(self):
        rho = density_from_vector(cat_state(random_params(1.0)))
        out = apply_channel_density(rho, ChannelParams(1.5))
        assert abs(np.real(out.entries.trace()) - 1.0) < 1e-12
        assert out.tail_defect < 1e-8

    def test_purity_strictly_decreases(self):
        rho = density_from_vector(cat_state(HALF_CAT))
        for s in (1e-6, 0.5, 2.0):
            out = apply_channel_density(rho, ChannelParams(s))
            assert out.purity() < rho.purity() - 1e-10

    @pytest.mark.parametrize("name, j", [
        ("fig3a", None), ("fig5a", 1.0), ("fig5g", 1.0), ("fig5e", 2.5), ("fig5a", 5.0),
    ])
    def test_matches_order_48_kraus_quadrature(self, name, j):
        # reference: rho' = integral D(z) rho D(z)+ dmu_s(z) at order 48 on
        # the same truncation, every entry of D(z) exact, renormalized alike
        params, ch, _ = PRESETS[name].build(j, None)
        rho = density_from_vector(cat_state(params))
        out = apply_channel_density(rho, ch)
        d1_in, d1_out = rho.cutoff.dim1, out.cutoff.dim1
        zs, ws = gaussian_measure_nodes(ch.s, 48, envelope=1.0)
        flat = displacement_matrix(zs, d1_out - 1, d1_in).reshape(len(zs), d1_out * d1_in)
        kraus = ((flat.T * ws) @ flat.conj()).reshape(d1_out, d1_in, d1_out, d1_in)
        ref = np.einsum("iajb,axby->ixjy", kraus, rho.as_modes()).reshape(out.entries.shape)
        assert np.abs(out.entries - ref / ref.trace().real).max() <= 1e-14

    def test_no_entry_between_different_photon_numbers(self):
        # both Kraus maps conserve n1 - n1', so a shell state's output has no
        # entry between different N = n1 + n2 (fig5a at j = 5)
        params, ch, _ = PRESETS["fig5a"].build(5.0, None)
        out = apply_channel_density(density_from_vector(cat_state(params)), ch)
        c = out.cutoff
        total = (np.arange(c.dim1)[:, None] + np.arange(c.dim2)).ravel()
        assert np.count_nonzero(out.entries[total[:, None] != total]) == 0

    def test_semigroup_property(self):
        for _ in range(5):
            s1, s2 = RNG.uniform(0.2, 0.6, 2)
            rho = density_from_vector(cat_state(random_params(0.5)))
            two_step = apply_channel_density(
                apply_channel_density(rho, ChannelParams(s1)), ChannelParams(s2)
            )
            one_step = apply_channel_density(rho, ChannelParams(s1 + s2))
            d1 = min(two_step.cutoff.dim1, one_step.cutoff.dim1)
            diff = np.abs(
                two_step.as_modes()[:d1, :, :d1, :] - one_step.as_modes()[:d1, :, :d1, :]
            ).max()
            assert diff < 1e-6

    def test_inadequate_cutoff_aborts(self, monkeypatch):
        monkeypatch.setattr(channel_mod, "required_mode1_growth", lambda s: 1)
        rho = density_from_vector(cat_state(HALF_CAT))
        with pytest.raises(ArithmeticError, match="trace drift"):
            apply_channel_density(rho, ChannelParams(2.0))

    def test_growth_rule_monotone_in_s(self):
        assert required_mode1_growth(2.0) > required_mode1_growth(0.5)


class TestWignerRoutes:
    def test_identity_limit_of_convolution(self):
        ch = ChannelParams(1e-6)
        for _ in range(5):
            pt = random_point()
            assert channel_wigner_convolution(HALF_CAT, ch, pt) == pytest.approx(
                wigner_closed_half(HALF_CAT, pt), abs=1e-5
            )

    def test_convolution_matches_kraus_route(self):
        ch = ChannelParams(1.0)
        rho = apply_channel_density(density_from_vector(cat_state(HALF_CAT)), ch)
        for _ in range(5):
            pt = random_point()
            assert channel_wigner_convolution(HALF_CAT, ch, pt) == pytest.approx(
                wigner_kernel_trace(rho, pt), abs=1e-5
            )

    def test_quadrature_agrees_with_convolution(self):
        for _ in range(20):
            s = float(RNG.choice([0.5, 1.0, 2.0]))
            j = float(RNG.choice([0.5, 1.0]))
            params = random_params(j)
            ch = ChannelParams(s)
            pt = random_point()
            assert channel_wigner_quadrature(params, ch, pt) == pytest.approx(
                channel_wigner_convolution(params, ch, pt), abs=1e-6
            )

    def test_gaussian_form_routes_agree(self):
        for _ in range(20):
            s = float(RNG.choice([0.5, 1.0, 2.0]))
            params = random_params(float(RNG.choice([0.5, 1.0])))
            ch = ChannelParams(s)
            pt = random_point()
            ana = channel_wigner_convolution(params, ch, pt, form="gaussian")
            quad = channel_wigner_quadrature(params, ch, pt, form="gaussian")
            assert ana == pytest.approx(quad, abs=1e-6)

    @pytest.mark.parametrize("form", ["closed", "gaussian"])
    def test_batch_of_points_matches_point_by_point(self, form):
        rng = np.random.default_rng(5)
        ch = ChannelParams(0.7)
        for j in (0.5, 1.0, 2.5):
            params = CatParams(j, *rng.uniform(0.05, np.pi - 0.05, 2),
                               *rng.uniform(0, 2 * np.pi, 2))
            alphas = rng.normal(size=6) + 1j * rng.normal(size=6)
            betas = rng.normal(size=6) + 1j * rng.normal(size=6)
            alphas[3], betas[4] = alphas[1], betas[0]  # repeated axis values
            batch = channel_wigner_convolution(params, ch, PhasePoint(alphas, betas), form=form)
            assert batch.shape == (6,)
            for i, (a, b) in enumerate(zip(alphas, betas)):
                assert batch[i] == pytest.approx(
                    channel_wigner_convolution(params, ch, PhasePoint(a, b), form=form),
                    rel=1e-13, abs=1e-15)

    def test_gaussian_form_identity_limit(self):
        ch = ChannelParams(1e-6)
        p = random_params(1.0)
        for _ in range(5):
            pt = random_point()
            assert channel_wigner_convolution(p, ch, pt, form="gaussian") == pytest.approx(
                wigner_gaussian_general(p, pt), abs=1e-5
            )

    @pytest.mark.parametrize("route", [channel_wigner_convolution, channel_wigner_quadrature])
    def test_unknown_form_rejected(self, route):
        with pytest.raises(ValueError, match="unknown form"):
            route(HALF_CAT, ChannelParams(1.0), PhasePoint(0j, 0j), form="nope")

    @pytest.mark.parametrize("route", [channel_wigner_convolution, channel_wigner_quadrature])
    @pytest.mark.parametrize("form", ["closed", "gaussian"])
    def test_boundary_theta_rejected_above_spin_half(self, route, form):
        p = CatParams(1.0, np.pi, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="boundary"):
            route(p, ChannelParams(1.0), PhasePoint(0j, 0j), form=form)

    def test_flattening_monotone_in_noise(self):
        qs = np.linspace(-4, 4, 21)
        for form in ("closed", "gaussian"):
            prev = None
            for s in (0.5, 1.0, 2.0, 4.0):
                ch = ChannelParams(s)
                mx = max(
                    channel_wigner_convolution(
                        HALF_CAT, ch, PhasePoint(q / np.sqrt(2) + 0j, 0j), form=form
                    ) ** 2
                    for q in qs
                )
                assert prev is None or mx <= prev + 1e-12
                prev = mx

    def test_budget_strictly_mixed_after_noise(self):
        from spincat.skewinfo import SkewEvaluator

        ch = ChannelParams(1.0)
        rho = apply_channel_density(density_from_vector(cat_state(HALF_CAT)), ch)
        engine = SkewEvaluator(rho)
        for _ in range(5):
            w, _, skew = engine.values(random_point())
            assert skew + w * w <= 1.0 + 1e-8
            assert skew + w * w < 1.0 - 1e-6


def _gaussian_form_convolved_reference(params, alpha, beta, s):
    """The earlier per-point evaluator of the convolved Gaussian-branch form,
    kept as the reference for the batched one: each (m, n) term's alpha
    dependence is exp(c0 + c1 a + c2 a* - 2|a|^2) with c1 = 2j + 2m,
    c2 = 2j + 2n, c0 = -(2j + m + n)^2 / 2, and the convolution appends
    s (2a* - c1)(2a - c2) / (2s + 1) to the exponent and divides by 2s + 1."""
    twoj = params.twoj
    j = params.j
    a_amp = spin_coherent_amplitudes(j, params.theta1, params.phi1)
    a_amp = a_amp + spin_coherent_amplitudes(j, params.theta2, params.phi2)
    nt = cat_norm_general(params)
    total = 0.0 + 0.0j
    for km in range(twoj + 1):
        for kn in range(twoj + 1):
            m = km - j
            n = kn - j
            big_k = twoj + m + n
            c1 = big_k + (m - n)
            c2 = big_k - (m - n)
            exponent = (
                -big_k * big_k / 2.0
                + c1 * alpha
                + c2 * np.conj(alpha)
                - 2.0 * abs(alpha) ** 2
                + s * (2.0 * np.conj(alpha) - c1) * (2.0 * alpha - c2) / (2.0 * s + 1.0)
            )
            e1 = np.exp(exponent) / (2.0 * s + 1.0)
            e2 = np.exp(
                -abs(twoj - 2 * beta - m - n) ** 2 / 2.0
                + (beta - np.conj(beta)) * (n - m)
            )
            total += np.conj(a_amp[km]) * a_amp[kn] * e1 * e2
    return nt**2 * total.real


class TestBatchedGaussianForm:
    @pytest.mark.parametrize("twoj", [1, 2, 5, 20])
    @pytest.mark.parametrize("s", [0.0, 0.1, 1.0, 2.0])
    def test_matches_per_point_reference(self, twoj, s):
        rng = np.random.default_rng(twoj * 10 + int(10 * s))
        params = CatParams(twoj / 2, *rng.uniform(0.05, np.pi - 0.05, 2),
                           *rng.uniform(0, 2 * np.pi, 2))
        alphas = rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8)
        betas = rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8)
        batch = _gaussian_form(params, alphas, betas, noise=s)
        assert batch.shape == (8,)
        for w, a, b in zip(batch, alphas, betas):
            assert abs(w - _gaussian_form_convolved_reference(params, a, b, s)) <= 1e-15

    @pytest.mark.parametrize("form, evaluate", [("closed", _closed_kernel_mean),
                                                ("gaussian", _gaussian_form)])
    def test_quadrature_equals_per_node_sum(self, form, evaluate):
        params = CatParams(2.5, np.pi / 3, np.pi / 2, 0.0, 2 * np.pi)
        ch = ChannelParams(1.0)
        pt = PhasePoint.from_quadratures(0.7, -0.4, 1.1, 0.3)
        zs, ws = gaussian_measure_nodes(ch.s, QUADRATURE_ORDER, envelope=2.0)
        per_node = np.array([evaluate(params, pt.alpha - z, pt.beta) for z in zs])
        expected = float(np.dot(ws, per_node).real)
        assert abs(channel_wigner_quadrature(params, ch, pt, form=form) - expected) <= 1e-15
