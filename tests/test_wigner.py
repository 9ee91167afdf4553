import warnings

import numpy as np
import pytest

from spincat.fockspace import FockCutoff, smoothed_kernel_element
from spincat.grids import GridSpec
from spincat.states import CatParams, cat_state, density_from_vector, dicke_vector
from spincat.wigner import (
    PhasePoint,
    _closed_kernel_mean,
    _gaussian_form,
    reconcile_gaussian_form,
    wigner_closed_general,
    wigner_closed_half,
    wigner_gaussian_general,
    wigner_gaussian_half,
    wigner_kernel_trace,
)

RNG = np.random.default_rng(2024)

HALF_CAT = CatParams(0.5, np.pi, 0.0, 0.0, 2 * np.pi)
GENERAL_CAT = dict(theta1=np.pi / 3, theta2=np.pi / 2, phi1=0.0, phi2=2 * np.pi)

# kernel-mean value of the orthogonal-branch spin-1/2 cat at alpha = beta = 0.5,
# frozen from two-cutoff kernel-trace recomputation (n_max 20 and 30 agree to
# < 1e-15); coincides with exp(-1)
GOLDEN_HALF_CAT_05 = 0.3678794411714424


def random_point(radius=2.0):
    r = radius * np.sqrt(RNG.uniform(size=2))
    ang = RNG.uniform(0, 2 * np.pi, 2)
    return PhasePoint(complex(r[0] * np.exp(1j * ang[0])), complex(r[1] * np.exp(1j * ang[1])))


def random_params(j=None, interior=True):
    jv = j if j is not None else float(RNG.choice([0.5, 1.0, 1.5, 2.0]))
    lo, hi = (0.05, np.pi - 0.05) if interior else (0.0, np.pi)
    return CatParams(jv, RNG.uniform(lo, hi), RNG.uniform(lo, hi),
                     RNG.uniform(0, 2 * np.pi), RNG.uniform(0, 2 * np.pi))


class TestPhasePoint:
    def test_quadrature_roundtrip(self):
        pt = PhasePoint.from_quadratures(1.0, -0.5, 0.25, 2.0)
        assert pt.quadratures() == pytest.approx((1.0, -0.5, 0.25, 2.0), abs=1e-14)

    def test_alpha_convention(self):
        pt = PhasePoint.from_quadratures(np.sqrt(2), 0.0, 0.0, np.sqrt(2))
        assert pt.alpha == pytest.approx(1.0)
        assert pt.beta == pytest.approx(1.0j)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PhasePoint(complex(np.nan, 0), 0j)


class TestClosedHalf:
    def test_origin_value_is_minus_one(self):
        # the cat lives on the one-excitation shell, which is globally odd
        assert wigner_closed_half(HALF_CAT, PhasePoint(0j, 0j)) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_golden_point(self):
        w = wigner_closed_half(HALF_CAT, PhasePoint(0.5 + 0j, 0.5 + 0j))
        assert w == pytest.approx(GOLDEN_HALF_CAT_05, abs=1e-12)

    def test_matches_kernel_trace_on_grid(self):
        rho = density_from_vector(cat_state(HALF_CAT))
        for q1 in (-2.0, -1.0, 0.0, 1.0, 2.0):
            for q2 in (-2.0, -1.0, 0.0, 1.0, 2.0):
                pt = PhasePoint.from_quadratures(q1, 0.0, q2, 0.0)
                assert wigner_closed_half(HALF_CAT, pt) == pytest.approx(
                    wigner_kernel_trace(rho, pt), abs=1e-6
                )

    def test_bounded_by_one(self):
        for _ in range(50):
            p = random_params(j=0.5, interior=False)
            try:
                w = wigner_closed_half(p, random_point())
            except ValueError:
                continue
            assert abs(w) <= 1.0 + 1e-9

    def test_accepts_boundary_theta(self):
        wigner_closed_half(HALF_CAT, PhasePoint(0.3 + 0j, 0j))

    def test_rejects_wrong_spin(self):
        with pytest.raises(ValueError):
            wigner_closed_half(CatParams(1.0, 1.0, 2.0, 0.0, 0.0), PhasePoint(0j, 0j))


class TestClosedGeneral:
    def test_reduces_to_half(self):
        p = CatParams(0.5, np.pi / 3, np.pi / 2, 0.0, 2 * np.pi)
        pt = PhasePoint(0.4 + 0j, 0.4 + 0j)
        assert wigner_closed_general(p, pt) == pytest.approx(
            wigner_closed_half(p, pt), abs=1e-10
        )

    def test_reduction_random_draws(self):
        for _ in range(100):
            p = random_params(j=0.5)
            pt = random_point()
            assert wigner_closed_general(p, pt) == pytest.approx(
                wigner_closed_half(p, pt), abs=1e-10
            )

    def test_matches_kernel_trace_far_out(self):
        # 9-point q1 slice over [-10, 10]: kernel displacements reach
        # |2 alpha|^2 = 200, exercising the recurrence deep in its range
        p = CatParams(1.0, **GENERAL_CAT)
        rho = density_from_vector(cat_state(p))
        for q1 in np.linspace(-10, 10, 9):
            pt = PhasePoint.from_quadratures(q1, 0.0, 0.0, 0.0)
            assert wigner_closed_general(p, pt) == pytest.approx(
                wigner_kernel_trace(rho, pt), abs=1e-5
            )

    def test_rejects_boundary_theta(self):
        p = CatParams(1.0, np.pi, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            wigner_closed_general(p, PhasePoint(0j, 0j))

    def test_bounded_by_one(self):
        for _ in range(50):
            w = wigner_closed_general(random_params(), random_point())
            assert abs(w) <= 1.0 + 1e-9

    def test_branch_swap_symmetry(self):
        for _ in range(20):
            p = random_params()
            pt = random_point()
            assert wigner_closed_general(p, pt) == pytest.approx(
                wigner_closed_general(p.swapped(), pt), abs=1e-12
            )

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the shell-kernel sum of smoothed_kernel_element cancels "
        "catastrophically for noise s < 0.5 at large j (1.5e-6 at j = 15, 1e-2 at "
        "j = 20); remove this mark once the kernel builder is stable"))
    @pytest.mark.parametrize("j", [15.0, 20.0])
    def test_large_spin_matches_kernel_trace_at_q2_minus_4(self, j):
        p = CatParams(j, **GENERAL_CAT)
        pt = PhasePoint.from_quadratures(0.0, 0.0, -4.0, 0.0)
        rho = density_from_vector(cat_state(p))
        assert wigner_closed_general(p, pt) == pytest.approx(
            wigner_kernel_trace(rho, pt), abs=1e-10
        )

    def test_large_spin_log_space_path(self):
        # 2j = 50 exercises the log-space kernel elements (the cat amplitudes
        # take exact integer binomials at every 2j)
        p = CatParams(25.0, 1.1, 2.0, 0.3, 4.4)
        pt = PhasePoint(0.6 - 0.3j, -0.2 + 0.5j)
        rho = density_from_vector(cat_state(p))
        assert wigner_closed_general(p, pt) == pytest.approx(
            wigner_kernel_trace(rho, pt), abs=1e-8
        )


class TestClosedKernelMean:
    def test_slice_working_set_is_two_rows(self):
        # fig2-q2's 201 points share one alpha: one stacked row and one row
        # per beta at a time, not a stack of every beta's row
        import tracemalloc

        from spincat.sweep import PRESETS

        params, _, grid = PRESETS["fig2-q2"].build(5.0, None)
        alphas, betas = grid.amplitudes()
        tracemalloc.start()
        try:
            _closed_kernel_mean(params, alphas, betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2e6

    @pytest.mark.parametrize("counts", [(5, 9), (9, 5)])
    def test_same_values_whichever_mode_is_stacked(self, monkeypatch, counts):
        # noise acts on mode 1, so it is covered both stacked and looped
        import spincat.wigner

        p = CatParams(1.5, **GENERAL_CAT)
        grid = GridSpec(axes=(("q1", -2.0, 2.0, counts[0]), ("p2", -3.0, 1.0, counts[1])),
                        fixed={"p1": 0.3, "q2": -0.4})
        alphas, betas = grid.amplitudes()
        values = [_closed_kernel_mean(p, alphas, betas, 0.7)]
        for order in (lambda m1, m2: (m1, m2), lambda m1, m2: (m2, m1)):
            monkeypatch.setattr(spincat.wigner, "stacked_and_looped", order)
            values.append(_closed_kernel_mean(p, alphas, betas, 0.7))
        for other in values[1:]:
            np.testing.assert_allclose(other, values[0], rtol=0, atol=1e-15)


class TestHandDerivedValues:
    """Closed-form kernel means derived by hand from
    <p|D(2a)|q> = sqrt(q!/p!) (2a)^(p-q) e^(-2|a|^2) L_q^(p-q)(4|a|^2),
    written out directly here, independent of the package's evaluators."""

    def test_single_photon_mode2(self):
        # |0,1>: W = e^(-2|a|^2-2|b|^2) (4|b|^2 - 1)
        rho = density_from_vector(dicke_vector(0.5, -0.5, FockCutoff(1)))
        for _ in range(20):
            pt = random_point()
            a, b = pt.alpha, pt.beta
            expected = np.exp(-2 * (abs(a) ** 2 + abs(b) ** 2)) * (4 * abs(b) ** 2 - 1)
            assert wigner_kernel_trace(rho, pt) == pytest.approx(expected, abs=1e-12)

    def test_two_photon_product(self):
        # |1,1>: W = e^(-2|a|^2-2|b|^2) (4|a|^2 - 1)(4|b|^2 - 1)
        rho = density_from_vector(dicke_vector(1.0, 0.0, FockCutoff(2)))
        for _ in range(20):
            pt = random_point()
            a, b = pt.alpha, pt.beta
            expected = (
                np.exp(-2 * (abs(a) ** 2 + abs(b) ** 2))
                * (4 * abs(a) ** 2 - 1)
                * (4 * abs(b) ** 2 - 1)
            )
            assert wigner_kernel_trace(rho, pt) == pytest.approx(expected, abs=1e-12)

    def test_orthogonal_branch_cat_formula(self):
        # (|0,1> + |1,0>)/sqrt(2): W = e^(-q1^2-q2^2) ((q1+q2)^2 - 1) on p = 0
        for q1, q2 in ((0.3, -0.8), (1.2, 0.5), (-2.0, 1.0)):
            pt = PhasePoint.from_quadratures(q1, 0.0, q2, 0.0)
            expected = np.exp(-(q1**2 + q2**2)) * ((q1 + q2) ** 2 - 1.0)
            assert wigner_closed_half(HALF_CAT, pt) == pytest.approx(expected, abs=1e-12)


class TestKernelTrace:
    def test_vacuum_at_origin(self):
        cut = FockCutoff(2)
        from spincat.fockspace import DensityMatrix

        m = np.zeros((cut.dim, cut.dim), dtype=complex)
        m[0, 0] = 1.0
        rho = DensityMatrix(cut, m)
        assert wigner_kernel_trace(rho, PhasePoint(0j, 0j)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0])
    def test_dicke_parity_anchor(self, j):
        twoj = int(2 * j)
        for k in range(twoj + 1):
            m = k - j
            rho = density_from_vector(dicke_vector(j, m, FockCutoff(twoj)))
            w = wigner_kernel_trace(rho, PhasePoint(0j, 0j))
            assert w == pytest.approx((-1.0) ** twoj, abs=1e-10)

    def test_two_cutoff_convergence_golden(self):
        pt = PhasePoint(0.5 + 0j, 0.5 + 0j)
        vals = []
        for n_max in (20, 30):
            rho = density_from_vector(cat_state(HALF_CAT, FockCutoff(n_max)))
            vals.append(wigner_kernel_trace(rho, pt))
        assert abs(vals[0] - vals[1]) < 1e-8
        assert vals[1] == pytest.approx(GOLDEN_HALF_CAT_05, abs=1e-10)

    def test_warns_on_truncated_state(self):
        from spincat.fockspace import DensityMatrix, TruncationWarning

        cut = FockCutoff(1)
        m = np.zeros((cut.dim, cut.dim), dtype=complex)
        m[0, 0] = 1.0
        rho = DensityMatrix(cut, m, tail_defect=1e-4)
        with pytest.warns(TruncationWarning):
            wigner_kernel_trace(rho, PhasePoint(0j, 0j))

    @pytest.mark.parametrize("tail,warns", [(5e-7, False), (2e-6, True)])
    def test_warning_threshold(self, tail, warns):
        from spincat.fockspace import TAIL_WARN_TOL, DensityMatrix, TruncationWarning

        assert TAIL_WARN_TOL == 1e-6
        rho = density_from_vector(cat_state(HALF_CAT))
        rho = DensityMatrix(rho.cutoff, rho.entries, tail_defect=tail)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wigner_kernel_trace(rho, PhasePoint(0.5 + 0j, 0.5 + 0j))
        assert [w.category for w in caught] == ([TruncationWarning] if warns else [])

    def test_value_independent_of_embedding_cutoff(self):
        # entries of the kernel block are exact matrix elements, so padding
        # the state into a larger space cannot move the trace
        p = CatParams(1.0, **GENERAL_CAT)
        pt = PhasePoint.from_quadratures(10.0, 0.0, 0.0, 0.0)
        small = wigner_kernel_trace(density_from_vector(cat_state(p)), pt)
        big = wigner_kernel_trace(
            density_from_vector(cat_state(p, FockCutoff(30))), pt
        )
        assert small == pytest.approx(big, abs=1e-12)


class TestGaussianForm:
    def test_positive_quadrant_dominates(self):
        # the Gaussian-branch surface peaks where the branch indices sit, in
        # the q1 > 0, q2 > 0 quadrant; the kernel mean is even instead
        plus = wigner_gaussian_half(HALF_CAT, PhasePoint.from_quadratures(1.0, 0, 0.5, 0))
        minus = wigner_gaussian_half(HALF_CAT, PhasePoint.from_quadratures(-1.0, 0, -0.5, 0))
        assert plus**2 > minus**2

    def test_surface_maximum_sits_in_positive_quadrant(self):
        qs = np.linspace(-2, 2, 41)
        best, best_q = -1.0, None
        for q1 in qs:
            for q2 in qs:
                w2 = wigner_gaussian_half(
                    HALF_CAT, PhasePoint.from_quadratures(q1, 0, q2, 0)
                ) ** 2
                if w2 > best:
                    best, best_q = w2, (q1, q2)
        assert best_q[0] > 0 and best_q[1] > 0

    def test_reduces_to_half(self):
        for _ in range(100):
            p = random_params(j=0.5)
            pt = random_point()
            assert wigner_gaussian_general(p, pt) == pytest.approx(
                wigner_gaussian_half(p, pt), abs=1e-10
            )

    def test_total_symmetry_violation_onset_with_spin(self):
        # on the q1 slice, W^2 stays under the violation threshold 0.01 for
        # j >= 5/2 but not for j = 2
        qs = np.linspace(-10, 10, 201)

        def max_w2(j):
            p = CatParams(j, **GENERAL_CAT)
            return max(
                wigner_gaussian_general(p, PhasePoint.from_quadratures(q, 0, 0, 0)) ** 2
                for q in qs
            )

        assert max_w2(2.0) > 0.01
        assert max_w2(2.5) < 0.01
        assert max_w2(4.0) < 0.01

    def test_kernel_mean_origin_differs(self):
        # documents the structural mismatch with the kernel mean
        w = wigner_gaussian_half(HALF_CAT, PhasePoint(0j, 0j))
        assert abs(w - (-1.0)) > 0.5

    def test_batched_form_matches_half_formula_at_boundary_theta(self):
        # HALF_CAT has theta1 = pi, where only the spin-1/2 formula is stated
        rng = np.random.default_rng(7)
        alphas = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
        betas = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
        batch = _gaussian_form(HALF_CAT, alphas, betas)
        for w, a, b in zip(batch, alphas, betas):
            assert abs(w - wigner_gaussian_half(HALF_CAT, PhasePoint(a, b))) <= 1e-15

    def test_rejects_boundary_theta_general(self):
        p = CatParams(1.0, np.pi, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            wigner_gaussian_general(p, PhasePoint(0j, 0j))


class TestReconciliation:
    def test_shape_mismatch_is_reported(self):
        points = [
            PhasePoint.from_quadratures(q1, 0, q2, 0)
            for q1 in (-2.0, -1.0, 0.0, 1.0, 2.0)
            for q2 in (-2.0, -1.0, 0.0, 1.0, 2.0)
        ]
        report = reconcile_gaussian_form(HALF_CAT, points)
        assert not report.matched
        assert report.max_residual > report.tol
        assert report.n_points == 25
        assert np.isfinite(report.scale)


class TestNormalizationIntegral:
    def test_density_convention_integrates_to_one(self):
        # separable plane integrals per mode; rectangle rule on [-6, 6]^2 is
        # spectrally accurate for these Gaussians
        p = CatParams(0.5, 2.0, 1.0, 0.5, 1.5)
        from spincat.states import cat_branches_half, cat_norm_half

        c = np.array(cat_branches_half(p)) * cat_norm_half(p)
        xs = np.linspace(-6.0, 6.0, 41)
        dx = xs[1] - xs[0]
        k_int = np.zeros((2, 2), dtype=complex)
        for pp in range(2):
            for qq in range(2):
                acc = 0.0
                for x in xs:
                    for y in xs:
                        acc += smoothed_kernel_element(pp, qq, (x + 1j * y) / np.sqrt(2))
                k_int[pp, qq] = acc * dx * dx / np.pi
        total = np.real(
            np.conj(c[0]) * c[0] * k_int[0, 0] * k_int[1, 1]
            + np.conj(c[0]) * c[1] * k_int[1, 0] * k_int[0, 1]
            + np.conj(c[1]) * c[0] * k_int[0, 1] * k_int[1, 0]
            + np.conj(c[1]) * c[1] * k_int[1, 1] * k_int[0, 0]
        )
        assert total == pytest.approx(1.0, abs=1e-3)
