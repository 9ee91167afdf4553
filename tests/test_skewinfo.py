import numpy as np
import pytest

from spincat.channel import ChannelParams, apply_channel_density
from spincat.fockspace import DensityMatrix, FockCutoff, adequate_n_max, single_mode_kernel
from spincat.grids import GridSpec
from spincat.skewinfo import SkewEvaluator, pure_point_values
from spincat.states import CatParams, StateVector, cat_state, density_from_vector, dicke_vector
from spincat.sweep import PRESETS
from spincat.wigner import PhasePoint, wigner_kernel_trace

RNG = np.random.default_rng(31)

HALF_CAT = CatParams(0.5, np.pi, 0.0, 0.0, 2 * np.pi)
GOLDEN_HALF_CAT_05 = 0.3678794411714424  # see test_wigner


def random_point(radius=2.0):
    r = radius * np.sqrt(RNG.uniform(size=2))
    ang = RNG.uniform(0, 2 * np.pi, 2)
    return PhasePoint(complex(r[0] * np.exp(1j * ang[0])), complex(r[1] * np.exp(1j * ang[1])))


def random_params(j=None):
    jv = j if j is not None else float(RNG.choice([0.5, 1.0, 1.5, 2.0]))
    return CatParams(jv, RNG.uniform(0.05, np.pi - 0.05), RNG.uniform(0.05, np.pi - 0.05),
                     RNG.uniform(0, 2 * np.pi), RNG.uniform(0, 2 * np.pi))


def coherent_channel_state():
    """A truncated |gamma> (x) |0> behind the s = 1 channel: unlike every
    state the package builds, its root couples different N = n1 + n2."""
    n = np.arange(9)
    amp = (0.6 + 0.3j) ** n / np.sqrt([float(np.prod(n[1:k + 1])) for k in n])
    psi = StateVector(FockCutoff(8, 0), amp / np.linalg.norm(amp))
    return apply_channel_density(density_from_vector(psi), ChannelParams(1.0))


def fig5e_state():
    params, channel, _ = PRESETS["fig5e"].build(2.5, None)
    return apply_channel_density(density_from_vector(cat_state(params)), channel)


def complex_cat_state():
    """The j = 5/2 cat with phi1 = pi/3 behind the s = 1 channel: its shell
    amplitudes, and so its root weights, are complex."""
    params = CatParams(2.5, np.pi / 3, np.pi / 2, np.pi / 3, 2 * np.pi)
    return apply_channel_density(density_from_vector(cat_state(params)), ChannelParams(1.0))


def kronecker_reference(rho, alphas, betas):
    """(variance, skew) at the points (alphas[i], betas[i]): Tr[rho Delta^2]
    from the Gram matrices of tail-extended kernel columns, and Kronecker
    products of the two modes' blocks on rho's support, one point at a time."""
    from spincat.fockspace import hermitian_sqrt
    from spincat.skewinfo import _kernel_columns

    d1, d2 = rho.mode_support()
    block = rho.as_modes()[:d1, :d2, :d1, :d2].reshape(d1 * d2, d1 * d2)
    root = hermitian_sqrt(DensityMatrix(FockCutoff(d1 - 1, d2 - 1), block)).entries
    out = np.empty((2, len(alphas)))
    for i, (a, b) in enumerate(zip(alphas, betas)):
        c1, c2 = _kernel_columns(a, d1), _kernel_columns(b, d2)
        delta = np.kron(c1[:d1], c2[:d2])
        w_ref = np.trace(block @ delta).real
        t1 = np.trace(block @ np.kron(c1.conj().T @ c1, c2.conj().T @ c2)).real
        sd = root @ delta
        out[:, i] = t1 - w_ref**2, max(t1 - np.trace(sd @ sd).real, 0.0)
    return out


def vacuum_density(n_max=2):
    cut = FockCutoff(n_max)
    m = np.zeros((cut.dim, cut.dim), dtype=complex)
    m[0, 0] = 1.0
    return DensityMatrix(cut, m)


class TestParityVariance:
    def test_vacuum_at_origin_is_zero(self):
        assert SkewEvaluator(vacuum_density()).values(PhasePoint(0j, 0j))[1] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_dicke_at_origin_is_zero(self):
        rho = density_from_vector(dicke_vector(0.5, -0.5, FockCutoff(1)))
        assert SkewEvaluator(rho).values(PhasePoint(0j, 0j))[1] == pytest.approx(0.0, abs=1e-12)

    def test_cat_at_golden_point(self):
        rho = density_from_vector(cat_state(HALF_CAT))
        pt = PhasePoint(0.5 + 0j, 0.5 + 0j)
        assert SkewEvaluator(rho).values(pt)[1] == pytest.approx(
            1.0 - GOLDEN_HALF_CAT_05**2, abs=1e-8
        )

    def test_range(self):
        rho = density_from_vector(cat_state(random_params()))
        for _ in range(10):
            v = SkewEvaluator(rho).values(random_point())[1]
            assert -1e-8 <= v <= 1.0 + 1e-8


class TestSkewInformationPure:
    def test_equals_one_minus_w_squared(self):
        for _ in range(50):
            psi = cat_state(random_params())
            w, skew = pure_point_values(psi, random_point())
            assert skew == pytest.approx(1.0 - w * w, abs=1e-8)

    def test_matrix_route_agrees_with_column_route(self):
        psi = cat_state(random_params(j=1.0))
        rho = density_from_vector(psi)
        for _ in range(5):
            pt = random_point(radius=1.5)
            _, skew_fast = pure_point_values(psi, pt)
            assert SkewEvaluator(rho).values(pt)[2] == pytest.approx(skew_fast, abs=1e-9)

    def test_w_agrees_with_kernel_trace(self):
        psi = cat_state(random_params(j=1.5))
        rho = density_from_vector(psi)
        for _ in range(5):
            pt = random_point()
            w, _ = pure_point_values(psi, pt)
            assert w == pytest.approx(wigner_kernel_trace(rho, pt), abs=1e-10)

    def test_batch_matches_per_point_image_of_delta(self):
        # reference: Delta psi = c1 psi c2^T from each point's own kernel
        # columns at its own adequate cutoff, one point at a time; the batch
        # repeats alpha and beta values and shares one cutoff
        psi = cat_state(random_params(j=1.5))
        c = psi.cutoff
        psi4 = psi.amplitudes.reshape(c.dim1, c.dim2)
        alphas = np.array([0.3 + 0.1j, 0.3 + 0.1j, -1.8j, 2.1, 0.0])
        betas = np.array([0.2, -0.5 + 0.4j, 0.2, 1.2 - 0.9j, 0.0])
        w, skew = pure_point_values(psi, PhasePoint(alphas, betas))
        assert w.shape == skew.shape == (5,)
        for i, (a, b) in enumerate(zip(alphas, betas)):
            c1, c2 = (single_mode_kernel(v, adequate_n_max(4 * abs(v) ** 2, d - 1), d)
                      for v, d in ((a, c.dim1), (b, c.dim2)))
            dpsi = c1 @ psi4 @ c2.T
            w_ref = np.vdot(psi4, dpsi[:c.dim1, :c.dim2]).real
            assert abs(w[i] - w_ref) < 1e-13
            assert abs(skew[i] - (np.vdot(dpsi, dpsi).real - w_ref**2)) < 1e-13
            assert pure_point_values(psi, PhasePoint(a, b)) == pytest.approx(
                (w[i], skew[i]), abs=1e-15)


class TestSkewInformationMixed:
    def test_commuting_diagonal_state_has_zero_skew(self):
        # maximally mixed on the one-excitation shell: diagonal in Fock basis,
        # commutes with the parity product at the origin
        cut = FockCutoff(1)
        m = np.zeros((cut.dim, cut.dim), dtype=complex)
        m[cut.index(0, 1), cut.index(0, 1)] = 0.5
        m[cut.index(1, 0), cut.index(1, 0)] = 0.5
        rho = DensityMatrix(cut, m)
        assert SkewEvaluator(rho).values(PhasePoint(0j, 0j))[2] <= 1e-10

    def test_square_trace_post_channel_matches_mpmath(self):
        # Tr[(sqrt(rho') Delta)^2] at fig5a (j = 1, s = 1, q1 = -4) on the
        # d1 = 41 truncation; the reference is an mpmath evaluation at 40
        # digits of the exact channel output, its root taken per N-block
        params, ch, _ = PRESETS["fig5a"].build(1.0, None)
        rho = apply_channel_density(density_from_vector(cat_state(params)), ch)
        assert rho.cutoff.dim1 == 41
        w, var, skew = SkewEvaluator(rho).values(PhasePoint.from_quadratures(-4.0, 0, 0, 0))
        assert abs(var + w * w - skew - 0.0034458095626968659) < 1e-13

    def test_dominated_by_variance(self):
        out = apply_channel_density(
            density_from_vector(cat_state(random_params(j=0.5))), ChannelParams(1.0)
        )
        engine = SkewEvaluator(out)
        for _ in range(10):
            pt = random_point()
            w, var, skew = engine.values(pt)
            assert -1e-9 <= skew <= var + 1e-8
            assert skew + w * w <= 1.0 + 1e-8

    def test_rejects_unphysical_state(self):
        cut = FockCutoff(1, 0)
        rho = DensityMatrix(cut, np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError):
            SkewEvaluator(rho).values(PhasePoint(0j, 0j))


class TestGridEngine:
    def test_grid_matches_literal_two_mode_products(self):
        # reference: the Kronecker-product kernel and sqrt(rho) on the support
        # block, one point at a time; the points repeat alpha and beta values
        rho = apply_channel_density(density_from_vector(cat_state(HALF_CAT)),
                                    ChannelParams(1.0))
        d1, d2 = rho.mode_support()
        block = rho.as_modes()[:d1, :d2, :d1, :d2].reshape(d1 * d2, d1 * d2)
        lam, vec = np.linalg.eigh(block)
        root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T

        def factors(value, d):
            c = single_mode_kernel(value, adequate_n_max(4 * abs(value) ** 2, d - 1))[:, :d]
            return c[:d], c.conj().T @ c

        alphas = np.array([0.3 + 0.1j, 0.3 + 0.1j, -0.8j, 1.1, -0.8j])
        betas = np.array([0.2, -0.5 + 0.4j, 0.2, 0.2, 0.0])
        engine = SkewEvaluator(rho)
        w, var, skew = engine.grid(alphas, betas)
        for i, (a, b) in enumerate(zip(alphas, betas)):
            (k1, g1), (k2, g2) = factors(a, d1), factors(b, d2)
            delta = np.kron(k1, k2)
            sd = root @ delta
            w_ref = np.trace(block @ delta).real
            t1 = np.trace(block @ np.kron(g1, g2)).real
            skew_ref = t1 - np.trace(sd @ sd).real
            assert w[i] == pytest.approx(w_ref, abs=1e-12)
            assert var[i] == pytest.approx(t1 - w_ref**2, abs=1e-12)
            assert skew[i] == pytest.approx(max(skew_ref, 0.0), abs=1e-12)
            assert engine.values(PhasePoint(a, b)) == pytest.approx((w[i], var[i], skew[i]),
                                                                     abs=1e-15)

    @pytest.mark.parametrize("alpha, beta", [(np.nan, 0.2), (0.3, complex(0.0, np.nan)),
                                             (complex(np.inf, 1.0), 0.0)])
    def test_grid_refuses_non_finite_points(self, alpha, beta):
        engine = SkewEvaluator(vacuum_density())
        with pytest.raises(ValueError, match="finite"):
            engine.grid(np.array([0.1, alpha]), np.array([0.0, beta]))

    def test_grid_calls_values_once_per_distinct_alpha(self, monkeypatch):
        rho = apply_channel_density(density_from_vector(cat_state(HALF_CAT)),
                                    ChannelParams(1.0))
        engine = SkewEvaluator(rho)
        original = SkewEvaluator.values
        batches = []

        def recording(self, point, mode2=None, mode1=None):
            batches.append(np.size(point.beta))
            return original(self, point, mode2, mode1)

        monkeypatch.setattr(SkewEvaluator, "values", recording)
        alphas = np.array([0.3, -0.8j, 0.3, 1.1, -0.8j, 0.3])
        betas = np.array([0.2, 0.2, -0.5j, 0.0, 0.7, 0.2])
        w, var, skew = engine.grid(alphas, betas)
        assert sorted(batches) == [1, 2, 3]
        monkeypatch.undo()
        for i, (a, b) in enumerate(zip(alphas, betas)):
            assert engine.values(PhasePoint(a, b)) == pytest.approx((w[i], var[i], skew[i]),
                                                                     abs=1e-15)

    def test_factor_stacks_hold_no_views_of_kernel_columns(self):
        # the real blocks of one modulus are views of their chunk; what is
        # held beyond it (stacks, phased blocks) is a fresh array
        from spincat.skewinfo import _kernel_blocks, _kernel_stack, _phased

        values = np.array([0.0, 0.7, -1.3 + 0.2j, 3.0j])
        k, phi = _kernel_stack(values, 4)
        assert k.base is None and phi.base is None
        assert k.shape == (4, 4, 4)
        assert k.nbytes == 4 * 4 * 4 * 8
        for block, members in _kernel_blocks(values, 4):
            assert block.dtype == float
            for _, t in members:
                assert _phased(block, t).base is None

    @pytest.mark.parametrize("preset", ["fig5a", "fig5g"])
    def test_noisy_budget_stays_within_trace(self, preset):
        # I + W^2 <= Tr rho holds exactly (see the module docstring), so only
        # rounding may push the budget past the trace
        params, channel, grid = PRESETS[preset].build(1.0, None)
        rho = apply_channel_density(density_from_vector(cat_state(params)), channel)
        w, _, skew = SkewEvaluator(rho).grid(*grid.amplitudes())
        assert (skew + w * w).max() <= rho.entries.trace().real + 1e-15

    @pytest.mark.parametrize("preset, j", [("fig3a", None), ("fig5a", 1.0), ("fig5g", 1.0),
                                           ("fig5e", 2.5), ("coherent", None),
                                           ("complex", None)])
    def test_engine_matches_gram_kronecker_reference(self, preset, j):
        # "coherent" (coherent_channel_state) has a root that couples
        # different N = n1 + n2, so the engine multiplies the dense root rows
        # instead of gathering one entry per row; "complex" has complex root
        # weights, where every preset's are real
        if preset == "coherent":
            rho = coherent_channel_state()
            grid = GridSpec(axes=(("q1", -2.0, 2.0, 11), ("p2", -2.0, 2.0, 11)))
        elif preset == "complex":
            rho = complex_cat_state()
            grid = GridSpec(axes=(("p1", -2.0, 2.0, 11), ("q2", -2.0, 2.0, 11)),
                            fixed={"q1": 0.7})
        else:
            params, channel, grid = PRESETS[preset].build(j, None)
            rho = apply_channel_density(density_from_vector(cat_state(params)), channel)
        alphas, betas = grid.amplitudes()
        picks = np.linspace(0, len(alphas) - 1, 5).astype(int)
        picks[2] = len(alphas) // 3  # off the symmetric midpoint of a 2-d grid
        engine = SkewEvaluator(rho)
        _, var, skew = engine.grid(alphas[picks], betas[picks])
        assert (engine._root[1] is None) == (preset == "coherent")
        if preset != "coherent":  # the root weights of the N-block gathers
            assert np.iscomplexobj(engine._root[2][1]) == (preset == "complex")
        var_ref, skew_ref = kronecker_reference(rho, alphas[picks], betas[picks])
        assert np.abs(var - var_ref).max() < 1e-12
        assert np.abs(skew - skew_ref).max() < 1e-12

    @pytest.mark.parametrize("state", [fig5e_state, complex_cat_state, coherent_channel_state])
    def test_alpha_phases_of_one_modulus_match_kronecker_reference(self, state):
        # N-block states take one P per modulus |alpha| and fold alpha's
        # phase onto beta's block; the dense root takes one P per alpha
        rho = state()
        alphas = np.array([1.3, -1.3, 1.3j, -1.3j, 0.5, 0.3 + 0.4j, -0.4 + 0.3j, -0.5j,
                           0.3 - 0.4j, -0.3 - 0.4j])
        assert len({abs(a) for a in alphas.tolist()}) == 2
        betas = np.resize([0.0, -0.7 + 0.5j, 1.1], alphas.size)
        w, var, skew = SkewEvaluator(rho).grid(alphas, betas)
        var_ref, skew_ref = kronecker_reference(rho, alphas, betas)
        assert np.abs(var - var_ref).max() < 1e-12
        assert np.abs(skew - skew_ref).max() < 1e-12
        assert skew.min() > 1e-3  # not only clamped zeros

    def test_one_real_pair_product_per_modulus(self, monkeypatch):
        # x, -x and i x share a modulus, as fig5a's alphas +-q1 / sqrt(2) do
        engine = SkewEvaluator(fig5e_state())
        original = SkewEvaluator._pair_product
        products = []

        def recording(self, k1):
            products.append(original(self, k1))
            assert k1.dtype == float
            return products[-1]

        monkeypatch.setattr(SkewEvaluator, "_pair_product", recording)
        alphas = np.array([-1.5, 1.5, 1.5j, -0.5, -0.5j, 0.0, 0.0])
        engine.grid(alphas, np.zeros(alphas.size))
        assert len(products) == 3
        assert all(p.dtype == float for p in products)

    @pytest.mark.parametrize("state", [fig5e_state, coherent_channel_state])
    def test_split_pair_product_equals_full_product(self, state):
        # reference: A from the dense root rows, and P as one product over
        # every (a, c) against a transposed copy of A
        from spincat.fockspace import hermitian_sqrt
        from spincat.skewinfo import _kernel_stack, _phased

        engine = SkewEvaluator(state())
        d1, d2 = engine.d1, engine.d2
        root = hermitian_sqrt(DensityMatrix(FockCutoff(d1 - 1, d2 - 1), engine.block)).entries
        rows = root.reshape(d1, d2, d1, d2).transpose(1, 3, 0, 2).reshape(d2 * d2 * d1, d1)
        assert (engine._root[0] is None) == (state is fig5e_state)
        for k1 in _phased(*_kernel_stack(np.array([0.0, 0.7 - 1.1j, -2.4j]), d1)):
            a = (rows @ k1).reshape(d2 * d2, d1, d1)  # A[a,b,d,c] as [(b, d), a, c]
            full = a.reshape(d2 * d2, -1) @ a.transpose(0, 2, 1).reshape(d2 * d2, -1).T
            split = engine._pair_product(k1)
            assert np.abs(split - full).max() <= 1e-15 * np.abs(full).max()

    def test_band_kernel_mean_equals_dense_contraction(self):
        from spincat.skewinfo import _kernel_stack, _phased

        engine = SkewEvaluator(fig5e_state())
        d1, d2 = engine.d1, engine.d2
        assert engine._root[1] is not None
        rho4 = engine.block.reshape(d1, d2, d1, d2)
        k2 = _phased(*_kernel_stack(np.array([0.0, 0.3 + 0.9j, -1.7]), d2))
        for k1 in _phased(*_kernel_stack(np.array([0.0, 0.7 - 1.1j, -2.4j]), d1)):
            dense = np.einsum("abxy,xa,pyb->p", rho4, k1, k2)
            w = np.einsum("pyb,by->p", k2, engine._band(k1))
            assert np.abs(w - dense).max() <= 1e-15

    @pytest.mark.parametrize("preset, j, limit_mb", [("fig3a", None, 4.0), ("fig5a", 1.0, 5.0),
                                                  ("fig5e", 2.5, 7.5)])
    def test_grid_working_set_is_bounded(self, preset, j, limit_mb):
        # alpha factors are built in CHUNK_BYTES chunks, never as one stack;
        # fig5e holds no transposed copy of rho or of the gathered factors
        import tracemalloc

        from spincat.sweep import PRESETS

        params, channel, grid = PRESETS[preset].build(j, None)
        rho = apply_channel_density(density_from_vector(cat_state(params)), channel)
        alphas, betas = grid.amplitudes()
        tracemalloc.start()
        try:
            SkewEvaluator(rho).grid(alphas, betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6


class TestDuality:
    def test_theta_derivative_antisymmetry(self):
        # for pure states, dI/dtheta1 = -d(W^2)/dtheta1
        step = 1e-4
        for _ in range(10):
            p = random_params()
            pt = random_point(radius=1.0)

            def values(theta1):
                q = CatParams(p.j, theta1, p.theta2, p.phi1, p.phi2)
                w, skew = pure_point_values(cat_state(q), pt)
                return w * w, skew

            w2p, ip_ = values(p.theta1 + step)
            w2m, im_ = values(p.theta1 - step)
            dw2 = (w2p - w2m) / (2 * step)
            di = (ip_ - im_) / (2 * step)
            scale = max(abs(dw2), abs(di), 1e-12)
            assert abs(di + dw2) / scale < 1e-4


class TestDensityMatrixGrid:
    def test_pure_budget_saturates(self):
        rho = density_from_vector(cat_state(random_params(j=1.0)))
        grid = GridSpec(axes=(("q1", -1.0, 1.0, 5), ("q2", -1.0, 1.0, 5)))
        w, _, skew = SkewEvaluator(rho).grid(*grid.amplitudes())
        assert w.shape == (25,)
        assert np.abs(skew + w * w - 1.0).max() <= 1e-8

    def test_post_channel_budget_below_one(self):
        rho = apply_channel_density(
            density_from_vector(cat_state(HALF_CAT)), ChannelParams(1.0)
        )
        grid = GridSpec(axes=(("q1", -1.0, 1.0, 5),))
        w, _, skew = SkewEvaluator(rho).grid(*grid.amplitudes())
        assert (skew + w * w).max() <= 1.0 + 1e-8
        assert skew.min() >= -1e-10

    def test_single_point_grid_matches_pure_point_values(self):
        psi = cat_state(HALF_CAT)
        grid = GridSpec(axes=(("q1", 0.7, 0.7, 1),), fixed={"q2": 0.7})
        (w,), _, (skew,) = SkewEvaluator(density_from_vector(psi)).grid(*grid.amplitudes())
        w_ref, skew_ref = pure_point_values(psi, PhasePoint.from_quadratures(0.7, 0.0, 0.7, 0.0))
        assert w == pytest.approx(w_ref, abs=1e-12)
        assert skew == pytest.approx(skew_ref, abs=1e-12)

    def test_values_evaluates_each_alpha_of_a_batch(self):
        # a batch of two alphas is two points, not the first alpha's floats
        params, channel, _ = PRESETS["fig3a"].build(None, None)
        engine = SkewEvaluator(apply_channel_density(density_from_vector(cat_state(params)),
                                                     channel))
        alphas = np.array([0.3, 0.9])
        batch = engine.values(PhasePoint(alphas, 0.2))
        for got, ref in zip(batch, engine.grid(alphas, np.full(2, 0.2))):
            assert got.shape == (2,)
            assert np.abs(got - ref).max() <= 1e-15
        assert batch[2][1] == pytest.approx(0.51880320, abs=1e-8)
        single = engine.values(PhasePoint(0.9, 0.2))
        assert all(type(v) is float for v in single)
        assert single == pytest.approx(tuple(v[1] for v in batch), abs=1e-15)
        betas = np.array([[0.2, -0.4j], [1.1, 0.0]])
        for got, ref in zip(engine.values(PhasePoint(0.3, betas)),
                            engine.grid(np.full(4, 0.3), betas.ravel())):
            assert np.abs(got - ref).max() <= 1e-15


class TestMaxAmplitude:
    def test_estimate_at_q_1e4_names_amplitude_and_size(self):
        # one modulus at |q1| = 1e4 needs about 2.0e8 rows of tall columns,
        # 4.8 GB at block 3; the refusal must allocate none of it
        import tracemalloc

        from spincat.skewinfo import _tall_bytes

        r = 1e4 / np.sqrt(2)
        rows = adequate_n_max(4 * r * r, 2) + 1
        assert rows == pytest.approx(2.0e8, rel=1e-2)
        assert _tall_bytes(r, 3) == pytest.approx(8 * 3 * rows, rel=1e-8)
        psi = cat_state(random_params(j=1.0))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^\|alpha\| = 7071\.07 exceeds skewinfo\."
                               r"MAX_AMPLITUDE = 100: its kernel columns would take 4\.8 GB "
                               r"at block 3$"):
                pure_point_values(psi, PhasePoint.from_quadratures(1e4, 0.0, 0.5, 0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_beta_at_the_limit_runs_and_beyond_it_is_refused(self):
        from spincat.skewinfo import MAX_AMPLITUDE

        psi = cat_state(random_params(j=1.0))
        w, skew = pure_point_values(psi, PhasePoint(0.1, MAX_AMPLITUDE * 1j))
        assert abs(w) < 1e-12 and skew == pytest.approx(1.0, abs=1e-7)
        with pytest.raises(ValueError, match=r"^\|beta\| = 100\.001 exceeds"):
            pure_point_values(psi, PhasePoint(0.1, np.array([0.0, MAX_AMPLITUDE + 1e-3])))


class TestShellKernelMean:
    @pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 50.0])
    def test_matches_commutator_oracle(self, j):
        # complex shell amplitudes (random phi) at complex points, all
        # distinct, so each alpha and beta is its own group
        from spincat.skewinfo import _shell_kernel_mean

        params = random_params(j=j)
        points = [random_point() for _ in range(6)]
        alphas = np.array([pt.alpha for pt in points])
        betas = np.array([pt.beta for pt in points])
        w = _shell_kernel_mean(params, alphas, betas)
        w_ref, _ = pure_point_values(cat_state(params), PhasePoint(alphas, betas))
        assert np.abs(w - w_ref).max() <= 1e-13

    @pytest.mark.parametrize("axes, fixed, stacked", [
        ((("q1", -3.0, 3.0, 7),), {"p1": 0.4, "p2": -0.6}, "beta"),
        ((("q2", -3.0, 3.0, 7),), {"p1": 0.4, "p2": -0.6}, "alpha"),
        ((("q1", -2.0, 2.0, 3), ("p2", -1.5, 1.5, 5)), {"q2": 0.7}, "alpha"),
    ], ids=["q1-slice", "q2-slice", "surface"])
    def test_either_mode_stacked(self, axes, fixed, stacked):
        from spincat.grids import stacked_and_looped
        from spincat.skewinfo import _shell_kernel_mean

        params = random_params(j=2.5)
        alphas, betas = GridSpec(axes=axes, fixed=fixed).amplitudes()
        (first, _), _ = stacked_and_looped((alphas, "alpha"), (betas, "beta"))
        assert first is (alphas if stacked == "alpha" else betas)
        w = _shell_kernel_mean(params, alphas, betas)
        w_ref, _ = pure_point_values(cat_state(params), PhasePoint(alphas, betas))
        assert np.abs(w - w_ref).max() <= 1e-13

    def test_boundary_theta_under_kernel_evaluator(self):
        from spincat.sweep import evaluate_grid

        params = CatParams(5.0, np.pi, 0.0, 0.0, 0.0)
        grid = GridSpec(axes=(("q1", -3.0, 3.0, 9),), fixed={"p2": 0.5})
        result = evaluate_grid(params, grid, evaluator="kernel")
        w_ref, _ = pure_point_values(cat_state(params), PhasePoint(*grid.amplitudes()))
        assert np.abs(result.column("W") - w_ref).max() <= 1e-13
        assert result.column("I").min() >= 0.0

    def test_sweep_calls_the_oracle_on_at_most_seven_records(self, monkeypatch):
        import spincat.sweep

        seen = []

        def recording(psi, point):
            seen.append(np.size(point.alpha))
            return pure_point_values(psi, point)

        monkeypatch.setattr(spincat.sweep, "pure_point_values", recording)
        spincat.sweep.run_preset("fig1a")
        assert len(seen) == 1 and seen[0] <= 7
