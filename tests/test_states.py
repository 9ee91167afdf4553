import numpy as np
import pytest

from spincat.fockspace import FockCutoff
from spincat.states import (
    CatParams,
    cat_norm_general,
    cat_norm_half,
    cat_shell_amplitudes,
    cat_state,
    density_from_vector,
    dicke_vector,
    spin_coherent_amplitudes,
    spin_coherent_vector,
)

RNG = np.random.default_rng(77)


def random_params(j=None, interior=False):
    jv = j if j is not None else float(RNG.choice([0.5, 1.0, 1.5, 2.0, 3.0]))
    lo, hi = (0.05, np.pi - 0.05) if interior else (0.0, np.pi)
    return CatParams(jv, RNG.uniform(lo, hi), RNG.uniform(lo, hi),
                     RNG.uniform(0, 2 * np.pi), RNG.uniform(0, 2 * np.pi))


class TestCatParams:
    def test_rejects_non_half_integer_spin(self):
        with pytest.raises(ValueError):
            CatParams(0.3, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CatParams(0.0, 1.0, 1.0, 0.0, 0.0)

    def test_rejects_out_of_range_angles(self):
        with pytest.raises(ValueError):
            CatParams(0.5, -0.1, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CatParams(0.5, 1.0, 1.0, 0.0, 7.0)

    def test_rejects_spin_whose_binomials_overflow(self):
        # float(comb(1030, 515)) overflows; 2j = 1029 is the largest accepted
        with pytest.raises(ValueError, match="at most 1029"):
            CatParams(515, np.pi / 3, np.pi / 2, 0.0, 0.0)

    def test_accepts_two_pi(self):
        CatParams(0.5, np.pi, 0.0, 0.0, 2 * np.pi)


class TestDicke:
    def test_half_spin_down(self):
        cut = FockCutoff(2)
        psi = dicke_vector(0.5, -0.5, cut)
        expected = np.zeros(cut.dim)
        expected[cut.index(0, 1)] = 1.0
        assert np.array_equal(psi.amplitudes, expected)

    def test_spin_one_middle(self):
        cut = FockCutoff(3)
        psi = dicke_vector(1.0, 0.0, cut)
        assert psi.amplitudes[cut.index(1, 1)] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_spin_two_top(self):
        cut = FockCutoff(4)
        psi = dicke_vector(2.0, 2.0, cut)
        assert psi.amplitudes[cut.index(4, 0)] == 1.0

    def test_rejects_bad_projection(self):
        with pytest.raises(ValueError):
            dicke_vector(1.0, 1.5, FockCutoff(4))
        with pytest.raises(ValueError):
            dicke_vector(1.0, 0.25, FockCutoff(4))

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError):
            dicke_vector(2.0, 0.0, FockCutoff(3))


class TestSpinCoherent:
    def test_north_pole_is_lowest_weight(self):
        # theta = 0: only the m = -j component (Fock pair (0, 2j)) survives
        cut = FockCutoff(4)
        psi = spin_coherent_vector(2.0, 0.0, 1.3, cut)
        assert abs(psi.amplitudes[cut.index(0, 4)]) == pytest.approx(1.0, abs=1e-12)

    def test_south_pole_is_highest_weight(self):
        cut = FockCutoff(3)
        psi = spin_coherent_vector(1.5, np.pi, 0.7, cut)
        assert abs(psi.amplitudes[cut.index(3, 0)]) == pytest.approx(1.0, abs=1e-12)

    def test_equator_half_spin(self):
        cut = FockCutoff(1)
        psi = spin_coherent_vector(0.5, np.pi / 2, 0.0, cut)
        assert psi.amplitudes[cut.index(0, 1)] == pytest.approx(2**-0.5, abs=1e-12)
        assert psi.amplitudes[cut.index(1, 0)] == pytest.approx(2**-0.5, abs=1e-12)

    def test_unit_norm_small_and_large_spin(self):
        for j in (0.5, 2.0, 10.0, 25.0):
            amps = spin_coherent_amplitudes(j, RNG.uniform(0, np.pi), RNG.uniform(0, 2 * np.pi))
            assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)

    def test_largest_spin_is_finite_and_normalized(self):
        amps = spin_coherent_amplitudes(514.5, np.pi / 3, 0.0)
        assert np.all(np.isfinite(amps))
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12

    @pytest.mark.parametrize("twoj", [1, 30, 31, 100])
    def test_amplitudes_match_mpmath(self, twoj):
        # one exact-binomial path for every 2j; the reference takes the same
        # rounded cos(theta/2) and sin(theta/2), so only the path's own
        # rounding shows
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for theta in (0.0, np.pi / 3, np.pi / 2, np.pi):
                amps = spin_coherent_amplitudes(twoj / 2, theta, 0.0)
                c, s = mp.mpf(np.cos(theta / 2)), mp.mpf(np.sin(theta / 2))
                assert not amps.imag.any()
                for k in range(twoj + 1):
                    ref = mp.sqrt(mp.binomial(twoj, k)) * c ** (twoj - k) * s**k
                    assert abs(amps[k].real - ref) <= 1e-16, (theta, k)

    def test_shell_support(self):
        for _ in range(10):
            j = float(RNG.choice([0.5, 1.0, 2.5]))
            cut = FockCutoff(int(2 * j) + 3)
            psi = spin_coherent_vector(j, RNG.uniform(0, np.pi), RNG.uniform(0, 2 * np.pi), cut)
            grid = psi.amplitudes.reshape(cut.dim1, cut.dim2)
            n1, n2 = np.indices(grid.shape)
            assert np.abs(grid[(n1 + n2) != int(2 * j)]).max() <= 1e-15

    def test_jz_expectation(self):
        for _ in range(20):
            j = float(RNG.choice([0.5, 1.0, 2.5, 4.0]))
            theta = RNG.uniform(0, np.pi)
            cut = FockCutoff(int(2 * j))
            psi = spin_coherent_vector(j, theta, RNG.uniform(0, 2 * np.pi), cut)
            grid = psi.amplitudes.reshape(cut.dim1, cut.dim2)
            n1, n2 = np.indices(grid.shape)
            jz = np.sum(np.abs(grid) ** 2 * (n1 - n2) / 2)
            assert jz == pytest.approx(-j * np.cos(theta), abs=1e-10)


class TestNormalization:
    def test_identical_branches_give_half(self):
        for j in (0.5, 1.0, 2.5):
            p = CatParams(j, 1.1, 1.1, 0.4, 0.4)
            assert cat_norm_general(p) == pytest.approx(0.5, abs=1e-12)
        p = CatParams(0.5, 1.1, 1.1, 0.4, 0.4)
        assert cat_norm_half(p) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_branches(self):
        p = CatParams(0.5, np.pi, 0.0, 0.0, 2 * np.pi)
        assert cat_norm_half(p) == pytest.approx(2**-0.5, abs=1e-12)

    def test_half_formula_against_vector_norm(self):
        p = CatParams(0.5, np.pi / 3, np.pi / 2, 0.0, 2 * np.pi)
        brute = np.linalg.norm(
            spin_coherent_amplitudes(0.5, p.theta1, p.phi1)
            + spin_coherent_amplitudes(0.5, p.theta2, p.phi2)
        )
        assert cat_norm_half(p) == pytest.approx(1.0 / brute, abs=1e-12)

    def test_general_formula_against_vector_norm(self):
        p = CatParams(2.0, np.pi / 3, np.pi / 2, 0.0, 2 * np.pi)
        brute = np.linalg.norm(
            spin_coherent_amplitudes(2.0, p.theta1, p.phi1)
            + spin_coherent_amplitudes(2.0, p.theta2, p.phi2)
        )
        assert cat_norm_general(p) == pytest.approx(1.0 / brute, abs=1e-12)

    def test_oracle_equivalence_random(self):
        for _ in range(100):
            p = random_params()
            brute = np.linalg.norm(
                spin_coherent_amplitudes(p.j, p.theta1, p.phi1)
                + spin_coherent_amplitudes(p.j, p.theta2, p.phi2)
            )
            if brute < 1e-6:
                continue
            assert cat_norm_general(p) == pytest.approx(1.0 / brute, abs=1e-10)

    def test_general_reduces_to_half(self):
        for _ in range(100):
            p = random_params(j=0.5)
            try:
                half = cat_norm_half(p)
            except ValueError:
                with pytest.raises(ValueError):
                    cat_norm_general(p)
                continue
            assert cat_norm_general(p) == pytest.approx(half, abs=1e-12)

    def test_degenerate_superposition_rejected(self):
        # antipodal-in-phase branches cancel exactly: theta = pi twice with a
        # pi phase offset flips the sign of the only surviving component
        p = CatParams(0.5, np.pi, np.pi, 0.0, np.pi)
        with pytest.raises(ValueError):
            cat_norm_half(p)
        with pytest.raises(ValueError):
            cat_norm_general(p)
        with pytest.raises(ValueError):
            cat_state(p)


class TestCatState:
    def test_orthogonal_branch_cat_is_bell_like(self):
        p = CatParams(0.5, np.pi, 0.0, 0.0, 2 * np.pi)
        cut = FockCutoff(1)
        psi = cat_state(p, cut)
        r = 2**-0.5
        assert psi.amplitudes[cut.index(0, 1)] == pytest.approx(r, abs=1e-12)
        assert abs(psi.amplitudes[cut.index(1, 0)]) == pytest.approx(r, abs=1e-12)

    def test_identical_branches_reproduce_single_state(self):
        p = CatParams(1.5, 0.8, 0.8, 1.0, 1.0)
        psi = cat_state(p)
        single = spin_coherent_vector(1.5, 0.8, 1.0, psi.cutoff)
        assert np.abs(psi.amplitudes - single.amplitudes).max() < 1e-12

    def test_amplitudes_match_hand_summed_expansion(self):
        p = CatParams(1.0, np.pi / 3, np.pi / 2, 0.0, 2 * np.pi)
        amps = cat_shell_amplitudes(p)
        # hand-built Dicke expansion for j = 1
        def branch(theta, phi):
            u, s = np.cos(theta / 2), np.sin(theta / 2)
            return np.array(
                [u**2, np.sqrt(2.0) * u * s * np.exp(-1j * phi), (s * np.exp(-1j * phi)) ** 2]
            )
        raw = branch(p.theta1, p.phi1) + branch(p.theta2, p.phi2)
        expected = raw / np.linalg.norm(raw)
        assert np.abs(amps - expected).max() < 1e-12

    def test_unit_norm(self):
        for _ in range(20):
            p = random_params()
            try:
                psi = cat_state(p)
            except ValueError:
                continue
            assert psi.norm() == pytest.approx(1.0, abs=1e-10)

    def test_phi_two_pi_acts_like_zero(self):
        a = cat_state(CatParams(1.5, 0.9, 1.7, 0.3, 2 * np.pi))
        b = cat_state(CatParams(1.5, 0.9, 1.7, 0.3, 0.0))
        # e^(-i 2 pi k) = 1 up to rounding for integer k
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-14


class TestDensityFromVector:
    def test_vacuum_projector(self):
        cut = FockCutoff(2)
        vac = np.zeros(cut.dim, dtype=complex)
        vac[0] = 1.0
        from spincat.states import StateVector

        rho = density_from_vector(StateVector(cut, vac))
        assert rho.entries[0, 0] == 1.0
        assert np.count_nonzero(rho.entries) == 1

    def test_pure_state_purity(self):
        psi = cat_state(random_params(interior=True))
        rho = density_from_vector(psi)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_projector_fixes_vector(self):
        psi = cat_state(random_params(interior=True))
        rho = density_from_vector(psi)
        image = rho.entries @ psi.amplitudes
        assert np.abs(image - psi.amplitudes).max() < 1e-10

    def test_rejects_unnormalized(self):
        cut = FockCutoff(1)
        from spincat.states import StateVector

        with pytest.raises(ValueError):
            density_from_vector(StateVector(cut, np.ones(cut.dim, dtype=complex)))
