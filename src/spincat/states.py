"""Spin coherent states, Dicke states and spin-j cat states as two-mode vectors.

The Dicke state |j, m> is realized as the two-mode Fock product
|j+m> (x) |j-m| (Schwinger construction), so every spin-j state lives on the
shell n1 + n2 = 2j.  A spin coherent state has Dicke amplitudes

    a_m = binom(2j, j+m)^(1/2) cos(theta/2)^(j-m) (e^(-i phi) sin(theta/2))^(j+m)

and a cat state is the normalized sum of two such branches.  Amplitudes carry
the e^(-i phi (j+m)) branch phase verbatim; no global-phase cleanup is applied
(density matrices and kernel means are insensitive to it).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .fockspace import DensityMatrix, FockCutoff

__all__ = [
    "CatParams",
    "StateVector",
    "dicke_vector",
    "spin_coherent_vector",
    "spin_coherent_amplitudes",
    "cat_shell_amplitudes",
    "cat_norm_half",
    "cat_norm_general",
    "cat_state",
    "density_from_vector",
]

DEGENERACY_TOL = 1e-12
# float(comb(2j, j)) overflows from 2j = 1030 on
MAX_TWOJ = 1029


def _check_half_integer(j: float) -> int:
    twoj = int(round(2 * j))
    if twoj <= 0 or abs(2 * j - twoj) > 1e-9:
        raise ValueError(f"j must be a positive half-integer, got {j}")
    if twoj > MAX_TWOJ:
        raise ValueError(f"2j must be at most {MAX_TWOJ}, where binom(2j, j) still fits "
                         f"a float; got j = {j}")
    return twoj


@dataclass(frozen=True)
class CatParams:
    """The five physical parameters of a spin-j cat state.

    j is a positive half-integer; theta angles lie in [0, pi], phi angles in
    [0, 2 pi] (phi = 2 pi is accepted as distinct input although it acts like
    phi = 0).
    """

    j: float
    theta1: float
    theta2: float
    phi1: float
    phi2: float

    def __post_init__(self):
        _check_half_integer(self.j)
        for name in ("theta1", "theta2"):
            v = getattr(self, name)
            if not (0.0 <= v <= np.pi + 1e-12):
                raise ValueError(f"{name} must lie in [0, pi], got {v}")
        for name in ("phi1", "phi2"):
            v = getattr(self, name)
            if not (0.0 <= v <= 2 * np.pi + 1e-12):
                raise ValueError(f"{name} must lie in [0, 2 pi], got {v}")

    @property
    def twoj(self) -> int:
        return int(round(2 * self.j))

    def swapped(self) -> "CatParams":
        """The same cat with the two branches interchanged."""
        return CatParams(self.j, self.theta2, self.theta1, self.phi2, self.phi1)


@dataclass(frozen=True)
class StateVector:
    """Two-mode state vector, flat-indexed like TwoModeOperator rows."""

    cutoff: FockCutoff
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (self.cutoff.dim,):
            raise ValueError(
                f"amplitude length {self.amplitudes.shape} does not match "
                f"cutoff dim {self.cutoff.dim}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def spin_coherent_amplitudes(j: float, theta: float, phi: float) -> np.ndarray:
    """Dicke amplitudes of |theta, phi, j>, indexed by k = j + m = 0..2j.

    The expansion is normalized by construction (binomial theorem).  Each
    magnitude is sqrt(binom(2j, k)) cos(theta/2)^(2j-k) sin(theta/2)^k, with
    the binomial taken as an exact integer before its one rounding to float.
    """
    twoj = _check_half_integer(j)
    k = np.arange(twoj + 1)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    mag = np.sqrt([float(comb(twoj, v)) for v in range(twoj + 1)]) * c ** (twoj - k) * s**k
    return mag * np.exp(-1j * phi * k)


def _shell_vector(amps: np.ndarray, j: float, cutoff: FockCutoff) -> StateVector:
    twoj = _check_half_integer(j)
    if not cutoff.supports_spin(j):
        raise ValueError(f"cutoff {cutoff} cannot hold spin j={j} (needs n_max >= {twoj})")
    full = np.zeros(cutoff.dim, dtype=complex)
    for k, a in enumerate(amps):
        full[cutoff.index(k, twoj - k)] = a
    return StateVector(cutoff, full)


def dicke_vector(j: float, m: float, cutoff: FockCutoff) -> StateVector:
    """|j, m> = |j+m> (x) |j-m> as a basis vector."""
    twoj = _check_half_integer(j)
    k = int(round(j + m))
    if abs((j + m) - k) > 1e-9 or not (0 <= k <= twoj):
        raise ValueError(f"m={m} is not in {{-j, ..., j}} for j={j}")
    amps = np.zeros(twoj + 1, dtype=complex)
    amps[k] = 1.0
    return _shell_vector(amps, j, cutoff)


def spin_coherent_vector(j: float, theta: float, phi: float, cutoff: FockCutoff) -> StateVector:
    """Spin coherent state |theta, phi, j> as a two-mode Fock vector."""
    return _shell_vector(spin_coherent_amplitudes(j, theta, phi), j, cutoff)


def _branch_overlap(params: CatParams) -> complex:
    """<theta1, phi1, j | theta2, phi2, j> in closed form."""
    z = (
        np.cos(params.theta1 / 2) * np.cos(params.theta2 / 2)
        + np.exp(-1j * (params.phi2 - params.phi1))
        * np.sin(params.theta1 / 2)
        * np.sin(params.theta2 / 2)
    )
    return z**params.twoj


def cat_norm_general(params: CatParams) -> float:
    """Normalization N_t with 1/N_t^2 = 2 + z^(2j) + conj(z)^(2j), where z is
    the single-spin branch overlap.  Equals the reciprocal norm of the
    unnormalized branch sum."""
    nsq = 2.0 + 2.0 * np.real(_branch_overlap(params))
    if nsq < DEGENERACY_TOL**2 or np.sqrt(max(nsq, 0.0)) < DEGENERACY_TOL:
        raise ValueError(
            "degenerate superposition: the two branches cancel and the cat "
            "state is undefined"
        )
    return float(nsq**-0.5)


def cat_norm_half(params: CatParams) -> float:
    """Spin-1/2 normalization
    N = (2 + 2 cos(t1/2) cos(t2/2) + 2 cos(p1 - p2) sin(t1/2) sin(t2/2))^(-1/2)."""
    if params.twoj != 1:
        raise ValueError(f"cat_norm_half requires j = 1/2, got j = {params.j}")
    nsq = (
        2.0
        + 2.0 * np.cos(params.theta1 / 2) * np.cos(params.theta2 / 2)
        + 2.0
        * np.cos(params.phi1 - params.phi2)
        * np.sin(params.theta1 / 2)
        * np.sin(params.theta2 / 2)
    )
    if nsq < DEGENERACY_TOL**2 or np.sqrt(max(nsq, 0.0)) < DEGENERACY_TOL:
        raise ValueError(
            "degenerate superposition: the two branches cancel and the cat "
            "state is undefined"
        )
    return float(nsq**-0.5)


def cat_shell_amplitudes(params: CatParams) -> np.ndarray:
    """Normalized cat amplitudes on the n1 + n2 = 2j shell, indexed by j + m."""
    branch_sum = spin_coherent_amplitudes(
        params.j, params.theta1, params.phi1
    ) + spin_coherent_amplitudes(params.j, params.theta2, params.phi2)
    return cat_norm_general(params) * branch_sum


def cat_state(params: CatParams, cutoff: FockCutoff | None = None) -> StateVector:
    """Normalized cat state N_t (|t1, p1, j> + |t2, p2, j>) as a StateVector.

    Defaults to the tight cutoff (2j, 2j): the state is exactly supported on
    the 2j shell, so nothing is lost, and downstream kernel contractions only
    ever read that block.
    """
    if cutoff is None:
        cutoff = FockCutoff(params.twoj)
    return _shell_vector(cat_shell_amplitudes(params), params.j, cutoff)


def density_from_vector(psi: StateVector) -> DensityMatrix:
    """Rank-1 projector |psi><psi| (input must be unit norm)."""
    n = psi.norm()
    if abs(n - 1.0) > 1e-10:
        raise ValueError(f"vector norm {n} deviates from 1")
    return DensityMatrix(psi.cutoff, np.outer(psi.amplitudes, psi.amplitudes.conj()))
