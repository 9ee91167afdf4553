"""Independent high-precision Wigner values for the benchmark's correctness check.

Nothing here imports spincat.  Every quantity is rebuilt from textbook closed
forms in mpmath arithmetic:

* <m|D(g)|n> from the associated-Laguerre form
  sqrt(n!/m!) g^(m-n) e^(-|g|^2/2) L_n^(m-n)(|g|^2) for m >= n, and the
  adjoint relation for m < n;
* the displaced parity kernel <p|Delta(a)|q> = <p|D(2a)|q> (-1)^q;
* the Gaussian-smoothed kernel of the mode-1 noise channel from the
  s-ordered identity (Cahill & Glauber, Phys. Rev. 177, 1882, 1969)

      integral Delta(a - z) dmu_s(z) = D(a) diag((k/2)(1-k)^n) D(a)+,
      k = 2 / (2s + 1),

  summed until the neglected tail, bounded by (1-k)^N / 2 since every
  |<p|D|n>| <= 1, is below 1e-20;
* cat amplitudes from the binomial expansion of the two spin coherent
  branches, normalized by their computed norm.

W is the kernel mean Tr[rho Delta] with rho the cat state, channel applied to
mode 1 when ``s`` is given; the Dicke component with k photons in mode 1 has
2j - k photons in mode 2.
"""

from __future__ import annotations

import mpmath as mp

DPS = 50
TAIL = mp.mpf("1e-20")


def laguerre(n: int, a: int, x) -> mp.mpf:
    """L_n^(a)(x) = sum_i (-1)^i C(n+a, n-i) x^i / i!, summed with enough
    guard digits to absorb the cancellation between its terms (each term is
    below e^x in size)."""
    with mp.extradps(int(x / 2.3) + 10):
        return +mp.fsum((-1) ** i * mp.binomial(n + a, n - i) * x**i / mp.factorial(i)
                        for i in range(n + 1))


def displacement_element(m: int, n: int, g) -> mp.mpc:
    """<m|D(g)|n> in closed form."""
    x = abs(g) ** 2
    if m >= n:
        pref = mp.sqrt(mp.factorial(n) / mp.factorial(m)) * g ** (m - n)
        return pref * mp.exp(-x / 2) * laguerre(n, m - n, x)
    pref = mp.sqrt(mp.factorial(m) / mp.factorial(n)) * (-mp.conj(g)) ** (n - m)
    return pref * mp.exp(-x / 2) * laguerre(m, n - m, x)


def kernel_matrix(size: int, a, s=None) -> list[list[mp.mpc]]:
    """<p|K|q> for p, q < size: the parity kernel Delta(a), or its average over
    the noise measure of strength s."""
    if s is None:
        g = 2 * a
        return [[displacement_element(p, q, g) * (-1) ** q for q in range(size)]
                for p in range(size)]
    k = 2 / (2 * mp.mpf(s) + 1)
    r = 1 - k
    n_terms = int(mp.ceil(mp.log(2 * TAIL) / mp.log(r))) + 1
    rows = [[displacement_element(p, n, a) for n in range(n_terms)] for p in range(size)]
    weights = [k / 2 * r**n for n in range(n_terms)]
    return [[mp.fsum(w * u * mp.conj(v) for w, u, v in zip(weights, rows[p], rows[q]))
             for q in range(size)] for p in range(size)]


def cat_amplitudes(twoj: int, theta1, theta2, phi1, phi2) -> list[mp.mpc]:
    """Normalized amplitudes of the two-branch spin cat, indexed by the
    mode-1 photon number k = j + m."""

    def branch(theta, phi):
        c, sn = mp.cos(theta / 2), mp.sin(theta / 2)
        return [mp.sqrt(mp.binomial(twoj, k)) * c ** (twoj - k)
                * (mp.expj(-phi) * sn) ** k for k in range(twoj + 1)]

    amps = [u + v for u, v in zip(branch(theta1, phi1), branch(theta2, phi2))]
    norm = mp.sqrt(mp.fsum(abs(u) ** 2 for u in amps))
    return [u / norm for u in amps]


def wigner(twoj: int, angles, point, s=None) -> float:
    """Kernel-mean W of the cat with spin twoj/2 and branch angles
    (theta1, theta2, phi1, phi2) at quadratures point = (q1, p1, q2, p2)."""
    with mp.workdps(DPS):
        theta1, theta2, phi1, phi2 = (mp.mpf(v) for v in angles)
        q1, p1, q2, p2 = (mp.mpf(v) for v in point)
        root2 = mp.sqrt(2)
        alpha = mp.mpc(q1, p1) / root2
        beta = mp.mpc(q2, p2) / root2
        c = cat_amplitudes(twoj, theta1, theta2, phi1, phi2)
        k1 = kernel_matrix(twoj + 1, alpha, s)
        k2 = kernel_matrix(twoj + 1, beta)
        total = mp.fsum(mp.conj(c[n]) * c[m] * k1[n][m] * k2[twoj - n][twoj - m]
                        for n in range(twoj + 1) for m in range(twoj + 1))
        return float(mp.re(total))
