"""Reference implementations that the tests compare the library against.

Not a test module: pytest collects ``test_*.py`` only.  It puts this
directory, which has no ``__init__.py``, on ``sys.path``, so the test
modules import this one as ``references``.
"""

import numpy as np

from dnlsring.model import J2, _gradient_sites
from dnlsring.orbits import _apply_iJJ, _default_samples, residual


def block_symplectic(n):
    """Block-diagonal symplectic matrix diag(J2, ..., J2) of size 2n x 2n."""
    return np.kron(np.eye(n), J2)


def modes_to_samples(coeffs, num):
    """The real signal with modes l = -p..p (rows of ``coeffs``) at ``num``
    equispaced times: the modes spread to their indices l mod num, then a
    complex inverse FFT."""
    p = (coeffs.shape[0] - 1) // 2
    if num < 2 * p + 1:
        raise ValueError("need at least 2p+1 samples")
    spread = np.zeros((num, coeffs.shape[1]), dtype=complex)
    spread[np.arange(-p, p + 1) % num] = coeffs
    return (num * np.fft.ifft(spread, axis=0)).real


def samples_to_modes(samples, p):
    """Modes l = -p..p of equispaced samples: a complex FFT, gathered at the
    indices l mod num."""
    num = samples.shape[0]
    return (np.fft.fft(samples, axis=0) / num)[np.arange(-p, p + 1) % num]


def sampled_residual(ring, orbit, num_samples=None):
    """The collocation residual F_l = -l nu (i JJ) x_l + g_l over all modes
    l = -p..p: the orbit sampled by the complex pair above from its 2p + 1
    modes, the gradient at every sample with its neighbours by ``np.roll``,
    and g_l its modes l = -p..p."""
    p, n = orbit.p, orbit.n
    num = num_samples or _default_samples(p)
    ls = np.arange(-p, p + 1)
    X = modes_to_samples(orbit.coeffs, num).reshape(num, n, 2)
    g = samples_to_modes(_gradient_sites(ring, X).reshape(num, 2 * n), p)
    return -orbit.nu * ls[:, None] * _apply_iJJ(orbit.coeffs) + g


def orthogonality_check(ring, orbit):
    """Time integrals of <F(x), dx/dt> and <F(x), -JJ x> over one period, F
    the library's :func:`dnlsring.orbits.residual`.

    Both vanish for every 2*pi-periodic trial orbit, solution or not: the
    first because grad_V is a gradient, the second because V is rotation
    invariant.  Sampling is oversized so the quadrature error stays below
    the 1e-10 check level even for non-polynomial potentials.
    """
    num = max(8 * orbit.p + 1, 257)
    F = residual(ring, orbit, num)
    ls = np.arange(-orbit.p, orbit.p + 1)[:, None]
    xdot = 1j * ls * orbit.coeffs
    rot = -_apply_iJJ(orbit.coeffs) / 1j  # -JJ x per mode
    c1 = 2.0 * np.pi * np.sum(F * xdot.conj()).real
    c2 = 2.0 * np.pi * np.sum(F * rot.conj()).real
    return float(c1), float(c2)
