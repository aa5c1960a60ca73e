"""Reference implementations that the tests compare the library against.

Not a test module: pytest collects ``test_*.py`` only.  It puts this
directory, which has no ``__init__.py``, on ``sys.path``, so the test
modules import this one as ``references``.
"""

import math

import numpy as np

from dnlsring import blocks, symmetry
from dnlsring.classify import RegimeEntry, RegimeReport, _degenerate_table, stability_interval
from dnlsring.model import (_EYE2, J2, _as_state, _gradient_sites, _onsite_hessian,
                            cubic_potential, saturable_potential, standing_wave)
from dnlsring.orbits import (_AMPLITUDE_MAX, _NEWTON_TOL, _P_MAX, _RCOND_MIN, _TAIL_TOL,
                             BranchPoint, ContinuationBranch, FourierOrbit, NoConvergence,
                             SingularJacobian, _apply_iJJ, _default_samples, _FourierSpace,
                             _to_modes, orbit_residual_norm, residual)


def potential_V(ring, x):
    """Invariant potential whose gradient is the right-hand side of the flow,
    V(x) = sum_j [ H(x_j) - |x_{j+1} - x_j|^2 / 2 ] with
    H(u) = (omega/2)|u|^2 + G(mu^2 |u|^2) / (2 mu^2), indices mod n; it reads
    the antiderivative ``ring.potential.G``."""
    X = _as_state(ring, x).reshape(-1, 2)
    mu2 = ring.mu ** 2
    r2 = (X ** 2).sum(axis=-1)
    onsite = 0.5 * ring.omega * r2 + ring.potential.G(mu2 * r2) / (2.0 * mu2)
    diff = np.roll(X, -1, axis=0) - X
    return float(onsite.sum() - 0.5 * (diff ** 2).sum())


def group_action(n, shift, theta, phi, x):
    """Apply (cyclic shift, rotation by -theta, time translation by phi).

    The rank of ``x`` decides its form: a state of shape (2n,), or a Fourier
    coefficient array of shape (2p+1, 2n) for modes -p..p; any other rank
    raises ValueError.  The time translation acts on the coefficients only;
    a state has no time.
    """
    x = np.asarray(x)
    if x.ndim == 2:
        p = (x.shape[0] - 1) // 2
        x = x * np.exp(1j * np.arange(-p, p + 1) * phi)[:, None]
    elif x.ndim != 1:
        raise ValueError(f"x must be a state (2n,) or Fourier coefficients "
                         f"(2p+1, 2n), got shape {x.shape}")
    # (rho(gamma) x)_j = x_{j+shift}, each site rotated by -theta
    c, s = np.cos(theta), np.sin(theta)
    sites = np.roll(x.reshape(*x.shape[:-1], n, 2), -int(shift), axis=-2)
    return (sites @ np.array([[c, -s], [s, c]])).reshape(x.shape)   # R(-theta) per site


def dense_P(n):
    """The dense unitary change of variables P of the n-ring, whose column
    block k is ``t_k_matrix(n, k)``."""
    return np.hstack([symmetry.t_k_matrix(n, k) for k in range(1, n + 1)])


def constant_orbit(state, nu, p):
    """The constant-in-time orbit at ``state``, with modes -p..p."""
    state = np.asarray(state, dtype=float)
    coeffs = np.zeros((2 * p + 1, state.size), dtype=complex)
    coeffs[p] = state
    return FourierOrbit(nu=nu, coeffs=coeffs)


def collocation_mode1_blocks(ring, nus):
    """The mode-1 diagonal block of the Newton Jacobian at the rotating wave,
    at each frequency of ``nus``: the band of ``_FourierSpace(ring, 1)``
    that ``newton_orbit`` factors, expanded by ``bordered_jacobian``, at
    V_0 = a, V_1 = 0, with no border and no unfolding columns, rows and
    columns Re V_1, Im V_1 (mode-major indices 2n:6n, through
    ``mode_major``).  The Hessian is constant along that orbit, so the
    block is [[L_r, -L_i], [L_i, L_r]], the real form of the Hermitian
    L(nu) = D2V(a) - nu iJJ: symmetric, each eigenvalue of L twice.  A
    constant orbit needs no more than the 4p + 1 = 5 samples that keep the
    Hessian modes -2..2 apart, and the space takes just those."""
    n = ring.n
    space = _FourierSpace(ring, 1)
    space.num = 5
    V = np.zeros((2, 2 * n), dtype=complex)
    V[0] = standing_wave(ring)[0]
    border = np.zeros((0, space.dim))
    at = np.argsort(mode_major(space))[2 * n:6 * n]
    return np.array([bordered_jacobian(space, V, nu, border, [])[np.ix_(at, at)]
                     for nu in nus])


def mode_major(space):
    """The mode-major index of each packed coordinate of ``space``: its
    place among all real parts in the order [Re V_0, Re V_1, Im V_1, ...,
    Re V_p, Im V_p], each part over all w components, the layout of a
    Jacobian built one mode block at a time.  It is ``space.pack`` of those
    indices written as labels into V, so it follows the packed order
    whatever that is; in the Z~_n(k) space it is the ``fixed`` indices."""
    p, w = space.p, space.width
    labels = np.zeros((p + 1, w), dtype=complex)
    labels.real = w * np.maximum(2 * np.arange(p + 1) - 1, 0)[:, None] + np.arange(w)
    labels.imag[1:] = 2 * w * np.arange(1, p + 1)[:, None] + np.arange(w)
    return space.pack(labels).astype(np.intp)


def dense_jacobian(space, V, nu, border, unfold):
    """The packed Jacobian of ``space.residual`` as one dense matrix, with
    ``border`` rows below and the packed residual vectors ``unfold`` as
    leading columns, [unfold | coordinates | nu], in Fortran order: the
    assembly that the full space used before it wrote a band, for either
    space.  Mode block (l, l') is S_(l-l') on the site diagonal, S_m the
    modes of the on-site Hessian blocks; the conjugate partner adds
    S_(l+l'), the diagonal mode block K_l - l nu iJJ, and the nu column is
    -l iJJ V_l.  The blocks are written through one site-diagonal fancy
    index into a (parts, site, 2, parts, site, 2) view of all real parts,
    mode-major, where in the full space one more indexed add puts the ring
    adjacency on the diagonal mode blocks; ``mode_major`` takes the packed
    rows and columns from it."""
    p, w = space.p, space.width
    parts, sites = 2 * p + 1, w // 2
    S = _to_modes(_onsite_hessian(space.ring, space._samples(V)), 2 * p)
    S = np.concatenate([S[:0:-1].conj(), S]) + 0.0
    ls = np.arange(p + 1)
    plus, minus = S[2 * p + ls[:, None] - ls], S[2 * p + ls[:, None] + ls[1:]]
    plus[ls, ls] += space._onsite_coupling - (ls * nu)[:, None, None, None] * blocks.IJ
    C = np.empty((p + 1, parts, sites, 2, 2), dtype=complex)  # row mode, column part
    C[:, 0] = plus[:, 0]
    C[:, 1::2] = plus[:, 1:] + minus
    C[:, 2::2] = 1j * (plus[:, 1:] - minus)
    rows, m = space.dim - 1, len(unfold)
    A = np.zeros((rows + len(border), m + space.dim), order="F")
    A[rows:, m:] = border
    for j, t in enumerate(unfold):
        A[:rows, j] = t
    A[:rows, -1] = space.pack(-ls[:, None] * _apply_iJJ(V))
    J = np.zeros((w * parts, w * parts))
    J6 = J.reshape(parts, sites, 2, parts, sites, 2)
    site = np.arange(sites)
    C = C.transpose(2, 0, 3, 1, 4)    # site, row mode, a, column part, b
    J6[0, site, :, :, site, :] = C[:, 0].real
    J6[1::2, site, :, :, site, :] = C[:, 1:].real
    J6[2::2, site, :, :, site, :] = C[:, 1:].imag
    if space.k is None:   # the identity between site j and its neighbours j +- 1
        diag = np.arange(parts)[:, None]
        J6[diag, np.tile(site, 2), :, diag,
           np.concatenate([np.roll(site, -1), np.roll(site, 1)]), :] += _EYE2
    at = mode_major(space)
    A[:rows, m:-1] = J[np.ix_(at, at)]
    return A


def band_to_dense(space, ab):
    """The full space's band storage ``ab`` (``space.band``) as the dense
    core: entry (i, j) is ab[2 kl + i - j, j] within kl of the diagonal and
    zero beyond, and the band order is the packed order."""
    kl, size = space.band_layout.kl, ab.shape[1]
    r, j = np.indices(ab[kl:].shape)   # row kl + r of ab holds entry (j + r - kl, j)
    i = j + r - kl
    inside = (i >= 0) & (i < size)
    J = np.zeros((size, size))
    J[i[inside], j[inside]] = ab[kl:][inside]
    return J


def bordered_jacobian(space, V, nu, border, unfold):
    """The bordered Jacobian that ``space.factor`` factors, as one dense
    matrix in the layout of ``dense_jacobian``, with the packed vectors
    ``unfold`` as leading columns: the isotropy space's own ``jacobian``,
    which has no unfolding columns, after them, or the full space's band
    expanded, with the border and the nu column around it."""
    at = space.evaluate(V, nu)
    rows, m = space.dim - 1, len(unfold)
    A = np.zeros((rows + len(border), m + space.dim), order="F")
    A[:rows, :m] = np.reshape(unfold, (m, rows)).T
    if space.k is not None:
        A[:, m:] = space.jacobian(at, border)
        return A
    A[rows:, m:] = border
    A[:rows, m:-1] = band_to_dense(space, space.band(space._site_blocks(at)))
    A[:rows, -1] = space._nu_column(at)
    return A


def dense_rcond(A):
    """``dgecon``'s estimate of the 1-norm reciprocal condition number of the
    square matrix A from its ``dgetrf`` LU, with the ``dlange`` norm."""
    from scipy.linalg import lapack
    return lapack.dgecon(lapack.dgetrf(A)[0], lapack.dlange("1", A), norm="1")[0]


def dense_newton(space, z, constraints, ctol, max_iter, *, free_nu=True, guard=False):
    """The Newton loop of ``orbits._newton`` on the ``dense_jacobian``: each
    iteration factors the whole bordered system by ``dgetrf`` and estimates
    its condition by ``dlange`` and ``dgecon``.  Returns the solution and
    the iteration count."""
    from scipy.linalg import lapack
    cols = slice(None) if free_nu else slice(-1)
    for iteration in range(max_iter + 1):
        V, nu = space.unpack(z)
        res = space.residual(space.evaluate(V, nu))
        rows, values = constraints(z)
        if not (np.isfinite(res).all() and np.isfinite(values).all()):
            raise NoConvergence(f"non-finite residual at Newton iteration {iteration}")
        done = np.linalg.norm(res) <= _NEWTON_TOL and np.all(np.abs(values) <= ctol)
        if done and not guard:
            return z, iteration
        tangents = [t for t in space.tangents(V) if space.pack(t).any()]
        rows = np.vstack([space.row(t) for t in tangents] + [rows])
        values = np.concatenate([np.zeros(len(tangents)), values])
        size = np.linalg.norm(rows, axis=1)
        size[size == 0] = 1.0
        rows, values = rows / size[:, None], values / size
        unfold = [t / np.linalg.norm(t) for t in map(space.pack, tangents)]
        A = dense_jacobian(space, V, nu, rows, unfold)[:, cols]
        anorm = lapack.dlange("1", A)
        if not np.isfinite(anorm):
            raise NoConvergence(f"non-finite Jacobian at Newton iteration {iteration}")
        lu, piv, _ = lapack.dgetrf(A, overwrite_a=True)
        rcond = lapack.dgecon(lu, anorm, norm="1")[0]
        if guard and rcond < _RCOND_MIN:
            raise SingularJacobian(f"condition estimate rcond {rcond:.2e}")
        if done:
            return z, iteration
        step = lapack.dgetrs(lu, piv, -np.concatenate([res, values]))[0]
        z = z.copy()
        z[cols] += step[len(unfold):]
    raise NoConvergence(f"no convergence after {max_iter} Newton iterations")


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


def traveling_wave_loop(orbit, k, num_samples=256):
    """Max mismatch of the iterated pattern u_{j+m}(t) = e^{i m zeta}
    u_j(t + m k zeta) over every j and shift m = 1..n-1 and ``num_samples``
    uniform times: one pass over the shifts, each a product with the time
    base.  The reference of ``traveling_wave_residual``, which bounds it."""
    coeffs = np.asarray(orbit.coeffs, dtype=complex)
    n, p = coeffs.shape[1] // 2, (coeffs.shape[0] - 1) // 2
    zeta = 2.0 * np.pi / n
    t = 2.0 * np.pi * np.arange(num_samples) / num_samples
    ls = np.arange(-p, p + 1)
    c_modes = coeffs[:, 0::2] + 1j * coeffs[:, 1::2]
    base = np.exp(1j * np.outer(t, ls))
    signals = base @ c_modes
    worst = 0.0
    for m in range(1, n):
        shift = base * np.exp(1j * ls * (m * k * zeta))
        predicted = np.exp(1j * m * zeta) * (shift @ c_modes)
        actual = np.roll(signals, -m, axis=1)
        worst = max(worst, float(np.max(np.abs(actual - predicted))))
    return worst


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
    the library's full-space residual (``_FourierSpace.modes``, which
    :func:`dnlsring.orbits.residual` shows over l = -p..p).

    Both vanish for every 2*pi-periodic trial orbit, solution or not: the
    first because grad_V is a gradient, the second because V is rotation
    invariant.  Sampling is oversized so the quadrature error stays below
    the 1e-10 check level even for non-polynomial potentials.
    """
    space = _FourierSpace(ring, orbit.p)
    space.num = max(8 * orbit.p + 1, 257)
    F = space.modes(space.evaluate(orbit.coeffs[orbit.p:], orbit.nu))
    F = np.concatenate([F[:0:-1].conj(), F])
    ls = np.arange(-orbit.p, orbit.p + 1)[:, None]
    xdot = 1j * ls * orbit.coeffs
    rot = -_apply_iJJ(orbit.coeffs) / 1j  # -JJ x per mode
    c1 = 2.0 * np.pi * np.sum(F * xdot.conj()).real
    c2 = 2.0 * np.pi * np.sum(F * rot.conj()).real
    return float(c1), float(c2)


class WholeIsotropySpace(_FourierSpace):
    """The Z~_n(k) space of ``_FourierSpace(ring, p, k)`` with every real
    part of oscillator n's modes, 4p + 3 unknowns with nu, as in the
    continuation before it kept Fix(K): both group tangents are live here."""

    def __init__(self, ring, p, k):
        super().__init__(ring, p, k)
        self.fixed, self.dim = slice(None), 4 * p + 3


def gauged_newton(space, z, constraints, ctol, max_iter):
    """The corrector's Newton loop before Fix(K): ``constraints(z)`` gives
    the gauge rows of the time-shift and rotation tangents, then the
    arclength row.  A tangent that is zero drops with its gauge row, and one
    unit unfolding column per other tangent makes the system square."""
    from scipy.linalg import lapack
    for iteration in range(max_iter + 1):
        V, nu = space.unpack(z)
        res = space.residual(space.evaluate(V, nu))
        rows, values = constraints(z)
        if not (np.isfinite(res).all() and np.isfinite(values).all()):
            raise NoConvergence(f"non-finite residual at Newton iteration {iteration}")
        if np.linalg.norm(res) <= _NEWTON_TOL and np.abs(values).max() <= ctol:
            return z
        tangents = [space.pack(t) for t in space.tangents(V)]
        live = [i for i, t in enumerate(tangents) if t.any()]
        keep = live + list(range(len(tangents), len(rows)))
        size = np.linalg.norm(rows[keep], axis=1)
        size[size == 0] = 1.0
        rows, values = rows[keep] / size[:, None], values[keep] / size
        unfold = [tangents[i] / np.linalg.norm(tangents[i]) for i in live]
        lu, piv, _ = lapack.dgetrf(dense_jacobian(space, V, nu, rows, unfold))
        step = lapack.dgetrs(lu, piv, -np.concatenate([res, values]))[0]
        z = z + step[len(unfold):]
    raise NoConvergence(f"no convergence after {max_iter} Newton iterations")


def gauged_continue_branch(ring, bif, steps, ds, p=8, p_max=_P_MAX):
    """The continuation before Fix(K), on the ``WholeIsotropySpace``: the
    first predictor along the kernel vector of m_k(nu) as ``eigh`` returns
    it, and each corrector bordered by the gauge rows and the arclength row,
    the gauge rows taken at the previous point, or at the iterate until a
    point is accepted (the trivial point has no time-shift tangent).  Its
    steps, tail control, certificate and ends are those of
    ``continue_branch``, with shorter reasons."""
    space = WholeIsotropySpace(ring, p, bif.k)
    V0 = np.zeros((p + 1, 2), dtype=complex)
    V0[0, 0] = np.sqrt(ring.n)
    z_prev = space.pack(V0, bif.nu)
    dV = np.zeros_like(V0)
    dV[1] = blocks.kernel_vector(ring, bif.k, bif.nu)
    tangent = space.pack(dV, 0.0)
    tangent /= np.linalg.norm(tangent)
    points, ds_target, halvings = [], ds, 0
    while len(points) < steps:
        target = np.array([0.0, 0.0, ds])

        def border_at(z):
            rows = [space.row(t) for t in space.tangents(space.unpack(z)[0])]
            return np.vstack(rows + [tangent])
        anchored = border_at(z_prev) if points else None

        def arclength(z):
            border = border_at(z) if anchored is None else anchored
            return border, border @ (z - z_prev) - target
        failed = "step-failure" if points else "solver-error"
        try:
            z_new = gauged_newton(space, z_prev + ds * tangent, arclength, 10 * _NEWTON_TOL, 24)
        except NoConvergence as exc:
            halvings += 1
            if halvings > 5:
                return ContinuationBranch(points, failed, str(exc))
            ds *= 0.5
            continue
        halvings = 0
        V, nu = space.unpack(z_new)
        coeffs = space.expand(V)
        if np.abs(coeffs[[0, -1]]).max() > _TAIL_TOL:
            if 2 * space.p > p_max:
                return ContinuationBranch(points, failed, "Fourier tail")
            space, (z_prev, tangent) = space.grown(z_prev, tangent)
            continue
        orbit = FourierOrbit(nu=nu, coeffs=coeffs)
        orbit.residual_norm = orbit_residual_norm(residual(ring, orbit))
        if not orbit.residual_norm <= 10 * _NEWTON_TOL:
            return ContinuationBranch(points, "solver-error", "full-space residual")
        amplitude = space.amplitude(V)
        points.append(BranchPoint(orbit=orbit, amplitude=amplitude, nu=nu))
        if nu <= 0:
            return ContinuationBranch(points, "frequency-zero", "nu <= 0")
        if amplitude > _AMPLITUDE_MAX:
            return ContinuationBranch(points, "amplitude-bound")
        secant = z_new - z_prev
        if np.linalg.norm(secant) > 0:
            tangent = secant / np.linalg.norm(secant)
        z_prev = z_new
        ds = min(ds * 1.3, ds_target)
    return ContinuationBranch(points, "steps")


N4_NOTE = "every block has a degenerate double root; no Morse-index jump for n = 4"


def schrodinger_regimes(n):
    """The cubic regime table written out by hand, per range of n, each mode
    from its own coefficients: (0, sqrt(delta_k)) is condition (a) when
    delta_k > 0, then (max(0, sqrt(delta_k)), sqrt(alpha_k/2)) is (b) when
    not empty; n = 3 is (a) everywhere with no mirror noted."""
    potential = cubic_potential()
    stability = stability_interval(n, potential)
    if n == 3:
        entries = tuple(RegimeEntry(k=k, condition="a", mu_interval=(0.0, math.inf),
                                    two_sided=False) for k in (1, 2))
        return RegimeReport(n=3, potential_kind="cubic", entries=entries, excluded=(),
                            stability=stability)
    if n == 4:
        return RegimeReport(n=4, potential_kind="cubic", entries=(), excluded=(),
                            stability=stability, notes=(N4_NOTE,))
    entries = []
    for k in range(1, n):
        c = blocks.coefficients(n, k)
        mirror = n - k if k > n // 2 else None
        lo = 0.0
        if c.delta > 0.0:
            lo = math.sqrt(c.delta)
            entries.append(RegimeEntry(k=k, condition="a", mu_interval=(0.0, lo),
                                       two_sided=False, mirror_of=mirror))
        hi = math.sqrt(c.alpha / 2.0)
        if hi > lo:
            entries.append(RegimeEntry(k=k, condition="b", mu_interval=(lo, hi),
                                       two_sided=c.gamma > 0.0, mirror_of=mirror))
    return RegimeReport(n=n, potential_kind="cubic", entries=tuple(entries),
                        excluded=_degenerate_table(n, potential), stability=stability)


def saturable_regimes(n):
    """The saturable regime table written out by hand: modes 2..n-2 are (a)
    everywhere; mode 1 and its mirror are (b) outside (mu_-, mu_+), the
    degenerate amplitudes of mode 1, and (a) inside, or (b) everywhere when
    delta_1 <= -1/4."""
    potential = saturable_potential()
    stability = stability_interval(n, potential)
    if n == 3:
        entries = (
            RegimeEntry(k=1, condition="b", mu_interval=(0.0, math.inf), two_sided=True),
            RegimeEntry(k=2, condition="b", mu_interval=(0.0, math.inf),
                        two_sided=False, mirror_of=1),
        )
        return RegimeReport(n=3, potential_kind="saturable", entries=entries,
                            excluded=(), stability=stability)
    if n == 4:
        return RegimeReport(n=4, potential_kind="saturable", entries=(), excluded=(),
                            stability=stability, notes=(N4_NOTE,))
    entries = []
    delta1 = blocks.coefficients(n, 1).delta
    boundary = blocks.degenerate_amplitudes(n, 1, potential) if delta1 > -0.25 else ()
    for k in range(1, n):
        mirror = n - k if k > n // 2 else None
        gamma_pos = blocks.coefficients(n, k).gamma > 0.0
        if k not in (1, n - 1):
            entries.append(RegimeEntry(k=k, condition="a", mu_interval=(0.0, math.inf),
                                       two_sided=False, mirror_of=mirror))
        elif boundary:
            mu_lo, mu_hi = boundary
            for condition, iv in (("b", (0.0, mu_lo)), ("a", boundary), ("b", (mu_hi, math.inf))):
                entries.append(RegimeEntry(k=k, condition=condition, mu_interval=iv,
                                           two_sided=condition == "b" and gamma_pos,
                                           mirror_of=mirror))
        else:
            entries.append(RegimeEntry(k=k, condition="b", mu_interval=(0.0, math.inf),
                                       two_sided=gamma_pos, mirror_of=mirror))
    if boundary:
        note = (f"mu_- = {boundary[0]:.6f}, mu_+ = {boundary[1]:.6f} solve "
                "mu^2 h'(mu^2) = delta_1; their product is 1")
    else:
        note = ("delta_1 <= -1/4 for this n, so with the convention "
                "mu_- = mu_+ = 0 condition (b) holds for every amplitude of mode 1")
    return RegimeReport(n=n, potential_kind="saturable", entries=tuple(entries),
                        excluded=_degenerate_table(n, potential), stability=stability,
                        notes=(note,))
