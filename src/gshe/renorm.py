"""Desk-scale numerics: renormalisation constants and circle SPDE solvers.

Quantitative targets: the 1/eps coefficient (squared derivative of the
mollified heat kernel), the cube-of-P identity int P^3 dx = 1/(4 sqrt(3) pi t),
the log-divergence slope 1/(2 sqrt(3) pi) of the cubed cutoff kernel, the
stationary covariance of the discrete linearised loop (-> 1 and -1/2), an
additive stochastic heat equation on the circle checked against its exact
per-mode variance, and the sphere-valued equation driven by the closest-point
projection frame.

The circle fields are real, so the solvers work on rfft columns
k = 0..N//2, where an implicit Euler heat step multiplies by
1 / (1 + dt lambda_k).  The sphere solver steps in time.  The flat solver
is linear and takes no time step: it draws each recorded column once from
its exact law after the burn, and the loop Monte Carlo draws independent
stationary spectra, both through ``_spectral_gaussian``.  The sphere
solver draws its noise in blocks of steps and smooths each block with one
complex fft / ifft pair, its only complex transforms.  The quadratures
evaluate only entries that can be nonzero: ``cbar_estimate`` the s < t
triangle of its time integral, ``k3_integral`` the mollifier times before
t, the x >= 0 half of the even integrand and the nodes inside the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SQRT3 = math.sqrt(3.0)
K3_SLOPE = 1.0 / (2.0 * SQRT3 * math.pi)


@lru_cache
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def heat_kernel(t, x):
    """Whole-line heat kernel for d/dt = d^2/dx^2 (so variance 2t)."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    pos = t > 0
    tt = np.where(pos, t, 1.0)
    return np.where(pos, np.exp(-x * x / (4.0 * tt)) / np.sqrt(4.0 * math.pi * tt), 0.0)


@dataclass(frozen=True)
class Mollifier:
    """Compactly supported space-time mollifier, even in x, zero for t <= 0.

    The profile is the product of one-sided and symmetric polynomial bumps
    on (0,1) x (-1,1), normalised in closed form: rho(t,x) = c (t(1-t))^p
    (1-x^2)^p, with p = 2 by default.
    """

    power: int = 2

    @property
    def time_mass(self):
        """int_0^1 (t(1-t))^p dt = B(p+1, p+1)."""
        p = self.power
        return math.gamma(p + 1) ** 2 / math.gamma(2 * p + 2)

    @property
    def normalization(self):
        # the time mass times int_-1^1 (1-x^2)^p dx
        p = self.power
        xint = math.gamma(p + 1) * math.gamma(0.5) / math.gamma(p + 1.5)
        return 1.0 / (self.time_mass * xint)

    def __call__(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        inside = (t > 0) & (t < 1) & (np.abs(x) < 1)
        tt = np.where(inside, t, 0.5)
        xx = np.where(inside, x, 0.0)
        val = (tt * (1 - tt)) ** self.power * (1 - xx * xx) ** self.power
        return np.where(inside, val * self.normalization, 0.0)

    def time_profile_nodes(self, eps, n=32):
        """Nodes s and weights w q_eps(s) for the parabolic time profile.

        The profile q_eps(s) = eps^-2 q(s / eps^2) integrates to one; the
        mollifier is separable so rho_eps = q_eps(s) w_eps(y).
        """
        si, sw = _leggauss(n)
        ss = (si + 1) / 2 * eps ** 2
        sws = sw * eps ** 2 / 2
        q = (ss / eps ** 2 * (1 - ss / eps ** 2)) ** self.power
        return ss, sws * q / (self.time_mass * eps ** 2)

    def spatial_hat(self, xi):
        """Fourier cosine transform of the unit-mass spatial profile."""
        ys, yw = _leggauss(96)
        w = (1 - ys ** 2) ** self.power
        w_mass = float(w @ yw)
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        hat = np.array([float((w * np.cos(x * ys)) @ yw) for x in xi])
        return hat / w_mass


def cbar_estimate(rho: Mollifier, eps: float, xi_nodes=200, s_nodes=32,
                  t_nodes=48):
    """eps times the squared-gradient integral of the mollified heat kernel.

    Computes eps * int (d_x (P * rho_eps))^2 dt dx via Parseval in x: with
    A(t, xi) = int_0^{min(t, eps^2)} exp(-(t-s) xi^2) q_eps(s) ds the integral
    is (1/pi) int_0^inf dxi xi^2 w_hat(eps xi)^2 [ int_0^{eps^2} A^2 dt +
    B(xi)^2/(2 xi^2) ], where the t-tail beyond the mollifier support
    integrates exactly and B(xi) = A(eps^2, xi).  The limit as eps -> 0 is
    the 1/eps renormalisation coefficient (and scale invariance of the heat
    kernel makes the product eps-independent).
    """
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    T = eps ** 2
    xi_grid = np.geomspace(1e-3 / eps, 60.0 / eps, xi_nodes)
    xi_edges = np.concatenate(([xi_grid[0] * 0.5],
                               np.sqrt(xi_grid[1:] * xi_grid[:-1]),
                               [xi_grid[-1]]))
    xi_w = np.diff(xi_edges)
    ss, sq = rho.time_profile_nodes(eps, s_nodes)
    w_hat = rho.spatial_hat(eps * xi_grid)
    xi2 = xi_grid ** 2

    def A(t):
        # A(t, xi) over the s nodes below t, a prefix since ss ascends
        n = np.searchsorted(ss, t)
        return sq[:n] @ np.exp(np.outer(ss[:n] - t, xi2))

    ti, tw = _leggauss(t_nodes)
    ts_head = (ti + 1) / 2 * T
    tw_head = tw * T / 2
    head = np.zeros_like(xi_grid)
    for t, w in zip(ts_head, tw_head):
        head += A(t) ** 2 * w
    B = A(T)
    tail = B ** 2 / (2.0 * xi2)
    integrand = xi2 * w_hat ** 2 * (head + tail)
    return eps * float(integrand @ xi_w) / math.pi


def p3_identity(t: float):
    """int P^3(t, x) dx times 4 sqrt(3) pi t; exactly 1 in the limit.

    The integrand is a Gaussian on [-10 sqrt(t), 10 sqrt(t)]; 100
    Gauss-Legendre nodes resolve it to rounding (about 1e-14).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    xi, xw = _leggauss(100)
    scale = 10.0 * math.sqrt(t)
    xs = xi * scale
    ws = xw * scale
    val = float((heat_kernel(t, xs) ** 3) @ ws)
    return val * 4.0 * SQRT3 * math.pi * t


def _smooth_cutoff(r):
    """1 for r <= 1/2, 0 for r >= 1, C^1 ramp between."""
    r = np.asarray(r, dtype=float)
    s = np.clip(2.0 * (1.0 - r), 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def k3_integral(rho: Mollifier, eps: float, radius=1.0, t_nodes=220,
                x_nodes=48, quad_nodes=12):
    """int (rho * K_eps)^3 dt dx for the rescaled cutoff kernel.

    K_eps(t,x) = eps K(eps^2 t, eps x) concentrates the log-divergent window
    into t in [1, eps^-2]; convolution happens at unit mollifier scale.  K is
    the heat kernel cut off smoothly at parabolic distance ``radius``: times
    ``_smooth_cutoff(sqrt(x^2 + t) / radius)``.  Per t node only the
    mollifier times s < t enter; an x node (or a whole t node) whose every
    distance is at least ``radius`` is skipped, its cutoff being 0; and the
    ramp is applied only at a t node where some distance exceeds radius / 2
    (below it the ramp is 1).  The integrand is even in x and the
    Gauss-Legendre nodes are symmetric, so only the nodes x >= 0 are
    evaluated, the positive ones at twice their weight.
    """
    if not (0 < eps <= 1):
        raise ValueError("eps must lie in (0, 1]")
    mx, wx = _leggauss(quad_nodes)
    ms = (mx + 1) / 2
    mw = np.outer(wx / 2, wx)
    mvals = rho(*np.meshgrid(ms, mx, indexing="ij")) * mw * eps

    t_lo, t_hi = 1e-3, 1.3 / eps ** 2 + 2.0
    ts = np.geomspace(t_lo, t_hi, t_nodes)
    t_edges = np.concatenate(([t_lo], np.sqrt(ts[1:] * ts[:-1]), [t_hi]))
    t_w = np.diff(t_edges)
    xi, xw = _leggauss(x_nodes)
    half = xi >= 0
    xi, xw = xi[half], np.where(xi[half] > 0, 2.0, 1.0) * xw[half]
    r2_cut = radius * radius
    total = 0.0
    for t, wt in zip(ts, t_w):
        # the kernel is nonzero where tau = eps^2 (t - s) > 0: a prefix of
        # the mollifier times, since ms ascends
        tau = (t - ms) * eps ** 2
        tau = tau[tau > 0]
        if not tau.size:
            continue
        scale = 6.0 * math.sqrt(t) + 3.0
        y2 = ((xi[:, None] * scale - mx) * eps) ** 2
        # x nodes at distance >= radius from every mollifier node add 0
        live = y2.min(axis=1) + tau[-1] < r2_cut
        if not live.any():
            continue
        y2 = y2[live]
        q = y2[:, None, :] + tau[None, :, None]
        # [x, a, b]: exp(-y^2 / (4 tau_a)) at y = eps (x - mx_b)
        kern = y2[:, None, :] * (-0.25 / tau)[None, :, None]
        np.exp(kern, out=kern)
        if q.max() > r2_cut / 4:
            kern *= _smooth_cutoff(np.sqrt(q) / radius)
        weights = mvals[:len(tau)] / np.sqrt(4.0 * math.pi * tau)[:, None]
        vals = kern.reshape(len(y2), -1) @ weights.ravel()
        total += wt * float((vals ** 3) @ (xw[live] * scale))
    return total


def k3_log_slope(rho: Mollifier, eps_list, **kw):
    """Least-squares slope of the cubed-kernel integral against log(1/eps)."""
    eps_list = list(eps_list)
    if len(eps_list) < 3:
        raise ValueError("need at least three eps values")
    logs = np.log(1.0 / np.asarray(eps_list))
    vals = np.array([k3_integral(rho, e, **kw) for e in eps_list])
    A = np.vstack([logs, np.ones_like(logs)]).T
    slope, intercept = np.linalg.lstsq(A, vals, rcond=None)[0]
    return float(slope), float(intercept)


# -- discrete loop covariance ---------------------------------------------------

def _spectral_gaussian(rng, shape, k, n, var):
    """Independent rfft columns k [..., column] of a real Gaussian field on
    n points with E|z_k|^2 = var_k, from one standard normal draw [..., re |
    im, column]: Re and Im are N(0, var_k / 2), but at the real columns
    2k = 0 (mod n), the mean and Nyquist ones, Re is N(0, var_k) and Im 0.
    """
    draws = rng.standard_normal(shape + (2, len(k)))
    part_var = np.where((2 * k) % n == 0, [[1.0], [0.0]], 0.5) * var
    draws *= np.sqrt(part_var)
    return draws[..., 0, :] + 1j * draws[..., 1, :]


def ou_loop_covariance(N: int):
    """Exact stationary statistics of the linearised discrete loop.

    The system du_k = (u_{k+1} + u_{k-1} - 2 u_k)/eps^2 dt + sqrt(2/eps) dW_k
    with eps = 1/N and the constant mode projected out has per-mode stationary
    variance eps / (2 (1 - cos theta_k)).  Returns (a2, a1) with
    a2 = eps^-1 E|delta+ u|^2 and a1 = eps^-1 E[u delta+ u].
    """
    if N < 8:
        raise ValueError("need N >= 8")
    eps = 1.0 / N
    k = np.arange(1, N)
    theta = 2.0 * math.pi * k / N
    mode_var = eps / (2.0 * (1.0 - np.cos(theta)))
    c0 = float(np.sum(mode_var)) / N
    c1 = float(np.sum(mode_var * np.cos(theta))) / N
    a2 = (2.0 * (c0 - c1)) / eps
    a1 = (c1 - c0) / eps
    return a2, a1


def ou_loop_mc(N: int, n_samples=3000, seed=0):
    """Monte-Carlo estimate of the same statistics from independent samples.

    The DFT diagonalises the system into independent OU modes, so each
    sample is one stationary spectrum drawn directly, E|u_hat_k|^2 =
    N eps / (2 - 2 cos theta_k) with mode zero projected out: no time step,
    no burn.  Returns (a2, a1, se2, se1) with the samples' plain standard
    errors; needs N >= 8 and n_samples >= 2.  The loop is periodic, so
    sum_j u_j (u_{j+1} - u_j) = -sum_j (u_{j+1} - u_j)^2 / 2 and each
    sample's a1 is -a2 / 2: a1 and se1 are derived from a2 and se2, to
    rounding, and carry no evidence of their own.
    """
    if N < 8:
        raise ValueError("need N >= 8")
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    eps = 1.0 / N
    k = np.arange(N // 2 + 1)
    theta = 2.0 * math.pi * k[1:] / N
    var = np.concatenate(([0.0], N * eps / (2.0 - 2.0 * np.cos(theta))))
    rng = np.random.default_rng(seed)
    u = np.fft.irfft(_spectral_gaussian(rng, (n_samples,), k, N, var), n=N)
    du = np.roll(u, -1, axis=-1) - u
    samples = np.array([np.mean(du * du, axis=-1),
                        np.mean(u * du, axis=-1)]) / eps
    a2, a1 = samples.mean(axis=1)
    se2, se1 = samples.std(axis=1, ddof=1) / math.sqrt(n_samples)
    return float(a2), float(a1), float(se2), float(se1)


# -- circle SPDE solvers ---------------------------------------------------------

class StabilityError(RuntimeError):
    pass


def laplacian_symbol(k, n):
    """Eigenvalue of minus the periodic second difference on the n-point
    circle grid (dx = 2 pi / n) at wavenumber k, a number or an array."""
    dx = 2.0 * math.pi / n
    return (2.0 - 2.0 * np.cos(2.0 * math.pi * k / n)) / dx ** 2


def periodic_laplacian(n):
    """The grid's wavenumbers in FFT order and their Laplacian eigenvalues."""
    k_all = np.rint(np.fft.fftfreq(n, d=1.0 / n))
    return k_all, laplacian_symbol(k_all, n)


@dataclass
class SimConfig:
    n_grid: int = 64
    dt: float = None
    dim: int = 1
    n_noise: int = 1
    seed: int = 0
    sigma: np.ndarray = None
    burn: int = 500
    noise_scale: float = 1.0

    def __post_init__(self):
        dx = 2.0 * math.pi / self.n_grid
        if self.dt is None:
            self.dt = 0.1 * dx * dx
        if self.dt > 0.5 * dx * dx:
            raise StabilityError(f"dt={self.dt} violates dt <= 0.5 dx^2 = {0.5*dx*dx}")
        if self.sigma is None:
            self.sigma = np.eye(self.dim, self.n_noise)


def flat_mode_variance_oracle(cfg: SimConfig, k):
    """Exact stationary variance of Fourier mode k for the implicit scheme.

    Scheme: u^{n+1} = (u^n + sigma sqrt(dt/dx) eta) / (1 + dt lambda_k)
    modewise, so E|u_hat_k|^2 = N (dt/dx) a^2/(1-a^2) per unit sigma^2 with
    a = 1/(1 + dt lambda_k); multiply by (sigma sigma^T)_cc per component.
    For an array of modes k the result is [component, mode].
    """
    N = cfg.n_grid
    dx = 2.0 * math.pi / N
    a = 1.0 / (1.0 + cfg.dt * laplacian_symbol(k, N))
    gain = cfg.dt / dx * N * a ** 2 / (1.0 - a ** 2)
    ssT = cfg.sigma @ cfg.sigma.T * cfg.noise_scale ** 2
    return np.multiply.outer(np.diag(ssT), gain)


def _implicit_gain(n, dt):
    """1 / (1 + dt lambda_k) in rfft layout, k = 0..n//2."""
    return 1.0 / (1.0 + dt * periodic_laplacian(n)[1][:n // 2 + 1])


def _implicit_step(u, gain):
    """One implicit Euler heat step along the last axis of the real array u.

    Solves (1 + dt L) v = u modewise: real FFT, multiply by ``gain`` from
    ``_implicit_gain``, inverse real FFT back to the grid length.  The
    product is taken in place: a second temporary of this size per step
    measurably slows the loop.
    """
    spec = np.fft.rfft(u, axis=-1)
    spec *= gain
    return np.fft.irfft(spec, n=u.shape[-1], axis=-1)


# she_simulate raises StabilityError when the stationary per-site standard
# deviation exceeds _BLOW_UP / _BLOW_UP_SAFETY: a Gaussian field leaves ten
# standard deviations with probability below 2e-23 per site and step.
_BLOW_UP = 1e6
_BLOW_UP_SAFETY = 10.0


def _fourier_burn(cfg, gain, burn, n_replicas, top):
    """The flat burn on rfft columns 1..top of the unmixed noise, in law.

    Returns the spectrum S [replica, noise, column] with mix @ S the final
    field's columns.  From the cold start, ``burn`` implicit steps leave
    S = sum_{m=1..burn} g^m F_m, where F_m holds the rfft columns of the
    m-th last step's N i.i.d. standard normals: independent, E|F_k|^2 = N.
    So S is drawn directly, E|S_k|^2 = N g^2 (1 - g^(2 burn)) / (1 - g^2).
    """
    N, k = cfg.n_grid, np.arange(1, top + 1)
    g = gain[k]
    # the geometric sum by expm1, accurate for the slow modes' g near 1
    var = N * g ** 2 * (np.expm1(2 * burn * np.log(g))
                        / np.expm1(2 * np.log(g)))
    rng = np.random.default_rng(cfg.seed)
    spec = _spectral_gaussian(rng, (n_replicas * cfg.n_noise,), k, N, var)
    return spec.reshape(n_replicas, cfg.n_noise, top)


def she_simulate(cfg: SimConfig, modes=8, n_replicas=160):
    """Additive flat SHE on the circle; per-mode second moments vs the oracle.

    Runs an ensemble of independent replicas (cold start, burn chosen from
    the slowest mode's relaxation time) and records one snapshot each, so the
    standard errors come from genuinely independent samples.  Each burn step
    adds the mixed noise sigma sqrt(dt/dx) eta and takes one implicit step.
    The scheme is linear and diagonal in Fourier modes, so a snapshot's
    recorded columns min(k, N - k), k = 1..modes, are Gaussian with a
    variance known in closed form for the finite burn, and the burn
    (``_fourier_burn``) draws them directly instead of stepping; the mixing
    by sigma commutes with the per-mode gains, so it is applied once at the
    end.  With no grid field to watch, a blow-up is decided from the
    configuration: by Parseval the stationary per-site standard deviation of
    component c is sqrt(sum_k oracle[c, k]) / N over k = 1..N-1, and
    StabilityError is raised before drawing when it exceeds
    _BLOW_UP / _BLOW_UP_SAFETY.  ``modes`` must lie in 1..N-1 and
    ``n_replicas`` be at least 2 (the standard errors need two samples).
    Returns a dict with 'mode_var' [component, mode], 'se', and 'oracle'.
    """
    N = cfg.n_grid
    if not 1 <= modes < N:
        raise ValueError(f"modes must lie in 1..{N - 1}, got {modes}")
    if n_replicas < 2:
        raise ValueError(f"n_replicas must be at least 2, got {n_replicas}")
    oracle = flat_mode_variance_oracle(cfg, np.arange(1, N))
    site_sd = float(np.sqrt(oracle.sum(axis=1)).max()) / N
    limit = _BLOW_UP / _BLOW_UP_SAFETY
    if not site_sd <= limit:
        raise StabilityError(f"stationary site deviation {site_sd:.3g} "
                             f"exceeds the blow-up limit {limit:.3g}")
    dx = 2.0 * math.pi / N
    gain = _implicit_gain(N, cfg.dt)
    mix = cfg.sigma * (cfg.noise_scale * math.sqrt(cfg.dt / dx))
    burn = max(cfg.burn, int(5.0 / (cfg.dt * laplacian_symbol(1, N))) + 1)
    top = min(modes, N // 2)
    spec = mix @ _fourier_burn(cfg, gain, burn, n_replicas, top)
    # a real field's mode N - k is the conjugate of its mode k
    k = np.arange(1, modes + 1)
    samples = np.abs(spec[..., np.minimum(k, N - k) - 1]) ** 2
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(n_replicas)
    return {"mode_var": mean, "se": se, "oracle": oracle[:, :modes]}


# -- sphere-valued solver --------------------------------------------------------

def _proj_hessian_term(u, ux, r2, r):
    """d2_{bc} pi^a(u) ux^b ux^c for pi(y) = y/|y| (columns are grid sites),
    given r2 = |u|^2 and r = |u| per site."""
    udot = (u * ux).sum(axis=0)
    ux2 = (ux * ux).sum(axis=0)
    r3 = r2 * r
    return (-2.0 * ux * udot / r3 - u * ux2 / r3
            + 3.0 * u * udot * udot / (r2 * r2 * r))


def _proj_jacobian_apply(u, w, r2, r):
    """d_b pi^a(u) w^b: projection of w onto the tangent space scaled by 1/r,
    given r2 = |u|^2 and r = |u| per site."""
    udot = (u * w).sum(axis=0)
    return w / r - u * udot / (r2 * r)


# The sphere solver draws its noise in blocks of at most this many bytes of
# normals and smooths a block in complex arrays twice that size; at 64 KiB
# the 128-point run's peak memory rose by 0.2 MB, at 32 KiB it does not.
_NOISE_BLOCK_BYTES = 1 << 15


def _sphere_noise(rng, n_steps, scale, smooth):
    """The sphere solver's smoothed noise, one (3, N) array per step.

    A block of steps' normals is one ``standard_normal((steps, 3, N))`` draw,
    the same stream in the same order as one (3, N) draw per step, times
    ``scale``; one complex fft / ifft pair along the grid axis multiplies
    its modes by ``smooth``.
    """
    N = len(smooth)
    block = max(1, _NOISE_BLOCK_BYTES // (3 * 8 * N))
    for start in range(0, n_steps, block):
        eta = rng.standard_normal((min(block, n_steps - start), 3, N))
        eta *= scale
        spec = np.fft.fft(eta)
        spec *= smooth
        yield from np.fft.ifft(spec).real


def sphere_simulate(n_grid=64, dt=None, n_steps=400, seed=0, noise_scale=1.0):
    """Evolve the embedded sphere equation; track the distance to the sphere.

    Returns a dict with 'max_dist' (max over time of max_x ||u|-1|),
    'lengths' (loop length at five evenly spaced steps), and 'snapshots'
    rows (t, x, u1, u2, u3) at the same steps.  With ``noise_scale`` 0
    nothing is drawn.
    """
    N = n_grid
    dx = 2.0 * math.pi / N
    if dt is None:
        dt = 0.05 * dx * dx
    if dt > 0.26 * dx * dx:
        raise StabilityError("explicit nonlinearity needs dt <= 0.26 dx^2")
    rng = np.random.default_rng(seed)
    x = 2.0 * math.pi * np.arange(N) / N
    # initial loop on the sphere: a tilted circle
    u = np.vstack([np.cos(x) * math.sqrt(0.5),
                   np.sin(x) * math.sqrt(0.5),
                   np.full(N, math.sqrt(0.5))])
    k_all = periodic_laplacian(N)[0]
    gain = _implicit_gain(N, dt)
    # spatial mollification at scale 0.3: Gaussian multiplier on modes
    smooth = np.exp(-(k_all * 0.3) ** 2 / 2.0)
    if noise_scale:
        noise = _sphere_noise(rng, n_steps, math.sqrt(dt / dx), smooth)
    # the grid's right and left neighbours
    nxt = np.roll(np.arange(N), -1)
    prv = np.roll(np.arange(N), 1)
    r2 = (u * u).sum(axis=0)
    r = np.sqrt(r2)
    max_dist = 0.0
    lengths = []
    snaps = []
    record_at = set(np.linspace(0, n_steps - 1, 5, dtype=int).tolist())
    for step in range(n_steps):
        ux = (u[:, nxt] - u[:, prv]) / (2.0 * dx)
        drift = -_proj_hessian_term(u, ux, r2, r)
        rhs = u + dt * drift
        if noise_scale:
            rhs += _proj_jacobian_apply(u, noise_scale * next(noise), r2, r)
        u = _implicit_step(rhs, gain)
        if not np.isfinite(u).all() or np.abs(u).max() > 1e3:
            raise StabilityError(f"sphere run blew up at step {step}")
        r2 = (u * u).sum(axis=0)
        r = np.sqrt(r2)
        max_dist = max(max_dist, float(np.abs(r - 1.0).max()))
        if step in record_at:
            seg = np.sqrt(((u[:, nxt] - u) ** 2).sum(axis=0))
            lengths.append(float(seg.sum()))
            for j in range(N):
                snaps.append((step * dt, x[j], u[0, j], u[1, j], u[2, j]))
    return {"max_dist": max_dist, "lengths": lengths, "snapshots": snaps}
