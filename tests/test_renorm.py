import math

import numpy as np
import pytest

from gshe.renorm import (_NOISE_BLOCK_BYTES, K3_SLOPE, Mollifier, SimConfig,
                         StabilityError, _implicit_gain, _implicit_step,
                         _leggauss, _smooth_cutoff, cbar_estimate,
                         flat_mode_variance_oracle,
                         heat_kernel, k3_integral, k3_log_slope,
                         laplacian_symbol, ou_loop_covariance, ou_loop_mc,
                         p3_identity, periodic_laplacian, she_simulate,
                         sphere_simulate)


def mollifier_mass(rho, n=400):
    """Midpoint-rule integral of the mollifier over (0,1) x (-1,1)."""
    ts = (np.arange(n) + 0.5) / n
    xs = (np.arange(2 * n) + 0.5) / n - 1
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    return rho(tt, xx).sum() / n ** 2


def heat_kernel_mass(t, nodes=400):
    """Gauss-Legendre integral of the heat kernel at time t over x."""
    xi, xw = np.polynomial.legendre.leggauss(nodes)
    scale = 12.0 * math.sqrt(t)
    return float(heat_kernel(t, xi * scale) @ (xw * scale))


def exact_heat_comparison(cfg, t_final=0.25):
    """Max error of the scheme against exp(-lambda_k t) mode decay.

    Uses the implicit-Euler amplification per mode; the comparison measures
    the time-discretisation error of the scheme at the final time.
    """
    N = cfg.n_grid
    x = 2.0 * math.pi * np.arange(N) / N
    u0 = np.sin(x) + 0.3 * np.cos(3 * x)
    lam = periodic_laplacian(N)[1]
    n_steps = int(round(t_final / cfg.dt))
    u_hat = np.fft.fft(u0) / (1.0 + cfg.dt * lam) ** n_steps
    exact_hat = np.fft.fft(u0) * np.exp(-lam * cfg.dt * n_steps)
    return float(np.max(np.abs(np.real(np.fft.ifft(u_hat - exact_hat)))))


def heat_decay_error(cfg, n_steps=200):
    """Zero-noise time loop against the closed-form modewise decay.

    The scheme applied with no noise must reproduce the spectral solution of
    its own discrete operator, u_hat_k(n) = u_hat_k(0)/(1 + dt lambda_k)^n,
    to rounding accuracy.  The loop runs ``_implicit_step``, the real-FFT
    step the sphere solver takes, and the closed form uses the full complex
    FFT, so this pins that step, including its rfft layout.  The flat
    solver's law is pinned against the burn's grid covariance by
    ``grid_mode_variance``.
    """
    N = cfg.n_grid
    x = 2.0 * math.pi * np.arange(N) / N
    u = np.sin(x) + 0.3 * np.cos(3 * x)
    denom = 1.0 + cfg.dt * periodic_laplacian(N)[1]
    gain = _implicit_gain(N, cfg.dt)
    u0_hat = np.fft.fft(u)
    v = u
    for _ in range(n_steps):
        v = _implicit_step(v, gain)
    spectral = np.real(np.fft.ifft(u0_hat / denom ** n_steps))
    return float(np.max(np.abs(v - spectral)))


def test_mollifier_invariants():
    rho = Mollifier()
    assert abs(mollifier_mass(rho) - 1.0) < 1e-6
    ts = np.array([0.3, 0.7])
    xs = np.array([0.4, -0.4])
    assert np.allclose(rho(ts, xs), rho(ts, -xs))  # even in x
    assert np.all(rho(np.array([-0.1, 0.0]), np.array([0.0, 0.0])) == 0)


def test_p3_identity():
    assert abs(p3_identity(1.0) - 1.0) < 1e-6
    assert abs(p3_identity(0.1) - 1.0) < 1e-6
    assert abs(heat_kernel_mass(1.0) - 1.0) < 1e-9


def test_cbar_stability():
    rho = Mollifier()
    vals = [cbar_estimate(rho, e) for e in (0.1, 0.05, 0.025)]
    for a, b in zip(vals, vals[1:]):
        assert abs(b - a) / abs(a) < 0.02
    fine = cbar_estimate(rho, 0.05, xi_nodes=400, s_nodes=64, t_nodes=96)
    assert abs(fine - vals[1]) / abs(vals[1]) < 0.001
    with pytest.raises(ValueError):
        cbar_estimate(rho, 1.5)


def test_k3_log_slope():
    rho = Mollifier()
    eps_list = [0.2, 0.1, 0.05, 0.025]
    slope, _ = k3_log_slope(rho, eps_list)
    assert abs(slope - K3_SLOPE) / K3_SLOPE < 0.10
    # mollifier independence of the divergent part
    slope2, _ = k3_log_slope(Mollifier(power=3), eps_list)
    assert abs(slope2 - slope) / abs(slope) < 0.05
    # doubling the cutoff radius moves the slope below 2%
    slope3, _ = k3_log_slope(rho, eps_list, radius=2.0)
    assert abs(slope3 - slope) / abs(slope) < 0.02
    with pytest.raises(ValueError):
        k3_log_slope(rho, [0.1, 0.05])


def ref_cbar_estimate(rho, eps, xi_nodes=200, s_nodes=32, t_nodes=48):
    """The full-grid form of ``cbar_estimate``: A(t, xi) on every (t, s)
    pair, the pairs with s >= t masked to exp(-inf) = 0."""
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

    def A(ts):
        # A[t_i, xi_j]
        arg = -(ts[:, None, None] - ss[None, :, None]) \
            * xi_grid[None, None, :] ** 2
        arg = np.where(ss[None, :, None] < ts[:, None, None], arg, -np.inf)
        return np.sum(np.exp(arg) * sq[None, :, None], axis=1)

    ti, tw = _leggauss(t_nodes)
    ts_head = (ti + 1) / 2 * T
    tw_head = tw * T / 2
    A_head = A(ts_head)
    head = np.sum((A_head ** 2) * tw_head[:, None], axis=0)
    B = A(np.array([T]))[0]
    tail = B ** 2 / (2.0 * xi_grid ** 2)
    integrand = xi_grid ** 2 * w_hat ** 2 * (head + tail)
    return eps * float(integrand @ xi_w) / math.pi


def ref_k3_integral(rho, eps, radius=1.0, t_nodes=220, x_nodes=48,
                    quad_nodes=12):
    """The full-grid form of ``k3_integral``: the cutoff kernel on every x
    node and mollifier node at every t node."""
    mx, wx = _leggauss(quad_nodes)
    ms = (mx + 1) / 2
    mw = np.outer(wx / 2, wx)
    mts, mxs = np.meshgrid(ms, mx, indexing="ij")
    mvals = (rho(mts, mxs) * mw).ravel()
    mts, mxs = mts.ravel(), mxs.ravel()

    t_lo, t_hi = 1e-3, 1.3 / eps ** 2 + 2.0
    ts = np.geomspace(t_lo, t_hi, t_nodes)
    t_edges = np.concatenate(([t_lo], np.sqrt(ts[1:] * ts[:-1]), [t_hi]))
    t_w = np.diff(t_edges)
    xi, xw = _leggauss(x_nodes)
    total = 0.0
    for t, wt_ in zip(ts, t_w):
        scale = 6.0 * math.sqrt(t) + 3.0
        xs = xi * scale
        ws = xw * scale
        karg_t = (t - mts[None, :]) * eps ** 2
        karg_x = (xs[:, None] - mxs[None, :]) * eps
        # the heat kernel cut off smoothly at parabolic distance radius
        r = np.sqrt(np.abs(karg_x) ** 2 + np.abs(karg_t)) / radius
        conv = eps * (heat_kernel(karg_t, karg_x) * _smooth_cutoff(r))
        vals = conv @ mvals
        total += wt_ * float((vals ** 3) @ ws)
    return total


@pytest.mark.parametrize("eps", [1.0, 0.3, 0.2, 0.025])
@pytest.mark.parametrize("power, kw", [
    (2, {}),
    (2, {"radius": 2.0}),
    (3, {}),
    # an odd rule has a node at x = 0, kept at its single weight
    (2, {"x_nodes": 47}),
    (2, {"t_nodes": 30, "quad_nodes": 5}),
])
def test_k3_integral_matches_full_grid(eps, power, kw):
    rho = Mollifier(power=power)
    assert k3_integral(rho, eps, **kw) == pytest.approx(
        ref_k3_integral(rho, eps, **kw), rel=1e-13)


@pytest.mark.parametrize("eps", [1.0, 0.3, 0.2, 0.025])
@pytest.mark.parametrize("power, kw", [
    (2, {}),
    (3, {}),
    (2, {"xi_nodes": 50, "s_nodes": 7, "t_nodes": 9}),
])
def test_cbar_estimate_matches_full_grid(eps, power, kw):
    rho = Mollifier(power=power)
    assert cbar_estimate(rho, eps, **kw) == pytest.approx(
        ref_cbar_estimate(rho, eps, **kw), rel=1e-13)


def test_cbar_is_exactly_scale_invariant():
    # every node and weight scales by a power of two across the halvings,
    # so cbar repeats bit for bit; a relative change between consecutive
    # `gshe constants` values would be derived, not evidence, so it has no row
    vals = {cbar_estimate(Mollifier(), e) for e in (0.2, 0.1, 0.05, 0.025)}
    assert len(vals) == 1


@pytest.mark.parametrize("eps", [0.0, -0.1, 1.5, math.nan])
def test_quadratures_reject_eps_outside_unit_interval(eps):
    for quad in (k3_integral, cbar_estimate):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
            quad(Mollifier(), eps)


def test_ou_exact_covariance():
    a2, a1 = ou_loop_covariance(256)
    assert 0.98 <= a2 <= 1.02
    assert -0.52 <= a1 <= -0.48
    assert abs(a1 + a2 / 2) < 1e-12  # stationarity ties the two statistics
    with pytest.raises(ValueError):
        ou_loop_covariance(4)


def test_ou_mc_a1_is_derived_from_a2():
    # a periodic loop sums u_j (u_{j+1} - u_j) to -sum (u_{j+1} - u_j)^2 / 2,
    # so each sample's a1 is -a2 / 2 and the a1 row repeats the a2 row
    a2m, a1m, se2, se1 = ou_loop_mc(64, 2000, 3)
    assert a1m == pytest.approx(-a2m / 2, rel=1e-12)
    assert se1 == pytest.approx(se2 / 2, rel=1e-12)


def test_ou_mc_matches_exact():
    a2m, a1m, se2, se1 = ou_loop_mc(64, n_samples=2000, seed=3)
    a2e, a1e = ou_loop_covariance(64)
    assert abs(a2m - a2e) < 3 * se2
    assert abs(a1m - a1e) < 3 * se1


def sylvester(order):
    """The Sylvester-Hadamard matrix of a power-of-two order: entries +-1
    and orthogonal columns, H^T H = order I."""
    h = np.ones((1, 1))
    while len(h) < order:
        h = np.block([[h, h], [h, -h]])
    return h


class SylvesterNoise:
    """A stand-in generator whose samples have second moments exactly the
    identity.  Sample s of a draw of shape (samples, ...) is row s of the
    Sylvester-Hadamard matrix of order samples, cut to the sample's size;
    the columns are orthogonal, so the samples' mean of x x^T is I and the
    sample mean of any quadratic statistic is its expectation, to rounding."""

    def __init__(self, seed):
        pass

    def standard_normal(self, shape):
        size = math.prod(shape[1:])
        h = sylvester(shape[0])
        assert len(h) == shape[0] >= size
        return h[:, :size].reshape(shape)


@pytest.mark.parametrize("N", [64, 63, 8])
def test_ou_mc_law_is_exact(N, monkeypatch):
    # a2 and a1 are quadratic in the draws, so under a design with identity
    # second moments the estimates are the stationary law's exact values;
    # at even N this pins the real Nyquist column (drawn complex, the irfft
    # drops its imaginary part and half its variance)
    monkeypatch.setattr(np.random, "default_rng", SylvesterNoise)
    a2m, a1m, _, _ = ou_loop_mc(N, n_samples=128)
    np.testing.assert_allclose((a2m, a1m), ou_loop_covariance(N), rtol=1e-12)


@pytest.mark.parametrize("N, n_samples, match", [
    # one sample has no standard error, none divides by zero
    (8, 1, "n_samples must be at least 2, got 1"),
    (8, 0, "n_samples must be at least 2, got 0"),
    (7, 100, "need N >= 8"),
])
def test_ou_mc_rejects_bad_sizes(N, n_samples, match):
    with pytest.raises(ValueError, match=match):
        ou_loop_mc(N, n_samples=n_samples)
    assert np.isfinite(ou_loop_mc(8, n_samples=2)).all()


def test_flat_she_matches_oracle():
    cfg = SimConfig(n_grid=64, dim=2, n_noise=2, seed=5,
                    sigma=np.array([[1.0, 0.5], [0.0, 1.2]]))
    res = she_simulate(cfg, modes=8, n_replicas=120)
    z = np.abs(res["mode_var"] - res["oracle"]) / res["se"]
    assert float(z.max()) < 3.5


def test_flat_she_rotation_invariance():
    sigma = np.array([[1.0, 0.5], [0.0, 1.2]])
    th = 0.7
    Q = np.array([[math.cos(th), -math.sin(th)],
                  [math.sin(th), math.cos(th)]])
    cfg = SimConfig(n_grid=64, dim=2, n_noise=2, seed=6, sigma=sigma @ Q)
    res = she_simulate(cfg, modes=8, n_replicas=120)
    oracle = np.array([flat_mode_variance_oracle(
        SimConfig(n_grid=64, dim=2, n_noise=2, sigma=sigma), k)
        for k in range(1, 9)]).T
    z = np.abs(res["mode_var"] - oracle) / res["se"]
    assert float(z.max()) < 3.5


def grid_mode_variance(cfg: SimConfig, modes):
    """Reference E|u_hat_k|^2 [component, mode] from the burn's grid
    covariance, with no Fourier transform of a field.

    The implicit step is the dense circulant A = (I + dt L)^-1 of the
    three-point stencil, so the cold-start burn leaves the grid covariance
    K = (dt/dx) sum_{m=1..burn} A^m A^mT per unit noise, summed here by
    doubling; mode k's second moment is (F K F*)_kk with F the DFT matrix,
    times (sigma sigma^T)_cc noise_scale^2.
    """
    N = cfg.n_grid
    dx = 2.0 * math.pi / N
    eye = np.eye(N)
    shift = np.roll(eye, 1, axis=1)
    lap = (2.0 * eye - shift - shift.T) / dx ** 2
    step = np.linalg.inv(eye + cfg.dt * lap)
    square = step @ step.T
    burn = max(cfg.burn, int(5.0 / (cfg.dt * laplacian_symbol(1, N))) + 1)
    # total = sum_{m=1..n} square^m and power = square^n, while n runs
    # through the leading bits of burn
    total, power = np.zeros((N, N)), eye
    for bit in bin(burn)[2:]:
        total = total + power @ total
        power = power @ power
        if bit == "1":
            power = power @ square
            total = total + power
    cov = cfg.dt / dx * total
    dft = np.exp(-2j * math.pi * np.outer(np.arange(1, modes + 1),
                                          np.arange(N)) / N)
    per_mode = np.einsum("kn,nm,km->k", dft, cov, dft.conj()).real
    ssT = np.diag(cfg.sigma @ cfg.sigma.T) * cfg.noise_scale ** 2
    return np.multiply.outer(ssT, per_mode)


class DesignNoise:
    """A stand-in for the solver's generator whose normals average to their
    moments exactly.  Its rows are [replica, noise] over two replicas and
    hold the columns of a 2 x 2 Hadamard matrix, so over the replicas every
    noise has mean square 1 and two noises have mean product 0; the replica
    mean of |u_hat_k|^2 is then the solver's expected value, to rounding."""

    def __init__(self, seed):
        pass

    def standard_normal(self, shape):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]])
        rows = hadamard[:, :shape[0] // 2].reshape(shape[0], 1, 1)
        return np.broadcast_to(rows, shape).copy()


# grid and recorded modes
SHE_REFERENCE_CASES = {
    "8": (8, 7),
    "33": (33, 32),
    "49": (49, 48),
    "64": (64, 63),
    # fewer columns than the rfft has
    "16-three-modes": (16, 3),
    "96-all-modes": (96, 95),
    "8-one-mode": (8, 1),
}


@pytest.mark.parametrize("case", SHE_REFERENCE_CASES)
def test_she_matches_complex_fft_reference(case, monkeypatch):
    # odd, even and non-power-of-two grids, modes above N//2 and the Nyquist
    # column, noise mixing with more components than noises; the largest dt
    # keeps the burn short, so its finite length shows: the slowest mode is
    # a factor 1 - g^(2 burn), 1 - 1e-4 to 1 - 5e-5, below stationary
    n_grid, modes = SHE_REFERENCE_CASES[case]
    th = 0.7
    rotated = np.array([[1.0, 0.5], [0.0, 1.2]]) @ np.array(
        [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    wide = np.array([[1.0, 0.5], [0.2, 1.2], [-0.7, 0.3]])
    dt = 0.5 * (2.0 * math.pi / n_grid) ** 2
    monkeypatch.setattr(np.random, "default_rng", DesignNoise)
    for sigma in (np.eye(1), rotated, wide):
        d, m = sigma.shape
        cfg = SimConfig(n_grid=n_grid, dt=dt, dim=d, n_noise=m, sigma=sigma,
                        burn=1, noise_scale=0.8)
        res = she_simulate(cfg, modes=modes, n_replicas=2)
        np.testing.assert_allclose(res["mode_var"],
                                   grid_mode_variance(cfg, modes), rtol=1e-10)


@pytest.mark.parametrize("n_grid", [16, 15])
def test_flat_she_all_modes_match_oracle(n_grid):
    # every column's scaling, the real Nyquist column N/2 of the even grid
    # among them, against the exact per-mode variance
    dt = 0.5 * (2.0 * math.pi / n_grid) ** 2
    res = she_simulate(SimConfig(n_grid=n_grid, dt=dt, seed=0),
                       modes=n_grid - 1, n_replicas=4000)
    z = np.abs(res["mode_var"] - res["oracle"]) / res["se"]
    assert float(z.max()) < 3.5
    # |u_hat_k|^2 is exponential, but chi-square with one degree of freedom,
    # of twice the variance, at the real Nyquist column: the second moments
    # alone cannot tell a real column from a complex one of equal variance
    k = np.arange(1, n_grid)
    spread = np.where(2 * k == n_grid, 2.0, 1.0)
    np.testing.assert_allclose(res["se"], res["oracle"]
                               * np.sqrt(spread / 4000), rtol=0.15)


def test_she_modes_within_grid():
    cfg = SimConfig(n_grid=8)
    for modes in (0, 8, 10):
        with pytest.raises(ValueError, match=r"modes must lie in 1\.\.7"):
            she_simulate(cfg, modes=modes, n_replicas=2)
    assert she_simulate(cfg, modes=7, n_replicas=2)["mode_var"].shape == (1, 7)


@pytest.mark.parametrize("n_replicas", [-1, 0, 1])
def test_she_needs_two_replicas(n_replicas):
    # one replica has no standard error, none divides by zero
    with pytest.raises(ValueError, match=f"at least 2, got {n_replicas}"):
        she_simulate(SimConfig(n_grid=8), modes=2, n_replicas=n_replicas)


@pytest.mark.parametrize("n", [48, 49, 64])
def test_wavenumbers_are_exact_integers(n):
    k_all, lam = periodic_laplacian(n)
    assert np.array_equal(k_all, np.round(k_all))
    assert sorted(k_all.astype(int) % n) == list(range(n))
    for k, value in zip(k_all, lam):
        assert value == laplacian_symbol(k, n)
        assert value == laplacian_symbol(int(k), n)


def test_heat_decay():
    assert heat_decay_error(SimConfig(n_grid=64, dim=1)) < 1e-6
    # the implicit scheme's deviation from the continuum decay is first order
    assert exact_heat_comparison(SimConfig(n_grid=64, dim=1)) < 1e-2


def test_cfl_guard():
    with pytest.raises(StabilityError):
        SimConfig(n_grid=32, dt=1.0)
    with pytest.raises(StabilityError):
        sphere_simulate(n_grid=32, dt=1.0)


def test_blow_up_guard():
    # the flat solver has no grid field to watch, so it decides a blow-up
    # from the stationary per-site deviation before the burn
    with pytest.raises(StabilityError, match="stationary site deviation "
                       r"\S+ exceeds the blow-up limit 1e\+05"):
        she_simulate(SimConfig(n_grid=16, noise_scale=1e9), modes=2,
                     n_replicas=4)
    with pytest.raises(StabilityError, match="blew up"):
        sphere_simulate(n_grid=16, n_steps=5, noise_scale=1e9)


def test_flat_she_noise_scale_keeps_the_draws():
    # the noise scale enters through the mixing only, so the same seed gives
    # the same draws and every second moment scales by its square, exactly
    runs = [she_simulate(SimConfig(n_grid=32, dim=2, n_noise=2, seed=4,
                                   noise_scale=scale), modes=5, n_replicas=10)
            for scale in (1.0, 2.0)]
    for key in ("mode_var", "se", "oracle"):
        assert np.array_equal(runs[1][key], 4 * runs[0][key])


@pytest.mark.parametrize("noise_scale", [1.0, 1e3])
def test_blow_up_guard_passes_moderate_noise(noise_scale):
    res = she_simulate(SimConfig(n_grid=64, noise_scale=noise_scale),
                       modes=2, n_replicas=2)
    assert np.isfinite(res["mode_var"]).all()


def test_sphere_refinement():
    T = 0.05
    n1 = 48
    dt1 = 0.05 * (2 * math.pi / n1) ** 2
    coarse = sphere_simulate(n_grid=n1, dt=dt1, n_steps=int(T / dt1),
                             noise_scale=0.0)
    fine = sphere_simulate(n_grid=2 * n1, dt=dt1 / 2,
                           n_steps=int(T / (dt1 / 2)), noise_scale=0.0)
    assert coarse["max_dist"] >= 2.0 * fine["max_dist"]


def test_sphere_curve_shortening():
    out = sphere_simulate(n_grid=48, n_steps=400, noise_scale=0.0)
    lengths = out["lengths"]
    assert all(a >= b - 1e-12 for a, b in zip(lengths, lengths[1:]))


def test_sphere_noisy_tube_and_snapshots():
    out = sphere_simulate(n_grid=48, n_steps=400, seed=2)
    assert out["max_dist"] < 0.9
    assert len(out["snapshots"]) > 0


@pytest.mark.parametrize("n_grid, shift, seed", [(48, 7, 2), (33, 1, 5)])
def test_sphere_solver_is_rotation_equivariant(n_grid, shift, seed,
                                               monkeypatch):
    # pathwise: the rotation R about the z-axis through 2 pi shift / N maps
    # the initial loop to itself rolled by -shift grid points, and the drift,
    # the projection and the smoothing commute with R and with rolls, so the
    # noise R eta rolled by shift gives the original run, rotated and rolled
    N = n_grid
    th = 2.0 * math.pi * shift / N
    R = np.array([[math.cos(th), -math.sin(th), 0.0],
                  [math.sin(th), math.cos(th), 0.0],
                  [0.0, 0.0, 1.0]])
    base = sphere_simulate(n_grid=N, n_steps=400, seed=seed)
    default_rng = np.random.default_rng

    class Rotated:
        def __init__(self, s):
            self.rng = default_rng(s)

        def standard_normal(self, shape):
            eta = self.rng.standard_normal(shape)  # (steps, 3, N)
            return np.roll(np.einsum("ab,sbn->san", R, eta), shift, axis=2)

    monkeypatch.setattr(np.random, "default_rng", Rotated)
    turned = sphere_simulate(n_grid=N, n_steps=400, seed=seed)
    rows, rows_turned = np.array(base["snapshots"]), np.array(turned["snapshots"])
    assert np.array_equal(rows[:, :2], rows_turned[:, :2])
    fields = rows[:, 2:].reshape(5, N, 3)
    want = np.roll(np.einsum("ab,snb->sna", R, fields), shift, axis=1)
    # measured max deviation: 2.9e-14 (N = 48) and 7.6e-15 (N = 33)
    assert np.abs(rows_turned[:, 2:].reshape(5, N, 3) - want).max() < 1e-12
    assert turned["lengths"] == pytest.approx(base["lengths"], rel=1e-12)
    assert turned["max_dist"] == pytest.approx(base["max_dist"], rel=1e-12)


def ref_sphere_simulate(n_grid=64, dt=None, n_steps=400, seed=0,
                        noise_scale=1.0):
    """The sphere solver with one (3, N) noise draw and one complex
    smoothing round trip per step, and the projection terms each computing
    |u| afresh."""
    def proj_hessian_term(u, ux):
        r2 = np.sum(u * u, axis=0)
        r = np.sqrt(r2)
        udot = np.sum(u * ux, axis=0)
        ux2 = np.sum(ux * ux, axis=0)
        return (-2.0 * ux * udot / (r2 * r) - u * ux2 / (r2 * r)
                + 3.0 * u * udot * udot / (r2 * r2 * r))

    def proj_jacobian_apply(u, w):
        r2 = np.sum(u * u, axis=0)
        r = np.sqrt(r2)
        udot = np.sum(u * w, axis=0)
        return w / r - u * udot / (r2 * r)

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
    max_dist = 0.0
    lengths = []
    snaps = []
    record_at = np.linspace(0, n_steps - 1, 5, dtype=int)
    for step in range(n_steps):
        ux = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * dx)
        drift = -proj_hessian_term(u, ux)
        if noise_scale:
            eta = rng.standard_normal((3, N)) * math.sqrt(dt / dx)
            eta = np.real(np.fft.ifft(np.fft.fft(eta, axis=1) * smooth[None, :],
                                      axis=1))
            noise = proj_jacobian_apply(u, noise_scale * eta)
        else:
            noise = 0.0
        rhs = u + dt * drift + noise
        u = _implicit_step(rhs, gain)
        if not np.isfinite(u).all() or np.abs(u).max() > 1e3:
            raise StabilityError(f"sphere run blew up at step {step}")
        dist = float(np.max(np.abs(np.sqrt(np.sum(u * u, axis=0)) - 1.0)))
        max_dist = max(max_dist, dist)
        if step in record_at:
            seg = np.sqrt(np.sum((np.roll(u, -1, axis=1) - u) ** 2, axis=0))
            lengths.append(float(np.sum(seg)))
            for j in range(N):
                snaps.append((step * dt, x[j], u[0, j], u[1, j], u[2, j]))
    return {"max_dist": max_dist, "lengths": lengths, "snapshots": snaps}


def noise_block(n_grid):
    """Steps per noise block of the sphere solver on n_grid points."""
    return max(1, _NOISE_BLOCK_BYTES // (3 * 8 * n_grid))


@pytest.mark.parametrize("n_grid, steps, kw", [
    (64, lambda b: b // 2, {}),             # shorter than one block
    (64, lambda b: b + 1, {"seed": 4}),     # one step past a block boundary
    (16, lambda b: 3 * b + 7, {"seed": 5}),  # several blocks
    (33, lambda b: 2 * b + 5, {"noise_scale": 0.5, "seed": 3}),  # odd N
    (48, lambda b: b + 1, {"noise_scale": 0.0}),
])
def test_sphere_matches_per_step_reference(n_grid, steps, kw):
    n_steps = steps(noise_block(n_grid))
    assert sphere_simulate(n_grid=n_grid, n_steps=n_steps, **kw) \
        == ref_sphere_simulate(n_grid=n_grid, n_steps=n_steps, **kw)


def test_sphere_without_noise_draws_nothing(monkeypatch):
    class NoDraws:
        def __init__(self, seed):
            pass

        def standard_normal(self, shape):
            raise AssertionError(f"drew {shape} at noise_scale 0")

    monkeypatch.setattr(np.random, "default_rng", NoDraws)
    out = sphere_simulate(n_grid=16, n_steps=2 * noise_block(16) + 1,
                          noise_scale=0.0)
    assert len(out["lengths"]) == 5


def test_seeded_reproducibility():
    cfg = SimConfig(n_grid=32, dim=1, n_noise=1, seed=11)
    r1 = she_simulate(cfg, modes=4, n_replicas=20)
    r2 = she_simulate(SimConfig(n_grid=32, dim=1, n_noise=1, seed=11),
                      modes=4, n_replicas=20)
    assert np.array_equal(r1["mode_var"], r2["mode_var"])
    s1 = sphere_simulate(n_grid=32, n_steps=50, seed=7)
    s2 = sphere_simulate(n_grid=32, n_steps=50, seed=7)
    assert s1["max_dist"] == s2["max_dist"]
