import math

import numpy as np
import pytest

from gshe.renorm import (K3_SLOPE, Mollifier, SimConfig, StabilityError,
                         cbar_estimate, flat_mode_variance_oracle,
                         heat_decay_error, heat_kernel, k3_log_slope,
                         laplacian_symbol, ou_loop_covariance, ou_loop_mc,
                         p3_identity, periodic_laplacian, she_simulate,
                         sphere_simulate)


def mollifier_mass(rho, n=400):
    """Midpoint-rule integral of the mollifier over its support."""
    ts = (np.arange(n) + 0.5) / n * rho.t_support
    xs = (np.arange(2 * n) + 0.5) / n * rho.x_support - rho.x_support
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    return rho(tt, xx).sum() * (rho.t_support / n) * (rho.x_support / n)


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


def test_seeded_reproducibility():
    cfg = SimConfig(n_grid=32, dim=1, n_noise=1, seed=11)
    r1 = she_simulate(cfg, modes=4, n_replicas=20)
    r2 = she_simulate(SimConfig(n_grid=32, dim=1, n_noise=1, seed=11),
                      modes=4, n_replicas=20)
    assert np.array_equal(r1["mode_var"], r2["mode_var"])
    s1 = sphere_simulate(n_grid=32, n_steps=50, seed=7)
    s2 = sphere_simulate(n_grid=32, n_steps=50, seed=7)
    assert s1["max_dist"] == s2["max_dist"]
