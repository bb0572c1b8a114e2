import math

import numpy as np
import pytest

from gshe import renorm
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


def test_ou_mc_matches_exact():
    a2m, a1m, se2, se1 = ou_loop_mc(64, n_steps=2000, burn=300, seed=3)
    a2e, a1e = ou_loop_covariance(64)
    assert abs(a2m - a2e) < 3 * se2
    assert abs(a1m - a1e) < 3 * se1


def test_ou_zero_mode_projected():
    # stationary samples have (numerically) zero mean by construction
    import numpy as np

    from gshe.renorm import ou_loop_mc

    a2m, a1m, _, _ = ou_loop_mc(32, n_steps=500, burn=100, seed=1)
    assert math.isfinite(a2m) and math.isfinite(a1m)


def ref_ou_loop_mc(N: int, n_steps=3000, burn=300, seed=0):
    """Reference loop: one draw, irfft, roll and mean per step."""
    rng = np.random.default_rng(seed)
    eps = 1.0 / N
    half = N // 2
    k = np.arange(half + 1)
    theta = 2.0 * math.pi * k / N
    lam = np.where(k > 0, (2.0 - 2.0 * np.cos(theta)) / eps ** 2, 1.0)
    stat = np.where(k > 0, N * eps / np.maximum(2.0 - 2.0 * np.cos(theta), 1e-300), 0.0)
    dt = 0.25 * eps ** 2
    decay = np.exp(-lam * dt)
    step_var = stat * (1.0 - decay ** 2)
    real_mode = np.zeros(half + 1, dtype=bool)
    real_mode[0] = True
    if N % 2 == 0:
        real_mode[half] = True

    def complex_noise(var):
        re = rng.standard_normal(half + 1)
        im = rng.standard_normal(half + 1)
        out = np.where(real_mode, re * np.sqrt(var),
                       (re + 1j * im) * np.sqrt(var / 2.0))
        return out

    z = complex_noise(stat)
    z[0] = 0.0
    samples2, samples1 = [], []
    for step in range(n_steps + burn):
        z = decay * z + complex_noise(step_var)
        z[0] = 0.0
        if step < burn:
            continue
        u = np.fft.irfft(z, n=N)
        du = np.roll(u, -1) - u
        samples2.append(np.mean(du * du) / eps)
        samples1.append(np.mean(u * du) / eps)
    a2, a1 = float(np.mean(samples2)), float(np.mean(samples1))
    nb = 20
    se2 = float(np.std([np.mean(b) for b in np.array_split(samples2, nb)],
                       ddof=1) / math.sqrt(nb))
    se1 = float(np.std([np.mean(b) for b in np.array_split(samples1, nb)],
                       ddof=1) / math.sqrt(nb))
    return a2, a1, se2, se1


CHUNK = renorm._OU_CHUNK_STEPS


@pytest.mark.parametrize("args", [
    (64,),
    (63,),
    # a burn that ends inside a chunk, and a run shorter than one chunk
    (32, 2 * CHUNK, CHUNK + 44, 5),
    (16, CHUNK // 3, 10, 2),
])
def test_ou_mc_matches_per_step_reference(args):
    # the same draws and the same arithmetic per sample, so equal bits
    assert ou_loop_mc(*args) == ref_ou_loop_mc(*args)


@pytest.mark.parametrize("kwargs, match", [
    # fewer steps than the 20 batch means leaves batches empty (nan errors)
    ({"n_steps": 10, "burn": 3}, "n_steps must be at least 20, got 10"),
    ({"n_steps": 19}, "n_steps must be at least 20, got 19"),
    # a negative burn would leave rows of the sample arrays unwritten
    ({"n_steps": 100, "burn": -5}, "burn must not be negative, got -5"),
])
def test_ou_mc_rejects_bad_sizes(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ou_loop_mc(8, **kwargs)
    assert np.isfinite(ou_loop_mc(8, n_steps=20, burn=0)).all()


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
