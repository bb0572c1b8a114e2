"""Acceptance gate: every checkable claim at its stated tolerance.

Each criterion prints one PASS/FAIL line; run with ``pytest -s
tests/test_acceptance.py`` to see the report.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gshe.algebra import LinComb, inner
from gshe.graphs import XGraph
from gshe.morphisms import (A1, A2, B1, B2, covariant_symbols, m_ito, nabla,
                            p_ito, pair_ab, phi_hat_geo, phi_ito, tau_c,
                            tau_star)
from gshe.symbols import (DIFF, GAMMA, NOISE, enumerate_basis, full_basis)


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_enumeration():
    t0 = time.time()
    two = enumerate_basis(2)
    four = enumerate_basis(4)
    elapsed = time.time() - t0
    ok = len(two) == 2 and len(four) == 52 and elapsed < 10
    _report("criterion 1: basis enumerates 2 + 52 = 54 paired symbols",
            ok, f"{elapsed:.1f}s")


def test_criterion_2_dimensions():
    from gshe.subspaces import dimension_report

    t0 = time.time()
    rows = dimension_report()
    elapsed = time.time() - t0
    bad = [(n, e, g) for n, e, g in rows if e != g]
    ok = not bad and elapsed < 60
    _report("criterion 2: all subspace dimensions exact "
            "(15/19/32/2/13/1/12)", ok, f"{elapsed:.1f}s {bad or ''}")


def test_criterion_3_golden_expansions():
    ok = True
    notes = []
    # tau_star: 10 terms, the printed coefficient multiset
    ts = 8 * tau_star()
    ok &= len(ts) == 10 and sorted(ts.coefficients()) == sorted(
        Fraction(c) for c in (4, 4, -8, -2, 2, 2, -4, -1, 2, 1))
    # tau_c: 12 terms, coefficients in {+-4, +-2, +-1}
    tc = 8 * tau_c()
    ok &= len(tc) == 12 and sorted(tc.coefficients()) == sorted(
        Fraction(c) for c in (4, -4, 4, -4, 2, -2, -4, 4, 2, -2, 1, -1))
    # the missing covariant word equals the seven-term combination
    N = nabla
    w = covariant_symbols()
    rel = w[0] + w[2] - w[6] - w[8] + w[9] - w[10] + w[11]
    ok &= pair_ab(N(B1, N(A1, N(B2, A2)))) == rel
    notes.append("relationV")
    # infinitesimal action on the two-noise sector, derived by hand from the
    # generator images: the thin pairing maps to the h-rooted star, the
    # thick pairing to -2 times it, so the covariant derivative is killed
    basis = full_basis()
    thin = next(s for s in basis if len(s.types) == 2)
    thick = next(s for s in basis
                 if any(t.name == GAMMA.name for t in s.types)
                 and sum(t.name == NOISE.name for t in s.types) == 2)
    h2star = XGraph(1, 0, (DIFF, NOISE, NOISE),
                    {(0, 1): ("u", 1), (1, 1): (0, 0), (2, 1): (0, 0)},
                    [(1, 2)])
    ok &= phi_hat_geo(LinComb.of(thin)) == LinComb.of(h2star)
    ok &= phi_hat_geo(LinComb.of(thick)) == -2 * LinComb.of(h2star)
    ok &= phi_hat_geo(LinComb.of(thin) + Fraction(1, 2) * LinComb.of(thick)) \
        == LinComb()
    notes.append("phi_hat_geo two-noise goldens")
    # the Ito projection worked example: a half-half pair with merged
    # coefficient 1/4, and a cyclic symbol annihilated with coefficient 1/4
    found_pair = found_killed = False
    for s in basis:
        mi = m_ito(LinComb.of(s))
        if len(mi) != 1:
            continue
        (g, c), = mi.terms.items()
        if c != Fraction(1, 4):
            continue
        P = p_ito(LinComb.of(s))
        if not P and g.has_directed_cycle():
            found_killed = True
        if len(P) == 2 and set(P.terms.values()) == {Fraction(1, 2)}:
            partner = next(h for h in P.terms if h != s)
            if phi_ito(2 * mi) == LinComb.of(s) + LinComb.of(partner):
                found_pair = True
    ok &= found_pair and found_killed
    notes.append("P_ito examples")
    # the adjoint functional identity from the dimension-count proof
    from gshe.subspaces import _gamma_root_pairings, _nice_star_symbol, s_geo

    star = _nice_star_symbol()
    same, mixed = _gamma_root_pairings()
    h4 = XGraph(1, 0, (DIFF, NOISE, NOISE, NOISE, NOISE),
                {(0, 1): ("u", 1), (1, 1): (0, 0), (2, 1): (0, 0),
                 (3, 1): (0, 0), (4, 1): (0, 0)}, [(1, 2), (3, 4)])
    Y = LinComb.of(h4)
    adj = LinComb()
    for s in basis:
        c = inner(phi_hat_geo(LinComb.of(s)), Y)
        if c:
            adj = adj + LinComb.of(s, Fraction(c, s.aut_count()))
    combo = (Fraction(1, 2) * LinComb.of(star) - LinComb.of(mixed)
             - Fraction(1, 2) * LinComb.of(same))
    ok &= adj == h4.aut_count() * combo
    # and the combination annihilates the geometric subspace
    from gshe.subspaces import _coords

    cvec = _coords(combo)
    ok &= all(sum(a * b * g.aut_count()
                  for a, b, g in zip(cvec, w, basis)) == 0
              for w in s_geo())
    notes.append("phi_hat_geo adjoint identity")
    _report("criterion 3: golden expansions match term by term", ok,
            ", ".join(notes))


@pytest.mark.parametrize("suite,cases", [("talgebra", 500), ("adjoint", 500),
                                         ("identities", 500), ("jets", 40)])
def test_criterion_4_property_suites(suite, cases):
    from gshe.checks import SUITES

    rows = SUITES[suite](seed=0, cases=cases)
    bad = [(n, c, f) for n, c, f in rows if f]
    ok = not bad
    _report(f"criterion 4: property suite {suite} "
            f"({sum(c for _, c, _ in rows)} cases)", ok, str(bad or "0 failures"))


def test_criterion_5_jet_identities():
    import random

    from gshe.jets import (Jet, TensorJet, Valuation, covariant_derivative,
                           curvature_counterterm, gradient_counterterm,
                           inverse_metric, levi_civita, random_gamma,
                           random_vector_field, sphere_frame, vector_jet,
                           zero_jet)
    from gshe.subspaces import from_coords, intersect, s_geo, s_nice

    t0 = time.time()
    ok = True
    for seed in range(11, 16):
        rng = random.Random(seed)
        d = 2 if seed % 2 else 3
        m = 2 if seed % 3 else 3
        gamma = random_gamma(rng, d, 5)
        sig = [random_vector_field(rng, d, 5) for _ in range(m)]
        val = Valuation(gamma, sig)
        e1 = curvature_counterterm(gamma, sig)
        e2 = gradient_counterterm(gamma, sig)
        v1, v2 = val(tau_star()), val(tau_c())
        ok &= all(v1.value((a,)) == e1.value((a,)) for a in range(d))
        ok &= all(v2.value((a,)) == e2.value((a,)) for a in range(d))
    # Levi-Civita data kills tau_star
    rng = random.Random(21)
    d = 2
    sig = [random_vector_field(rng, d, 6) for _ in range(d)]
    sig[0] = sig[0] + vector_jet(d, 6, [Jet.constant(d, 6, 5),
                                        zero_jet(d, 6)])
    sig[1] = sig[1] + vector_jet(d, 6, [zero_jet(d, 6),
                                        Jet.constant(d, 6, 5)])
    gamma = levi_civita(sig)
    v = Valuation(gamma, sig)(tau_star())
    ok &= all(v.value((a,)) == 0 for a in range(d))
    # nice geometric vectors vanish where Gamma = 0 and d sigma = 0
    gamma0 = TensorJet(1, 2, d, 5, {})
    sigs = []
    for _ in range(2):
        comps = []
        for _ in range(d):
            cf = {k: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                  for k in [(0, 0), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1)]}
            comps.append(Jet(d, 5, cf))
        sigs.append(vector_jet(d, 5, comps))
    val0 = Valuation(gamma0, sigs)
    for vec in intersect(s_geo(), s_nice()):
        tv = val0(from_coords(vec))
        ok &= all(tv.value((a,)) == 0 for a in range(d))
    # sphere frame identities at (1,0,0)
    sigmas, gam = sphere_frame((1, 0, 0), order=4)
    g0 = inverse_metric(sigmas)
    for a in range(3):
        for b in range(3):
            expect = Fraction(1 if a == b else 0) \
                - Fraction(1 if a == 0 and b == 0 else 0)
            ok &= g0.value((a, b)) == expect
    total = None
    for s in sigmas:
        t = covariant_derivative(gam, s).contract_lower(1, s)
        total = t if total is None else total + t
    ok &= all(total.value((a,)) == 0 for a in range(3))
    elapsed = time.time() - t0
    ok &= elapsed < 300
    _report("criterion 5: jet identities exact on 5 seeds + Levi-Civita + "
            "nice vanishing + sphere frame", ok, f"{elapsed:.0f}s")


def test_criterion_6_constants():
    from gshe.renorm import (K3_SLOPE, Mollifier, cbar_estimate,
                             k3_log_slope, p3_identity)

    t0 = time.time()
    ok = abs(p3_identity(0.1) - 1.0) < 1e-6
    ok &= abs(p3_identity(1.0) - 1.0) < 1e-6
    rho = Mollifier()
    slope, _ = k3_log_slope(rho, [0.2, 0.1, 0.05, 0.025])
    ok &= abs(slope - K3_SLOPE) / K3_SLOPE < 0.10
    vals = [cbar_estimate(rho, e) for e in (0.1, 0.05, 0.025)]
    for a, b in zip(vals, vals[1:]):
        ok &= abs(b - a) / abs(a) < 0.02
    elapsed = time.time() - t0
    ok &= elapsed < 300
    _report("criterion 6: p3 within 1e-6, k3 slope within 10%, "
            "cbar stable to 2%", ok,
            f"slope {slope:.5f} vs {K3_SLOPE:.5f}, {elapsed:.0f}s")


def test_criterion_7_discrete_loop():
    from gshe.renorm import ou_loop_covariance, ou_loop_mc

    a2, a1 = ou_loop_covariance(256)
    ok = 0.98 <= a2 <= 1.02 and -0.52 <= a1 <= -0.48
    a2m, a1m, se2, se1 = ou_loop_mc(64, n_samples=2000, seed=3)
    a2e, a1e = ou_loop_covariance(64)
    ok &= abs(a2m - a2e) < 3 * se2 and abs(a1m - a1e) < 3 * se1
    _report("criterion 7: discrete loop covariance (1, -1/2) and MC within "
            "3 s.e.", ok, f"a2={a2:.4f}, a1={a1:.4f}")


def test_criterion_8_simulators():
    from gshe.renorm import SimConfig, she_simulate, sphere_simulate

    sigma = np.array([[1.0, 0.5], [0.0, 1.2]])
    cfg = SimConfig(n_grid=64, dim=2, n_noise=2, seed=5, sigma=sigma)
    res = she_simulate(cfg, modes=8, n_replicas=120)
    z = np.abs(res["mode_var"] - res["oracle"]) / res["se"]
    ok = float(z.max()) < 3.5
    th = 0.7
    Q = np.array([[math.cos(th), -math.sin(th)],
                  [math.sin(th), math.cos(th)]])
    res2 = she_simulate(SimConfig(n_grid=64, dim=2, n_noise=2, seed=6,
                                  sigma=sigma @ Q), modes=8, n_replicas=120)
    z2 = np.abs(res2["mode_var"] - res["oracle"]) / res2["se"]
    ok &= float(z2.max()) < 3.5
    T = 0.05
    n1 = 48
    dt1 = 0.05 * (2 * math.pi / n1) ** 2
    coarse = sphere_simulate(n_grid=n1, dt=dt1, n_steps=int(T / dt1),
                             noise_scale=0.0)
    fine = sphere_simulate(n_grid=2 * n1, dt=dt1 / 2,
                           n_steps=int(T / (dt1 / 2)), noise_scale=0.0)
    ok &= coarse["max_dist"] >= 2.0 * fine["max_dist"]
    _report("criterion 8: flat SHE modes within 95% CI, rotated sigma "
            "indistinguishable, sphere distance halves under refinement",
            ok, f"max|z|={float(z.max()):.2f}, "
            f"ratio={coarse['max_dist']/fine['max_dist']:.1f}")
