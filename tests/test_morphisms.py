import importlib.resources as resources
import random
from fractions import Fraction

import pytest

from gshe.algebra import (LinComb, derive, generator, graft, inner,
                          parse_lincomb, product, trace, unit)
from gshe.graphs import XGraph
from gshe.morphisms import (A1, A2, B1, B2, M_ito, covariant_symbols,
                            curvature, lie_bracket, m_ito, nabla, p_acyc,
                            p_ito, pair_ab, phi_geo, phi_hat_geo, phi_ito,
                            tau_c, tau_star)
from gshe.randgraphs import random_graph, random_lincomb
from gshe.symbols import (DIFF, GAMMA, GENERATORS, NOISE, basis_positions,
                          full_basis, labeled_noise)

GENS = [NOISE, GAMMA]


def basis_index(s):
    return basis_positions()[s.canonicalize()[0].canonical_key()]


def ref_graft(a, b):
    return trace(product(derive(b), a))


def ref_nabla(a, b):
    christoffel = trace(trace(product(product(generator(GAMMA), a), b)))
    return ref_graft(a, b) + Fraction(1, 2) * christoffel


@pytest.mark.parametrize("paired", [False, True])
def test_fused_graft_and_nabla_match_reference(rng, paired):
    # graft and the Christoffel term are single graph maps; the unfused
    # compositions of derive, product and trace are the reference
    zero = LinComb()
    for _ in range(15):
        a, b = (random_lincomb(rng, GENS, n_terms=rng.randint(1, 3),
                               degree=(1, 0), max_vertices=3,
                               pair_noises=paired) for _ in range(2))
        assert graft(a, b) == ref_graft(a, b)
        assert nabla(a, b) == ref_nabla(a, b)
        assert graft(a, unit()) == ref_graft(a, unit()) == zero
        for x, y in ((a, zero), (zero, b), (zero, zero)):
            assert graft(x, y) == ref_graft(x, y) == zero
            assert nabla(x, y) == ref_nabla(x, y) == zero


def test_nabla_flat_projection(rng):
    # dropping Christoffel terms reduces nabla to grafting
    for _ in range(10):
        x = generator(labeled_noise(1))
        y = generator(labeled_noise(2))
        nb = nabla(x, y)
        flat = LinComb((g, c) for g, c in nb.terms.items()
                       if all(t.name != GAMMA.name for t in g.types))
        assert flat == graft(x, y)


def test_nabla_nn_expansion():
    # two terms: the grafted pair and half the Christoffel cherry
    word = pair_ab(nabla(A1, A2))
    assert sorted(word.coefficients()) == [Fraction(1, 2), Fraction(1)]


def test_curvature_four_terms():
    x, y, z = (generator(labeled_noise(i)) for i in (1, 3, 4))
    R = curvature(x, y, z)
    assert sorted(R.coefficients()) == [Fraction(-1, 2), Fraction(-1, 4),
                                        Fraction(1, 4), Fraction(1, 2)]


def test_curvature_antisymmetry():
    x, y = generator(labeled_noise(1)), generator(labeled_noise(2))
    z = generator(labeled_noise(3))
    assert curvature(x, x, z) == LinComb()
    assert curvature(x, y, z) == -1 * curvature(y, x, z)


def test_tau_star_golden():
    ts = 8 * tau_star()
    assert len(ts) == 10
    assert sorted(ts.coefficients()) \
        == sorted(Fraction(c) for c in (4, 4, -8, -2, 2, 2, -4, -1, 2, 1))
    data = resources.files("gshe.data").joinpath("tau_star.txt").read_text()
    assert parse_lincomb(data, GENERATORS) == ts


def test_tau_c_golden():
    tc = 8 * tau_c()
    assert len(tc) == 12
    assert sorted(tc.coefficients()) \
        == sorted(Fraction(c) for c in (4, -4, 4, -4, 2, -2, -4, 4, 2, -2, 1, -1))
    data = resources.files("gshe.data").joinpath("tau_c.txt").read_text()
    assert parse_lincomb(data, GENERATORS) == tc
    # tau_c contains the two Christoffel-root pairings with coefficients -+1/2
    from gshe.subspaces import _gamma_root_pairings

    same, mixed = _gamma_root_pairings()
    assert tc.terms.get(same) == Fraction(-4)
    assert tc.terms.get(mixed) == Fraction(4)


def test_relation_v():
    N = nabla
    lhs = pair_ab(N(B1, N(A1, N(B2, A2))))
    w = covariant_symbols()
    rhs = w[0] + w[2] - w[6] - w[8] + w[9] - w[10] + w[11]
    assert lhs == rhs


def test_phi_geo_unit_and_domain():
    from gshe.algebra import unit

    assert phi_geo(unit()) == LinComb()
    with pytest.raises(ValueError):
        phi_geo(generator(DIFF))


def test_phi_geo_noise_is_bracket():
    xi = generator(NOISE)
    h = generator(DIFF)
    assert phi_geo(xi) == lie_bracket(xi, h)
    assert phi_hat_geo(xi) == LinComb()


def test_phi_geo_infinitesimal(rng):
    for _ in range(15):
        a = random_graph(rng, GENS, max_vertices=2)
        b = random_graph(rng, GENS, max_vertices=2)
        A, B = LinComb.of(a), LinComb.of(b)
        assert phi_geo(product(A, B)) \
            == product(phi_geo(A), B) + product(A, phi_geo(B))
        assert phi_geo(derive(A)) == derive(phi_geo(A))
        if a.u >= 1 and a.l >= 1:
            assert phi_geo(trace(A)) == trace(phi_geo(A))


def test_phi_hat_geo_kernel_members():
    assert phi_hat_geo(tau_star()) == LinComb()
    assert phi_hat_geo(tau_c()) == LinComb()
    for v in covariant_symbols():
        assert phi_hat_geo(v) == LinComb()


def test_phi_hat_geo_adjoint_identity():
    """The h-rooted four-star detects exactly the geo-orthogonal combination.

    Computed via inner products: sum over basis symbols s of
    <phi_hat(s), Y>/S(s,P) s, normalised by |Y|^2, equals
    (1/2) star - mixed - (1/2) same.
    """
    from gshe.subspaces import _gamma_root_pairings, _nice_star_symbol

    star = _nice_star_symbol()
    same, mixed = _gamma_root_pairings()
    h4 = XGraph(1, 0, (DIFF, NOISE, NOISE, NOISE, NOISE),
                {(0, 1): ("u", 1), (1, 1): (0, 0), (2, 1): (0, 0),
                 (3, 1): (0, 0), (4, 1): (0, 0)}, [(1, 2), (3, 4)])
    Y = LinComb.of(h4)
    adj = LinComb()
    for s in full_basis():
        c = inner(phi_hat_geo(LinComb.of(s)), Y)
        if c:
            adj = adj + LinComb.of(s, Fraction(c, s.aut_count()))
    expected = (Fraction(1, 2) * LinComb.of(star) - LinComb.of(mixed)
                - Fraction(1, 2) * LinComb.of(same))
    assert adj == h4.aut_count() * expected


def test_lie_bracket_properties(rng):
    a = generator(NOISE)
    assert lie_bracket(a, a) == LinComb()
    xs = [nabla(A1, A2), graft(B1, B2), A1]
    jac = (lie_bracket(xs[0], lie_bracket(xs[1], xs[2]))
           + lie_bracket(xs[1], lie_bracket(xs[2], xs[0]))
           + lie_bracket(xs[2], lie_bracket(xs[0], xs[1])))
    assert jac == LinComb()


def test_m_ito_thick_cherry():
    # merging the paired thick cherry gives the merged generator plugged
    # into the Christoffel natives, with no star edges so coefficient one
    from gshe.subspaces import _nice_star_symbol

    basis = full_basis()
    cherry = next(s for s in basis
                  if sum(t.name == NOISE.name for t in s.types) == 2
                  and any(t.name == GAMMA.name for t in s.types))
    merged = m_ito(LinComb.of(cherry))
    (g, c), = merged.terms.items()
    assert c == 1
    assert sorted(t.name for t in g.types) == ["Gamma", "g"]


def test_m_ito_star_coefficients():
    # k star edges into a pair give 2^-k
    basis = full_basis()
    thin = next(s for s in basis
                if sum(t.name == NOISE.name for t in s.types) == 2
                and all(t.name == NOISE.name for t in s.types))
    merged = m_ito(LinComb.of(thin))
    (g, c), = merged.terms.items()
    assert c == Fraction(1, 2)
    assert g.has_directed_cycle()  # output into own star after merging


def test_p_ito_structure():
    basis = full_basis()
    P = [p_ito(LinComb.of(s)) for s in basis]
    fixed = [i for i in range(54) if P[i] == LinComb.of(basis[i])]
    killed = [i for i in range(54) if not P[i]]
    halves = set()
    for i in range(54):
        if len(P[i]) == 2 and set(P[i].terms.values()) == {Fraction(1, 2)}:
            halves.add(frozenset(basis_index(g) for g in P[i].terms))
    assert len(fixed) == 16
    assert len(halves) == 3
    assert len(killed) == 32
    assert all(i in pair for pair in halves for i in pair) or True
    # the printed example: P(s) = s/2 + s'/2 and m(s) = merged/4
    example = None
    for pair in halves:
        i, j = sorted(pair)
        mi = m_ito(LinComb.of(basis[i]))
        if len(mi) == 1 and list(mi.terms.values())[0] == Fraction(1, 4):
            example = (i, j, mi)
    assert example is not None
    i, j, mi = example
    assert p_ito(LinComb.of(basis[i])) \
        == Fraction(1, 2) * (LinComb.of(basis[i]) + LinComb.of(basis[j]))
    # and the merged graph expands back to the sum of the two symbols
    assert phi_ito(2 * mi) == LinComb.of(basis[i]) + LinComb.of(basis[j])


def test_p_ito_kills_cyclic_merges():
    basis = full_basis()
    found = False
    for s in basis:
        mi = m_ito(LinComb.of(s))
        (g, c), = mi.terms.items()
        if c == Fraction(1, 4) and g.has_directed_cycle():
            assert p_ito(LinComb.of(s)) == LinComb()
            found = True
    assert found


def test_p_ito_idempotent_self_adjoint(rng):
    basis = full_basis()
    for _ in range(40):
        x = LinComb()
        y = LinComb()
        for _ in range(3):
            x = x + LinComb.of(basis[rng.randrange(54)], rng.randint(-3, 3))
            y = y + LinComb.of(basis[rng.randrange(54)], rng.randint(-3, 3))
        px = p_ito(x)
        assert p_ito(px) == px
        assert inner(px, y) == inner(x, p_ito(y))


def test_M_ito_commutes_with_p_acyc(rng):
    basis = full_basis()
    for _ in range(20):
        x = LinComb.of(basis[rng.randrange(54)], rng.randint(1, 3))
        assert M_ito(p_acyc(x)) == p_acyc(M_ito(x))


def test_m_ito_phi_ito_inversion():
    basis = full_basis()
    for s in basis[:20]:
        m = m_ito(LinComb.of(s))
        assert m_ito(phi_ito(m)) == m
        assert phi_ito(m) == M_ito(LinComb.of(s))


def test_pairing_required():
    bare = XGraph(1, 0, (NOISE,), {(0, 1): ("u", 1)})
    with pytest.raises(Exception):
        m_ito(LinComb.of(bare))
    with pytest.raises(Exception):
        M_ito(LinComb.of(bare))
