import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gshe.algebra import LinComb, act, decompose, derive, product, trace
from gshe.jets import (InversionError, Jet, TensorJet, Valuation,
                       contract, covariant_derivative,
                       curvature_counterterm,
                       gradient_counterterm, inverse_metric, jet_inv_sqrt,
                       levi_civita, matrix_inverse, random_gamma, random_jet,
                       random_vector_field, riemann,
                       scalar_curvature_gradient, sphere_frame,
                       vector_jet, zero_jet, _mat_mul)
from gshe.graphs import DegreeError, ParseError, XGraph
from gshe.morphisms import M_ito, m_ito, tau_c, tau_star
from gshe.randgraphs import random_graph, random_lincomb, random_permutation
from gshe.subspaces import from_coords, intersect, s_geo, s_nice
from gshe.symbols import (DIFF, GAMMA, GPAIR, NOISE, full_basis,
                          iota_expand, labeled_noise)


def test_jet_arithmetic():
    x = Jet.coordinate(2, 3, 0)
    y = Jet.coordinate(2, 3, 1)
    assert (x * x).coeffs == {(2, 0): Fraction(1)}
    assert (x * y + y * x).coeffs == {(1, 1): Fraction(2)}
    c = Jet.constant(2, 3, 5)
    assert not c.partial(0)
    assert (x * x * x * x).coeffs == {}  # truncated beyond order 3
    assert x.partial(0).value() == 1


def test_jet_inv_sqrt():
    d, order = 2, 5
    u = Fraction(1, 3) * Jet.coordinate(d, order, 0) \
        + Fraction(1, 2) * (Jet.coordinate(d, order, 1)
                            * Jet.coordinate(d, order, 1))
    j = Jet.constant(d, order, 1) + u
    s = jet_inv_sqrt(j)
    # s^2 * j = 1 up to the truncation order
    prod = s * s * j
    assert prod == Jet.constant(d, order, 1)


def test_matrix_inverse_multiply_back(rng):
    d, order = 2, 4
    for _ in range(10):
        mat = [[random_jet(rng, d, order) for _ in range(d)]
               for _ in range(d)]
        for i in range(d):
            mat[i][i] = mat[i][i] + Jet.constant(d, order, 6)
        inv = matrix_inverse(mat)
        prod = _mat_mul(mat, inv)
        for i in range(d):
            for j in range(d):
                assert prod[i][j] == Jet.constant(d, order,
                                                  1 if i == j else 0)


def test_matrix_inverse_singular():
    d, order = 2, 3
    zero = [[zero_jet(d, order) for _ in range(d)] for _ in range(d)]
    with pytest.raises(InversionError):
        matrix_inverse(zero)


def test_tensor_axioms(rng):
    from gshe.algebra import block_perm, identity_perm, swap_perm

    d, order = 2, 4

    def rand_tensor(u, l):
        return TensorJet(u, l, d, order,
                         {k: random_jet(rng, d, order)
                          for k in itertools.product(range(d), repeat=u + l)})

    for _ in range(15):
        A, B = rand_tensor(1, 1), rand_tensor(1, 1)
        S = swap_perm(1, 1, 1, 1)
        assert B.product(A) == A.product(B).act(S)
        assert A.product(B).trace() == A.product(B.trace())
        dd = A.derive().derive()
        S11 = (identity_perm(1), block_perm((2, 1), identity_perm(1)))
        assert dd == dd.act(S11)
        assert A.trace().derive() == A.derive().trace()
        C = rand_tensor(2, 2)
        S2 = (block_perm(identity_perm(0), (2, 1)),
              block_perm(identity_perm(0), (2, 1)))
        assert C.trace().trace() == C.act(S2).trace().trace()


def test_upsilon_morphism(rng):
    d, order = 2, 5
    gamma = random_gamma(rng, d, order)
    val = Valuation(gamma, [random_vector_field(rng, d, order)
                            for _ in range(2)])
    lgens = [labeled_noise(1), labeled_noise(2), GAMMA]
    for _ in range(25):
        a = random_graph(rng, lgens, max_vertices=3, max_low=2)
        b = random_graph(rng, lgens, max_vertices=2, max_low=1)
        A, B = val.evaluate_graph(a), val.evaluate_graph(b)
        assert val(product(LinComb.of(a), LinComb.of(b))) == A.product(B)
        assert val(derive(LinComb.of(a))) == A.derive()
        if a.u >= 1 and a.l >= 1:
            assert val(trace(LinComb.of(a))) == A.trace()
        pu = random_permutation(rng, a.u)
        pl = random_permutation(rng, a.l)
        assert val(act((pu, pl), LinComb.of(a))) == A.act((pu, pl))


def test_upsilon_zero_gamma_kills_gamma_graphs(rng):
    d, order = 2, 4
    gamma0 = TensorJet(1, 2, d, order, {})
    val = Valuation(gamma0, [random_vector_field(rng, d, order)
                             for _ in range(2)])
    cherry = next(s for s in __import__("gshe.symbols",
                                        fromlist=["full_basis"]).full_basis()
                  if any(t.name == GAMMA.name for t in s.types))
    out = val(cherry)
    assert all(not j for j in out.comps.values())


def test_upsilon_thick_cherry_value(rng):
    # the two-noise Christoffel cherry evaluates to 2 Gamma(sigma_i, sigma_j)
    from gshe.symbols import full_basis

    d, order = 2, 4
    gamma = random_gamma(rng, d, order)
    sig = [random_vector_field(rng, d, order) for _ in range(2)]
    val = Valuation(gamma, sig)
    cherry = next(s for s in full_basis()
                  if any(t.name == GAMMA.name for t in s.types)
                  and sum(t.name == "Xi" for t in s.types) == 2)
    got = val(cherry)
    expect = {}
    for a in range(d):
        j = zero_jet(d, order)
        for i in range(2):
            for b in range(d):
                for c in range(d):
                    j = j + 2 * gamma.comp((b, c, a)) * sig[i].comp((b,)) \
                        * sig[i].comp((c,))
        expect[(a,)] = j
    assert got == TensorJet(1, 0, d, order, expect)


def test_counterterm_identities():
    # quick regression at d = 2; the acceptance gate runs all five seeds
    # including d = 3
    for seed in (11, 13):
        rng = random.Random(seed)
        d = 2 if seed % 2 else 3
        m = 2 if seed % 3 else 3
        gamma = random_gamma(rng, d, 5)
        sig = [random_vector_field(rng, d, 5) for _ in range(m)]
        val = Valuation(gamma, sig)
        v1, v2 = val(tau_star()), val(tau_c())
        e1 = curvature_counterterm(gamma, sig)
        e2 = gradient_counterterm(gamma, sig)
        assert all(v1.value((a,)) == e1.value((a,)) for a in range(d)), seed
        assert all(v2.value((a,)) == e2.value((a,)) for a in range(d)), seed


def test_levi_civita_metric_compatibility(rng):
    d, order = 2, 6
    sig = [random_vector_field(rng, d, order) for _ in range(d)]
    sig[0] = sig[0] + vector_jet(d, order, [Jet.constant(d, order, 5),
                                            zero_jet(d, order)])
    sig[1] = sig[1] + vector_jet(d, order, [zero_jet(d, order),
                                            Jet.constant(d, order, 5)])
    gamma = levi_civita(sig)
    ng = covariant_derivative(gamma, inverse_metric(sig))
    for k in ng.comps:
        assert not ng.comp(k).truncate(order - 3)


def test_levi_civita_lower_metric_is_parallel(rng):
    # the lower metric g = (g^-1)^-1 has nabla g = 0 in every slot
    d, order = 2, 6
    sig = [random_vector_field(rng, d, order) for _ in range(d)]
    for a in range(d):
        shift = [Jet.constant(d, order, 5 if b == a else 0) for b in range(d)]
        sig[a] = sig[a] + vector_jet(d, order, shift)
    ginv = inverse_metric(sig)
    gmat = matrix_inverse([[ginv.comp((a, b)) for b in range(d)]
                           for a in range(d)])
    g = TensorJet(0, 2, d, order, {(a, b): gmat[a][b] for a in range(d)
                                   for b in range(d)})
    ng = covariant_derivative(levi_civita(sig), g)
    assert ng.degree == (0, 3) and ng.order == order - 1
    assert not ng


def _random_tensor(rng, u, l, d, order):
    return TensorJet(u, l, d, order,
                     {k: random_jet(rng, d, order)
                      for k in itertools.product(range(d), repeat=u + l)})


def test_covariant_derivative_of_a_scalar_is_derive(rng):
    d, order = 2, 4
    gamma = random_gamma(rng, d, order)
    s = _random_tensor(rng, 0, 0, d, order)
    assert covariant_derivative(gamma, s) == s.derive()
    assert covariant_derivative(gamma, s).order == s.derive().order


def test_covariant_derivative_commutes_with_trace(rng):
    d, order = 2, 4
    gamma = random_gamma(rng, d, order)
    for _ in range(3):
        t = _random_tensor(rng, 1, 1, d, order)
        assert covariant_derivative(gamma, t).trace() \
            == covariant_derivative(gamma, t.trace())


def test_covariant_derivative_leibniz(rng):
    # the slot permutation of suite_talgebra's "leibniz" claim: the new
    # lower slot of the second factor moves in front of the first's
    from gshe.algebra import block_perm, identity_perm, swap_perm

    d, order = 2, 4
    gamma = random_gamma(rng, d, order)
    for da, db in (((1, 0), (0, 1)), ((1, 1), (2, 0)), ((0, 2), (1, 1))):
        a = _random_tensor(rng, *da, d, order)
        b = _random_tensor(rng, *db, d, order)
        sl = (block_perm(identity_perm(a.u), identity_perm(b.u)),
              block_perm(swap_perm(a.u, a.l, 0, 1)[1], identity_perm(b.l)))
        lhs = covariant_derivative(gamma, a.product(b))
        rhs = covariant_derivative(gamma, a).product(b) \
            + a.product(covariant_derivative(gamma, b)).act(sl)
        assert lhs == rhs, (da, db)


def test_contract_matches_product_and_trace(rng):
    d, order = 2, 3
    h = _random_tensor(rng, 0, 2, d, order)
    g = _random_tensor(rng, 2, 0, d, order)
    t = _random_tensor(rng, 1, 1, d, order)
    assert contract("ab,ab->", h, g) == h.product(g).trace().trace()
    # t_x^a g^{yb} h_{ab}: a lower slot of h meets the upper slot of t
    assert contract("xa,yb,ab->xy", t, g, h) \
        == contract("ab,xa->xb", h, t).product(g).trace()


@pytest.mark.parametrize("d, l", [(2, 1), (2, 2), (3, 3)])
def test_contract_lower_matches_contract(rng, d, l):
    # the fused kernel against the einsum, at a tensor order above and
    # below the vector's, for every lower slot
    v = random_vector_field(rng, d, 3)
    lows = "abc"[:l]
    for t_order in (4, 2):
        t = _random_tensor(rng, 1, l, d, t_order)
        for p in range(1, l + 1):
            spec = f"{lows}z,{lows[p - 1]}->{lows[:p - 1]}{lows[p:]}z"
            got, want = t.contract_lower(p, v), contract(spec, t, v)
            assert got == want and got.degree == want.degree, (t_order, p)
            assert got.order == want.order == min(t_order, 3)
            assert {j.order for j in got.comps.values()} == {got.order}


def test_tensor_sum_cuts_one_sided_keys(rng):
    d = 2
    a = TensorJet(1, 0, d, 2, {(0,): random_jet(rng, d, 2)})
    b = TensorJet(1, 0, d, 3, {(1,): random_jet(rng, d, 3)})
    total = a + b
    assert total.order == 2 and set(total.comps) == {(0,), (1,)}
    assert {j.order for j in total.comps.values()} == {2}
    assert total.comps[(1,)] == b.comps[(1,)].truncate(2)
    assert total == b + a


def test_tensor_components_have_the_tensor_order(rng):
    d = 2
    j = random_jet(rng, d, 3)
    with pytest.raises(ValueError):
        TensorJet(1, 0, d, 4, {(0,): j})  # its order-4 terms are unknown
    cut = TensorJet(1, 0, d, 2, {(0,): j})
    assert cut.comps[(0,)].order == 2
    assert cut.comps[(0,)].nums == j.truncate(2).nums
    # every term of ``high`` lies above order 2, so its cut is zero
    high = Jet(d, 3, {(2, 1): 1, (0, 3): Fraction(1, 2)})
    t = TensorJet(1, 0, d, 2, {(0,): high, (1,): j})
    assert set(t.comps) == {(1,)}
    assert not TensorJet(1, 0, d, 2, {(0,): high})


def test_tensor_equality_is_exact():
    d = 2
    a = TensorJet(1, 0, d, 2, {(0,): Jet.constant(d, 2, 3)})
    b = TensorJet(1, 0, d, 3, {(0,): Jet.constant(d, 3, 3)})
    assert a.comps[(0,)] == b.comps[(0,)]  # equal jets, orders apart
    assert a != b and a == b.truncate(2)
    assert TensorJet(1, 0, d, 2) != TensorJet(1, 0, d, 3)
    assert TensorJet(1, 0, 2, 2) != TensorJet(1, 0, 3, 2)
    assert TensorJet(1, 0, d, 2) != TensorJet(0, 1, d, 2)


def test_contract_single_input(rng):
    d, order = 2, 3
    t = _random_tensor(rng, 1, 2, d, order)
    assert contract("abz->abz", t) == t
    assert contract("baz->abz", t) == t.act(((1,), (2, 1)))
    assert contract("abb->a", t) == t.trace()
    v = random_vector_field(rng, d, order)
    assert contract("z->z", v) == v  # a leaf of a rooted tree


def test_contract_rejects_malformed_specs(rng):
    gamma = random_gamma(rng, 2, 2)
    with pytest.raises(ValueError):
        contract("bza->bza", gamma, gamma)
    with pytest.raises(ValueError):
        contract("bza->bzq", gamma)
    with pytest.raises(DegreeError):
        contract("bz->bz", gamma)
    with pytest.raises(DegreeError):
        contract("bza->abz", gamma)


def test_levi_civita_kills_tau_star(rng):
    d, order = 2, 6
    sig = [random_vector_field(rng, d, order) for _ in range(d)]
    sig[0] = sig[0] + vector_jet(d, order, [Jet.constant(d, order, 4),
                                            zero_jet(d, order)])
    sig[1] = sig[1] + vector_jet(d, order, [zero_jet(d, order),
                                            Jet.constant(d, order, 4)])
    gamma = levi_civita(sig)
    val = Valuation(gamma, sig)
    v = val(tau_star())
    assert all(v.value((a,)) == 0 for a in range(d))


def test_tau_c_gradient_ratio_reported(rng, capsys):
    """In the Levi-Civita case tau_c evaluates to a multiple of grad R.

    The proportionality constant is determined by direct evaluation rather
    than asserted from any printed value; the run reports it and checks it
    is consistent across components and seeds.
    """
    ratios = set()
    for seed in (3, 4):
        rr = random.Random(seed)
        d, order = 2, 6
        sig = [random_vector_field(rr, d, order) for _ in range(d)]
        sig[0] = sig[0] + vector_jet(d, order, [Jet.constant(d, order, 5),
                                                zero_jet(d, order)])
        sig[1] = sig[1] + vector_jet(d, order, [zero_jet(d, order),
                                                Jet.constant(d, order, 5)])
        gamma = levi_civita(sig)
        val = Valuation(gamma, sig)
        vc = val(tau_c())
        grad = scalar_curvature_gradient(gamma, sig)
        for a in range(d):
            gv = grad.value((a,))
            if gv:
                ratios.add(vc.value((a,)) / gv)
    assert len(ratios) == 1
    ratio = next(iter(ratios))
    print(f"tau_c / grad(scalar curvature) in the Levi-Civita case: {ratio}")
    assert ratio != 0


def test_riemann_antisymmetry(rng):
    d = 2
    gamma = random_gamma(rng, d, 4)
    riem = riemann(gamma)
    assert riem and riem == -1 * riem.act(((1,), (2, 1, 3)))


def ref_riemann(gamma):
    """R^a_{bce} as the index loop of its definition."""
    d = gamma.d

    def G(a, b, c):
        return gamma.comp((b, c, a))

    comps = {}
    for b, c, e, a in itertools.product(range(d), repeat=4):
        j = G(a, c, e).partial(b) - G(a, b, e).partial(c)
        for z in range(d):
            j = j + G(a, b, z) * G(z, c, e) - G(a, c, z) * G(z, b, e)
        comps[(b, c, e, a)] = j
    return TensorJet(1, 3, d, gamma.order - 1, comps)


@pytest.mark.parametrize("d,order", [(2, 4), (3, 3)])
def test_riemann_matches_index_loop(rng, d, order):
    gamma = random_gamma(rng, d, order)
    got, want = riemann(gamma), ref_riemann(gamma)
    assert got == want and got.order == want.order


def test_riemann_matches_defining_identity(rng):
    # evaluate nabla_X nabla_Y Z - nabla_Y nabla_X Z on coordinate fields
    d, order = 2, 5
    gamma = random_gamma(rng, d, order)
    riem = riemann(gamma)

    def nabla(x, y):
        return covariant_derivative(gamma, y).contract_lower(1, x)

    for b in range(d):
        for c in range(d):
            eb = vector_jet(d, order, [Jet.constant(d, order,
                                                    1 if i == b else 0)
                                       for i in range(d)])
            ec = vector_jet(d, order, [Jet.constant(d, order,
                                                    1 if i == c else 0)
                                       for i in range(d)])
            for e in range(d):
                ee = vector_jet(d, order, [Jet.constant(d, order,
                                                        1 if i == e else 0)
                                           for i in range(d)])
                lhs = nabla(eb, nabla(ec, ee)) - nabla(ec, nabla(eb, ee))
                for a in range(d):
                    assert lhs.value((a,)) == riem.value((b, c, e, a))


def test_sphere_frame_identities():
    sigmas, gamma = sphere_frame((1, 0, 0), order=4)
    d = 3
    g0 = inverse_metric(sigmas)
    for a in range(d):
        for b in range(d):
            expect = Fraction(1 if a == b else 0) \
                - Fraction(1 if a == 0 and b == 0 else 0)
            assert g0.value((a, b)) == expect
    total = None
    for s in sigmas:
        t = covariant_derivative(gamma, s).contract_lower(1, s)
        total = t if total is None else total + t
    assert all(total.value((a,)) == 0 for a in range(d))
    for i in range(d):
        assert sigmas[i].value((0,)) == 0  # tangent at (1,0,0)


def test_sphere_frame_rejects_off_sphere():
    with pytest.raises(ValueError):
        sphere_frame((1, 1, 0))


def test_nice_geo_vanishing(rng):
    d, m, order = 2, 2, 5
    gamma0 = TensorJet(1, 2, d, order, {})
    sigs = []
    for _ in range(m):
        comps = []
        for _ in range(d):
            cf = {k: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                  for k in [(0, 0), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1)]}
            comps.append(Jet(d, order, cf))
        sigs.append(vector_jet(d, order, comps))
    val = Valuation(gamma0, sigs)
    for vec in intersect(s_geo(), s_nice()):
        tv = val(from_coords(vec))
        assert all(tv.value((a,)) == 0 for a in range(d))


def format_jet(j: Jet) -> str:
    """One ``(multi_index) = p/q`` line per coefficient, sorted."""
    lines = [f"jet d={j.d} order={j.order}"]
    coeffs = j.coeffs
    for idx in sorted(coeffs):
        lines.append(f"({','.join(str(k) for k in idx)}) = {coeffs[idx]}")
    return "\n".join(lines)


def parse_jet(text):
    """Inverse of ``format_jet``; errors carry the 1-based line number."""
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines:
        raise ParseError(1, "missing 'jet d=<d> order=<order>' header")
    lineno, head = lines[0]
    try:
        word, *pairs = head.split()
        kv = dict(p.split("=") for p in pairs)
        if word != "jet" or set(kv) != {"d", "order"}:
            raise ValueError
        d, order = int(kv["d"]), int(kv["order"])
        if d < 1:
            raise ValueError
    except ValueError:
        raise ParseError(lineno,
                         "expected 'jet d=<d> order=<order>' header") from None
    coeffs = {}
    for lineno, ln in lines[1:]:
        left, eq, right = ln.partition("=")
        if not eq:
            raise ParseError(lineno, "expected '(<index>,...) = <rational>'")
        left, right = left.strip(), right.strip()
        try:
            idx = tuple(int(x) for x in left.strip("()").split(","))
        except ValueError:
            raise ParseError(lineno, f"bad multi-index {left!r}") from None
        if len(idx) != d or any(x < 0 for x in idx):
            raise ParseError(lineno, f"multi-index {left} is not "
                                     f"{d} nonnegative integers")
        try:
            coeffs[idx] = Fraction(right)
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"bad rational {right!r}") from None
    return Jet(d, order, coeffs)


def test_jet_serialization_roundtrip(rng):
    j = random_jet(rng, 3, 3)
    text = format_jet(j)
    assert parse_jet(text) == j
    assert format_jet(parse_jet(text)) == text


def test_upsilon_displayed_example(rng):
    """The once-derived Christoffel tree with a grafted noise pair.

    Value: 2 d_eta Gamma^a_{b,c} sigma_j^eta sigma_i^c d_z sigma_i^b sigma_j^z.
    """
    from gshe.graphs import XGraph
    from gshe.symbols import labeled_noise

    d, order = 2, 5
    gamma = random_gamma(rng, d, order)
    sig = [random_vector_field(rng, d, order) for _ in range(2)]
    val = Valuation(gamma, sig)
    xi_i, xi_j = labeled_noise(1), labeled_noise(2)
    g = XGraph(1, 0, (GAMMA, xi_j, xi_i, xi_i, xi_j),
               {(0, 1): ("u", 1),    # Gamma root
                (1, 1): (0, 0),      # sigma_j into the Christoffel star slot
                (2, 1): (0, 2),      # sigma_i into the second native slot
                (3, 1): (0, 1),      # derived sigma_i into the first native
                (4, 1): (3, 0)})     # sigma_j grafted onto that sigma_i
    got = val.evaluate_graph(g)
    si, sj = sig[0], sig[1]
    for a in range(d):
        expect = zero_jet(d, order)
        for b in range(d):
            for c in range(d):
                for eta in range(d):
                    for z in range(d):
                        expect = expect + 2 * gamma.comp((b, c, a)).partial(eta) \
                            * sj.comp((eta,)) * si.comp((c,)) \
                            * si.comp((b,)).partial(z) * sj.comp((z,))
        assert got.value((a,)) == expect.value()


def in_symbol_span(a: LinComb) -> bool:
    """Membership test for the span of symbols and their h-decorations.

    Every term must have degree (1,0), at most one h vertex, a perfect noise
    pairing, and be connected as a graph without identifying paired vertices.
    """
    for g in a.terms:
        if g.degree != (1, 0):
            return False
        h_count = sum(1 for t in g.types if t.name == DIFF.name)
        if h_count > 1:
            return False
        noises = {v for v, t in enumerate(g.types) if t.name == NOISE.name}
        if {v for p in g.pairing for v in p} != noises:
            return False
        if not g.is_connected(with_pairing=False):
            return False
    return True


def test_in_symbol_span():
    from gshe.morphisms import phi_hat_geo
    from gshe.symbols import full_basis

    basis = full_basis()
    span = LinComb.of(basis[0]) + 2 * LinComb.of(basis[40])
    assert in_symbol_span(span)
    assert in_symbol_span(phi_hat_geo(span))
    # a product with a closed loop component is outside the span
    from gshe.algebra import product
    from gshe.graphs import XGraph
    from gshe.symbols import NOISE

    loop = XGraph(0, 0, (NOISE, NOISE), {(0, 1): (1, 0), (1, 1): (0, 0)},
                  [(0, 1)])
    double = product(LinComb.of(basis[1]), LinComb.of(loop))
    assert double.degree() == (1, 0)
    assert not in_symbol_span(double)
    # and the degree check rejects products of two root symbols
    assert not in_symbol_span(product(LinComb.of(basis[1]),
                                      LinComb.of(basis[1])))


# -- dense jets against the dict-of-Fraction reference ---------------------------

class RefJet:
    """The sparse dict-of-Fraction jet the dense ``Jet`` replaced; an oracle."""

    def __init__(self, d, order, coeffs=None):
        self.d = d
        self.order = order
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                v = Fraction(v)
                if v and sum(k) <= order:
                    self.coeffs[tuple(k)] = v

    def value(self):
        return self.coeffs.get(tuple([0] * self.d), Fraction(0))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return RefJet(self.d, min(self.order, other.order), out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        s = Fraction(scalar)
        return RefJet(self.d, self.order,
                      {k: s * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, RefJet):
            return self.__rmul__(other)
        order = min(self.order, other.order)
        out = {}
        for k1, v1 in self.coeffs.items():
            if sum(k1) > order:
                continue
            for k2, v2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                if sum(k) > order:
                    continue
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        return RefJet(self.d, order, out)

    def partial(self, k):
        out = {}
        for idx, v in self.coeffs.items():
            if idx[k] == 0:
                continue
            new = list(idx)
            new[k] -= 1
            out[tuple(new)] = v * idx[k]
        return RefJet(self.d, self.order - 1, out)

    def truncate(self, order):
        return RefJet(self.d, order, self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, RefJet) and self.d == other.d
                and self.coeffs == other.coeffs)

    def __bool__(self):
        return bool(self.coeffs)


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _coeff_dicts(draw, d, order):
    monos = [k for k in itertools.product(range(order + 1), repeat=d)
             if sum(k) <= order]
    return draw(st.dictionaries(st.sampled_from(monos), _RATIONALS,
                                max_size=len(monos)))


@st.composite
def _jet_pairs(draw):
    """Two jets of one dimension d in {1, 2, 3}, orders 0-5 drawn apart."""
    d = draw(st.integers(1, 3))
    pair = []
    for _ in range(2):
        order = draw(st.integers(0, 5))
        coeffs = draw(_coeff_dicts(d, order))
        pair.append((Jet(d, order, coeffs), RefJet(d, order, coeffs)))
    if draw(st.booleans()):  # an equal-up-to-order partner now and then
        j, r = pair[0]
        cut = draw(st.integers(0, 5))
        pair[1] = (j.truncate(cut), r.truncate(cut))
    return d, pair


def _same(j, r):
    return (j.d == r.d and j.order == r.order and j.coeffs == r.coeffs
            and bool(j) == bool(r) and j.value() == r.value()
            and format_jet(j) == format_jet(r))


@given(_jet_pairs(), _RATIONALS, st.integers(0, 2), st.integers(-1, 6))
@settings(max_examples=300, deadline=None)
def test_dense_jet_matches_reference(pair, scalar, k, cut):
    d, ((a, ra), (b, rb)) = pair
    k %= d
    assert _same(a, ra) and _same(b, rb)
    assert _same(a + b, ra + rb)
    assert _same(a - b, ra - rb)
    assert _same(scalar * a, scalar * ra)
    assert _same(a * scalar, ra * scalar)
    assert _same(a * b, ra * rb)
    assert _same(a.partial(k), ra.partial(k))
    assert _same(a.partial(k).partial(k), ra.partial(k).partial(k))
    assert _same(a.truncate(cut), ra.truncate(cut))
    assert (a == b) == (ra == rb)
    assert (a * b == b * a) and (a + b == b + a)


def test_partial_of_order_zero_jet_is_empty():
    c = Jet.constant(2, 0, 7)
    dc = c.partial(1)
    assert dc.order == -1 and not dc and dc.value() == 0
    assert dc == zero_jet(2, 3)
    assert format_jet(dc) == "jet d=2 order=-1"


@pytest.mark.parametrize("idx", [(1,), (0, 0, 1), (-1, 2)])
def test_jet_rejects_bad_multi_index(idx):
    with pytest.raises(ValueError):
        Jet(2, 3, {idx: 1})


@pytest.mark.parametrize("text, lineno", [
    ("jet d=2\n(0,0) = 1", 1),
    ("jet d=2 order=3\n(0,0) = 1\n\n(1,0) 2", 4),
    ("jet d=2 order=3\n(0,x) = 1", 2),
    ("jet d=2 order=3\n(0,0) = 1\n(1,0) = 1/0", 3),
    ("jet d=2 order=3\n(0,0,1) = 1", 2),
])
def test_parse_jet_reports_line_numbers(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_jet(text)
    assert err.value.lineno == lineno


def ref_valuation(val, a):
    """The valuation as a merged loop: a paired term is first merged into
    the canonical combination of its labellings, each canonical term is
    evaluated once, by a fresh ``Valuation`` so that no subtree memo is
    shared with ``val``, and the values are added as tensor jets."""
    if isinstance(a, XGraph):
        a = LinComb.of(a)
    out = None
    for g, c in a.terms.items():
        if g.pairing:
            t = ref_valuation(val, LinComb(iota_expand(g, len(val.sigmas))))
        else:
            t = Valuation(val.gamma, val.sigmas).evaluate_graph(g)
        t = c * t
        out = t if out is None else out + t
    if out is None:
        degs = a.degrees()
        u, l = next(iter(degs)) if degs else (0, 0)
        return TensorJet(u, l, val.d, val.order, {})
    return out


def test_valuation_matches_merged_reference(rng):
    def check(val, a):
        got, want = val(a), ref_valuation(val, a)
        assert got == want
        assert (got.degree, got.order) == (want.degree, want.order)
        assert {k: j.order for k, j in got.comps.items()} \
            == {k: j.order for k, j in want.comps.items()}

    basis = full_basis()
    lgens = [labeled_noise(1), labeled_noise(2), GAMMA, GPAIR]
    d, order = 2, 3
    val = Valuation(random_gamma(rng, d, order),
                    [random_vector_field(rng, d, order) for _ in range(2)])
    # The sphere frame's sigmas carry one order more than its Gamma.
    sigmas, gamma = sphere_frame((1, 0, 0), order=2)
    sphere = Valuation(gamma, sigmas)
    for v in (val, sphere):
        check(v, LinComb())
        for _ in range(4):
            picks = rng.sample(basis, 3)
            check(v, LinComb((s, Fraction(rng.randint(-3, 3) or 1,
                                          rng.randint(1, 3))) for s in picks))
        for s in rng.sample(basis, 4):
            check(v, s)
            assert v(s) == v(LinComb.of(s))
    lone = XGraph(1, 0, (labeled_noise(2),), {(0, 1): ("u", 1)})
    check(sphere, lone)
    assert sphere(lone).order == sigmas[0].order > sphere.order
    noises = [labeled_noise(1), labeled_noise(3)]
    for deg in ((1, 0), (2, 0)):
        check(sphere, random_lincomb(rng, noises, n_terms=3, degree=deg,
                                     max_vertices=3, max_low=0))
    for deg in ((1, 0), (1, 1), (2, 1)):
        check(val, random_lincomb(rng, lgens, n_terms=3, degree=deg,
                                  max_vertices=3, max_low=2))
    for _ in range(6):
        g = random_graph(rng, lgens, max_vertices=3, max_low=2)
        check(val, g)
        assert val(g) == val(LinComb.of(g))


def _is_tree(g):
    return (g.u == 1 and g.l == 0 and all(t.out_arity == 1 for t in g.types)
            and not g.has_directed_cycle())


def full_order_value(val, g):
    """A labelled graph's value with every generator at its data's own
    order, nothing cut: a rooted tree by one ``contract`` per vertex, any
    other graph by ``decompose``; no memo, no cache."""
    gens = {GAMMA.name: 2 * val.gamma, GPAIR.name: inverse_metric(val.sigmas)}
    gens.update((labeled_noise(i).name, s)
                for i, s in enumerate(val.sigmas, 1))

    def derived(t, k):
        tens = gens[t.name]
        for _ in range(k):
            tens = tens.derive()
        return tens

    if _is_tree(g):
        kids = [[] for _ in g.types]
        for (v, _), dst in g.wiring.items():
            if dst[0] == "u":
                root = v
            else:
                kids[dst[0]].append((dst[1], v))

        def value(v):
            slots = sorted(kids[v])  # stars (slot 0) first, natives in order
            tens = derived(g.types[v], sum(s == 0 for s, _ in slots))
            letters = "abcdefghij"[:len(slots)]
            return contract(",".join([f"{letters}z", *letters]) + "->z",
                            tens, *[value(w) for _, w in slots])
        return value(root)
    top = max(t.order for t in gens.values())
    m, alpha, parts = decompose(g)
    out = TensorJet(0, 0, val.d, top, {(): Jet.constant(val.d, top, 1)})
    for k, t in parts:
        out = out.product(derived(t, k))
    out = out.act(alpha)
    for _ in range(m):
        out = out.trace()
    return out


@pytest.mark.parametrize("case", ["d2-order3", "d3-order2", "sphere"])
def test_valuation_evaluates_at_the_result_order(rng, case):
    # every basis symbol and mixed combinations: the result's order is the
    # least order of the labelled graphs, every component has it, and each
    # component is the full-order value cut to it
    if case == "sphere":
        sigmas, gamma = sphere_frame((0, 1, 0), order=2)
    else:
        d, order = (2, 3) if case == "d2-order3" else (3, 2)
        gamma = random_gamma(rng, d, order)
        sigmas = [random_vector_field(rng, d, order) for _ in range(2)]
    val = Valuation(gamma, sigmas)
    basis = full_basis()
    combos = [LinComb.of(s) for s in basis]
    combos += [LinComb((s, Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
                       for s in rng.sample(basis, 3)) for _ in range(4)]
    if case == "sphere":  # sums past the tree path, capped at val.order
        noises = [labeled_noise(1), labeled_noise(3)]
        combos += [random_lincomb(rng, noises, n_terms=3, degree=deg,
                                  max_vertices=3, max_low=0)
                   for deg in ((1, 0), (2, 0))]
    elif case == "d2-order3":
        lgens = [labeled_noise(1), labeled_noise(2), GAMMA, GPAIR]
        combos += [random_lincomb(rng, lgens, n_terms=3, degree=deg,
                                  max_vertices=3, max_low=2)
                   for deg in ((1, 0), (1, 1), (2, 1))]
    values = {}
    for a in combos:
        labelled = [(h, c * k) for g, c in a.terms.items()
                    for h, k in iota_expand(g, len(sigmas))]
        order = min(val.evaluate_graph(h).order for h, _ in labelled)
        want = {}
        for h, c in labelled:
            if h not in values:
                values[h] = full_order_value(val, h)
            ref = values[h]
            assert val.evaluate_graph(h).order \
                == (ref.order if _is_tree(h) else min(ref.order, val.order))
            for key, j in ref.comps.items():
                j = c * j.truncate(order)
                want[key] = want[key] + j if key in want else j
        got = val(a)
        assert got.order == order, a
        assert {j.order for j in got.comps.values()} <= {order}, a
        assert got.comps == {k: j for k, j in want.items() if j}, a


def jet_record(t):
    """Everything a tensor jet holds, per-component orders included."""
    return (t.degree, t.order,
            {k: (j.nums, j.den, j.order) for k, j in t.comps.items()})


@pytest.mark.parametrize("d, order", [(2, 3), (3, 2)])
def test_warm_subtree_memo_matches_fresh_valuations(rng, d, order):
    # One Valuation values every basis symbol in a shuffled order, so later
    # symbols meet subtrees that earlier ones put in the memo.
    gamma = random_gamma(rng, d, order)
    sigmas = [random_vector_field(rng, d, order) for _ in range(2)]
    basis = list(full_basis())
    assert len(basis) == 54
    rng.shuffle(basis)
    warm = Valuation(gamma, sigmas)
    for s in basis:
        assert jet_record(warm(s)) \
            == jet_record(Valuation(gamma, sigmas)(s)), s


def test_memoised_tree_matches_decomposition(rng):
    # Star children are contracted in memo-key order, not vertex order; a
    # derived generator is symmetric in its star slots, so the contraction
    # of the product tensor agrees.
    d, order = 2, 4
    val = Valuation(random_gamma(rng, d, order),
                    [random_vector_field(rng, d, order) for _ in range(2)])
    xi_1, xi_2 = labeled_noise(1), labeled_noise(2)
    trees = [
        # Gamma derived twice: stars xi_2 (with xi_1 grafted on) and xi_1,
        # natives xi_2 and xi_1
        ((GAMMA, xi_2, xi_1, xi_1, xi_2, xi_1),
         {(0, 1): ("u", 1), (1, 1): (0, 0), (2, 1): (1, 0),
          (3, 1): (0, 0), (4, 1): (0, 1), (5, 1): (0, 2)}),
        # the same tree with its two star children numbered the other way
        ((GAMMA, xi_1, xi_1, xi_2, xi_2, xi_1),
         {(0, 1): ("u", 1), (1, 1): (0, 0), (2, 1): (3, 0),
          (3, 1): (0, 0), (4, 1): (0, 1), (5, 1): (0, 2)}),
        # xi_1 derived thrice, with equal and unequal star children
        ((xi_1, xi_2, xi_2, xi_1),
         {(0, 1): ("u", 1), (1, 1): (0, 0), (2, 1): (0, 0),
          (3, 1): (0, 0)}),
    ]
    for types, wiring in trees:
        assert sum(dst == (0, 0) for dst in wiring.values()) >= 2
        g = XGraph(1, 0, types, wiring)
        fresh = Valuation(val.gamma, val.sigmas)
        want = fresh._evaluate_decompose(g, fresh.evaluate_graph(g).order)
        assert want
        for _ in range(2):  # cold, then warm
            got = val.evaluate_graph(g)
            assert got == want
            assert (got.degree, got.order) == (want.degree, want.order)


def test_two_output_vertices_evaluate(rng):
    # A g vertex has two outputs, so a (1,0) graph holding one is no rooted
    # tree; m_ito images are such graphs, and M_ito = phi_ito o m_ito with
    # the g jet sum_i sigma_i sigma_i.
    d, order = 2, 2
    val = Valuation(random_gamma(rng, d, order),
                    [random_vector_field(rng, d, order) for _ in range(2)])
    g = XGraph(1, 0, (GAMMA, GPAIR),
               {(0, 1): ("u", 1), (1, 1): (0, 1), (1, 2): (0, 2)})
    assert val.evaluate_graph(g).degree == (1, 0)
    for s in full_basis():
        assert val(m_ito(LinComb.of(s))) == val(M_ito(LinComb.of(s))), s
