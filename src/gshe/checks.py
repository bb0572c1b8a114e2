"""Seeded property suites shared by the CLI and the acceptance tests.

Each suite returns a list of (claim, cases, failures) triples; a suite
passes when every failure count is zero.  The suites mirror the axioms:
the four defining operations and their coherence identities, the adjoint
pairs, the pre-Lie law, the projection identities, the representation
roundtrip, and the orbit-stabiliser bookkeeping of the paired symbols.

Each claim draws its operands at the degree it needs (``random_graph``'s
``degree``), so no drawn graph is rejected and every case of a suite
tallies each of its claims once.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .algebra import (LinComb, act, block_perm, coproduct, decompose, derive,
                      derive_adjoint, graft, identity_perm, inner, invert_perm,
                      product, rebuild, swap_perm, tensor_inner, trace,
                      trace_adjoint, unit)
from .graphs import XGraph
from .morphisms import M_ito, lie_bracket, p_ito, phi_geo
from .randgraphs import (random_graph, random_lincomb, random_permutation)
from .symbols import (GAMMA, NOISE, full_basis, pairing_orbit_count,
                      symmetry_factor, unpaired_symmetry_factor)

GENS = [NOISE, GAMMA]

# Coefficients for operands whose coefficient a linear map must carry:
# nonzero and not 1, so that a map dropping its terms' coefficients shows.
SCALARS = (-3, -2, -1, Fraction(-1, 2), Fraction(1, 2), 2, 3)


class _Ledger:
    """Case and failure counts per claim, kept in the order claims are named."""

    def __init__(self, names):
        self.rows = {name: [0, 0] for name in names}

    def tally(self, name, ok):
        self.rows[name][0] += 1
        self.rows[name][1] += 0 if ok else 1

    def result(self):
        return [(name, c, f) for name, (c, f) in self.rows.items()]


def _brute_aut(g: XGraph) -> int:
    n = g.n_vertices
    count = 0
    groups = [g.types[v].slot_group for v in range(n)]
    for perm in itertools.permutations(range(n)):
        if any(g.types[v].name != g.types[perm[v]].name for v in range(n)):
            continue
        for choice in itertools.product(*groups):
            wiring = {}
            for src, dst in g.wiring.items():
                s = src if src[0] == "l" else (perm[src[0]],
                                               choice[src[0]][1][src[1] - 1])
                if dst[0] == "u":
                    d = dst
                elif dst[1] == 0:
                    d = (perm[dst[0]], 0)
                else:
                    d = (perm[dst[0]], choice[dst[0]][0][dst[1] - 1])
                wiring[s] = d
            pair2 = frozenset(frozenset(perm[v] for v in p) for p in g.pairing)
            if wiring == g.wiring and pair2 == g.pairing:
                count += 1
    return count


def suite_talgebra(seed=0, cases=500):
    rng = random.Random(seed)
    ledger = _Ledger(("multperm_swap", "multperm_concat", "assoc_unit",
                      "trperm", "trcomm", "trtensor", "d2_first",
                      "d2_symmetric", "leibniz", "dtr", "prelie_formula",
                      "prelie_symmetry", "canonical_idem", "aut_bruteforce"))
    tally = ledger.tally

    one = unit()
    for it in range(cases):
        a = random_graph(rng, GENS, max_vertices=3, max_low=3)
        b = random_graph(rng, GENS, max_vertices=3)
        A, B = LinComb.of(a), LinComb.of(b, rng.choice(SCALARS))
        S = swap_perm(a.u, a.l, b.u, b.l)
        tally("multperm_swap", product(B, A) == act(S, product(A, B)))
        a1 = (random_permutation(rng, a.u), random_permutation(rng, a.l))
        a2 = (random_permutation(rng, b.u), random_permutation(rng, b.l))
        comb = (block_perm(a1[0], a2[0]), block_perm(a1[1], a2[1]))
        tally("multperm_concat",
              product(act(a1, A), act(a2, B)) == act(comb, product(A, B)))
        tally("assoc_unit", product(one, A) == A and product(A, one) == A
              and product(product(A, B), A) == product(A, product(B, A)))
        dd = derive(derive(A))
        S11 = (identity_perm(a.u), block_perm((2, 1), identity_perm(a.l)))
        tally("d2_symmetric", dd == act(S11, dd))
        al = (random_permutation(rng, a.u), random_permutation(rng, a.l))
        tally("d2_first", derive(act(al, A))
              == act((al[0], block_perm((1,), al[1])), derive(A)))
        SL = (block_perm(identity_perm(a.u), identity_perm(b.u)),
              block_perm(swap_perm(a.u, a.l, 0, 1)[1], identity_perm(b.l)))
        tally("leibniz", derive(product(A, B))
              == product(derive(A), B) + act(SL, product(A, derive(B))))
        # at degree >= (2, 2) a graph can be traced twice
        t = random_graph(rng, GENS, max_vertices=3,
                         degree=(rng.randint(2, 3), rng.randint(2, 3)))
        T = LinComb.of(t)
        alp = (random_permutation(rng, t.u - 1),
               random_permutation(rng, t.l - 1))
        ext = (block_perm(alp[0], (1,)), block_perm(alp[1], (1,)))
        tally("trperm", act(alp, trace(T)) == trace(act(ext, T)))
        tally("dtr", derive(trace(T)) == trace(derive(T)))
        tally("trtensor", trace(product(B, T)) == product(B, trace(T)))
        Sv = (block_perm(identity_perm(t.u - 2), (2, 1)),
              block_perm(identity_perm(t.l - 2), (2, 1)))
        tally("trcomm", trace(trace(T)) == trace(trace(act(Sv, T))))
        g, _ = a.canonicalize()
        tally("canonical_idem", g.canonicalize()[0] == g)
        h = random_graph(rng, GENS, max_vertices=6,
                         pair_noises=(it % 2 == 0))
        tally("aut_bruteforce", _brute_aut(h) == h.aut_count())
        # C of three vertices can hold a Christoffel vertex
        A = random_lincomb(rng, GENS, degree=(1, 0), n_terms=2,
                           max_vertices=2)
        B = random_lincomb(rng, GENS, degree=(1, 0), n_terms=2,
                           max_vertices=2)
        C = random_lincomb(rng, GENS, degree=(1, 0), n_terms=1,
                           max_vertices=3)
        assoc_ab = graft(A, graft(B, C)) - graft(graft(A, B), C)
        assoc_ba = graft(B, graft(A, C)) - graft(graft(B, A), C)
        d2c = derive(derive(C))
        rhs = trace(trace(product(product(d2c, A), B)))
        tally("prelie_formula", assoc_ab == rhs)
        tally("prelie_symmetry", assoc_ab == assoc_ba)
    return ledger.result()


def suite_adjoint(seed=0, cases=500):
    rng = random.Random(seed)
    ledger = _Ledger(("trace_pair", "derive_pair", "product_pair",
                      "act_pair"))
    tally = ledger.tally

    for it in range(cases):
        a = random_graph(rng, GENS, max_vertices=3)
        A = LinComb.of(a)
        # An adjoint pair keeps the vertex count, so partners have at most
        # a's vertices; a's own types reach each partner's degree.
        B = LinComb.of(random_graph(rng, GENS, max_vertices=a.n_vertices,
                                    degree=a.degree))
        al = (random_permutation(rng, a.u), random_permutation(rng, a.l))
        inv = (invert_perm(al[0]), invert_perm(al[1]))
        tally("act_pair", inner(act(al, A), B) == inner(A, act(inv, B)))
        D = LinComb.of(random_graph(rng, GENS, max_vertices=a.n_vertices,
                                    degree=(a.u, a.l + 1)))
        tally("derive_pair",
              inner(derive(A), D) == inner(A, derive_adjoint(D)))
        t = random_graph(rng, GENS, max_vertices=3,
                         degree=(rng.randint(1, 3), rng.randint(1, 2)))
        T = LinComb.of(t, rng.choice(SCALARS))
        S = LinComb.of(random_graph(rng, GENS, max_vertices=t.n_vertices,
                                    degree=(t.u - 1, t.l - 1)))
        tally("trace_pair",
              inner(trace(T), S) == inner(T, trace_adjoint(S)))
        # h's degree split in two, each factor keeping an external slot if
        # h has two; noises reach any (u <= 2, l) in two vertices
        h = random_graph(rng, GENS, max_vertices=4)
        splits = [(u, l) for u in range(max(0, h.u - 2), min(2, h.u) + 1)
                  for l in range(h.l + 1)]
        u, l = rng.choice([s for s in splits if 0 < sum(s) < h.u + h.l]
                          or splits)
        P = LinComb.of(random_graph(rng, GENS, max_vertices=2, degree=(u, l)))
        Q = LinComb.of(random_graph(rng, GENS, max_vertices=2,
                                    degree=(h.u - u, h.l - l)))
        # h shares a vertex count with P Q in few cases, so in every other
        # case h is P Q itself and the pairing is nonzero
        H = product(P, Q) if it % 2 else LinComb.of(h)
        tally("product_pair",
              inner(product(P, Q), H) == tensor_inner(coproduct(H), P, Q))
    return ledger.result()


def suite_identities(seed=0, cases=500):
    rng = random.Random(seed)
    ledger = _Ledger(("decompose_roundtrip", "phi_geo_leibniz",
                      "phi_geo_commutes", "p_ito_idempotent",
                      "p_ito_self_adjoint", "m_ito_average", "jacobi",
                      "orbit_stabiliser"))
    tally = ledger.tally

    basis = full_basis()
    for s in basis:
        n = pairing_orbit_count(s)
        tally("orbit_stabiliser",
              n * symmetry_factor(s) == unpaired_symmetry_factor(s))
    for it in range(cases):
        g = random_graph(rng, GENS, max_vertices=4,
                         pair_noises=(it % 2 == 0))
        m, alpha, parts = decompose(g)
        tally("decompose_roundtrip",
              rebuild(m, alpha, parts, pairing=g.pairing) == LinComb.of(g))
    for it in range(max(1, cases // 20)):
        a = random_graph(rng, GENS, max_vertices=2)
        b = random_graph(rng, GENS, max_vertices=2)
        A, B = LinComb.of(a), LinComb.of(b)
        tally("phi_geo_leibniz", phi_geo(product(A, B))
              == product(phi_geo(A), B) + product(A, phi_geo(B)))
        ok = phi_geo(derive(A)) == derive(phi_geo(A))
        if a.u >= 1 and a.l >= 1:
            ok = ok and phi_geo(trace(A)) == trace(phi_geo(A))
        tally("phi_geo_commutes", ok)

    def random_span_element(k=3):
        return LinComb((basis[rng.randrange(len(basis))],
                        Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                       for _ in range(k))

    for it in range(cases):
        X = random_span_element()
        Y = random_span_element()
        PX = p_ito(X)
        tally("p_ito_idempotent", p_ito(PX) == PX)
        tally("p_ito_self_adjoint", inner(PX, Y) == inner(X, p_ito(Y)))
        MX = M_ito(X)
        tally("m_ito_average", M_ito(MX) == MX)
    for it in range(max(1, cases // 50)):
        A, B, C = (random_lincomb(rng, GENS, degree=(1, 0), n_terms=1,
                                  max_vertices=3) for _ in range(3))
        jac = (lie_bracket(A, lie_bracket(B, C))
               + lie_bracket(B, lie_bracket(C, A))
               + lie_bracket(C, lie_bracket(A, B)))
        tally("jacobi", not jac)
    return ledger.result()


def suite_jets(seed=0, cases=40):
    from .jets import (TensorJet, random_gamma, random_jet,
                       random_vector_field, Valuation)
    from .symbols import labeled_noise

    rng = random.Random(seed)
    d, order = 2, 4
    ledger = _Ledger(("tensor_axioms", "upsilon_morphism", "matrix_inverse"))
    tally = ledger.tally

    def rand_tensor(u, l):
        return TensorJet(u, l, d, order,
                         {k: random_jet(rng, d, order)
                          for k in itertools.product(range(d),
                                                     repeat=u + l)})

    for _ in range(cases):
        A, B = rand_tensor(1, 1), rand_tensor(1, 1)
        S = swap_perm(1, 1, 1, 1)
        ok = B.product(A) == A.product(B).act(S)
        ok = ok and A.product(B).trace() == A.product(B.trace())
        dd = A.derive().derive()
        S11 = (identity_perm(1), block_perm((2, 1), identity_perm(1)))
        ok = ok and dd == dd.act(S11)
        ok = ok and A.trace().derive() == A.derive().trace()
        tally("tensor_axioms", ok)
    gamma = random_gamma(rng, d, order)
    val = Valuation(gamma, [random_vector_field(rng, d, order)
                            for _ in range(2)])
    lgens = [labeled_noise(1), labeled_noise(2), GAMMA]
    for _ in range(cases):
        a = random_graph(rng, lgens, max_vertices=2, max_low=1)
        b = random_graph(rng, lgens, max_vertices=1, max_low=1)
        A, B = val.evaluate_graph(a), val.evaluate_graph(b)
        ok = val(product(LinComb.of(a), LinComb.of(b))) == A.product(B)
        ok = ok and val(derive(LinComb.of(a))) == A.derive()
        if a.u >= 1 and a.l >= 1:
            ok = ok and val(trace(LinComb.of(a))) == A.trace()
        tally("upsilon_morphism", ok)
    from .jets import Jet, matrix_inverse, _mat_mul

    # random_jet's constants lie in -2..2, so the constant term's
    # determinant is at least 5 * 5 - 2 * 2 = 21 and every matrix inverts
    for _ in range(cases):
        mat = [[random_jet(rng, d, order) for _ in range(d)] for _ in range(d)]
        for i in range(d):
            mat[i][i] = mat[i][i] + Jet.constant(d, order, 7)
        inv = matrix_inverse(mat)
        prod = _mat_mul(mat, inv)
        ok = all(prod[i][j] == Jet.constant(d, order, 1 if i == j else 0)
                 for i in range(d) for j in range(d))
        tally("matrix_inverse", ok)
    return ledger.result()


SUITES = {
    "talgebra": suite_talgebra,
    "adjoint": suite_adjoint,
    "identities": suite_identities,
    "jets": suite_jets,
}
