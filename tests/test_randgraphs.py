import random

import pytest

from gshe import checks
from gshe.algebra import LinComb, coproduct, tensor_inner, trace_graph
from gshe.graphs import XGraph
from gshe.randgraphs import random_graph, random_lincomb
from gshe.symbols import DIFF, GAMMA, GPAIR, NOISE, labeled_noise

GENS = [NOISE, GAMMA]


def ref_random_graph(rng, gens, max_vertices=4, max_low=2, pair_noises=False,
                     min_u=0, min_low=0):
    """The sampler before it took a degree: u and l drawn, then checked."""
    for _ in range(400):
        n = rng.randint(1, max_vertices)
        types = [rng.choice(gens) for _ in range(n)]
        total_out = sum(t.out_arity for t in types)
        natives = [(v, j) for v, t in enumerate(types)
                   for j in range(1, t.in_arity + 1)]
        if min_u > total_out or min_low > max_low:
            continue
        l = rng.randint(min_low, max_low)
        u = rng.randint(min_u, total_out)
        if total_out - u + l < len(natives):
            continue
        out_slots = [(v, j) for v, t in enumerate(types)
                     for j in range(1, t.out_arity + 1)]
        rng.shuffle(out_slots)
        to_up = out_slots[:u]
        rest = out_slots[u:] + [("l", k) for k in range(1, l + 1)]
        rng.shuffle(rest)
        wiring = {}
        for k, s in enumerate(to_up, start=1):
            wiring[s] = ("u", k)
        for tgt, s in zip(natives, rest):
            wiring[s] = tgt
        for s in rest[len(natives):]:
            wiring[s] = (rng.randrange(n), 0)
        pairing = []
        if pair_noises:
            noise_vs = [v for v, t in enumerate(types) if t.name == NOISE.name]
            if len(noise_vs) % 2:
                continue
            rng.shuffle(noise_vs)
            pairing = [tuple(noise_vs[i:i + 2])
                       for i in range(0, len(noise_vs), 2)]
        return XGraph(u, l, types, wiring, pairing)
    raise RuntimeError("could not sample a valid graph with these parameters")


def structure(sampler, rng, *args):
    """What a draw returned, or None where it raised."""
    try:
        g = sampler(rng, *args)
    except RuntimeError:
        return None
    return g.u, g.l, g.types, g.wiring, g.pairing


@pytest.mark.parametrize("gens", [GENS, [NOISE, GAMMA, DIFF, GPAIR],
                                  [labeled_noise(1), labeled_noise(2), GAMMA]])
def test_free_degree_draws_match_the_reference(gens):
    # without a degree the sampler draws what it drew before it took one,
    # so degree-free suites and tests keep their seeded cases
    draws = 0
    for seed in range(6):
        mine, ref = random.Random(seed), random.Random(seed)
        for max_low in range(4):
            for pair_noises in (False, True):
                for max_vertices in (1, 3, 6):
                    args = (gens, max_vertices, max_low, pair_noises)
                    for _ in range(20):
                        assert structure(random_graph, mine, *args) \
                            == structure(ref_random_graph, ref, *args)
                        draws += 1
        assert mine.getstate() == ref.getstate()
    assert draws >= 2000


def test_degree_draws_have_that_degree():
    rng = random.Random(1)
    for degree in [(0, 0), (1, 0), (0, 3), (2, 2), (3, 1), (3, 3)]:
        for _ in range(20):
            assert random_graph(rng, GENS, max_vertices=3,
                                degree=degree).degree == degree
    for _ in range(20):
        comb = random_lincomb(rng, GENS, n_terms=3, degree=(1, 1),
                              max_vertices=3)
        assert len(comb) == 3
        assert all(g.degree == (1, 1) for g, _ in comb.items())


def test_unreachable_degree_raises():
    # two vertices have at most two outputs, so five cannot go up
    with pytest.raises(RuntimeError, match="could not sample"):
        random_graph(random.Random(0), GENS, max_vertices=2, degree=(5, 0))


def test_lincomb_raises_when_it_cannot_fill():
    # a lone noise into up:1 is the only graph there, so no second term
    with pytest.raises(RuntimeError, match="could not draw 2"):
        random_lincomb(random.Random(0), [NOISE], n_terms=2, degree=(1, 0),
                       max_vertices=1)


@pytest.mark.parametrize("suite, cases", [(checks.suite_talgebra, 10),
                                          (checks.suite_identities, 100)])
def test_pre_lie_and_jacobi_operands_hold_christoffel_vertices(
        monkeypatch, suite, cases):
    # the (1,0) operands of prelie_* and jacobi reach three vertices, the
    # fewest that hold a Christoffel vertex at that degree
    drawn = []

    def recording(*args, **kw):
        comb = random_lincomb(*args, **kw)
        drawn.extend(g for g, _ in comb.items())
        return comb

    monkeypatch.setattr(checks, "random_lincomb", recording)
    assert all(not failed for _, _, failed in suite(cases=cases))
    assert any(GAMMA in g.types for g in drawn)


def failures(rows):
    return {claim: failed for claim, _, failed in rows if failed}


def test_trace_claims_see_coefficients(monkeypatch):
    # the traced operands of trtensor and trace_pair carry a coefficient
    # other than 1, so a trace that drops each term's coefficient fails
    def dropping(a):
        return LinComb((trace_graph(g), 1) for g in a.terms)

    monkeypatch.setattr(checks, "trace", dropping)
    assert failures(checks.suite_talgebra(cases=5))["trtensor"] == 5
    assert failures(checks.suite_adjoint(cases=40))["trace_pair"] > 0


def test_product_pair_sees_a_swapped_coproduct(monkeypatch):
    # in every other case h is the product of the two factors, so at least
    # half the pairings are nonzero and a coproduct whose tensor factors
    # trade places fails
    pairings = []

    def recording(*args):
        pairings.append(tensor_inner(*args))
        return pairings[-1]

    monkeypatch.setattr(checks, "tensor_inner", recording)
    assert not failures(checks.suite_adjoint(cases=40))
    assert sum(map(bool, pairings)) >= 20

    def swapped(a):
        return {(y, x): c for (x, y), c in coproduct(a).items()}

    monkeypatch.setattr(checks, "coproduct", swapped)
    assert failures(checks.suite_adjoint(cases=40))["product_pair"] > 0
