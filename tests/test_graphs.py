import itertools
import math
import random

import pytest

from gshe.algebra import act_graph
from gshe.checks import _brute_aut
from gshe.graphs import (GeneratorType, ParseError, PairingError,
                         StructureError, XGraph, empty_graph, format_graph,
                         parse_graph)
from gshe.randgraphs import random_graph
from gshe.symbols import DIFF, GAMMA, GENERATORS, GPAIR, NOISE


def ref_canonicalize(g):
    """(canonical key, automorphism count) by the exhaustive search.

    A test-only copy of the search ``XGraph.canonicalize`` ran before twin
    quotienting: every colour-respecting ordering times every slot choice.
    It shares ``_wl_colors`` and ``_encode`` with the class.
    """
    classes = {}
    for v, c in enumerate(g._wl_colors()):
        classes.setdefault(c, []).append(v)
    blocks = [classes[c] for c in sorted(classes)]
    groups = [t.slot_group for t in g.types]
    best, hits = None, 0
    for parts in itertools.product(*map(itertools.permutations, blocks)):
        order = [v for part in parts for v in part]
        for choice in itertools.product(*groups):
            enc = g._encode(order, choice)
            if best is None or enc < best:
                best, hits = enc, 1
            elif enc == best:
                hits += 1
    return (g.u, g.l, best), hits


def relabel(g, perm):
    """g with vertex v renamed perm[v]."""
    wiring = {}
    for src, dst in g.wiring.items():
        s = src if src[0] == "l" else (perm[src[0]], src[1])
        d = dst if dst[0] == "u" else (perm[dst[0]], dst[1])
        wiring[s] = d
    types = [None] * g.n_vertices
    for v, t in enumerate(g.types):
        types[perm[v]] = t
    pairing = [frozenset(perm[v] for v in p) for p in g.pairing]
    return XGraph(g.u, g.l, types, wiring, pairing)


def with_leaves(rng, g, leaves, paired):
    """g plus ``leaves`` noise or h vertices wired into random star slots.

    The new vertices share their targets often, so they make twins; with
    ``paired`` the new noises are paired among themselves where they can be.
    """
    n = g.n_vertices
    types = list(g.types) + [rng.choice((NOISE, DIFF)) for _ in range(leaves)]
    wiring = dict(g.wiring)
    for v in range(n, n + leaves):
        wiring[(v, 1)] = (rng.randrange(min(n, 2)), 0)
    pairing = list(g.pairing)
    if paired:
        noises = [v for v in range(n, n + leaves) if types[v] is NOISE]
        pairing += [noises[i:i + 2] for i in range(0, len(noises) - 1, 2)]
    return XGraph(g.u, g.l, types, wiring, pairing)


def cycles(rng, n, paired):
    """Noises on disjoint directed cycles, each output into the next star.

    Colour refinement cannot split such vertices, yet only 2-cycles make
    twins: a 6-cycle and two 3-cycles look alike to it.
    """
    order = list(range(n))
    rng.shuffle(order)
    wiring = {}
    start = 0
    while start < n:
        cyc = order[start:start + rng.randint(1, n - start)]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            wiring[(a, 1)] = (b, 0)
        start += len(cyc)
    pairing = [order[i:i + 2] for i in range(0, n - 1, 2)] if paired else []
    return XGraph(0, 0, [NOISE] * n, wiring, pairing)


def test_empty_graph_is_unit():
    g = empty_graph()
    c, aut = g.canonicalize()
    assert c.degree == (0, 0)
    assert aut == 1


def test_single_noise_aut():
    g = XGraph(1, 0, (NOISE,), {(0, 1): ("u", 1)})
    assert g.aut_count() == 1


def test_wiring_validation():
    with pytest.raises(StructureError):
        XGraph(1, 0, (NOISE,), {(0, 1): ("u", 2)})
    with pytest.raises(StructureError):
        XGraph(1, 1, (NOISE,), {(0, 1): ("u", 1), ("l", 1): ("u", 1)})
    with pytest.raises(StructureError):
        XGraph(1, 0, (GAMMA,), {(0, 1): ("u", 1)})  # natives unfilled
    with pytest.raises(PairingError):
        XGraph(1, 0, (NOISE,), {(0, 1): ("u", 1)}, [(0, 0)])


def test_gamma_slot_symmetry_cherry():
    # the two slot assignments of the symmetric generator are identified
    base = {(0, 1): ("u", 1), (1, 1): (0, 1), (2, 1): (0, 2)}
    swapped = {(0, 1): ("u", 1), (1, 1): (0, 2), (2, 1): (0, 1)}
    g1 = XGraph(1, 0, (GAMMA, NOISE, NOISE), base)
    g2 = XGraph(1, 0, (GAMMA, NOISE, NOISE), swapped)
    assert g1 == g2
    assert g1.aut_count() == 2


def test_canonical_invariant_under_relabeling(rng, spde_gens):
    for _ in range(80):
        g = random_graph(rng, spde_gens, max_vertices=5,
                         pair_noises=rng.random() < 0.5)
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert g == h
        assert g.aut_count() == h.aut_count()


def test_canonicalize_idempotent(rng, spde_gens):
    for _ in range(60):
        g = random_graph(rng, spde_gens, max_vertices=5)
        c, _ = g.canonicalize()
        c2, _ = c.canonicalize()
        assert c2.canonical_key() == c.canonical_key()


def test_aut_count_brute_force(rng, spde_gens):
    for _ in range(60):
        g = random_graph(rng, spde_gens, max_vertices=4,
                         pair_noises=rng.random() < 0.5)
        assert _brute_aut(g) == g.aut_count()


def test_external_labels_pin_vertices(rng, spde_gens):
    # relabeling an external slot produces a different canonical class
    g = XGraph(2, 0, (NOISE, NOISE),
               {(0, 1): ("u", 1), (1, 1): ("u", 2)})
    assert g.aut_count() == 1
    swapped = act_graph(((2, 1), ()), g)
    assert swapped == g  # both noises identical, swap is an isomorphism


def test_serialization_roundtrip(rng, spde_gens):
    for _ in range(40):
        g = random_graph(rng, spde_gens, max_vertices=5,
                         pair_noises=rng.random() < 0.5)
        text = format_graph(g)
        h = parse_graph(text, GENERATORS)
        assert h == g
        assert format_graph(h.canonicalize()[0]) \
            == format_graph(g.canonicalize()[0])


def test_parse_error_line_numbers():
    text = "xgraph u=1 l=0\nv 0 Xi\ne 0.out:1 -> up:2\n"
    with pytest.raises(ParseError):
        parse_graph(text, GENERATORS)
    # structural errors name the offending edge's or pair's line
    two = "xgraph u=1 l=0\nv 0 h\nv 1 Xi\nv 2 Xi\n"
    for tail, lineno in [
            ("e 0.out:1 -> up:1\ne 1.out:1 -> 0.star\ne 2.out:1 -> up:2\n", 7),
            ("e 0.out:1 -> up:1\ne 1.out:1 -> 5.star\ne 2.out:1 -> 0.star\n", 6),
            ("e 1.out:1 -> up:1\ne 0.out:1 -> 1.in:1\ne 2.out:1 -> 0.star\n", 6),
            ("e 0.out:1 -> up:1\ne 1.out:1 -> 0.star\ne 2.out:1 -> up:1\n", 7),
            ("e 0.out:1 -> up:1\ne 1.out:1 -> 0.star\ne 2.out:1 -> 0.star\n"
             "e 3.out:1 -> 0.star\n", 8),
            ("e 0.out:1 -> up:1\ne 1.out:1 -> 0.star\ne 2.out:1 -> 0.star\n"
             "\npair 1 1\n", 9),
            ("e 0.out:1 -> up:1\ne 1.out:1 -> 0.star\ne 2.out:1 -> 0.star\n"
             "pair 1 2\npair 2 0\n", 9),
            ("e 0.out:1 -> up:1\ne 1.out:1 -> 0.star\ne 2.out:1 -> 0.star\n"
             "pair 1 7\n", 8),
            ("e 0.out:1 -> up:1\ne 1.out:1 -> 0.star\ne 2.out:1 -> 0.star\n"
             "pair 1 2\npair 2 1\n", 9),
            ("e 0.out:1 -> up:1\ne 1.out:1 -> 0.star\ne 2.out:1 -> 0.star\n"
             "pair 1 2\n\npair 1 2\n", 10)]:
        with pytest.raises(ParseError) as exc:
            parse_graph(two + tail, GENERATORS)
        assert f"line {lineno}:" in str(exc.value), tail
    # ... errors that name no single line keep the block's first line
    for text in ["\n" + two + "e 0.out:1 -> up:1\ne 1.out:1 -> 0.star\n",
                 "\n" + two + "e 0.out:1 -> 1.star\ne 1.out:1 -> 0.star\n"
                 "e 2.out:1 -> 0.star\n"]:
        with pytest.raises(ParseError) as exc:
            parse_graph(text, GENERATORS, offset=10)
        assert "line 11:" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_graph("xgraph u=1 l=0\nv 0 Bogus\n", GENERATORS)
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_graph("xgraph u=1 l=0\nv 0 Xi\nbogus directive\n", GENERATORS)
    assert "line 3" in str(exc.value)
    # the ten-vertex limit: the eleventh vertex line is the error
    star = ("xgraph u=1 l=0\nv 0 h\n"
            + "".join(f"v {i} Xi\n" for i in range(1, 10))
            + "e 0.out:1 -> up:1\n"
            + "".join(f"e {i}.out:1 -> 0.star\n" for i in range(1, 10)))
    assert parse_graph(star, GENERATORS).n_vertices == 10
    with pytest.raises(ParseError) as exc:
        parse_graph(star.replace("e 0.out", "v 10 Xi\nv 11 Xi\ne 0.out"),
                    GENERATORS)
    assert "line 12:" in str(exc.value)
    assert "more than 10 vertices" in str(exc.value)


def test_perm_closure_validates():
    with pytest.raises(ValueError):
        GeneratorType("bad", 2, 1, in_sym=((1, 1),))


def test_twin_quotient_matches_exhaustive_search():
    # keys and automorphism counts equal those of the full search, on
    # random graphs of up to 7 vertices, paired and unpaired, many of them
    # with twins (star leaves of a shared vertex) or with vertices that
    # refinement cannot split although they are no twins (cycles)
    rng = random.Random(4242)
    all_gens = [NOISE, GAMMA, DIFF, GPAIR]
    with_twins = 0
    for i in range(450):
        paired = i % 2 == 1
        if i % 3 == 0:
            g = random_graph(rng, all_gens, max_vertices=7, pair_noises=paired)
        elif i % 3 == 1:
            g = random_graph(rng, all_gens, max_vertices=3, max_low=1,
                             pair_noises=paired)
            g = with_leaves(rng, g, rng.randint(2, 7 - g.n_vertices), paired)
        else:
            g = cycles(rng, rng.randint(2, 6), paired)
        blocks = g._twin_classes(g._wl_colors())
        with_twins += any(len(c) > 1 for b in blocks for c in b)
        assert (g.canonical_key(), g.aut_count()) == ref_canonicalize(g), \
            (i, format_graph(g))
    assert with_twins > 100


def _star(leaves, paired):
    """An h root with ``leaves`` noises on its star slot."""
    wiring = {(0, 1): ("u", 1)}
    wiring.update({(v, 1): (0, 0) for v in range(1, leaves + 1)})
    pairs = [(v, v + 1) for v in range(1, leaves + 1, 2)] if paired else []
    return XGraph(1, 0, [DIFF] + [NOISE] * leaves, wiring, pairs)


def _gamma_fan(stars):
    """A Christoffel vertex fed by two noises, with ``stars`` star leaves."""
    wiring = {(0, 1): ("u", 1), (1, 1): (0, 1), (2, 1): (0, 2)}
    wiring.update({(v, 1): (0, 0) for v in range(3, 3 + stars)})
    return XGraph(1, 0, [GAMMA] + [NOISE] * (2 + stars), wiring)


@pytest.mark.parametrize("g, aut", [
    (_star(9, False), math.factorial(9)),
    (_star(8, True), math.factorial(4) * 2 ** 4),
    (_gamma_fan(7), 2 * math.factorial(7)),
])
def test_symmetric_graphs_closed_form(g, aut):
    rng = random.Random(7)
    prints = set()
    for _ in range(3):
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert h.aut_count() == aut
        prints.add(format_graph(h.canonicalize()[0]))
    assert len(prints) == 1
    assert g.aut_count() == aut
