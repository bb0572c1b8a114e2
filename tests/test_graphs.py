import copy
import functools
import itertools
import math
import pickle
import random
import re
import sys
import time
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gshe import checks, graphs, morphisms, subspaces, symbols
from gshe.algebra import (LinComb, act_graph, cut_graph, derive_vertex_graph,
                          parse_lincomb, product_graph, substitute_vertex)
from gshe.checks import _brute_aut
from gshe.graphs import (MAX_VERTICES, GeneratorType, ParseError,
                         PairingError, StructureError, XGraph, empty_graph,
                         format_graph, parse_graph)
from gshe.randgraphs import random_graph
from gshe.symbols import DIFF, GAMMA, GENERATORS, GPAIR, NOISE


def ref_wl_colors(g):
    """Iterated refinement of isomorphism-invariant vertex colors, walking
    the wiring dict in every round: the class's refinement before it read
    one edge list per canonicalisation."""
    n = g.n_vertices
    ext = [[] for _ in range(n)]
    for src, dst in g.wiring.items():
        if isinstance(src[0], int) and dst[0] == "u":
            ext[src[0]].append((0, dst[1], g.types[src[0]].out_orbit(src[1])))
        if src[0] == "l" and isinstance(dst[0], int):
            v, j = dst
            slot = 0 if j == 0 else g.types[v].in_orbit(j)
            ext[v].append((1, src[1], slot))
    colors = [(g.types[v].name, tuple(sorted(ext[v]))) for v in range(n)]
    for _ in range(n):
        nbrs = [[] for _ in range(n)]
        for src, dst in g.wiring.items():
            if isinstance(src[0], int) and isinstance(dst[0], int):
                a, ja = src
                b, jb = dst
                oa = g.types[a].out_orbit(ja)
                ob = 0 if jb == 0 else g.types[b].in_orbit(jb)
                nbrs[a].append((0, oa, ob, colors[b]))
                nbrs[b].append((1, ob, oa, colors[a]))
        for p in g.pairing:
            a, b = sorted(p)
            nbrs[a].append((2, 0, 0, colors[b]))
            nbrs[b].append((2, 0, 0, colors[a]))
        new = [(colors[v], tuple(sorted(nbrs[v], key=repr))) for v in range(n)]
        ranked = {c: i for i, c in enumerate(sorted(set(new), key=repr))}
        refined = [ranked[c] for c in new]
        if len(set(refined)) == len(set(colors)):
            return refined
        colors = refined
    return colors


def ref_encode(g, order, choice):
    """The serialisation of g under one ordering and one slot choice, read
    from the wiring dict: the class's encoding before it read one edge list
    per canonicalisation."""
    pos = {v: i for i, v in enumerate(order)}
    entries = []
    for src, dst in g.wiring.items():
        if src[0] == "l":
            s = (-1, src[1])
        else:
            v, j = src
            s = (pos[v], choice[v][1][j - 1])
        if dst[0] == "u":
            d = (-1, dst[1])
        elif dst[1] == 0:
            d = (pos[dst[0]], 0)
        else:
            v, j = dst
            d = (pos[v], choice[v][0][j - 1])
        entries.append((s, d))
    entries.sort()
    pairs = sorted(tuple(sorted(pos[v] for v in p)) for p in g.pairing)
    return (tuple(g.types[v].name for v in order), tuple(entries), tuple(pairs))


def ref_canonicalize(g):
    """(canonical key, automorphism count) by the exhaustive search.

    Every colour-respecting ordering times every slot choice, with no
    pruning by automorphisms, through ``ref_wl_colors`` and ``ref_encode``:
    it shares no code with the class.
    """
    classes = {}
    for v, c in enumerate(ref_wl_colors(g)):
        classes.setdefault(c, []).append(v)
    blocks = [classes[c] for c in sorted(classes)]
    groups = [t.slot_group for t in g.types]
    best, hits = None, 0
    for parts in itertools.product(*map(itertools.permutations, blocks)):
        order = [v for part in parts for v in part]
        for choice in itertools.product(*groups):
            enc = ref_encode(g, order, choice)
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


def test_negative_degree_rejected():
    # parse_graph rejects these headers with a line number; graphs built in
    # code meet the same rule in XGraph itself
    for u, l in [(-1, 0), (0, -2)]:
        with pytest.raises(StructureError, match="negative degree"):
            XGraph(u, l, (), {})
    assert XGraph(0, 0, (), {}).degree == (0, 0)


def test_vertex_limit_binds_graphs_built_in_code():
    def chain(n):
        # each noise feeds the star slot of the one before it
        wiring = {(v, 1): (v - 1, 0) for v in range(1, n)}
        wiring[(0, 1)] = ("u", 1)
        return XGraph(1, 0, (NOISE,) * n, wiring)

    assert chain(MAX_VERTICES).n_vertices == MAX_VERTICES
    with pytest.raises(ValueError, match="11 vertices"):
        chain(MAX_VERTICES + 1)
    with pytest.raises(ValueError, match="12 vertices"):
        product_graph(chain(6), chain(6))


def test_repeated_pair_rejected():
    wiring = {(0, 1): ("u", 1), (1, 1): (0, 0), (2, 1): (0, 0)}
    with pytest.raises(PairingError) as exc:
        XGraph(1, 0, (NOISE, NOISE, NOISE), wiring, pairing=[(1, 2), (2, 1)])
    assert exc.value.pair == frozenset((1, 2))


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
    # one header per block, with degrees >= 0 and no other keys
    one = "xgraph u=1 l=0\nv 0 Xi\ne 0.out:1 -> up:1\n"
    for text, lineno in [("xgraph u=-1 l=0\n", 1),
                         ("xgraph u=1 l=-2\nv 0 Xi\ne 0.out:1 -> up:1\n", 1),
                         ("xgraph u=0 l=0 junk=3\n", 1),
                         ("xgraph l=0 u=0\n", 1),
                         (one + "xgraph u=1 l=0\n", 4)]:
        with pytest.raises(ParseError) as exc:
            parse_graph(text, GENERATORS)
        assert f"line {lineno}:" in str(exc.value), text
    with pytest.raises(ParseError) as exc:
        parse_lincomb("1 * 2 * {\n" + one + "}\n", GENERATORS)
    assert "line 1:" in str(exc.value)
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


def test_slot_groups_and_orbits_are_pinned():
    # the identity pair comes first and the swaps in lexicographic order;
    # the canonical search, and so the golden files, depend on this order
    want = {
        NOISE: ((((), (1,)),), (), (1,)),
        GAMMA: ((((1, 2), (1,)), ((2, 1), (1,))), (1, 1), (1,)),
        DIFF: ((((), (1,)),), (), (1,)),
        GPAIR: ((((), (1, 2)), ((), (2, 1))), (), (1, 1)),
    }
    for t, (group, ins, outs) in want.items():
        assert t.slot_group == group
        assert tuple(map(t.in_orbit, range(1, t.in_arity + 1))) == ins
        assert tuple(map(t.out_orbit, range(1, t.out_arity + 1))) == outs


def has_twins(g):
    """Two vertices of one refined colour whose transposition, with
    identity slot choices, preserves the wiring and the pairing."""
    colors = ref_wl_colors(g)
    for u, v in itertools.combinations(range(g.n_vertices), 2):
        if colors[u] == colors[v]:
            perm = list(range(g.n_vertices))
            perm[u], perm[v] = v, u
            h = relabel(g, perm)
            if h.wiring == g.wiring and h.pairing == g.pairing:
                return True
    return False


def mixed_graphs(rng, count, n=7, max_low=2):
    """Random graphs of up to n vertices and ``max_low`` external low slots,
    paired and unpaired in turn, many of them with twins (star leaves of a
    shared vertex) or with vertices that refinement cannot split although
    they are no twins (cycles)."""
    all_gens = [NOISE, GAMMA, DIFF, GPAIR]
    for i in range(count):
        paired = i % 2 == 1
        if i % 3 == 0:
            yield random_graph(rng, all_gens, max_vertices=n, max_low=max_low,
                               pair_noises=paired)
        elif i % 3 == 1:
            g = random_graph(rng, all_gens, max_vertices=3,
                             max_low=max_low - 1, pair_noises=paired)
            yield with_leaves(rng, g, rng.randint(2, n - g.n_vertices), paired)
        else:
            yield cycles(rng, rng.randint(2, n - 1), paired)


# Two Christoffel vertices of one colour, each fed on different input slots:
# the prefix bound must treat their symmetric inputs as slot 1, and the
# seeded graphs seldom decide a bound on such a slot.
CHRISTOFFEL_PAIRS = [parse_graph(text, GENERATORS) for text in (
    "xgraph u=0 l=0\nv 0 Gamma\nv 1 Gamma\nv 2 Xi\nv 3 Xi\n"
    "e 0.out:1 -> 1.in:2\ne 1.out:1 -> 0.in:2\n"
    "e 2.out:1 -> 0.in:1\ne 3.out:1 -> 1.in:1",
    "xgraph u=0 l=0\nv 0 Gamma\nv 1 Gamma\nv 2 h\nv 3 h\n"
    "e 0.out:1 -> 0.in:2\ne 1.out:1 -> 1.in:1\n"
    "e 2.out:1 -> 0.in:1\ne 3.out:1 -> 1.in:2",
)]


def test_canonical_search_matches_exhaustive_search(monkeypatch):
    # keys and automorphism counts equal those of the full search; the memo
    # is cleared before each case, so it is the search that is compared, and
    # the prefix bound skips subtrees in enough cases to be tested here
    exceeds = graphs._PrefixBound.exceeds
    skips = 0

    def counted(self, order):
        nonlocal skips
        hit = exceeds(self, order)
        skips += hit
        return hit

    monkeypatch.setattr(graphs._PrefixBound, "exceeds", counted)
    with_twins = with_skips = 0
    gs = list(mixed_graphs(random.Random(4242), 450)) + CHRISTOFFEL_PAIRS
    for i, g in enumerate(gs):
        with_twins += has_twins(g)
        graphs._MEMO.clear()
        before = skips
        assert (g.canonical_key(), g.aut_count()) == ref_canonicalize(g), \
            (i, format_graph(g))
        with_skips += skips > before
    assert with_twins > 100
    assert with_skips >= 50


def test_refinement_and_encoding_match_the_dict_walk():
    # the colours and the encodings read from the edge list equal those of
    # the walk over the wiring dict, for random colour-respecting orderings
    # and every slot choice
    rng = random.Random(4242)
    for i, g in enumerate(mixed_graphs(random.Random(4242), 450)):
        edges = g._edges()
        colors = g._wl_colors(edges)
        assert colors == ref_wl_colors(g), (i, format_graph(g))
        choices = list(itertools.product(*(t.slot_group for t in g.types)))
        for _ in range(3):
            order = sorted(range(g.n_vertices),
                           key=lambda v: (colors[v], rng.random()))
            assert g._encode(edges, order, choices) \
                == [ref_encode(g, order, ch) for ch in choices], (i, format_graph(g))


def test_refinement_matches_the_repr_ranking():
    # the packed int colours equal the oracle's ranks of nested tuples by
    # repr, rank for rank, on graphs up to the vertex limit, with external
    # slots of 10 and more, and on the 54-symbol basis
    gs = list(mixed_graphs(random.Random(2023), 4000, n=MAX_VERTICES,
                           max_low=13))
    assert sum(g.n_vertices == MAX_VERTICES for g in gs) > 250
    assert sum(g.l >= 10 for g in gs) > 500
    gs += symbols.full_basis()
    for i, g in enumerate(gs):
        assert g._wl_colors(g._edges()) == ref_wl_colors(g), (i, format_graph(g))


SLOTLESS = GeneratorType("o", 0, 0)  # a vertex type with no slots at all


@pytest.mark.parametrize("types, wiring", [
    # h vertices 1 and 2 both feed 0's star, and only 2 has a star leaf: a
    # one-entry list ranks after a longer list with the same first entry
    ([DIFF, DIFF, DIFF, NOISE],
     {(0, 1): ("u", 1), (1, 1): (0, 0), (2, 1): (0, 0), (3, 1): (2, 0)}),
    # slotless vertices 1 and 2, only 2 with a star leaf: the empty list
    # ranks after every non-empty one
    ([DIFF, SLOTLESS, SLOTLESS, NOISE], {(0, 1): ("u", 1), (3, 1): (2, 0)}),
    # like the first, with one star leaf on 1 and two on 2: a list of two
    # entries ranks before a longer list it is a prefix of
    ([DIFF, DIFF, DIFF, NOISE, NOISE, NOISE],
     {(0, 1): ("u", 1), (1, 1): (0, 0), (2, 1): (0, 0), (3, 1): (1, 0),
      (4, 1): (2, 0), (5, 1): (2, 0)}),
], ids=["one-entry", "empty", "prefix"])
def test_refinement_prefix_rules(types, wiring):
    # vertices 1 and 2 share their first colour and are told apart only by
    # the rule named: the oracle's repr order ranks them
    g = XGraph(1, 0, types, wiring)
    colors = g._wl_colors(g._edges())
    assert colors == ref_wl_colors(g)
    assert colors[1] != colors[2]


def test_packed_colour_code_fits():
    # _wl_colors packs each neighbour entry as one decimal digit per field,
    # which needs colour ranks below 10 and slot orbits of at most 9
    assert MAX_VERTICES <= 10, (
        "colour ranks reach 10: widen _wl_colors's packed code and regenerate "
        "the golden files (ROADMAP item 4)")
    gens = list(symbols.GENERATORS.values()) + [symbols.labeled_noise(1)]
    for t in gens:
        assert max(t.in_arity, t.out_arity) <= 9, (
            f"{t} has more than 9 slots on a side: widen _wl_colors's packed "
            "code and regenerate the golden files (ROADMAP item 4)")


def canon_summary(g):
    """Canonical key, automorphism count, canonical print and the identity
    of the canonical graph's types."""
    c, aut = g.canonicalize()
    return g.canonical_key(), aut, format_graph(c), [id(t) for t in c.types]


def raw_copy(g):
    """A fresh graph with the raw structure of g, wired in the same order."""
    return XGraph(g.u, g.l, g.types, g.wiring, g.pairing)


def searched_summaries(gs):
    """``canon_summary`` of each graph, each found by the search."""
    out = []
    for g in gs:
        graphs._MEMO.clear()
        out.append(canon_summary(raw_copy(g)))
    graphs._MEMO.clear()
    return out


def test_memo_hits_equal_the_search(monkeypatch):
    gs = list(mixed_graphs(random.Random(99), 300))
    searched = searched_summaries(gs)
    for g in gs:
        raw_copy(g).canonicalize()

    def no_search(*args):
        raise AssertionError("a memoised structure was searched again")

    monkeypatch.setattr(graphs, "_search", no_search)
    for i, (g, want) in enumerate(zip(gs, searched)):
        assert canon_summary(raw_copy(g)) == want, (i, format_graph(g))


def test_memo_tells_same_named_types_apart():
    # one name, two slot symmetries, the same wiring: two entries
    plain = GeneratorType("T", 2, 1)
    symmetric = GeneratorType("T", 2, 1, symmetric_in=True)
    wiring = {(0, 1): ("u", 1), (1, 1): (0, 1), (2, 1): (0, 2)}
    graphs._MEMO.clear()
    auts = [XGraph(1, 0, (t, NOISE, NOISE), wiring).aut_count()
            for t in (plain, symmetric, plain, symmetric)]
    assert auts == [1, 2, 1, 2]
    assert len(graphs._MEMO) == 2


def test_copied_type_gets_its_own_memo_id():
    # an id carried into another process could name another type there
    for t in (NOISE, GAMMA, GPAIR):
        for c in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert c == t and c.slot_group == t.slot_group
            assert c._uid != t._uid


def test_copied_graph_recomputes_its_hash(rng, spde_gens):
    # a cached hash is salted per interpreter, so a copy starts uncanonised
    # and hashes afresh, to the same value in this process
    for _ in range(20):
        g = random_graph(rng, spde_gens, max_vertices=5,
                         pair_noises=rng.random() < 0.5)
        c, _ = g.canonicalize()
        for h in (g, c):
            for k in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
                assert k._canon is None
                assert k == h and hash(k) == hash(h)
                assert format_graph(k) == format_graph(h)


def fresh_caches(monkeypatch):
    """Swap every ``lru_cache`` of the package for an empty copy of itself,
    in every module that binds it; ``monkeypatch`` puts the old ones back."""
    mods = [m for name, m in sys.modules.items() if name.startswith("gshe.")]
    fresh = {}
    for m in mods:
        for f in vars(m).values():
            if callable(f) and hasattr(f, "cache_parameters"):
                fresh.setdefault(id(f), functools.lru_cache(
                    **f.cache_parameters())(f.__wrapped__))
    for m in mods:
        for name, f in list(vars(m).items()):
            if id(f) in fresh:
                monkeypatch.setattr(m, name, fresh[id(f)])


def test_trusted_graphs_are_valid_graphs(monkeypatch):
    # every graph the operations build without checks passes all of
    # XGraph's checks, over the suites and the cached subspaces computed cold
    trusted = XGraph._trusted.__func__
    built = 0

    def checked(cls, u, l, types, wiring, pairing):
        nonlocal built
        g = trusted(cls, u, l, types, wiring, pairing)
        h = XGraph(g.u, g.l, g.types, g.wiring, g.pairing)
        assert (h.u, h.l, h.types, h.wiring, h.pairing) \
            == (g.u, g.l, g.types, g.wiring, g.pairing)
        built += 1
        return g

    fresh_caches(monkeypatch)
    monkeypatch.setattr(XGraph, "_trusted", classmethod(checked))
    for suite in (checks.suite_talgebra, checks.suite_adjoint,
                  checks.suite_identities):
        assert all(not failed for _, _, failed in suite(seed=5, cases=30))
    assert len(subspaces.s_geo()) == 15 and len(subspaces.s_ito()) == 19
    assert morphisms.tau_star() and morphisms.tau_c()
    assert len(morphisms.covariant_symbols()) == 15
    assert built > 10000


def test_trusted_callers_keep_their_guards():
    chain6 = XGraph(1, 0, (NOISE,) * 6,
                    {(v, 1): ((v - 1, 0) if v else ("u", 1)) for v in range(6)})
    with pytest.raises(ValueError, match="12 vertices"):
        product_graph(chain6, chain6)
    g = XGraph(2, 0, (NOISE, NOISE), {(0, 1): ("u", 1), (1, 1): ("u", 2)})
    for alpha in [((1, 1), ()), ((2, 2), ()), ((0, 1), ()), ((1, 3), ())]:
        with pytest.raises(ValueError, match="not a permutation"):
            act_graph(alpha, g)
    cherry = XGraph(1, 2, (GAMMA,), {(0, 1): ("u", 1), ("l", 1): (0, 1),
                                     ("l", 2): (0, 2)})
    for alpha in [((1,), (1, 1)), ((1,), (2, 2)), ((2,), (1, 2))]:
        with pytest.raises(ValueError, match="not a permutation"):
            act_graph(alpha, cherry)
    for v in (-1, 2, "0"):
        with pytest.raises(StructureError, match="nonexistent vertex"):
            derive_vertex_graph(g, v)
    with pytest.raises(StructureError, match="not an internal edge"):
        cut_graph(g, (0, 1))
    paired = XGraph(2, 0, (NOISE, NOISE), {(0, 1): ("u", 1), (1, 1): ("u", 2)},
                    [(0, 1)])
    image = LinComb.of(XGraph(1, 0, (DIFF, NOISE, NOISE),
                              {(0, 1): ("u", 1), (1, 1): (0, 0), (2, 1): (0, 0)},
                              [(1, 2)]))

    def first(name):
        return lambda term: next(v for v, t in enumerate(term.types)
                                 if t.name == name)

    for carrier in (lambda term: 3, lambda term: -1, first(NOISE.name)):
        with pytest.raises(PairingError, match="unpaired vertex"):
            list(substitute_vertex(paired, 0, image, carrier=carrier))
    assert len(list(substitute_vertex(paired, 0, image,
                                      carrier=first(DIFF.name)))) == 1


def test_memo_stays_within_its_cap(monkeypatch):
    cap = 8
    monkeypatch.setattr(graphs, "_MEMO_CAP", cap)
    gs = list(mixed_graphs(random.Random(5), 60))
    assert len({g._memo_key(g._edges()) for g in gs}) > 3 * cap
    searched = searched_summaries(gs)
    for _ in range(2):
        for i, (g, want) in enumerate(zip(gs, searched)):
            assert canon_summary(raw_copy(g)) == want, (i, format_graph(g))
            assert 0 < len(graphs._MEMO) <= cap


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


def _noise_cycles(*lengths):
    """Disjoint cycles of noises, each output feeding the next noise's star
    slot: degree (0,0)."""
    wiring, start = {}, 0
    for n in lengths:
        wiring.update({(start + v, 1): (start + (v + 1) % n, 0) for v in range(n)})
        start += n
    return XGraph(0, 0, [NOISE] * start, wiring)


@pytest.mark.parametrize("g, aut", [
    (_star(9, False), math.factorial(9)),
    (_star(8, True), math.factorial(4) * 2 ** 4),
    (_gamma_fan(7), 2 * math.factorial(7)),
    (_noise_cycles(6), 6),
    (_noise_cycles(7), 7),
    (_noise_cycles(4, 4), 4 * 4 * 2),
    (_noise_cycles(3, 3, 3), 3 ** 3 * math.factorial(3)),
    (_noise_cycles(10), 10),
    (_noise_cycles(5, 5), 5 * 5 * 2),
    (_noise_cycles(3, 3, 4), 3 * 3 * 2 * 4),
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


def test_noise_cycles_canonicalise_in_bounded_time():
    # one colour class whose automorphisms fix no vertex beyond the first:
    # without the prefix bound the 10-cycle searches the 9! orderings below
    # its first vertex (seconds); with it the three take about 2 ms
    gs = [_noise_cycles(10), _noise_cycles(5, 5), _noise_cycles(3, 3, 4)]
    graphs._MEMO.clear()
    start = time.perf_counter()
    for g in gs:
        g.canonicalize()
    assert time.perf_counter() - start < 2


BASIS_BLOCKS = [b for b in resources.files("gshe.data").joinpath("basis.txt")
                .read_text().split("\n\n") if b.strip()]
TOKENS = sorted({t for b in BASIS_BLOCKS for t in b.split()}
                | {"x", "-1", "11", "u=-1", "l=x", "junk=3", "*", "{", "}"})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parser_fuzz_basis_blocks(data):
    # a mutated basis block is a ParseError, or a graph whose canonical
    # print parses back to an equal graph with the same print
    lines = data.draw(st.sampled_from(BASIS_BLOCKS)).splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1))
        kind = data.draw(st.sampled_from(["delete", "duplicate", "swap", "int", "token"]))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "int":
            spans = [m.span() for m in re.finditer(r"\d+", lines[i])]
            if spans:
                a, b = data.draw(st.sampled_from(spans))
                lines[i] = lines[i][:a] + str(data.draw(st.integers(-1, 11))) + lines[i][b:]
        else:
            toks = lines[i].split()
            toks[data.draw(st.integers(0, len(toks) - 1))] = data.draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(toks)
    try:
        g = parse_graph("\n".join(lines), GENERATORS)
    except ParseError:
        return
    text = format_graph(g.canonicalize()[0])
    h = parse_graph(text, GENERATORS)
    assert h == g
    assert format_graph(h.canonicalize()[0]) == text
