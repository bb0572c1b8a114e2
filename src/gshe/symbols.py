"""The SPDE generator set and the paired-symbol basis.

Symbols are rooted trees over a noise generator (one output, no native
inputs) and a Christoffel generator (one output, two symmetric native
inputs): every vertex's output is used exactly once, the root output feeds
``up:1``, every Christoffel vertex has both native slots filled, and the
noise vertices carry a perfect pairing.  With two noises there are 2 classes,
with four there are 52, for a total basis of 54.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .algebra import LinComb
from .graphs import GeneratorType, PairingError, XGraph

NOISE = GeneratorType("Xi", 0, 1)
GAMMA = GeneratorType("Gamma", 2, 1, in_sym=((2, 1),))
DIFF = GeneratorType("h", 0, 1)
GPAIR = GeneratorType("g", 0, 2, out_sym=((2, 1),))

GENERATORS = {t.name: t for t in (NOISE, GAMMA, DIFF, GPAIR)}


@lru_cache(maxsize=None)
def labeled_noise(i):
    """A distinguishable noise type; used for labellings and pair-building."""
    return GeneratorType(f"Xi{i}", 0, 1)


# -- tree enumeration --------------------------------------------------------
#
# Tree structures are nested tuples: ('xi', forest) or ('ga', (t1, t2), forest)
# where forest is a sorted tuple of subtrees and (t1, t2) is sorted.

@lru_cache(maxsize=None)
def _forests(a, b):
    if a == 0 and b == 0:
        return (tuple(),)
    out = set()
    for ta in range(a + 1):
        for tb in range(b + 1):
            if ta == 0 and tb == 0:
                continue
            for t in _trees(ta, tb):
                for rest in _forests(a - ta, b - tb):
                    out.add(tuple(sorted((t,) + rest, key=repr)))
    return tuple(sorted(out, key=repr))


@lru_cache(maxsize=None)
def _trees(a, b):
    out = set()
    if a >= 1:
        for forest in _forests(a - 1, b):
            out.add(("xi", forest))
    if b >= 1:
        for a1 in range(a + 1):
            for b1 in range(b):
                for t1 in _trees(a1, b1):
                    for a2 in range(a - a1 + 1):
                        for b2 in range(b - b1):
                            for t2 in _trees(a2, b2):
                                for forest in _forests(a - a1 - a2, b - 1 - b1 - b2):
                                    thick = tuple(sorted((t1, t2), key=repr))
                                    out.add(("ga", thick, forest))
    return tuple(sorted(out, key=repr))


def _tree_to_graph(tree):
    """Build the (1,0) graph of a tree structure; returns (graph, noise ids)."""
    types = []
    wiring = {}
    noises = []
    # Vertex ids in preorder: a node, then its native subtrees, then its
    # forest; the stack holds (node, target slot) in reverse of that order.
    stack = [(tree, ("u", 1))]
    while stack:
        node, target = stack.pop()
        vid = len(types)
        wiring[(vid, 1)] = target
        if node[0] == "xi":
            types.append(NOISE)
            noises.append(vid)
            subs = [(sub, (vid, 0)) for sub in node[1]]
        else:
            types.append(GAMMA)
            subs = [(sub, (vid, k)) for k, sub in enumerate(node[1], start=1)]
            subs += [(sub, (vid, 0)) for sub in node[2]]
        stack.extend(reversed(subs))
    return XGraph(1, 0, types, wiring), noises


def _pairings(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, other in enumerate(rest):
        for tail in _pairings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + tail


def tree_shapes(n):
    """Canonical unpaired trees with n noises (single noise type)."""
    seen = {}
    for b in range(n):
        for tree in _trees(n, b):
            g, _ = _tree_to_graph(tree)
            c, _ = g.canonicalize()
            seen[c.canonical_key()] = c
    return [seen[k] for k in sorted(seen)]


def enumerate_basis(n):
    """All canonical paired symbols with n noises, in sorted canonical order."""
    if n not in (2, 4):
        raise ValueError(f"paired symbols need n in {{2, 4}}, got {n}")
    seen = {}
    for b in range(n):
        for tree in _trees(n, b):
            g, noises = _tree_to_graph(tree)
            for pairing in _pairings(tuple(noises)):
                pg = XGraph(g.u, g.l, g.types, g.wiring, pairing)
                c, _ = pg.canonicalize()
                seen[c.canonical_key()] = c
    return [seen[k] for k in sorted(seen)]


@lru_cache(maxsize=None)
def full_basis():
    """The 54 paired symbols (2-noise classes first)."""
    return tuple(enumerate_basis(2) + enumerate_basis(4))


def symmetry_factor(s: XGraph) -> int:
    """Pairing-preserving automorphism count S(tau, P)."""
    return s.aut_count()


def unpaired_symmetry_factor(s: XGraph) -> int:
    """S(tau): automorphisms of the underlying tree, pairing ignored."""
    return XGraph(s.u, s.l, s.types, s.wiring).aut_count()


def pairing_orbit_count(s: XGraph) -> int:
    """N(tau, P): distinct pairings isomorphic to the one carried by s."""
    noises = [v for v, t in enumerate(s.types) if t.name == NOISE.name]
    count = 0
    for pairing in _pairings(tuple(noises)):
        pg = XGraph(s.u, s.l, s.types, s.wiring, pairing)
        if pg == s:
            count += 1
    return count


def iota_expand(s: XGraph, m: int) -> list:
    """The labellings of s by noise labels in [m], constant on its pairs.

    A graph map: one ``(labelled graph, 1)`` pair per assignment of labels
    to the pairs of s, m ** (number of pairs) in all, neither merged nor
    canonicalised; ``LinComb(iota_expand(s, m))`` is their merged sum.
    """
    if m < 1:
        raise ValueError("need at least one noise label")
    pairs = sorted(tuple(sorted(p)) for p in s.pairing)
    noise_ids = {v for v, t in enumerate(s.types) if t.name == NOISE.name}
    if {v for p in pairs for v in p} != noise_ids:
        raise PairingError("iota needs a perfect pairing of the noise vertices")
    out = []
    for labels in itertools.product(range(1, m + 1), repeat=len(pairs)):
        types = list(s.types)
        for (v, w), lab in zip(pairs, labels):
            types[v] = types[w] = labeled_noise(lab)
        out.append((XGraph(s.u, s.l, types, s.wiring), 1))
    return out


def forget_labels(a: LinComb, pair_by=None) -> LinComb:
    """Map every labelled noise type back to the plain noise type.

    ``pair_by`` maps label names to pair names; the vertices of each pair
    name are then paired (each must occur exactly twice per graph).
    """
    def per_graph(g):
        types = []
        groups = {}
        for v, t in enumerate(g.types):
            if t.name.startswith("Xi") and t.name != "Xi":
                if pair_by:
                    groups.setdefault(pair_by[t.name], []).append(v)
                types.append(NOISE)
            else:
                types.append(t)
        pairing = list(g.pairing)
        for name, vs in groups.items():
            if len(vs) != 2:
                raise PairingError(f"pair {name} occurs {len(vs)} times")
            pairing.append(tuple(vs))
        return [(XGraph(g.u, g.l, types, g.wiring, pairing), 1)]

    return a.map_terms(per_graph)


def flat_symbols():
    """Paired symbols whose trees contain only noise vertices."""
    return [s for s in full_basis()
            if all(t.name == NOISE.name for t in s.types)]


@lru_cache(maxsize=None)
def basis_positions():
    """Map each symbol's canonical key to its index in full_basis()."""
    return {g.canonical_key(): i for i, g in enumerate(full_basis())}


def basis_index(s: XGraph) -> int:
    return basis_positions()[s.canonicalize()[0].canonical_key()]


def covariant_words():
    """The 14 triple covariant derivative words plus the single derivative.

    Words are nested tuples over the atoms 'a1','a2','b1','b2':
    ('nabla', X, Y).  The two a-atoms and the two b-atoms get paired.
    """
    N = lambda x, y: ("nabla", x, y)
    words = [
        N("a1", N("b1", N("b2", "a2"))),
        N("b1", N("b2", N("a1", "a2"))),
        N("b1", N(N("b2", "a1"), "a2")),
        N(N("b1", "a1"), N("b2", "a2")),
        N(N("a1", "b1"), N("b2", "a2")),
        N(N("b1", "b2"), N("a1", "a2")),
        N(N("b1", N("b2", "a1")), "a2"),
        N(N("b1", N("a1", "a2")), "b2"),
        N(N(N("b1", "a1"), "a2"), "b2"),
        N(N(N("b1", "a1"), "b2"), "a2"),
        N("a1", N(N("b1", "a2"), "b2")),
        N(N("a1", N("b1", "a2")), "b2"),
        N(N(N("a1", "a2"), "b1"), "b2"),
        N("b1", N(N("a1", "a2"), "b2")),
    ]
    return words


@lru_cache(maxsize=None)
def covariant_symbols():
    """The 15 covariant-derivative vectors in the paired-symbol basis."""
    from .morphisms import expand_word

    words = covariant_words() + [("nabla", "a1", "a2")]
    return tuple(expand_word(w) for w in words)
