"""The SPDE generator set and the paired-symbol basis.

Symbols are rooted trees over a noise generator (one output, no native
inputs) and a Christoffel generator (one output, two symmetric native
inputs): every vertex's output is used exactly once, the root output feeds
``up:1``, every Christoffel vertex has both native slots filled, and the
noise vertices carry a perfect pairing.  With two noises there are 2 classes,
with four there are 52, for a total basis of 54.

The trees are generated by the algebra's own covariant derivative: the trees
with n noises are the terms of ``nabla`` applied to the trees with k and
n - k noises, over all splits k, so a tree has one representation, its
canonical graph.

Labelled noise types ``Xi1, Xi2, ...`` tell noises apart: ``iota_expand``
labels the pairs of a symbol, and ``forget_labels`` maps labelled graphs back
to paired symbols.  The covariant vectors written with them are in
``morphisms``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .algebra import LinComb, generator
from .graphs import GeneratorType, PairingError, XGraph

NOISE = GeneratorType("Xi", 0, 1)
GAMMA = GeneratorType("Gamma", 2, 1, symmetric_in=True)
DIFF = GeneratorType("h", 0, 1)
GPAIR = GeneratorType("g", 0, 2, symmetric_out=True)

GENERATORS = {t.name: t for t in (NOISE, GAMMA, DIFF, GPAIR)}


@lru_cache(maxsize=None)
def labeled_noise(i):
    """A distinguishable noise type; used for labellings and pair-building."""
    return GeneratorType(f"Xi{i}", 0, 1)


# -- tree enumeration --------------------------------------------------------

@lru_cache(maxsize=None)
def _trees(n):
    """Every tree with n noises, each with coefficient 1.

    A single noise for n = 1; for n > 1 the terms of
    ``sum_k nabla(_trees(k), _trees(n - k))`` over k = 1..n-1.  This is
    every tree: one whose root has a star child is a term of the graft of
    that child's subtree onto the rest, one with a Christoffel root and no
    star child is the Christoffel term of its two native subtrees, and a
    single noise is the only other tree.  No term cancels: with all inputs
    at coefficient 1, graft terms get coefficients c * d and Christoffel
    terms c * d / 2, all positive.
    """
    if n == 1:
        return generator(NOISE)
    from .morphisms import nabla

    trees = {}
    for k in range(1, n):
        trees.update(dict.fromkeys(nabla(_trees(k), _trees(n - k)).terms))
    return LinComb((t, 1) for t in trees)


def _pairings(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, other in enumerate(rest):
        for tail in _pairings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + tail


def enumerate_basis(n):
    """All canonical paired symbols with n noises, in sorted canonical order."""
    if n not in (2, 4):
        raise ValueError(f"paired symbols need n in {{2, 4}}, got {n}")
    seen = {}
    for g in _trees(n).terms:
        noises = [v for v, t in enumerate(g.types) if t.name == NOISE.name]
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
